(** Fault-injection sweep harness.

    Runs figure-class scenarios under a {!Fault.profile} with a
    {!Checker} attached, one simulation per (seed, profile, scenario)
    point, fanned across domains with {!Vessel_experiments.Runner.sweep}
    — verdicts and traces are byte-identical at any [-j]. *)

type scenario =
  | Fig1_class  (** Caladan colocation: memcached + linpack, kernel IPIs *)
  | Fig9_class  (** VESSEL colocation: memcached + linpack, Uintr *)
  | Gate  (** direct call-gate crossings under WRPKRU jitter *)
  | Fleet_class
      (** a frontend load-balancing over VESSEL backend machines in a
          {!Vessel_cluster.Cluster}, faults on every backend, one checker
          per machine (causality + all per-machine invariants); the
          verdict merges all machines *)
  | Gaps
      (** schedgaps colocation under VESSEL: sleep-then-spin
          {!Vessel_workloads.Gaptracer} threads against bursty memcached
          and a never-parking linpack — the execution-gap invariant's
          home scenario *)

val all_scenarios : scenario list
val scenario_name : scenario -> string

type verdict = {
  seed : int;
  profile : Fault.profile;
  scenario : scenario;
  faults : int;  (** faults that fired, deterministic per seed *)
  events : int;  (** probe events the checker saw *)
  total_violations : int;
  violations : Checker.violation list;
}

val run_one :
  ?vessel_params:Vessel_sched.Vessel.params ->
  ?config:Checker.config ->
  seed:int ->
  profile:Fault.profile ->
  scenario:scenario ->
  unit ->
  verdict
(** One scenario under one profile. [vessel_params] deliberately weakens
    the VESSEL scheduler in regression tests (Fig9-class and Gaps
    scenarios only). *)

val run_sweep :
  ?vessel_params:Vessel_sched.Vessel.params ->
  ?config:Checker.config ->
  ?domains:int ->
  seeds:int list ->
  profiles:Fault.profile list ->
  scenarios:scenario list ->
  unit ->
  verdict list
(** The cartesian sweep, in deterministic point order. *)

val pp_verdict : Format.formatter -> verdict -> unit

val print_report : ?out:Format.formatter -> verdict list -> int
(** Verdict lines, a [vessel-sim check] repro command per violating run,
    and a summary line. Returns the number of violating runs. *)
