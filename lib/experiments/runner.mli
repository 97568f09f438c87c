(** Shared machinery for the figure/table reproductions.

    Builds a (machine, scheduler system) pair by name, runs the canonical
    colocation scenario (one latency-critical server app, optionally one
    best-effort app) at a given offered load, and returns the measurements
    every figure draws from: L-app throughput and latency percentiles,
    B-app completed work, and the per-category CPU accounting.

    Scale note: the paper's testbed sweeps a 32-hyperthread server for
    seconds per point; the reproduction defaults to 8 worker cores and a
    120 ms run (20 ms warmup) per point so a full figure regenerates in
    seconds. Shapes are preserved; see EXPERIMENTS.md. *)

val set_domains : int -> unit
(** Process-wide default worker-domain count for [sweep] (the CLI's
    [-j]). Clamped to at least 1; [1] runs every sweep sequentially in
    the calling domain, reproducing the single-threaded output exactly. *)

val domains : unit -> int
(** The current default worker-domain count. *)

val sweep : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Run one independent simulation per point across worker domains
    (default [domains ()]) and return results in input order. Because
    every point builds its own simulation from an explicit seed, the
    result is bit-identical at any [?domains]. *)

val sweep_points : ?domains:int -> (unit -> 'a) list -> 'a list
(** [sweep] over a list of ready-made jobs. *)

type sched_kind =
  | Vessel
  | Caladan
  | Caladan_dr_l
  | Caladan_dr_h
  | Arachne
  | Linux_cfs

val sched_name : sched_kind -> string
val all_systems : sched_kind list

type built = {
  machine : Vessel_hw.Machine.t;
  sim : Vessel_engine.Sim.t;
  sys : Vessel_sched.Sched_intf.system;
  vessel : Vessel_sched.Vessel.t option;
  baseline : Vessel_sched.Baseline.t option;
}

val build :
  ?seed:int ->
  ?sim:Vessel_engine.Sim.t ->
  ?cost:Vessel_hw.Cost_model.t ->
  ?vessel_params:Vessel_sched.Vessel.params ->
  ?profile_tweak:(Vessel_sched.Baseline.profile -> Vessel_sched.Baseline.profile) ->
  cores:int ->
  sched_kind ->
  built
(** [sim] supplies an existing simulation to build the machine into —
    the fleet uses this to place one machine on each member of a
    {!Vessel_cluster.Cluster.t}; [seed] is ignored when [sim] is given. *)

type l_app = Memcached | Silo

val l_app_name : l_app -> string

type measurement = {
  sched : sched_kind;
  offered_rps : float;
  achieved_rps : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  b_completed_ns : int;  (** best-effort work inside the window *)
  app_cores : float;  (** cores' worth spent in application logic *)
  runtime_cores : float;
  kernel_cores : float;
  idle_cores : float;
  window_ns : int;
}

val run_colocation :
  ?seed:int ->
  ?cores:int ->
  ?l_workers:int ->
  ?b_workers:int ->
  ?warmup:int ->
  ?duration:int ->
  ?with_b_app:bool ->
  sched:sched_kind ->
  l_app:l_app ->
  rate_rps:float ->
  unit ->
  measurement
(** The Figure 1/9 scenario. Defaults: 8 cores, L workers = cores, B
    workers = cores, 20 ms warmup, 100 ms measured window. *)

val l_alone_capacity :
  ?seed:int -> ?cores:int -> ?l_workers:int -> sched:sched_kind -> l_app:l_app ->
  unit -> float
(** T_max of the L-app running alone: its throughput under heavy
    overload (requests never starve the workers). *)

val b_alone_capacity : ?seed:int -> ?cores:int -> ?b_workers:int ->
  sched:sched_kind -> unit -> float
(** T_max of Linpack alone: completed compute ns per wall ns (~ the core
    count). *)

val normalized_total :
  m:measurement -> l_max_rps:float -> b_max_ns_per_ns:float -> float
(** The paper's total normalized throughput (footnote 1). *)
