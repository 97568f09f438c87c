(** A fleet of simulated machines under one clock.

    A cluster owns N per-machine {!Vessel_engine.Sim.t} instances — each
    with its own timing wheel and its own RNG stream — and advances them
    in lockstep {e epochs} of conservative lookahead: every machine runs
    independently to the epoch barrier, then cross-machine messages
    collected during the epoch are flushed into their destination wheels
    (see {!Net}). Because every {!Net} link's latency is at least the
    cluster's [lookahead], a message sent during an epoch can only arrive
    {e after} the barrier the epoch ran to — no machine ever needs events
    from a peer inside its own epoch, so epochs may execute one machine
    per domain on the persistent {!Vessel_engine.Pool} with byte-identical
    results at any worker count.

    Determinism: machine seeds derive from the cluster seed in machine
    order; within an epoch each machine executes sequentially on one
    domain; barriers flush links in creation order and senders in machine
    order. Nothing observable depends on domain scheduling. *)

type t

val create :
  ?seed:int ->
  ?machine_seeds:int list ->
  machines:int ->
  lookahead:Vessel_engine.Time.t ->
  unit ->
  t
(** [machines] simulations at time 0. Per-machine sim seeds are drawn
    from a root stream seeded by [seed] (default 42), or given exactly
    with [machine_seeds] (length must equal [machines] — used by the
    differential tests to make machine 0 match a plain [Sim.create]).
    [lookahead] (> 0) is the epoch stride and the minimum latency any
    {!Net} link may carry. *)

val machines : t -> int
val sim : t -> int -> Vessel_engine.Sim.t
val lookahead : t -> Vessel_engine.Time.t

val now : t -> Vessel_engine.Time.t
(** The barrier: every machine has executed exactly its events up to and
    including this time. *)

val epochs : t -> int
(** Barriers executed so far. *)

val set_scope : t -> (int -> (unit -> unit) -> unit) -> unit
(** Install a wrapper around every machine's epoch execution (and its
    inbound {!Net} delivery probes): [scope m f] must call [f ()] exactly
    once. The chaos harness uses this to give each machine its own
    {!Vessel_check.Checker} sink. When no scope is installed and the
    observability {!Vessel_obs.Collector} is active, the cluster defaults
    to one persistent collector child unit per machine, so [--trace] and
    [--metrics] are collected per machine and merge byte-identically at
    any [-j]. Call before the first {!run_until}. *)

val set_attrib : t -> Vessel_obs.Attrib.t -> unit
(** Attach a latency-attribution instance: every machine's epoch
    execution (and its inbound {!Net} delivery handlers) runs with that
    machine's lane recorder installed, so request stamps land in
    per-machine buffers with a single writer per lane. The instance
    should be created with [lanes = machines]. Call before the first
    {!run_until}. *)

val run_until : ?domains:int -> t -> Vessel_engine.Time.t -> unit
(** Advance every machine to [horizon] in epochs of at most [lookahead],
    flushing cross-machine messages at each barrier. [domains] (default
    1) fans machines across the persistent pool, one domain per machine;
    output is byte-identical at any value. *)

(**/**)

(* Wiring for {!Net} (same library) and tests — not a user API. *)

val scoped : t -> int -> (unit -> unit) -> unit
(** Run a thunk inside machine [m]'s scope (see {!set_scope}). *)

val register_flusher : t -> (until:Vessel_engine.Time.t -> unit) -> unit
(** Called by {!Net.link}: the flusher runs on the coordinating domain at
    every barrier, in link-creation order. *)
