(** Online runtime invariant checking over the probe stream.

    A checker is an {!Vessel_obs.Sink.t}: install it with
    [Probe.with_sink (Checker.sink c)] around a run and it validates, as
    events arrive, the properties every figure silently assumes:

    - {b lost-wakeup} — every [uintr.send] is matched by a
      [uintr.handle] (delivery) or a [uintr.ack] (posted bit drained at
      a privileged entry) within [wakeup_bound] ns;
    - {b gap} — no runnable latency-critical thread goes unscheduled for
      more than [gap_bound] ns, measured from enqueue to the dispatch
      stamp (a queue pop alone does not clear it: the thread must
      actually reach a core). The exact gap is checked at each dispatch;
      threads never dispatched age out in the scan;
    - {b fifo} — each probed task queue pops in FIFO order, modulo
      [push_front] (the checker mirrors the queue discipline from
      push/pop events alone);
    - {b pkru} — at every call-gate crossing the core's PKRU equals the
      image the crossing installed, and the image restored on leave is
      the one the last dispatch published for that core;
    - {b conservation} — at {!finalize}, every core's accounted cycles
      (busy + idle + switch) equal elapsed time within
      [conservation_tol];
    - {b causality} — in cluster runs (one checker per machine), every
      epoch advances the machine at most the cluster lookahead past the
      last barrier, and every cross-machine message is delivered
      strictly after the machine's executed horizon with a latency of at
      least the lookahead.

    All state is per-checker; verdicts are deterministic functions of the
    event stream, which is itself deterministic given the run's seed. *)

type config = {
  wakeup_bound : int;
  gap_bound : int;  (** enqueue -> dispatch, ns (the execution-gap bound) *)
  conservation_tol : float;
  max_violations : int;  (** details kept; the total is always counted *)
}

val default_config : config

type violation = { at : int; invariant : string; detail : string }

type t

val create : ?config:config -> unit -> t

val sink : t -> Vessel_obs.Sink.t
(** The checker as an event sink. One checker per run. *)

val handle : t -> Vessel_obs.Event.t -> unit
(** Feed one event directly (unit tests). *)

val finalize : ?machine:Vessel_hw.Machine.t -> elapsed:int -> t -> unit
(** End-of-run checks: age out still-pending sends and ready threads
    against the horizon, and — when [machine] is given — verify cycle
    conservation per core. Call after the system has been stopped. *)

val violations : t -> violation list
(** In detection order, capped at [max_violations]. *)

val total_violations : t -> int
val clean : t -> bool
val events_seen : t -> int
val pp_violation : Format.formatter -> violation -> unit
