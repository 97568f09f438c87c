(** The open-loop load generator (section 6.1).

    Clients on separate machines issue requests following a Poisson
    arrival process; the network is outside the measured system, so
    arrivals inject directly into the app's request queue and nudge the
    scheduler ([notify_app]). Each request's sojourn time — arrival to
    completion, including all queueing and switching — is what the paper's
    latency figures plot.

    Measurement windowing: latencies and throughput are recorded only for
    requests arriving at or after [warmup] (set via {!open_window}), so
    start-up transients don't pollute the numbers. *)

(** The bare Poisson arrival chain, reusable by other client models (the
    fleet load balancer drives one per frontend). The chain {e borrows}
    the caller's RNG stream — gap draws interleave with whatever else the
    caller draws, exactly as the integrated generator below does — and
    fires a callback at each arrival instant via the closure-free tagged
    event path. Register-order warning: [create] registers a dispatch
    tag, so call it at component-setup time only. *)
module Arrivals : sig
  type t

  val create :
    sim:Vessel_engine.Sim.t ->
    rng:Vessel_engine.Rng.t ->
    fire:(now:Vessel_engine.Time.t -> unit) ->
    t

  val start : t -> rate_rps:float -> until:Vessel_engine.Time.t -> unit
  (** Begin Poisson arrivals at [rate_rps] until the given simulated
      time; callable again to change the rate (stale chains die). *)
end

type t

val create :
  sim:Vessel_engine.Sim.t ->
  sys:Vessel_sched.Sched_intf.system ->
  app_id:int ->
  service:Vessel_engine.Dist.t ->
  t
(** The generator draws from its own RNG stream split off the sim root. *)

val worker_step :
  t -> now:Vessel_engine.Time.t -> Vessel_uprocess.Uthread.action
(** The server loop: pop a request and serve it for a sampled service
    time, else park. Pass to [add_worker] (several workers may share the
    queue). *)

val worker_step_mem :
  t ->
  bytes_per_req:int ->
  now:Vessel_engine.Time.t ->
  Vessel_uprocess.Uthread.action
(** Like {!worker_step} but each request's service is memory-bound: it
    moves [bytes_per_req] through the memory controller, so contention
    from a memory-intensive co-runner inflates the service time (the
    Figure 13a scenario). *)

val set_ingress : t -> (now:Vessel_engine.Time.t -> int) -> unit
(** Install a datapath delay: each arriving request is held for the
    returned number of ns before it becomes visible to workers (and the
    scheduler is nudged). Models a control-plane entity — e.g. Caladan's
    IOKernel — that every request passes through; the held time counts
    toward the request's measured latency. *)

val start : t -> rate_rps:float -> until:Vessel_engine.Time.t -> unit
(** Begin Poisson arrivals at [rate_rps] requests/second until the given
    simulated time. May be called again to change the rate. *)

val start_bursty :
  t ->
  base_rps:float ->
  burst_rps:float ->
  burst_len:Vessel_engine.Time.t ->
  period:Vessel_engine.Time.t ->
  until:Vessel_engine.Time.t ->
  unit
(** Markov-modulated arrivals, the paper's "bursty arrival pattern that
    jitters ... over us-scale short intervals" (section 1): Poisson at
    [base_rps], spiking to [burst_rps] for [burst_len] at the start of
    every [period]. *)

val open_window : t -> at:Vessel_engine.Time.t -> unit
(** Start measuring from simulated time [at] (default: from 0). *)

val offered : t -> int
(** Requests injected inside the window. *)

val served : t -> int
(** Requests completed whose arrival fell inside the window. *)

val latencies : t -> Vessel_stats.Histogram.t

val throughput_rps : t -> now:Vessel_engine.Time.t -> float
(** served / window span. *)
