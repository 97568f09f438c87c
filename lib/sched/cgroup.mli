(** Linux cgroup / CFS-shares bandwidth control (Figure 13b's software
    baseline).

    CPU shares (cpu.weight) give only {e relative} priority: on an
    otherwise idle machine a low-share membench still receives nearly all
    the CPU it asks for, so its memory traffic barely drops — the paper's
    "Linux CFS uses far higher memory bandwidth than desired". A hard
    quota (cpu.max) does cap CPU time, but only at 100 ms periods: within
    a period the app bursts at full bandwidth, so short-window consumption
    wildly overshoots the target even when the long-run average complies.

    Both interfaces are provided: the shares curve as a closed form, and
    the operational quota duty-cycler (used with the executor) that
    exhibits the bursting. *)

val shares_achieved_fraction : setting:float -> contention:float -> float
(** Bandwidth fraction delivered under cpu.weight = [setting] x full when
    the machine has [contention] (0 = idle .. 1 = fully contended)
    competing load. At [contention = 0] this is ~1 regardless of the
    setting. *)

type quota
(** A cpu.max-style duty cycler: within each [period], after
    [quota x period] of execution the wrapped thread is parked until the
    period boundary. *)

val quota :
  sim:Vessel_engine.Sim.t ->
  period:int ->
  fraction:float ->
  on_refill:(unit -> unit) ->
  quota
(** [on_refill] is invoked (as a simulation event) at the period boundary
    after a throttling, so the embedder can wake the thread. *)

val wrap :
  quota ->
  (now:Vessel_engine.Time.t -> Vessel_uprocess.Uthread.action) ->
  now:Vessel_engine.Time.t ->
  Vessel_uprocess.Uthread.action
(** Enforce the quota around an inner step function: timed segments are
    clipped to the remaining budget; an exhausted budget parks the thread
    until refill. *)

val set_fraction : quota -> float -> unit
(** Retarget the duty cycle (takes effect from the next clip). Used by
    VESSEL's feedback regulator. *)

val throttled : quota -> bool
