(** VESSEL: the one-level userspace core scheduler (section 4.5).

    The local half of the policy lives in the uProcess runtime (pop your
    core's FIFO, else take global best-effort work, else idle); this
    module is the global half: a scheduler loop that maintains the
    domain-wide view, detects overloaded cores by queueing delay,
    redistributes queued threads to underloaded cores, and preempts
    best-effort threads — in userspace, through Uintrs — the moment a
    latency-critical thread needs the core. *)

type params = {
  scan_interval : int;  (** scheduler pass period, ns *)
  overload_delay : int;  (** head-of-queue delay marking a core overloaded, ns *)
  be_preempt_delay : int;
      (** queueing delay behind a best-effort thread that triggers an
          immediate Uintr preemption, ns *)
  rotation_quantum : int;
      (** minimum residency before an overloaded core rotates its running
          latency-critical thread to un-block queued peers, ns *)
  eager_preempt : bool;
      (** react to each wakeup immediately (the scheduler keeps up with
          the event rate); a saturated scheduler — more cores than one
          domain handles, Figure 12 — falls back to scan-granularity
          reactions *)
}

val default_params : params

type t

val make :
  ?params:params -> ?slots:int -> machine:Vessel_hw.Machine.t -> unit -> t
(** One domain managing every core of [machine]. Raises
    [Invalid_argument] if [params] has a negative [be_preempt_delay] or
    [overload_delay]: the scan relies on an empty queue (delay 0) never
    triggering either. *)

val runtime : t -> Vessel_uprocess.Runtime.t

val system : t -> Sched_intf.system
(** The generic face. [add_app] creates a uProcess (with a synthetic clean
    PIE image); [add_worker] spawns a thread placed round-robin;
    [notify_app] wakes a parked worker on the least-loaded core. *)

val preempts_sent : t -> int
(** Number of Uintr preemptions issued by the scheduler loop. *)
