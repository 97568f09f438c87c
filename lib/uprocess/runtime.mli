(** The privileged uProcess runtime of one scheduling domain (sections
    4.3-4.5, 5.2).

    Owns the per-core FIFO task queues and the global best-effort queue,
    implements the executor hooks (the local half of VESSEL's one-level
    policy: pop your FIFO, else take best-effort work, else go idle and
    tell the scheduler), performs the Figure-6 context switch — the
    CPUID_TO_TASK_MAP update and the core's PKRU flip really happen on
    every dispatch — and handles Uintr- and kernel-initiated signals
    through the per-core command queues.

    The scheduler (the global half of the policy, in [vessel_sched]) talks
    to the runtime exclusively through the queue-inspection and
    assign/preempt calls below. *)

type t

val create :
  machine:Vessel_hw.Machine.t ->
  smas:Vessel_mem.Smas.t ->
  unit ->
  t
(** Wires the Uintr fabric (one receiver per core, the scheduler's UITT),
    the message pipe and the executor. Cores are not
    started; call {!start}. *)

val machine : t -> Vessel_hw.Machine.t
val smas : t -> Vessel_mem.Smas.t
val pipe : t -> Message_pipe.t
val exec : t -> Exec.t

val index : t -> Core_index.t
(** The runtime's incremental core-state index: idle/BE occupancy bits
    (maintained by the executor) and per-core queue lengths (maintained
    at every queue mutation), for O(1) shortest-queue placement. *)

val start : t -> unit
(** Start the execute loop on every core. *)

val stop : t -> unit

(* --- uProcess registry --- *)

val register_uprocess : t -> Uprocess.t -> unit
val uprocess : t -> slot:int -> Uprocess.t option

val unregister_uprocess : t -> slot:int -> unit
(** Forget a killed uProcess whose threads are all reaped (the manager's
    reclamation path). Raises if it is still alive or has live threads. *)

val kill_uprocess : t -> slot:int -> unit
(** Marks the uProcess killed, pushes kill commands to the cores currently
    running its threads and Uintrs them; queued threads are reaped at the
    next privileged-mode entry of their cores. *)

val kill_thread : t -> tid:int -> unit
(** Terminate one thread (section 5.3: the kernel cannot address
    userspace threads, so this is the sigqueue-with-tid path through the
    runtime). A parked or queued thread is reaped at the next privileged
    entry; a running one is Uintr-preempted. *)

val raise_fault : t -> slot:int -> reason:string -> unit
(** The section-4.3 fault path: broadcast to the uProcess's cores via the
    command queues (no Uintr — handled at the next scheduling event). *)

(* --- threads --- *)

val spawn :
  t ->
  uproc:Uprocess.t ->
  app:int ->
  priority:Uthread.priority ->
  name:string ->
  step:(now:Vessel_engine.Time.t -> Uthread.action) ->
  stack:Vessel_mem.Addr.t ->
  core:int ->
  Uthread.t
(** pthread_create under VESSEL: builds the context, registers the tid and
    enqueues on [core]'s FIFO (waking it if idle). *)

val thread : t -> tid:int -> Uthread.t option

val wake_thread : t -> Uthread.t -> core:int -> unit
(** Re-ready a [Parked] thread onto a core's FIFO (request arrival). No-op
    if the thread is not parked. *)

(* --- scheduler interface --- *)

val queue_delay : t -> core:int -> Vessel_engine.Time.t
val current_thread : t -> core:int -> Uthread.t option

val assign : t -> Uthread.t -> core:int -> unit
(** Append a Ready thread to a core's FIFO and notify the core. *)

val steal_queued : t -> core:int -> Uthread.t option
(** Remove the oldest queued thread from a core's FIFO (the scheduler's
    rebalancing pop — not a preemption). *)

val preempt_core : t -> core:int -> Signal.command list -> unit
(** The section-4.3 preemption: push the commands, then senduipi to the
    victim core; its handler drains the queue in privileged mode and the
    executor splits the running segment. *)

val switch_latencies : t -> Vessel_stats.Histogram.t
(** Every park-path context-switch latency observed — the Table 1 data.

    The Figure-6 stages ([uintr.send] scheduler -> victim, [uintr.handle]
    handler entry, [dispatch] task map updated + PKRU flipped) are emitted
    as {!Vessel_obs} instants on the victim core's track whenever a trace
    sink is live; see {!Vessel_obs.Tag}. *)

val ncores : t -> int
