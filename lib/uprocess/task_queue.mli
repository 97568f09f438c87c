(** FIFO thread queues.

    The runtime keeps one per core ("per-core FIFO queues to track the
    threads running on each core", section 4.5) plus one global best-effort
    queue. Supports O(1) push/pop. Also records each thread's enqueue
    time so queueing delay — the scheduler's primary overload metric —
    falls out for free. *)

type t

val create : ?id:int -> unit -> t
(** [id] (default: none) makes every push/pop emit a probe instant
    tagged with this queue id — the invariant checker's view of queue
    discipline. Ids must be derived from program structure (core index,
    ...) so probed runs stay deterministic at any [-j]. *)

val push : t -> Uthread.t -> now:Vessel_engine.Time.t -> unit
(** Append. Raises if the thread is already in this queue. *)

val push_front : t -> Uthread.t -> now:Vessel_engine.Time.t -> unit
(** Prepend — used for directed scheduling commands that must run next. *)

val pop :
  t -> now:Vessel_engine.Time.t -> (Uthread.t * Vessel_engine.Time.t) option
(** Oldest thread and the time it was enqueued; [now] stamps the pop's
    probe instant. *)

val mem : t -> Uthread.t -> bool

val length : t -> int

val head_delay : t -> now:Vessel_engine.Time.t -> Vessel_engine.Time.t
(** Queueing delay of the oldest entry; 0 when empty. *)
