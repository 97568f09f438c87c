(** Signal handling (section 4.3).

    The scheduler communicates with cores through per-core lock-free FIFO
    command queues: it pushes a command describing the scheduling action,
    then (for preemption) sends a Uintr to the victim core, whose handler
    enters the runtime and drains its queue. Kernel-initiated fault
    signals reuse the same queues but without Uintrs: the fault is
    broadcast to every core running the faulty uProcess and is acted on
    the next time each core enters privileged mode. *)

type command =
  | Run_thread of int  (** tid: switch this core to the given thread *)
  | Preempt_to_be  (** park the current thread, take best-effort work *)
  | Kill_uprocess of int  (** slot: terminate the uProcess *)
  | Kill_thread of int
      (** tid: terminate one thread (section 5.3's sigqueue-with-tid) *)
  | Fault of { slot : int; reason : string }
      (** a kernel fault attributed to the uProcess in [slot] *)

type t

val create : ncores:int -> t

val push : t -> core:int -> command -> unit

val drain : t -> core:int -> command list
(** All queued commands, FIFO order; the queue is left empty. *)

val pending : t -> core:int -> int

val broadcast_fault :
  t -> cores:int list -> slot:int -> reason:string -> unit
(** Push a [Fault] command to each listed core (the cores currently
    running threads of the faulty uProcess). *)
