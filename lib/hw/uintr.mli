(** User interrupts (Uintr), after Intel's SDM description in section 2.2.

    A receiver owns a User Posted Interrupt Descriptor (UPID): a 64-bit
    posted-interrupt request (PIR) bitmap plus notification state (whether
    the receiver is currently running on a core, and a suppress bit). A
    sender owns a User Interrupt Target Table (UITT): entries pairing a
    UPID reference with a vector. [senduipi index] posts the entry's vector
    into the UPID's PIR; if the receiver is running, the fabric fires the
    [notify] callback so the embedding simulation can model delivery
    latency and invoke the handler; if not, delivery is deferred until the
    receiver next becomes active ({!set_running}), exactly as the hardware
    defers to the next ring-3 resumption. *)

type vector = int
(** 0..63. *)

type receiver

type uitt
(** One sender's table. *)

type t
(** The fabric: all receivers plus the notification hook. *)

val create : notify:(receiver -> unit) -> t
(** [notify r] is called when a posted interrupt should be delivered now
    (receiver running, notifications enabled). The embedder typically
    schedules handler entry after [Cost_model.uintr_delivery]. *)

val register_receiver : t -> id:int -> receiver
(** Models the uintr_register_handler() syscall. [id] is caller-chosen
    (e.g. the core or thread id) and recoverable via {!receiver_id}. *)

val receiver_id : receiver -> int

val create_uitt : t -> size:int -> uitt

val uitt_set : uitt -> index:int -> receiver -> vector:vector -> unit
(** Fill a UITT entry. Raises on out-of-range index or vector. *)

val senduipi : t -> uitt -> index:int -> [ `Notified | `Deferred ]
(** Post the interrupt. [`Notified] means the notify callback fired;
    [`Deferred] means the receiver was not running (or suppressed) and the
    vector sits in the PIR. *)

val set_running : t -> receiver -> bool -> unit
(** Transition the receiver on/off CPU. Turning it on with a non-empty PIR
    fires [notify] (the deferred-delivery path). *)

val set_suppressed : t -> receiver -> bool -> unit
(** The SN bit: when set, senduipi posts but never notifies. Clearing it
    with a non-empty PIR notifies if running. *)

val deliverable : receiver -> bool
(** The receiver would accept a notification right now: running, not
    suppressed, and with a non-empty PIR. Delayed or retried deliveries
    (fault injection) re-validate with this before dispatching. *)

val take_pending : receiver -> vector list
(** Atomically read-and-clear the PIR, lowest vector first. The embedder
    calls this from its delivery event and runs the handler for each
    vector. *)

val has_pending : receiver -> bool
