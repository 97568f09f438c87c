(** User-level threads: "a collection of states and a CPU core operating on
    these states" (section 5.2.2).

    A thread's behaviour is a pull-based program emitting {!action}
    segments. The executor runs one segment at a time; an interrupt
    mid-segment splits it, the unexecuted remainder being saved in the
    thread (the simulation's register/PC context). The same thread model
    serves uProcess threads under VESSEL and ordinary kernel threads under
    the baseline schedulers — only the switching costs differ. *)

type completion = Vessel_engine.Time.t -> unit
(** Invoked at the simulated instant the segment finishes. *)

type action =
  | Compute of { ns : int; on_complete : completion option }
      (** Pure CPU burn. *)
  | Mem_work of {
      ns : int;  (** base duration at uncontended bandwidth *)
      bytes : int;  (** traffic charged to the memory controller *)
      footprint : (int * int) option;  (** (base, len) touched in the LLC *)
      on_complete : completion option;
    }
  | Park  (** Yield the core until re-readied. *)
  | Syscall of { ns : int; on_complete : completion option }
      (** Kernel-serviced time (redirected to the runtime under VESSEL). *)
  | Runtime_work of { ns : int; on_complete : completion option }
      (** Scheduler/runtime busy time executed in thread context — e.g. a
          Caladan core spinning in the steal loop. Charged to the
          executor's overhead category, never to the app. *)
  | Exit

type priority = Latency_critical | Best_effort

type state =
  | Ready  (** runnable, waiting in some queue *)
  | Running of int  (** on the given core *)
  | Parked
  | Exited

type t

val create :
  tid:int ->
  app:int ->
  uproc:int ->
  ?name:string ->
  priority:priority ->
  step:(now:Vessel_engine.Time.t -> action) ->
  unit ->
  t
(** [step] is called each time the executor needs the next segment (unless
    a preempted remainder is pending). *)

val tid : t -> int
val app : t -> int
val uproc : t -> int
val name : t -> string
val priority : t -> priority

val state : t -> state

val set_state : t -> state -> unit
(** The single state chokepoint: also maintains the thread's bit in a
    registered parked-worker set (see {!track_parked}). *)

val track_parked : t -> Core_index.Pset.t -> slot:int -> unit
(** Register this thread's membership slot in an app's parked-worker
    set. From now on [set_state] keeps bit [slot] equal to
    "state = Parked" (seeded from the current state). *)

val mark_killed : t -> unit
(** Sticky termination mark, independent of the scheduling state (which
    the executor rewrites on preemption): the runtime reaps a marked
    thread at its next privileged-mode entry. *)

val is_killed : t -> bool

val ctx : t -> Vessel_obs.Request.t
(** The request this thread is currently serving ([Request.none] when
    idle/parked). Bound by {!next_action} from the per-domain stash when
    a fresh segment starts; cleared by the executor at completion. *)

val set_ctx : t -> Vessel_obs.Request.t -> unit

val next_action : t -> now:Vessel_engine.Time.t -> action
(** The pending remainder if the thread was preempted mid-segment,
    otherwise a fresh segment from [step]. *)

val save_remainder : t -> action -> executed:int -> unit
(** Store the unexecuted tail of an in-flight segment ([executed] ns of it
    already ran). Storing a remainder of a [Park]/[Exit] action raises. *)

val has_remainder : t -> bool

val discard_remainder : t -> unit
(** Drop any saved remainder (e.g. an aborted steal-loop spin). *)

val total_app_ns : t -> int
(** Cumulative charged CPU time (maintained by the executor via
    {!charge}). *)

val charge : t -> int -> unit
