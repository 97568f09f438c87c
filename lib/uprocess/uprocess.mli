(** The uProcess itself: an application instance inside a scheduling
    domain's SMAS (section 3.1, 5.3).

    Carries the slot (which determines the protection key and regions),
    the loaded image, the PKRU image its threads run with, and its thread
    set. Life cycle: [Booting] (kProcess forked, polling for init) ->
    [Running] -> [Killed]. *)

type state = Booting | Running | Killed

type t

val create :
  slot:int -> name:string -> pkru:Vessel_hw.Pkru.t -> t
(** Fresh uProcess in [Booting] state. *)

val slot : t -> int
val name : t -> string
val pkru : t -> Vessel_hw.Pkru.t

val state : t -> state
val set_state : t -> state -> unit

val set_loaded : t -> Vessel_mem.Loader.loaded -> unit
val loaded : t -> Vessel_mem.Loader.loaded option

val add_thread : t -> Uthread.t -> unit
val threads : t -> Uthread.t list
(** In creation order. *)

val live_threads : t -> int
(** Threads not [Exited]. *)
