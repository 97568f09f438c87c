(** CPU time accounting by category.

    Figures 1b and 2 of the paper break each core's time into cycles spent
    running application logic vs. runtime vs. kernel vs. idle. Every core in
    the simulation charges its elapsed time to one of these categories; the
    harness then reports the per-category totals in "cores' worth" (total
    time in category / wall-clock duration). *)

type category =
  | App of int  (** application logic, tagged with an app id *)
  | Runtime  (** userspace scheduler/runtime work incl. context switches *)
  | Kernel  (** time inside the (simulated) kernel: traps, IPIs, syscalls *)
  | Idle  (** core parked / UMWAIT *)

type t

val create : unit -> t

val charge : t -> category -> Vessel_engine.Time.t -> unit
(** Add [d] ns to the category. Negative durations raise. *)

val total : t -> category -> Vessel_engine.Time.t
(** Total charged to exactly this category. *)

val app_total : t -> Vessel_engine.Time.t
(** Sum across all [App _] categories. *)

val app_ids : t -> int list
(** Sorted app ids that received any charge. *)

val grand_total : t -> Vessel_engine.Time.t

val cores_worth :
  t -> category -> wall:Vessel_engine.Time.t -> float
(** [total t c / wall] — the "number of CPU cores" the paper plots. *)

val merge : into:t -> t -> unit

val pp : Format.formatter -> t -> unit
