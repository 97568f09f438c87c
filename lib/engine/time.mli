(** Simulated time.

    All simulated time in this repository is carried as an [int] count of
    nanoseconds since the start of the simulation. On a 64-bit platform this
    covers about 292 years of simulated time, far beyond any experiment. The
    module exists to keep unit conversions and formatting in one place. *)

type t = int
(** Nanoseconds. *)

val zero : t

val us : float -> t
(** [us x] is [x] microseconds, rounded to the nearest nanosecond. *)

val ms : float -> t
(** [ms x] is [x] milliseconds. *)

val s : float -> t
(** [s x] is [x] seconds. *)

val to_us : t -> float
val to_ms : t -> float
val to_s : t -> float

val of_cycles : ghz:float -> int -> t
(** [of_cycles ~ghz c] converts a cycle count on a [ghz] GHz core to
    nanoseconds, rounding up so a nonzero cycle count never becomes 0 ns. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns, us, ms, s). *)

val to_string : t -> string
