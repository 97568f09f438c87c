(** Virtual address arithmetic helpers. Addresses are plain ints (byte
    offsets in the simulated 48-bit canonical space). *)

type t = int

val align_up : t -> int -> t
(** [align_up a n] rounds up to a multiple of [n] ([n] a power of two). *)

val align_down : t -> int -> t

val is_aligned : t -> int -> bool

val pp : Format.formatter -> t -> unit
(** Hex rendering. *)

val mib : int -> int
