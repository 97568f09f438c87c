(** Deterministic pseudo-random number generation.

    A splitmix64 generator: tiny state, excellent statistical quality for
    simulation purposes, and — crucially for this repository — fully
    deterministic and splittable, so every experiment replays bit-for-bit
    from its seed and independent subsystems can draw from independent
    streams without interfering. *)

type t

val create : seed:int -> t
(** A fresh generator. Two generators with the same seed produce the same
    stream. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each core / workload / scheduler its own stream so that
    adding draws in one subsystem does not perturb another. *)

val copy : t -> t
(** A snapshot sharing no state with the original. *)

val bits : t -> int
(** 62 uniform non-negative bits (fits OCaml's [int]). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
