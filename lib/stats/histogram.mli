(** HDR-style latency histogram.

    Values (non-negative integers, here nanoseconds) are bucketed with
    bounded relative error: each power-of-two magnitude range is split into
    [2^precision] linear sub-buckets, so quantile estimates are accurate to
    about [2^-precision] relative error (default 1/64, ~1.6%) regardless of
    the value's magnitude. Recording is O(1); memory is a few KB. *)

type t

val create : ?precision:int -> unit -> t
(** [precision] is the number of sub-bucket bits per magnitude (default 6). *)

val record : t -> int -> unit
(** Record one value. Negative values raise [Invalid_argument]. *)

val record_n : t -> int -> n:int -> unit
(** Record the same value [n] times (O(1)). *)

val count : t -> int

val min : t -> int
(** Smallest recorded value (bucket lower bound). 0 when empty. *)

val max : t -> int
(** Representative of the largest bucket touched. 0 when empty. *)

val mean : t -> float
(** Exact mean of recorded values (tracked outside the buckets). *)

val percentile : t -> float -> int
(** [percentile t 99.9] is the value at the given percentile (0 < p <= 100).
    Returns 0 when empty. *)

val merge : into:t -> t -> unit
(** Add all of the second histogram's counts into [into]. Precisions must
    match. *)

val clear : t -> unit
