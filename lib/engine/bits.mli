(** Branch-free bit scans over 32-bit chunks: de Bruijn ctz/msb, shared
    by the timing wheel, the scheduler core-state index and
    Histogram.index. *)

val ctz32 : int -> int
(** [ctz32 x] is the index of the lowest set bit of [x]. [x] must be
    nonzero and must not have bits above 31. *)

val msb32 : int -> int
(** [msb32 x] is the index of the highest set bit of [x], for
    [x] in [1, 2^32). *)

val msb : int -> int
(** [msb x] is the index of the highest set bit of any positive OCaml
    int (result in [0, 62]). Branchless: a half-select between the two
    32-bit chunks feeding {!msb32}. *)
