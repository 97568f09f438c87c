(** A set-associative LRU cache model.

    Used by the Figure-11 cache-friendliness experiment: two applications
    time-sharing one core either thrash each other's lines (separate
    address spaces whose hot pages collide in the physically-indexed
    cache) or coexist (a single SMAS laying their regions out disjointly).
    The model is deliberately simple — tags + true LRU — because the
    experiment only needs relative miss rates. *)

type t

val create : ?line:int -> ?assoc:int -> ?capacity:int -> unit -> t
(** Defaults: 64-byte lines, 16-way, 2 MiB (one slice's worth of LLC).
    [capacity] must be a multiple of [line * assoc]. *)

val access : t -> int -> [ `Hit | `Miss ]
(** Touch the line containing byte address [addr]; updates LRU and
    counters. A miss fills the set's first invalid way, else evicts its
    first least-recently used way. Raises [Invalid_argument] if
    [addr < 0]. *)

val access_run : t -> ?word_accesses:int -> addr:int -> len:int -> unit -> unit
(** Touch every line overlapping [addr, addr+len), in address order,
    exactly as one {!access} per line would. [word_accesses] is how
    many word-granularity accesses each line touch stands for (default 1):
    the first can miss, the rest are counted as hits — the right model for
    a copy loop that reads/writes every word of a freshly fetched line.
    [len <= 0] touches nothing. Raises [Invalid_argument] if [addr < 0],
    before touching anything. Allocates nothing. *)

val flush : t -> unit
(** Invalidate everything (e.g. modeling a full working-set wipe). *)

val accesses : t -> int
val misses : t -> int
val miss_rate : t -> float
val reset_counters : t -> unit

val capacity : t -> int
