(** A jemalloc-style size-class allocator over one uProcess data region.

    The paper replaces glibc's allocator (whose heap layout assumes it owns
    the whole address space) with jemalloc re-plumbed to draw from the
    uProcess region (section 5.2.3). This model keeps the behaviours that
    matter here: size-class rounding (jemalloc's quantum-spaced classes),
    segregated per-class free lists with exact reuse, alignment support for
    stacks, and hard failure when the region is exhausted. *)

type t

val create : ?reserve:int -> Region.t -> t
(** [reserve] bytes at the start of the region are kept out of the heap
    (the loader parks the program image there). Default 0. *)

val malloc : t -> int -> (Addr.t, [ `Out_of_memory ]) result
(** Returns an address inside the region. Size must be positive. *)

val malloc_aligned : t -> int -> align:int -> (Addr.t, [ `Out_of_memory ]) result
(** Alignment must be a power of two. *)

val free : t -> Addr.t -> unit
(** Raises [Invalid_argument] on unknown or already-freed addresses. *)

val usable_size : t -> Addr.t -> int
(** The size-class size backing a live allocation. *)

val size_class : int -> int
(** The class a request of this size rounds to (exposed for tests). *)

val live_bytes : t -> int
(** Sum of size classes of live allocations. *)

val capacity : t -> int
(** Usable bytes (region length minus reserve). *)

val high_water : t -> Addr.t
(** One past the highest address ever allocated (the prefix a clone must
    copy to capture the heap). *)

val region : t -> Region.t
