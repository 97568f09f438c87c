(** Incremental core-state index: idle/BE-running bitsets and per-core
    queue lengths with a maintained minimum, updated at the existing
    Exec/Runtime state transitions so scheduler queries are O(1) de
    Bruijn bit scans instead of O(cores) walks.

    Tie-breaking is decision-identical to the walks it replaces: lowest
    core id for idle/BE placement, highest core id among the
    minimum-length cores for the shortest queue (the legacy [downto 0]
    strict-< loop), verified by the qcheck differential test. *)

(** Generic bitset over 32-bit words (used by Baseline's core-ownership
    sets). Indices must be within the size given to [create]. *)
module Bitset : sig
  type t = int array

  val create : int -> t
  val set : t -> int -> unit
  val clear : t -> int -> unit

  val first : t -> int
  (** Lowest set bit, or -1. *)

  val first_and : t -> t -> int
  (** Lowest bit set in both (arrays of equal length), or -1. *)

  val next : t -> from:int -> int
  (** Lowest set bit >= [from], or -1. *)
end

type t

val create : ncores:int -> t

(** {2 Occupancy bits — maintained by Exec at core-state writes} *)

val set_idle : t -> int -> bool -> unit
val set_be : t -> int -> bool -> unit

val first_idle : t -> int
(** Lowest idle core, or -1. *)

val first_be : t -> int
(** Lowest core running a best-effort thread, or -1. *)

val idle_bits : t -> Bitset.t
(** The idle bitset itself, for intersection queries (do not mutate). *)

(** {2 Queue-length accounting — fed by Runtime at queue mutations} *)

val sync_len : t -> int -> int -> unit
(** [sync_len t core l]: core's live queue length is now [l]. O(1). *)

val shortest : t -> int
(** Highest core id among the cores at minimum queue length. *)

val next_nonempty : t -> from:int -> int
(** Lowest core >= [from] with a nonempty queue, or -1. *)

(** {2 Per-app parked-worker set}

    Spawn-ordered slots; bits flip in [Uthread.set_state], so membership
    is exactly "state = Parked". [highest] is the first Parked thread of
    the newest-first worker list the legacy walks used. *)
module Pset : sig
  type t

  val create : unit -> t

  val register : t -> int
  (** Allocate the next spawn-ordered slot. *)

  val set : t -> int -> bool -> unit
  val highest : t -> int
end
