(** The per-core PKRU register.

    32 bits: for each of the 16 keys, an access-disable bit (AD) and a
    write-disable bit (WD). A data access to a page tagged with key [k] is
    allowed iff AD(k) is clear, and a write additionally requires WD(k)
    clear. Instruction fetch is NOT checked against PKRU (hardware
    behaviour the paper's executable-only text region relies on).

    Values are immutable ints so the call gate can treat a PKRU value
    exactly as the hardware does: something loaded into eax and written by
    WRPKRU, comparable with rdpkru for the hijack re-check. *)

type t = private int

type perm = No_access | Read_only | Read_write

val all_denied : t
(** Every key AD — the state the call gate must never leave an
    unprivileged thread in. *)

val all_allowed : t
(** Every key RW — the kernel's view; also key 0 convenience. *)

val make : (Pkey.t * perm) list -> t
(** Start from {!all_denied} and grant the listed permissions. *)

val set : t -> Pkey.t -> perm -> t

val perm : t -> Pkey.t -> perm

val can_read : t -> Pkey.t -> bool
val can_write : t -> Pkey.t -> bool

val of_int : int -> t
(** Any 32-bit value is a valid PKRU image (used to model hijack attempts
    that load arbitrary eax values). Bits above 31 are masked off. *)

val to_int : t -> int

val equal : t -> t -> bool
