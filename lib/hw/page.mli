(** Pages and page-level permissions.

    Each page-table entry carries conventional R/W/X permission bits plus
    the 4-bit MPK tag. MPK supplements the permission bits: a data access
    must pass both the page bits and the accessing core's PKRU (section
    4.1: "both permissions will be checked during memory access"). *)

val size : int
(** 4096 bytes. *)

val number_of_addr : int -> int
(** Page number containing a byte address. *)

val base_of_number : int -> int

type prot = { read : bool; write : bool; exec : bool }

val prot_none : prot
val prot_r : prot
val prot_rw : prot
val prot_x : prot
(** Executable-only: the text-region setting. *)

type entry = { prot : prot; pkey : Pkey.t }

type access = Read | Write | Fetch

type fault =
  | Not_mapped
  | Page_protection of access
  | Mpk_violation of { key : Pkey.t; access : access }

val check : entry -> pkru:Pkru.t -> access -> (unit, fault) result
(** The hardware check. Fetch consults only the page X bit (PKRU does not
    gate instruction fetch). Read/Write consult the page bits first, then
    PKRU for the page's key. *)

val pp_fault : Format.formatter -> fault -> unit
val fault_to_string : fault -> string
