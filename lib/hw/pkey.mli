(** Memory protection keys.

    x86 MPK provides 16 keys (4 reserved bits per page-table entry). The
    paper's layout (section 4.1): key 0 is left for the kProcess's
    unmanaged memory outside SMAS; keys 1..13 are available for uProcess
    regions; key 14 protects the runtime region; key 15 the message pipe.
    Hence one scheduling domain supports at most 13 uProcesses. *)

type t = private int

val count : int
(** 16. *)

val of_int : int -> t
(** Raises [Invalid_argument] outside [0, 15]. *)

val to_int : t -> int

val default : t
(** Key 0 — unmanaged kProcess memory. *)

val runtime : t
(** Key 14 — the privileged runtime region. *)

val message_pipe : t
(** Key 15 — the read-mostly message pipe region. *)

val max_uprocesses : int
(** 13: uProcess keys are [1 .. 13]. *)

val uprocess_key : int -> t
(** [uprocess_key i] is the key of the [i]-th uProcess slot (0-based).
    Raises when [i >= max_uprocesses]. *)

val pp : Format.formatter -> t -> unit
