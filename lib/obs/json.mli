(** JSON string escaping for the writers, plus a minimal parser used by
    the test suite to validate exported trace/metrics files (the
    container has no JSON library). *)

val quote : string -> string
(** [quote s] is [s] escaped and wrapped in double quotes. *)

val add_quoted : Buffer.t -> string -> unit
(** [add_quoted b s] appends [quote s] to [b]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
val member : string -> t -> t option
val to_list : t -> t list option
val to_string : t -> string option
val to_number : t -> float option
