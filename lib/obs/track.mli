(** Trace tracks: each event lives on a per-core, per-uProcess, scheduler
    or engine track, rendered as one timeline row in Perfetto. *)

type t = Engine | Sched | Core of int | Uproc of int

val tid : t -> int
(** Stable Perfetto thread id — deterministic across runs. *)

val name : t -> string
val pp : Format.formatter -> t -> unit
