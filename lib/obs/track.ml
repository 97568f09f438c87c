type t = Engine | Sched | Core of int | Uproc of int

(* Stable Perfetto thread ids: the engine and scheduler tracks come
   first, then one track per core, then one per uProcess slot. *)
let tid = function
  | Engine -> 0
  | Sched -> 1
  | Core i -> 10 + i
  | Uproc s -> 1000 + s

let name = function
  | Engine -> "engine"
  | Sched -> "scheduler"
  | Core i -> Printf.sprintf "core %d" i
  | Uproc s -> Printf.sprintf "uproc %d" s

let pp fmt t = Format.pp_print_string fmt (name t)
