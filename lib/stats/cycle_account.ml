module Time = Vessel_engine.Time

type category = App of int | Runtime | Kernel | Idle

type t = {
  apps : (int, int ref) Hashtbl.t;
  mutable runtime : int;
  mutable kernel : int;
  mutable idle : int;
}

let create () = { apps = Hashtbl.create 8; runtime = 0; kernel = 0; idle = 0 }

let app_cell t id =
  match Hashtbl.find_opt t.apps id with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.add t.apps id c;
      c

let charge t cat d =
  if d < 0 then invalid_arg "Cycle_account.charge: negative duration";
  match cat with
  | App id ->
      let c = app_cell t id in
      c := !c + d
  | Runtime -> t.runtime <- t.runtime + d
  | Kernel -> t.kernel <- t.kernel + d
  | Idle -> t.idle <- t.idle + d

let total t = function
  | App id -> ( match Hashtbl.find_opt t.apps id with Some c -> !c | None -> 0)
  | Runtime -> t.runtime
  | Kernel -> t.kernel
  | Idle -> t.idle

let app_total t = Hashtbl.fold (fun _ c acc -> acc + !c) t.apps 0

let app_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.apps [] |> List.sort compare

let grand_total t = app_total t + t.runtime + t.kernel + t.idle

let cores_worth t cat ~wall =
  if wall <= 0 then 0. else float_of_int (total t cat) /. float_of_int wall

let merge ~into src =
  Hashtbl.iter
    (fun id c ->
      let dst = app_cell into id in
      dst := !dst + !c)
    src.apps;
  into.runtime <- into.runtime + src.runtime;
  into.kernel <- into.kernel + src.kernel;
  into.idle <- into.idle + src.idle

let pp fmt t =
  Format.fprintf fmt "app=%a runtime=%a kernel=%a idle=%a" Time.pp
    (app_total t) Time.pp t.runtime Time.pp t.kernel Time.pp t.idle
