type t = {
  owners : (int, int) Hashtbl.t; (* fd -> slot *)
  paths : (int, string) Hashtbl.t;
  mutable next_fd : int;
  mutable calls : int;
}

type error = [ `EBADF | `EACCES | `Exec_mapping_prohibited ]

let create () =
  { owners = Hashtbl.create 64; paths = Hashtbl.create 64; next_fd = 3; calls = 0 }

let count t =
  if !Vessel_obs.Probe.metrics_on then Vessel_obs.Probe.incr "uproc.syscalls";
  t.calls <- t.calls + 1

let openf t ~slot ~path =
  count t;
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.add t.owners fd slot;
  Hashtbl.add t.paths fd path;
  fd

let check t ~slot ~fd =
  match Hashtbl.find_opt t.owners fd with
  | None -> Error `EBADF
  | Some owner -> if owner = slot then Ok () else Error `EACCES

let read t ~slot ~fd =
  count t;
  check t ~slot ~fd

let close t ~slot ~fd =
  count t;
  match check t ~slot ~fd with
  | Error _ as e -> e
  | Ok () ->
      Hashtbl.remove t.owners fd;
      Hashtbl.remove t.paths fd;
      Ok ()

let mmap t ~slot:_ ~exec =
  count t;
  if exec then Error `Exec_mapping_prohibited else Ok ()

let mprotect t ~slot:_ ~exec =
  count t;
  if exec then Error `Exec_mapping_prohibited else Ok ()

let close_all t ~slot =
  let fds =
    Hashtbl.fold (fun fd s acc -> if s = slot then fd :: acc else acc) t.owners []
  in
  List.iter
    (fun fd ->
      Hashtbl.remove t.owners fd;
      Hashtbl.remove t.paths fd)
    fds;
  List.length fds

let calls t = t.calls
