type command =
  | Run_thread of int
  | Preempt_to_be
  | Kill_uprocess of int
  | Kill_thread of int
  | Fault of { slot : int; reason : string }

type t = { queues : command Queue.t array }

let create ~ncores =
  if ncores <= 0 then invalid_arg "Signal.create: ncores must be positive";
  { queues = Array.init ncores (fun _ -> Queue.create ()) }

let check t core =
  if core < 0 || core >= Array.length t.queues then
    invalid_arg (Printf.sprintf "Signal: core %d out of range" core)

let push t ~core cmd =
  check t core;
  Queue.push cmd t.queues.(core)

let drain t ~core =
  check t core;
  let q = t.queues.(core) in
  (* Polled at every privileged entry; almost always empty, so skip the
     exception-terminated pop loop entirely. *)
  if Queue.is_empty q then []
  else begin
    let rec go acc =
      match Queue.pop q with
      | exception Queue.Empty -> List.rev acc
      | c -> go (c :: acc)
    in
    go []
  end

let pending t ~core =
  check t core;
  Queue.length t.queues.(core)

let broadcast_fault t ~cores ~slot ~reason =
  List.iter (fun core -> push t ~core (Fault { slot; reason })) cores
