type completion = Vessel_engine.Time.t -> unit

type action =
  | Compute of { ns : int; on_complete : completion option }
  | Mem_work of {
      ns : int;
      bytes : int;
      footprint : (int * int) option;
      on_complete : completion option;
    }
  | Park
  | Syscall of { ns : int; on_complete : completion option }
  | Runtime_work of { ns : int; on_complete : completion option }
  | Exit

type priority = Latency_critical | Best_effort

type state = Ready | Running of int | Parked | Exited

type t = {
  tid : int;
  app : int;
  uproc : int;
  name : string;
  priority : priority;
  step : now:Vessel_engine.Time.t -> action;
  mutable state : state;
  mutable remainder : action option;
  mutable app_ns : int;
  mutable killed : bool;
  mutable ctx : Vessel_obs.Request.t;
  (* Intrusive parked-set membership: schedulers that register the
     thread in a Core_index.Pset get the bit maintained at the single
     state chokepoint below, whatever path flips the state. *)
  mutable pset : Core_index.Pset.t option;
  mutable pslot : int;
}

let create ~tid ~app ~uproc ?name ~priority ~step () =
  let name = match name with Some n -> n | None -> Printf.sprintf "t%d" tid in
  { tid; app; uproc; name; priority; step; state = Ready; remainder = None;
    app_ns = 0; killed = false; ctx = Vessel_obs.Request.none;
    pset = None; pslot = -1 }

let tid t = t.tid
let app t = t.app
let uproc t = t.uproc
let name t = t.name
let priority t = t.priority
let state t = t.state

let is_parked = function Parked -> true | _ -> false

let set_state t s =
  (match t.pset with
  | None -> ()
  | Some p ->
      let was = is_parked t.state and now_ = is_parked s in
      if was <> now_ then Core_index.Pset.set p t.pslot now_);
  t.state <- s

let track_parked t p ~slot =
  t.pset <- Some p;
  t.pslot <- slot;
  if is_parked t.state then Core_index.Pset.set p slot true
let mark_killed t = t.killed <- true
let is_killed t = t.killed

let ctx t = t.ctx
let set_ctx t c = t.ctx <- c

let next_action t ~now =
  match t.remainder with
  | Some a ->
      (* Resuming a preempted segment: the thread keeps serving the same
         request, so the bound context is left alone. *)
      t.remainder <- None;
      a
  | None ->
      let a = t.step ~now in
      (* A fresh segment may begin serving a new request: the workload
         step stashes the popped request's context for us to claim. *)
      if !Vessel_obs.Probe.req_on then t.ctx <- Vessel_obs.Request.take ();
      a

let save_remainder t action ~executed =
  if executed < 0 then invalid_arg "Uthread.save_remainder: negative executed";
  let cut ns = max 0 (ns - executed) in
  let rem =
    match action with
    | Compute c -> Compute { c with ns = cut c.ns }
    | Syscall s -> Syscall { s with ns = cut s.ns }
    | Runtime_work r -> Runtime_work { r with ns = cut r.ns }
    | Mem_work m ->
        (* Traffic scales with the remaining fraction of the segment. *)
        let remaining = cut m.ns in
        let bytes =
          if m.ns = 0 then 0 else m.bytes * remaining / m.ns
        in
        Mem_work { m with ns = remaining; bytes }
    | Park | Exit ->
        invalid_arg "Uthread.save_remainder: Park/Exit cannot be split"
  in
  t.remainder <- Some rem

let has_remainder t = t.remainder <> None
let discard_remainder t = t.remainder <- None
let total_app_ns t = t.app_ns
let charge t d = t.app_ns <- t.app_ns + d
