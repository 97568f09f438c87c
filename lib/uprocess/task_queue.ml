type entry = { thread : Uthread.t; at : Vessel_engine.Time.t }

type t = {
  q : entry Queue.t;
  mutable front : entry list; (* prepended entries, newest first *)
  present : (int, unit) Hashtbl.t; (* tids currently queued *)
  id : int; (* >= 0: queue operations are probe-visible under this id *)
}

let create ?(id = -1) () =
  { q = Queue.create (); front = []; present = Hashtbl.create 16; id }

(* Queue-op instants feed the runtime invariant checker (FIFO order per
   queue, LC execution gaps). Only queues given an explicit deterministic
   id emit them, so ad-hoc queues cost nothing and traces stay identical
   at any -j. Each instant is stamped at its operation's time [ts]; the
   [at] arg carries the entry's enqueue time. *)
let probe t name e ~ts =
  if t.id >= 0 && !Vessel_obs.Probe.on then
    Vessel_obs.Probe.instant ~ts ~track:Vessel_obs.Track.Sched ~name
      ~args:
        [
          ("q", Vessel_obs.Event.Int t.id);
          ("tid", Vessel_obs.Event.Int (Uthread.tid e.thread));
          ( "lc",
            Vessel_obs.Event.Int
              (match Uthread.priority e.thread with
              | Uthread.Latency_critical -> 1
              | Uthread.Best_effort -> 0) );
          ("at", Vessel_obs.Event.Int e.at);
          (* request the thread is carrying, 0 when idle — lets queue-op
             instants be joined against req.* attribution stamps *)
          ("rid", Vessel_obs.Event.Int (Vessel_obs.Request.rid (Uthread.ctx e.thread)));
        ]
      ()

let add_present t th =
  let tid = Uthread.tid th in
  if Hashtbl.mem t.present tid then
    invalid_arg (Printf.sprintf "Task_queue: tid %d already queued" tid);
  Hashtbl.add t.present tid ()

let push t th ~now =
  let e = { thread = th; at = now } in
  add_present t th;
  Queue.push e t.q;
  probe t Vessel_obs.Tag.queue_push e ~ts:now

let push_front t th ~now =
  let e = { thread = th; at = now } in
  add_present t th;
  t.front <- e :: t.front;
  probe t Vessel_obs.Tag.queue_push_front e ~ts:now

let take t =
  match t.front with
  | e :: rest ->
      t.front <- rest;
      Some e
  | [] -> Queue.take_opt t.q

let pop t ~now =
  match take t with
  | None -> None
  | Some e ->
      Hashtbl.remove t.present (Uthread.tid e.thread);
      probe t Vessel_obs.Tag.queue_pop e ~ts:now;
      Some (e.thread, e.at)

let mem t th = Hashtbl.mem t.present (Uthread.tid th)

let length t = Hashtbl.length t.present

let head_delay t ~now =
  let head = match t.front with e :: _ -> Some e | [] -> Queue.peek_opt t.q in
  match head with Some e -> max 0 (now - e.at) | None -> 0
