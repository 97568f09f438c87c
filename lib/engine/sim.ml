type t = {
  mutable clock : Time.t;
  queue : (t -> unit) Event_queue.t;
  root_rng : Rng.t;
  mutable executed : int;
  mutable unflushed : int;
      (* events counted locally but not yet added to [global_executed] *)
  mutable handlers : (int -> int -> unit) array;
  mutable nhandlers : int;
  (* Dispatch closures allocated once at [create] so [run_until]/[step]
     never allocate. They close over [t], hence the mutable-and-patched
     construction below. *)
  mutable on_start : Time.t -> unit;
  mutable on_closure : Time.t -> (t -> unit) -> unit;
  mutable on_step_tagged : Time.t -> int -> int -> int -> unit;
  mutable on_step_closure : Time.t -> (t -> unit) -> unit;
}

(* Aggregate event count across every simulation instance in the process,
   one atomic add per [run_until] call (not per event) so the counter
   stays off the hot path even when worker domains run sweeps in
   parallel. [step] batches too: it flushes every [flush_threshold]
   events and when the queue runs dry, never per event. *)
let global_executed = Atomic.make 0

let total_events_executed () = Atomic.get global_executed

let flush_threshold = 64

let[@inline] flush t =
  if t.unflushed > 0 then begin
    ignore (Atomic.fetch_and_add global_executed t.unflushed);
    t.unflushed <- 0
  end

let unregistered_handler (_ : int) (_ : int) =
  failwith "Sim: dispatch to unregistered handler tag"

let create ?(seed = 42) () =
  if !Vessel_obs.Probe.on then
    Vessel_obs.Probe.process ~name:(Printf.sprintf "sim seed=%d" seed);
  let t =
    {
      clock = Time.zero;
      queue = Event_queue.create ();
      root_rng = Rng.create ~seed;
      executed = 0;
      unflushed = 0;
      handlers = Array.make 8 unregistered_handler;
      nhandlers = 0;
      on_start = ignore;
      on_closure = (fun _ _ -> ());
      on_step_tagged = (fun _ _ _ _ -> ());
      on_step_closure = (fun _ _ -> ());
    }
  in
  t.on_start <- (fun bt -> t.clock <- bt);
  t.on_closure <- (fun _time f -> f t);
  t.on_step_tagged <-
    (fun time tag a b ->
      t.clock <- time;
      t.executed <- t.executed + 1;
      t.unflushed <- t.unflushed + 1;
      if t.unflushed >= flush_threshold then flush t;
      t.handlers.(tag) a b);
  t.on_step_closure <-
    (fun time f ->
      t.clock <- time;
      t.executed <- t.executed + 1;
      t.unflushed <- t.unflushed + 1;
      if t.unflushed >= flush_threshold then flush t;
      f t);
  t

let now t = t.clock
let rng t = t.root_rng
let events_executed t = t.executed

let register_handler t f =
  let n = t.nhandlers in
  if n > Event_queue.max_tag then
    invalid_arg "Sim.register_handler: dispatch table full";
  if n = Array.length t.handlers then begin
    let bigger = Array.make (2 * n) unregistered_handler in
    Array.blit t.handlers 0 bigger 0 n;
    t.handlers <- bigger
  end;
  t.handlers.(n) <- f;
  t.nhandlers <- n + 1;
  n

let dispatch_tag t ~tag ~a ~b = t.handlers.(tag) a b

let schedule t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule: time %d is before now (%d)" at t.clock);
  Event_queue.add t.queue ~time:at f

let schedule_after t ~delay f =
  if delay < 0 then invalid_arg "Sim.schedule_after: negative delay";
  schedule t ~at:(t.clock + delay) f

let schedule_tagged t ~at ~tag ~a ~b =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_tagged: time %d is before now (%d)" at
         t.clock);
  if tag < 0 || tag >= t.nhandlers then
    invalid_arg (Printf.sprintf "Sim.schedule_tagged: unregistered tag %d" tag);
  Event_queue.add_tagged t.queue ~time:at ~tag ~a ~b

let schedule_tagged_after t ~delay ~tag ~a ~b =
  if delay < 0 then invalid_arg "Sim.schedule_tagged_after: negative delay";
  schedule_tagged t ~at:(t.clock + delay) ~tag ~a ~b

let cancel t h = Event_queue.cancel t.queue h

let step t =
  let fired =
    Event_queue.pop_event t.queue ~tagged:t.on_step_tagged
      ~closure:t.on_step_closure
  in
  if not fired then flush t;
  fired

let run_until t horizon =
  let n =
    Event_queue.drain_batch t.queue ~horizon ~start:t.on_start
      ~handlers:t.handlers t.on_closure
  in
  if horizon > t.clock then t.clock <- horizon;
  if n > 0 then begin
    t.executed <- t.executed + n;
    t.unflushed <- t.unflushed + n
  end;
  flush t;
  if n > 0 then begin
    if !Vessel_obs.Probe.metrics_on then
      Vessel_obs.Probe.incr ~by:n Vessel_obs.Tag.sim_events;
    if !Vessel_obs.Probe.on then
      Vessel_obs.Probe.counter ~ts:t.clock ~track:Vessel_obs.Track.Engine
        ~name:Vessel_obs.Tag.sim_events ~value:t.executed
  end

let pending t = Event_queue.length t.queue
