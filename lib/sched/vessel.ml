module Sim = Vessel_engine.Sim
module Rng = Vessel_engine.Rng
module Hw = Vessel_hw
module Mem = Vessel_mem
module U = Vessel_uprocess

type params = {
  scan_interval : int;
  overload_delay : int;
  be_preempt_delay : int;
  rotation_quantum : int;
  eager_preempt : bool;
}

let default_params =
  {
    scan_interval = 1_000;
    overload_delay = 2_000;
    be_preempt_delay = 200;
    rotation_quantum = 5_000;
    eager_preempt = true;
  }

type app_state = {
  spec : Sched_intf.app_spec;
  uproc : U.Uprocess.t;
  (* Workers by spawn-ordered slot; [pset] tracks which are Parked (the
     bit flips inside Uthread.set_state), so "newest parked worker" —
     what the old newest-first [List.find_opt] walk returned — is one
     highest-bit scan. *)
  pset : U.Core_index.Pset.t;
  mutable workers_arr : U.Uthread.t array;
  mutable nworkers : int;
}

type t = {
  machine : Hw.Machine.t;
  mgr : U.Manager.t;
  rt : U.Runtime.t;
  params : params;
  ncores : int;
  apps : (int, app_state) Hashtbl.t;
  image_rng : Rng.t;
  mutable rr : int; (* round-robin worker placement cursor *)
  mutable preempts : int;
  mutable running : bool;
  mutable last_rotation : int array;
  mutable tick_tag : int; (* Sim dispatch tag for the scan tick; -1 until [start] *)
}

let make ?(params = default_params) ?slots ~machine () =
  (* Nonnegative delays guarantee an empty queue (delay 0) can never
     trigger a scan action, which is what lets [scan] skip empty-queue
     cores. *)
  if params.be_preempt_delay < 0 || params.overload_delay < 0 then
    invalid_arg "Vessel.make: negative scan delay";
  let mgr = U.Manager.create ?slots ~machine () in
  let rt = U.Manager.runtime mgr in
  let ncores = Hw.Machine.ncores machine in
  {
    machine;
    mgr;
    rt;
    params;
    ncores;
    apps = Hashtbl.create 8;
    image_rng = Rng.split (Sim.rng (Hw.Machine.sim machine));
    rr = 0;
    preempts = 0;
    running = false;
    last_rotation = Array.make ncores 0;
    tick_tag = -1;
  }

let runtime t = t.rt
let preempts_sent t = t.preempts

module Probe = Vessel_obs.Probe
module Tag = Vessel_obs.Tag

let sched_now t = Sim.now (Hw.Machine.sim t.machine)

(* Every reclamation decision funnels through here so the decision shows
   up exactly once on the scheduler track. *)
let send_preempt t ~core commands =
  t.preempts <- t.preempts + 1;
  if !Probe.on then
    Probe.instant ~ts:(sched_now t) ~track:Vessel_obs.Track.Sched
      ~name:Tag.vessel_preempt
      ~args:
        [
          ("core", Vessel_obs.Event.Int core);
          (* request running on the victim core, 0 when none/idle *)
          ( "rid",
            Vessel_obs.Event.Int
              (match U.Runtime.current_thread t.rt ~core with
              | Some th -> Vessel_obs.Request.rid (U.Uthread.ctx th)
              | None -> 0) );
        ]
      ();
  if !Probe.metrics_on then Probe.incr "sched.vessel.preempts";
  U.Runtime.preempt_core t.rt ~core commands

let app_state t id =
  match Hashtbl.find_opt t.apps id with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Vessel: unknown app %d" id)

let add_app t spec =
  if Hashtbl.mem t.apps spec.Sched_intf.id then
    invalid_arg "Vessel.add_app: duplicate app id";
  let image =
    Mem.Image.make ~name:spec.Sched_intf.name ~text_size:16_384 t.image_rng
  in
  match U.Manager.create_uprocess t.mgr ~name:spec.Sched_intf.name ~image () with
  | Error e ->
      invalid_arg
        (Format.asprintf "Vessel.add_app: %a" U.Manager.pp_create_error e)
  | Ok uproc ->
      Hashtbl.add t.apps spec.Sched_intf.id
        {
          spec;
          uproc;
          pset = U.Core_index.Pset.create ();
          workers_arr = [||];
          nworkers = 0;
        }

let add_worker t ~app_id ~name ~step =
  let a = app_state t app_id in
  let core = t.rr mod t.ncores in
  t.rr <- t.rr + 1;
  let th =
    U.Manager.spawn_thread t.mgr ~uproc:a.uproc ~app:app_id
      ~priority:(Sched_intf.priority_of_class a.spec.Sched_intf.class_)
      ~name ~step ~core
  in
  let slot = U.Core_index.Pset.register a.pset in
  if slot >= Array.length a.workers_arr then begin
    let arr = Array.make (max 4 (2 * Array.length a.workers_arr)) th in
    Array.blit a.workers_arr 0 arr 0 a.nworkers;
    a.workers_arr <- arr
  end;
  a.workers_arr.(slot) <- th;
  a.nworkers <- slot + 1;
  U.Uthread.track_parked th a.pset ~slot;
  th

let core_runs_be t core =
  match U.Runtime.current_thread t.rt ~core with
  | Some th -> U.Uthread.priority th = U.Uthread.Best_effort
  | None -> false

(* Placement preference for a waking latency-critical worker: an idle
   core, else a core running best-effort work (which the runtime preempts
   immediately via Uintr — "B-app's core can be preempted just in time"),
   else the shortest queue. The runtime's incremental index answers each
   with the tie-breaks of the O(cores) walk it replaced: lowest idle /
   lowest BE core, highest core id among minimum-length queues. [`Queue]
   is only reached when no core is idle, so idle cores never skew the
   minimum. *)
let best_core t =
  let ix = U.Runtime.index t.rt in
  let idle = U.Core_index.first_idle ix in
  if idle >= 0 then (idle, `Idle)
  else
    let be = U.Core_index.first_be ix in
    if be >= 0 then (be, `Preempt_be) else (U.Core_index.shortest ix, `Queue)

let notify_app t ~app_id =
  let a = app_state t app_id in
  (* Highest parked slot = the newest parked worker, exactly what the
     old [List.find_opt] over the newest-first list returned (including
     killed-but-still-Parked threads, whose wake below no-ops). *)
  match U.Core_index.Pset.highest a.pset with
  | -1 -> ()
  | slot -> (
      let th = a.workers_arr.(slot) in
      let core, kind = best_core t in
      if !Probe.on then
        Probe.instant ~ts:(sched_now t) ~track:Vessel_obs.Track.Sched
          ~name:Tag.vessel_wake
          ~args:
            [
              ("app", Vessel_obs.Event.Int app_id);
              ("core", Vessel_obs.Event.Int core);
              ( "kind",
                Vessel_obs.Event.Str
                  (match kind with
                  | `Idle -> "idle"
                  | `Preempt_be -> "preempt_be"
                  | `Queue -> "queue") );
            ]
          ();
      if !Probe.metrics_on then Probe.incr "sched.vessel.wakes";
      U.Runtime.wake_thread t.rt th ~core;
      match kind with
      | `Preempt_be when t.params.eager_preempt ->
          send_preempt t ~core [ U.Signal.Preempt_to_be ]
      | `Preempt_be | `Idle | `Queue -> ())

(* One scheduler pass: preempt best-effort threads blocking overloaded
   cores, and spread queued work to underloaded cores. An empty-queue
   core has head delay 0 and can trigger neither branch of [scan_core],
   so the scan walks only the nonempty bits — the tick's cost follows
   the number of backlogged cores, not the core count. *)
let rec scan t =
  let ix = U.Runtime.index t.rt in
  let rec go from =
    let core = U.Core_index.next_nonempty ix ~from in
    if core >= 0 then begin
      scan_core t core;
      go (core + 1)
    end
  in
  go 0

and scan_core t core =
  begin
    let delay = U.Runtime.queue_delay t.rt ~core in
    let runs_be = core_runs_be t core in
    if runs_be && delay > t.params.be_preempt_delay then
      (* A latency-critical thread is waiting behind best-effort work:
         preempt at once. *)
      send_preempt t ~core [ U.Signal.Preempt_to_be ]
    else if (not runs_be) && delay > t.params.overload_delay then begin
      let now = Vessel_engine.Sim.now (Hw.Machine.sim t.machine) in
      match U.Runtime.steal_queued t.rt ~core with
      | Some th -> (
          match best_core t with
          | target, `Idle when target <> core ->
              U.Runtime.assign t.rt th ~core:target
          | target, `Preempt_be ->
              (* Move the waiter onto a best-effort core and reclaim it
                 right away. *)
              U.Runtime.assign t.rt th ~core:target;
              send_preempt t ~core:target [ U.Signal.Preempt_to_be ]
          | target, `Queue when target <> core ->
              U.Runtime.assign t.rt th ~core:target
          | _, _ ->
              (* Nowhere better: rotate this core so queued threads are
                 not starved behind the incumbent (head-of-line blocking,
                 section 4.5), at most once per quantum. *)
              U.Runtime.assign t.rt th ~core;
              if now - t.last_rotation.(core) >= t.params.rotation_quantum
              then begin
                t.last_rotation.(core) <- now;
                send_preempt t ~core [ U.Signal.Preempt_to_be ]
              end)
      | None -> ()
    end
  end

let tick t =
  if t.running then begin
    scan t;
    ignore
      (Sim.schedule_tagged_after (Hw.Machine.sim t.machine)
         ~delay:t.params.scan_interval ~tag:t.tick_tag ~a:0 ~b:0)
  end

let start t =
  t.running <- true;
  if t.tick_tag < 0 then
    t.tick_tag <-
      Sim.register_handler (Hw.Machine.sim t.machine) (fun _ _ -> tick t);
  U.Manager.start t.mgr;
  ignore
    (Sim.schedule_tagged_after (Hw.Machine.sim t.machine)
       ~delay:t.params.scan_interval ~tag:t.tick_tag ~a:0 ~b:0)

let stop t =
  t.running <- false;
  U.Manager.stop t.mgr

let system t =
  {
    Sched_intf.sys_name = "vessel";
    add_app = (fun spec -> add_app t spec);
    add_worker = (fun ~app_id ~name ~step -> add_worker t ~app_id ~name ~step);
    notify_app = (fun ~app_id -> notify_app t ~app_id);
    start = (fun () -> start t);
    stop = (fun () -> stop t);
    switch_latencies = (fun () -> Some (U.Runtime.switch_latencies t.rt));
  }
