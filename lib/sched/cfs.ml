module Sim = Vessel_engine.Sim
module Hw = Vessel_hw
module U = Vessel_uprocess
module Stats = Vessel_stats
module Cost_model = Hw.Cost_model

type params = {
  sched_period : int;
  min_granularity : int;
  lc_nice : int;
  be_nice : int;
}

let default_params =
  {
    sched_period = 6_000_000;
    min_granularity = 750_000;
    lc_nice = -19;
    be_nice = 19;
  }

(* sched_prio_to_weight: 1024 at nice 0, ~1.25x per step down. *)
let weight_of_nice nice =
  let nice = max (-20) (min 19 nice) in
  let w = 1024. *. Float.pow 1.25 (float_of_int (-nice)) in
  max 1 (int_of_float (Float.round w))

type tstate = {
  th : U.Uthread.t;
  weight : int;
  mutable vr : float; (* weighted virtual runtime, ns at weight 1024 *)
}

type cstate = {
  mutable rq : tstate list; (* Ready threads on this core *)
  mutable current : tstate option;
  mutable started : int;
  mutable timer : Vessel_engine.Event_queue.handle option;
  mutable clock_vr : float; (* advances with whatever ran here last *)
}

type app_state = {
  spec : Sched_intf.app_spec;
  mutable workers : tstate list;
}

type t = {
  machine : Hw.Machine.t;
  params : params;
  mutable exec : U.Exec.t option;
  apps : (int, app_state) Hashtbl.t;
  cores : cstate array;
  by_tid : (int, tstate) Hashtbl.t;
  mutable next_tid : int;
  mutable rr : int;
}

let get_exec t = match t.exec with Some e -> e | None -> assert false
let ncores t = Hw.Machine.ncores t.machine
let now t = Hw.Machine.now t.machine

let tstate t th =
  match Hashtbl.find_opt t.by_tid (U.Uthread.tid th) with
  | Some ts -> ts
  | None -> invalid_arg "Cfs: unknown thread"

let cancel_timer t cs =
  match cs.timer with
  | Some h ->
      Sim.cancel (Hw.Machine.sim t.machine) h;
      cs.timer <- None
  | None -> ()

let pick_next t ~core =
  let cs = t.cores.(core) in
  let live = List.filter (fun ts -> U.Uthread.state ts.th <> U.Uthread.Exited) cs.rq in
  cs.rq <- live;
  match live with
  | [] -> None
  | first :: rest ->
      let best =
        List.fold_left (fun acc ts -> if ts.vr < acc.vr then ts else acc) first rest
      in
      cs.rq <- List.filter (fun ts -> ts != best) live;
      Some best.th

let timeslice t cs ts =
  let total =
    List.fold_left (fun acc o -> acc + o.weight) ts.weight cs.rq
  in
  let share = t.params.sched_period * ts.weight / max 1 total in
  max t.params.min_granularity share

let rec arm_timer t ~core =
  let cs = t.cores.(core) in
  match cs.current with
  | None -> ()
  | Some ts ->
      let slice = timeslice t cs ts in
      cs.timer <-
        Some
          (Sim.schedule_after (Hw.Machine.sim t.machine) ~delay:slice (fun _ ->
               let cs = t.cores.(core) in
               cs.timer <- None;
               (* Only rotate when someone else is runnable. *)
               if cs.rq <> [] then U.Exec.preempt (get_exec t) ~core ~overhead:0
               else arm_timer t ~core))

let on_run t ~core th =
  let cs = t.cores.(core) in
  let ts = tstate t th in
  cs.current <- Some ts;
  cs.started <- now t;
  (* The dispatch stamp the gap checker pairs with
     queue.push; CFS has no PKRU and the checker tolerates its
     absence. *)
  if !Vessel_obs.Probe.on then
    Vessel_obs.Probe.instant ~ts:(now t)
      ~track:(Vessel_obs.Track.Core core)
      ~name:Vessel_obs.Tag.dispatch
      ~args:
        [
          ("tid", Vessel_obs.Event.Int (U.Uthread.tid th));
          ("app", Vessel_obs.Event.Int (U.Uthread.app th));
          ("rid", Vessel_obs.Event.Int (Vessel_obs.Request.rid (U.Uthread.ctx th)));
        ]
      ();
  arm_timer t ~core

let on_descheduled t ~core th =
  let cs = t.cores.(core) in
  cancel_timer t cs;
  (match cs.current with
  | Some ts when ts.th == th ->
      let ran = now t - cs.started in
      ts.vr <- ts.vr +. (float_of_int ran *. 1024. /. float_of_int ts.weight);
      cs.clock_vr <- Float.max cs.clock_vr ts.vr;
      cs.current <- None
  | _ -> ())

let on_preempted t ~core th =
  let cs = t.cores.(core) in
  let ts = tstate t th in
  cs.rq <- ts :: cs.rq

let switch_overhead t ~core ~kind ~next =
  let c = Hw.Machine.cost t.machine in
  match (kind, next) with
  | _, None -> 0
  | U.Exec.Initial, Some _
  | U.Exec.Idle_wake, Some _
  | U.Exec.Park_switch, Some _
  | U.Exec.Exit_switch, Some _
  | U.Exec.Preempt_switch, Some _ ->
      Hw.Machine.jitter t.machine core (Cost_model.cfs_switch c)

(* --- Sched_intf --- *)

let app_state t id =
  match Hashtbl.find_opt t.apps id with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Cfs: unknown app %d" id)

let add_app t spec =
  if Hashtbl.mem t.apps spec.Sched_intf.id then
    invalid_arg "Cfs.add_app: duplicate app id";
  Hashtbl.add t.apps spec.Sched_intf.id { spec; workers = [] }

let add_worker t ~app_id ~name ~step =
  let a = app_state t app_id in
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th =
    U.Uthread.create ~tid ~app:app_id ~uproc:app_id ~name
      ~priority:(Sched_intf.priority_of_class a.spec.Sched_intf.class_)
      ~step ()
  in
  let nice =
    match a.spec.Sched_intf.class_ with
    | Sched_intf.Latency_critical -> t.params.lc_nice
    | Sched_intf.Best_effort -> t.params.be_nice
  in
  let core = t.rr mod ncores t in
  t.rr <- t.rr + 1;
  let ts = { th; weight = weight_of_nice nice; vr = t.cores.(core).clock_vr } in
  Hashtbl.replace t.by_tid tid ts;
  a.workers <- ts :: a.workers;
  t.cores.(core).rq <- ts :: t.cores.(core).rq;
  U.Exec.notify (get_exec t) ~core;
  th

let idlest_core t =
  let best = ref 0 and best_len = ref max_int in
  for core = 0 to ncores t - 1 do
    if U.Exec.is_idle (get_exec t) ~core then begin
      if !best_len > -1 then begin
        best := core;
        best_len := -1
      end
    end
    else begin
      let len = List.length t.cores.(core).rq in
      if len < !best_len then begin
        best := core;
        best_len := len
      end
    end
  done;
  !best

let notify_app t ~app_id =
  let a = app_state t app_id in
  match
    List.find_opt
      (fun ts -> U.Uthread.state ts.th = U.Uthread.Parked)
      a.workers
  with
  | None -> ()
  | Some ts ->
      let core = idlest_core t in
      let cs = t.cores.(core) in
      (* Sleeper credit: a waking thread resumes near the core's clock so
         it is favoured, but it still waits for the incumbent's slice. *)
      ts.vr <-
        Float.max ts.vr
          (cs.clock_vr -. float_of_int (t.params.sched_period / 2));
      U.Uthread.set_state ts.th U.Uthread.Ready;
      cs.rq <- ts :: cs.rq;
      U.Exec.notify (get_exec t) ~core

let make ?(params = default_params) ~machine () =
  let n = Hw.Machine.ncores machine in
  let t =
    {
      machine;
      params;
      exec = None;
      apps = Hashtbl.create 8;
      cores =
        Array.init n (fun _ ->
            { rq = []; current = None; started = 0; timer = None; clock_vr = 0. });
      by_tid = Hashtbl.create 64;
      next_tid = 1;
      rr = 0;
    }
  in
  let hooks =
    {
      (U.Exec.default_hooks ()) with
      U.Exec.pick_next = (fun ~core -> pick_next t ~core);
      on_preempted = (fun ~core th -> on_preempted t ~core th);
      switch_overhead =
        (fun ~core ~kind ~next -> switch_overhead t ~core ~kind ~next);
      overhead_category = Stats.Cycle_account.Kernel;
      syscall_category = Stats.Cycle_account.Kernel;
      on_run = (fun ~core th -> on_run t ~core th);
      on_descheduled = (fun ~core th -> on_descheduled t ~core th);
    }
  in
  t.exec <- Some (U.Exec.create machine hooks);
  t

let start t = U.Exec.start_all (get_exec t)

let stop t =
  for core = 0 to ncores t - 1 do
    cancel_timer t t.cores.(core);
    U.Exec.stop (get_exec t) ~core
  done

let system t =
  {
    Sched_intf.sys_name = "linux-cfs";
    add_app = (fun spec -> add_app t spec);
    add_worker = (fun ~app_id ~name ~step -> add_worker t ~app_id ~name ~step);
    notify_app = (fun ~app_id -> notify_app t ~app_id);
    start = (fun () -> start t);
    stop = (fun () -> stop t);
    switch_latencies = (fun () -> None);
  }
