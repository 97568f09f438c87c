module Sim = Vessel_engine.Sim
module Hw = Vessel_hw
module U = Vessel_uprocess
module Stats = Vessel_stats
module Cost_model = Hw.Cost_model
module Probe = Vessel_obs.Probe
module Tag = Vessel_obs.Tag

let iok_instant ?(rid = 0) t_now ~name ~app ~core =
  Probe.instant ~ts:t_now ~track:Vessel_obs.Track.Sched ~name
    ~args:
      [
        ("app", Vessel_obs.Event.Int app); ("core", Vessel_obs.Event.Int core);
        ("rid", Vessel_obs.Event.Int rid);
      ]
    ()

type grant_policy =
  | Delay_based of { hi : int; lo : int }
  | Utilization_based of { grow_above : float; shrink_below : float }

type profile = {
  prof_name : string;
  realloc_interval : int;
  steal_spin : int;
  green_switch : int;
  policy : grant_policy;
  preempt_be : bool;
  grant_on_notify : bool;
}

(* Base Caladan reallocates cores between applications every 10 us
   (section 2.1); the Delay-Range variants run the finer queueing-delay
   check of McClure et al., where the [hi] threshold gates how eagerly a
   best-effort core is reclaimed: a low range reacts fast (better tails,
   more kernel switches), a high range waits (fewer switches, longer
   tails). *)
let caladan =
  {
    prof_name = "caladan";
    realloc_interval = 10_000;
    steal_spin = 2_000;
    green_switch = 150;
    policy = Delay_based { hi = 2_000; lo = 500 };
    preempt_be = true;
    grant_on_notify = true;
  }

let caladan_dr_l =
  {
    caladan with
    prof_name = "caladan-dr-l";
    realloc_interval = 5_000;
    policy = Delay_based { hi = 800; lo = 400 };
    steal_spin = 1_000;
  }

let caladan_dr_h =
  {
    caladan with
    prof_name = "caladan-dr-h";
    realloc_interval = 10_000;
    policy = Delay_based { hi = 4_000; lo = 1_000 };
    steal_spin = 4_000;
  }

let arachne =
  {
    prof_name = "arachne";
    realloc_interval = 2_000_000;
    steal_spin = 0;
    green_switch = 300;
    policy = Utilization_based { grow_above = 0.8; shrink_below = 0.4 };
    preempt_be = true;
    grant_on_notify = false;
  }

type app_state = {
  spec : Sched_intf.app_spec;
  queue : U.Task_queue.t;
  (* Workers by spawn-ordered slot; [pset] mirrors which are Parked (bit
     flipped in Uthread.set_state), so the newest parked worker — what
     the old newest-first [List.find_opt] returned — is a bit scan. *)
  pset : U.Core_index.Pset.t;
  mutable workers_arr : U.Uthread.t array;
  mutable nworkers : int;
  owned : U.Core_index.Bitset.t; (* cores this app currently owns *)
  mutable granted : int;
  mutable busy_snapshot : int; (* sum of worker app_ns at the last pass *)
}

type t = {
  machine : Hw.Machine.t;
  profile : profile;
  mutable exec : U.Exec.t option;
  (* Idle/BE occupancy bits maintained by the executor; the ownership
     bitsets below are maintained at acquire/release so the IOKernel's
     free-core / BE-victim / idle-granted walks become bit scans with the
     legacy ascending-scan tie-break (lowest core id). *)
  cindex : U.Core_index.t;
  unowned : U.Core_index.Bitset.t; (* cores with no owner *)
  beown : U.Core_index.Bitset.t; (* cores owned by a best-effort app *)
  apps : (int, app_state) Hashtbl.t;
  mutable app_order : int list; (* registration order, LC sorted first *)
  (* registration order pre-split by class (scheduler_pass runs every
     realloc tick; rebuilding these lists there would allocate) *)
  mutable lc_order : int list;
  mutable be_order : int list;
  owner : int option array; (* core -> app id *)
  stint_start : int array; (* when the owner acquired the core *)
  last_app : int option array;
  spun : bool array;
  spin_threads : U.Uthread.t option array;
  park_hist : Stats.Histogram.t;
  mutable next_tid : int;
  mutable reallocs : int;
  mutable running : bool;
  (* Sim dispatch tags registered in [make]; closure-free IPI preemption
     and realloc tick. *)
  mutable preempt_tag : int;
  mutable tick_tag : int;
}

let get_exec t = match t.exec with Some e -> e | None -> assert false
let ncores t = Hw.Machine.ncores t.machine
let now t = Hw.Machine.now t.machine

let app_state t id =
  match Hashtbl.find_opt t.apps id with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Baseline: unknown app %d" id)

let fresh_tid t =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  tid

(* The per-core steal loop: burn [steal_spin] in the runtime, then park.
   pick_next hands this thread out once per dry spell. *)
let spin_thread t ~core =
  match t.spin_threads.(core) with
  | Some th -> th
  | None ->
      let spinning = ref false in
      let th =
        U.Uthread.create ~tid:(fresh_tid t) ~app:(-1) ~uproc:(-1)
          ~name:(Printf.sprintf "steal-loop-%d" core)
          ~priority:U.Uthread.Best_effort
          ~step:(fun ~now:_ ->
            if !spinning then begin
              spinning := false;
              U.Uthread.Park
            end
            else begin
              spinning := true;
              U.Uthread.Runtime_work { ns = t.profile.steal_spin; on_complete = None }
            end)
          ()
      in
      t.spin_threads.(core) <- Some th;
      th

let is_spin th = U.Uthread.app th = -1

let rec pop_live q ~now =
  match U.Task_queue.pop q ~now with
  | None -> None
  | Some (th, _) ->
      if U.Uthread.state th = U.Uthread.Exited then pop_live q ~now else Some th

(* The busy-polling IOKernel sees every queue: when a core frees up, it
   regrants it to the app with the oldest waiting work, latency-critical
   apps first (the cross-app switch cost is charged by switch_overhead —
   the 2.1 us park-based reallocation of Table 1). *)
let needy_app ?except ?(lc_only = false) t =
  let best = ref None in
  let consider id =
    let a = app_state t id in
    if Some id <> except then begin
      let len = U.Task_queue.length a.queue in
      if len > 0 then begin
        let delay = U.Task_queue.head_delay a.queue ~now:(now t) in
        match !best with
        | Some (_, d) when d >= delay -> ()
        | _ -> best := Some (id, delay)
      end
    end
  in
  List.iter consider t.lc_order;
  if (not lc_only) && !best = None then List.iter consider t.be_order;
  Option.map fst !best

(* Who may take the core from [app] when its stint expires: anyone if the
   owner is best-effort, only latency-critical peers otherwise — Caladan
   never rotates a latency-critical core out for best-effort work. *)
let rotation_candidate t ~owner =
  let lc_only =
    (app_state t owner).spec.Sched_intf.class_ = Sched_intf.Latency_critical
  in
  needy_app ~except:owner ~lc_only t

let acquire t ~core app =
  let a = app_state t app in
  (* preempt_for acquires over a still-set previous owner (it only
     decrements the grant count): drop the old ownership bit here. *)
  (match t.owner.(core) with
  | Some prev -> U.Core_index.Bitset.clear (app_state t prev).owned core
  | None -> ());
  U.Core_index.Bitset.clear t.unowned core;
  U.Core_index.Bitset.set a.owned core;
  (match a.spec.Sched_intf.class_ with
  | Sched_intf.Best_effort -> U.Core_index.Bitset.set t.beown core
  | Sched_intf.Latency_critical -> U.Core_index.Bitset.clear t.beown core);
  t.owner.(core) <- Some app;
  t.stint_start.(core) <- now t;
  a.granted <- a.granted + 1

let release t ~core app =
  let a = app_state t app in
  if !Probe.on then iok_instant (now t) ~name:Tag.iok_release ~app ~core;
  if !Probe.metrics_on then Probe.incr "sched.iok.releases";
  t.spun.(core) <- false;
  t.owner.(core) <- None;
  U.Core_index.Bitset.set t.unowned core;
  U.Core_index.Bitset.clear a.owned core;
  U.Core_index.Bitset.clear t.beown core;
  a.granted <- a.granted - 1

let rec pick_next t ~core =
  match t.owner.(core) with
  | None -> (
      (* Unowned core polled awake: the IOKernel hands it to whoever
         needs it. *)
      match needy_app t with
      | None -> None
      | Some app ->
          acquire t ~core app;
          pick_next t ~core)
  | Some app -> (
      let a = app_state t app in
      (* Fairness: the IOKernel rebalances cores between applications
         every [realloc_interval]; an owner whose stint has expired loses
         the core if anyone else is waiting. *)
      if
        now t - t.stint_start.(core) >= t.profile.realloc_interval
        && rotation_candidate t ~owner:app <> None
      then begin
        release t ~core app;
        match needy_app t with
        | None -> None
        | Some app2 ->
            acquire t ~core app2;
            pick_next t ~core
      end
      else
        match pop_live a.queue ~now:(now t) with
        | Some th ->
            t.spun.(core) <- false;
            Some th
        | None ->
            if t.profile.steal_spin > 0 && not t.spun.(core) then begin
              t.spun.(core) <- true;
              Some (spin_thread t ~core)
            end
            else begin
              (* Out of work: release the core, which is immediately
                 regranted if anyone is waiting. *)
              release t ~core app;
              match needy_app t with
              | None -> None
              | Some app2 ->
                  acquire t ~core app2;
                  pick_next t ~core
            end)

let cross_app_switch t core =
  let c = Hw.Machine.cost t.machine in
  let ns = Hw.Machine.jitter t.machine core (Cost_model.caladan_park_switch c) in
  Stats.Histogram.record t.park_hist ns;
  ns

let switch_overhead t ~core ~kind ~next =
  let c = Hw.Machine.cost t.machine in
  let core_id = Hw.Core.id core in
  let next_app =
    match next with
    | Some th when not (is_spin th) -> Some (U.Uthread.app th)
    | Some _ -> t.last_app.(core_id) (* the steal loop stays in-app *)
    | None -> None
  in
  let same_app = next_app <> None && next_app = t.last_app.(core_id) in
  match kind with
  | U.Exec.Initial | U.Exec.Idle_wake | U.Exec.Park_switch | U.Exec.Exit_switch
    -> (
      match next_app with
      | None -> Hw.Machine.jitter t.machine core t.profile.green_switch
      | Some _ ->
          if same_app then Hw.Machine.jitter t.machine core t.profile.green_switch
          else begin
            t.reallocs <- t.reallocs + 1;
            cross_app_switch t core
          end)
  | U.Exec.Preempt_switch ->
      if same_app then
        (* Aborting the steal loop for freshly arrived work of the same
           app: a user-level transition. *)
        Hw.Machine.jitter t.machine core t.profile.green_switch
      else begin
        (* The victim-side kernel path past the signal handler; the
           handler cost itself arrives as the preempt extra (see
           preempt_for). *)
        t.reallocs <- t.reallocs + 1;
        Hw.Machine.jitter t.machine core
          (c.Cost_model.kernel_switch + c.Cost_model.page_table_switch
         + c.Cost_model.kernel_restore)
      end

let on_run t ~core th =
  if not (is_spin th) then begin
    (* A cross-application landing starts a fresh ownership stint. *)
    if t.last_app.(core) <> Some (U.Uthread.app th) then
      t.stint_start.(core) <- now t;
    t.last_app.(core) <- Some (U.Uthread.app th);
    (* The dispatch stamp the gap checker pairs with
       queue.push: no PKRU here — kernel threading has no protection-key
       switch — and the checker tolerates its absence. *)
    if !Probe.on then
      Probe.instant ~ts:(now t)
        ~track:(Vessel_obs.Track.Core core)
        ~name:Tag.dispatch
        ~args:
          [
            ("tid", Vessel_obs.Event.Int (U.Uthread.tid th));
            ("app", Vessel_obs.Event.Int (U.Uthread.app th));
            ("rid", Vessel_obs.Event.Int (Vessel_obs.Request.rid (U.Uthread.ctx th)));
          ]
        ()
  end

let on_preempted t ~core:_ th =
  if is_spin th then U.Uthread.discard_remainder th
  else begin
    let a = app_state t (U.Uthread.app th) in
    U.Task_queue.push a.queue th ~now:(now t)
  end

(* --- the scheduler entity (IOKernel / core arbiter) --- *)

(* Lowest unowned core — the old ascending owner-array walk. *)
let free_core t =
  match U.Core_index.Bitset.first t.unowned with
  | -1 -> None
  | core -> Some core

(* Lowest core owned by a best-effort app. *)
let be_owned_core t =
  match U.Core_index.Bitset.first t.beown with
  | -1 -> None
  | core -> Some core

let grant t ~app ~core =
  if !Probe.on then iok_instant (now t) ~name:Tag.iok_grant ~app ~core;
  if !Probe.metrics_on then Probe.incr "sched.iok.grants";
  acquire t ~core app;
  U.Exec.notify (get_exec t) ~core

(* IPI-preempt [core] and hand it to [app]: the Figure-3 path. The ioctl +
   IPI flight elapse before the victim reacts; the victim then pays the
   kernel signal + state save as preempt overhead, and the kernel
   switch/page-table/restore path as the Preempt_switch cost. *)
let preempt_stages_of c =
  Cost_model.caladan_preempt_stages c

let preempt_for t ~app ~core =
  if !Probe.on then
    iok_instant (now t) ~name:Tag.iok_preempt ~app ~core
      ~rid:
        (match U.Exec.current (get_exec t) ~core with
        | Some th -> Vessel_obs.Request.rid (U.Uthread.ctx th)
        | None -> 0);
  if !Probe.metrics_on then Probe.incr "sched.iok.preempts";
  let c = Hw.Machine.cost t.machine in
  (match t.owner.(core) with
  | Some prev ->
      let pa = app_state t prev in
      pa.granted <- pa.granted - 1
  | None -> ());
  acquire t ~core app;
  t.spun.(core) <- false;
  Hw.Ipi.send_tagged (Hw.Machine.ipi t.machine) ~to_core:core ~tag:t.preempt_tag
    ~a:core
    ~b:(c.Cost_model.kernel_signal + c.Cost_model.user_save_state)

(* (cores wanted, may they be taken from best-effort apps) *)
let demand t a =
  match t.profile.policy with
  | Delay_based { hi; _ } ->
      let delay = U.Task_queue.head_delay a.queue ~now:(now t) in
      if delay > hi || (a.granted = 0 && U.Task_queue.length a.queue > 0) then
        max 1 (U.Task_queue.length a.queue)
      else 0
  | Utilization_based { grow_above; shrink_below = _ } ->
      let busy = ref 0 in
      for i = 0 to a.nworkers - 1 do
        busy := !busy + U.Uthread.total_app_ns a.workers_arr.(i)
      done;
      let busy = !busy in
      let delta = busy - a.busy_snapshot in
      a.busy_snapshot <- busy;
      let capacity = max 1 (a.granted * t.profile.realloc_interval) in
      let util = float_of_int delta /. float_of_int capacity in
      if a.granted = 0 && U.Task_queue.length a.queue > 0 then 1
      else if util > grow_above then 1
      else 0

let scheduler_pass t =
  (* Fairness rotation: preempt cores whose owner's stint expired while
     other applications wait — the expensive Figure-3 path, paid every
     realloc_interval under dense colocation. *)
  for core = 0 to ncores t - 1 do
    match t.owner.(core) with
    | Some app
      when now t - t.stint_start.(core) >= t.profile.realloc_interval -> (
        match rotation_candidate t ~owner:app with
        | Some app2 -> preempt_for t ~app:app2 ~core
        | None -> ())
    | _ -> ()
  done;
  (* Latency-critical apps first, then best-effort backfill. *)
  List.iter
    (fun id ->
      let a = app_state t id in
      let want = demand t a in
      let rec grant_loop n =
        if n > 0 then
          match free_core t with
          | Some core ->
              grant t ~app:id ~core;
              grant_loop (n - 1)
          | None -> (
              if t.profile.preempt_be then
                match be_owned_core t with
                | Some core -> preempt_for t ~app:id ~core
                | None -> ())
      in
      grant_loop want)
    t.lc_order;
  List.iter
    (fun id ->
      let a = app_state t id in
      let rec backfill () =
        if U.Task_queue.length a.queue > 0 then
          match free_core t with
          | Some core ->
              grant t ~app:id ~core;
              backfill ()
          | None -> ()
      in
      backfill ())
    t.be_order

let tick t =
  if t.running then begin
    scheduler_pass t;
    ignore
      (Sim.schedule_tagged_after (Hw.Machine.sim t.machine)
         ~delay:t.profile.realloc_interval ~tag:t.tick_tag ~a:0 ~b:0)
  end

(* --- Sched_intf plumbing --- *)

let add_app t spec =
  if Hashtbl.mem t.apps spec.Sched_intf.id then
    invalid_arg "Baseline.add_app: duplicate app id";
  Hashtbl.add t.apps spec.Sched_intf.id
    {
      spec;
      queue = U.Task_queue.create ();
      pset = U.Core_index.Pset.create ();
      workers_arr = [||];
      nworkers = 0;
      owned = U.Core_index.Bitset.create (ncores t);
      granted = 0;
      busy_snapshot = 0;
    };
  t.app_order <- t.app_order @ [ spec.Sched_intf.id ];
  (match spec.Sched_intf.class_ with
  | Sched_intf.Latency_critical -> t.lc_order <- t.lc_order @ [ spec.Sched_intf.id ]
  | Sched_intf.Best_effort -> t.be_order <- t.be_order @ [ spec.Sched_intf.id ])

let add_worker t ~app_id ~name ~step =
  let a = app_state t app_id in
  let th =
    U.Uthread.create ~tid:(fresh_tid t) ~app:app_id ~uproc:app_id ~name
      ~priority:(Sched_intf.priority_of_class a.spec.Sched_intf.class_)
      ~step ()
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
  U.Task_queue.push a.queue th ~now:(now t);
  th

(* Lowest core granted to [app] that is idle: intersect the app's
   ownership bits with the executor-maintained idle bits. *)
let idle_granted_core t ~app =
  let a = app_state t app in
  match
    U.Core_index.Bitset.first_and a.owned (U.Core_index.idle_bits t.cindex)
  with
  | -1 -> None
  | core -> Some core

let notify_app t ~app_id =
  let a = app_state t app_id in
  (* Highest parked slot = newest parked worker, the old find_opt's
     answer over the newest-first list. *)
  (match U.Core_index.Pset.highest a.pset with
  | -1 -> ()
  | slot ->
      let th = a.workers_arr.(slot) in
      U.Uthread.set_state th U.Uthread.Ready;
      U.Task_queue.push a.queue th ~now:(now t));
  let spinning_granted_core () =
    (* Walk only the cores this app owns. *)
    let rec go from =
      match U.Core_index.Bitset.next a.owned ~from with
      | -1 -> None
      | core -> (
          match U.Exec.current (get_exec t) ~core with
          | Some th when is_spin th -> Some core
          | _ -> go (core + 1))
    in
    go 0
  in
  match idle_granted_core t ~app:app_id with
  | Some core -> U.Exec.notify (get_exec t) ~core
  | None -> (
      match spinning_granted_core () with
      | Some core ->
          (* The steal loop finds the new work: abort the spin. *)
          t.spun.(core) <- false;
          U.Exec.preempt (get_exec t) ~core ~overhead:0
      | None ->
          (* The busy-polling IOKernel notices the wakeup between passes
             and grants a free core; Arachne's arbiter waits for its next
             pass. *)
          if t.profile.grant_on_notify && U.Task_queue.length a.queue > 0 then begin
            match free_core t with
            | Some core -> grant t ~app:app_id ~core
            | None -> ()
          end)

let start t =
  t.running <- true;
  U.Exec.start_all (get_exec t);
  scheduler_pass t;
  ignore
    (Sim.schedule_tagged_after (Hw.Machine.sim t.machine)
       ~delay:t.profile.realloc_interval ~tag:t.tick_tag ~a:0 ~b:0)

let stop t =
  t.running <- false;
  for core = 0 to ncores t - 1 do
    U.Exec.stop (get_exec t) ~core
  done

let make profile ~machine =
  let n = Hw.Machine.ncores machine in
  let unowned = U.Core_index.Bitset.create n in
  for core = 0 to n - 1 do
    U.Core_index.Bitset.set unowned core
  done;
  let t =
    {
      machine;
      profile;
      exec = None;
      cindex = U.Core_index.create ~ncores:n;
      unowned;
      beown = U.Core_index.Bitset.create n;
      apps = Hashtbl.create 8;
      app_order = [];
      lc_order = [];
      be_order = [];
      owner = Array.make n None;
      stint_start = Array.make n 0;
      last_app = Array.make n None;
      spun = Array.make n false;
      spin_threads = Array.make n None;
      park_hist = Stats.Histogram.create ();
      next_tid = 1;
      reallocs = 0;
      running = false;
      preempt_tag = -1;
      tick_tag = -1;
    }
  in
  let hooks =
    {
      (U.Exec.default_hooks ()) with
      U.Exec.pick_next = (fun ~core -> pick_next t ~core);
      on_preempted = (fun ~core th -> on_preempted t ~core th);
      switch_overhead =
        (fun ~core ~kind ~next -> switch_overhead t ~core ~kind ~next);
      (* Kernel-mediated switching: overheads land in the kernel bucket;
         steal-loop spinning is runtime work (Exec charges Runtime_work to
         the Runtime bucket regardless of this field). *)
      overhead_category = Stats.Cycle_account.Kernel;
      syscall_category = Stats.Cycle_account.Kernel;
      on_run = (fun ~core th -> on_run t ~core th);
    }
  in
  t.exec <- Some (U.Exec.create ~index:t.cindex machine hooks);
  let sim = Hw.Machine.sim machine in
  t.preempt_tag <-
    Sim.register_handler sim (fun core overhead ->
        U.Exec.preempt (get_exec t) ~core ~overhead);
  t.tick_tag <- Sim.register_handler sim (fun _ _ -> tick t);
  t

let system t =
  {
    Sched_intf.sys_name = t.profile.prof_name;
    add_app = (fun spec -> add_app t spec);
    add_worker = (fun ~app_id ~name ~step -> add_worker t ~app_id ~name ~step);
    notify_app = (fun ~app_id -> notify_app t ~app_id);
    start = (fun () -> start t);
    stop = (fun () -> stop t);
    switch_latencies = (fun () -> Some t.park_hist);
  }

let exec t = get_exec t
let reallocations t = t.reallocs
let preempt_stages t = preempt_stages_of (Hw.Machine.cost t.machine)
