module Sim = Vessel_engine.Sim
module Hw = Vessel_hw
module Mem = Vessel_mem
module Stats = Vessel_stats
module Cost_model = Hw.Cost_model
module Probe = Vessel_obs.Probe
module Tag = Vessel_obs.Tag
module Request = Vessel_obs.Request

type t = {
  machine : Hw.Machine.t;
  smas : Mem.Smas.t;
  pipe : Message_pipe.t;
  gate : Call_gate.t;
  signals : Signal.t;
  syscalls : Syscall.t;
  mutable exec : Exec.t option; (* tied after hooks exist *)
  (* Incremental core-state index: Exec maintains the idle/BE bits; the
     queue-mutation sites below keep the per-core lengths in sync so
     scheduler placement is O(1) instead of an O(cores) walk. *)
  index : Core_index.t;
  core_queues : Task_queue.t array;
  be_queue : Task_queue.t;
  uprocs : (int, Uprocess.t) Hashtbl.t;
  threads : (int, Uthread.t) Hashtbl.t;
  receivers : Hw.Uintr.receiver array;
  uitt : Hw.Uintr.uitt;
  park_hist : Stats.Histogram.t;
  mutable next_tid : int;
}

let get_exec t =
  match t.exec with Some e -> e | None -> assert false

let machine t = t.machine
let smas t = t.smas
let pipe t = t.pipe
let exec t = get_exec t
let ncores t = Hw.Machine.ncores t.machine
let now t = Hw.Machine.now t.machine

let index t = t.index

(* Mirror [core]'s live queue length into the index. Called after every
   mutation of a per-core queue (the global BE queue is not indexed). *)
let sync_len t ~core =
  Core_index.sync_len t.index core (Task_queue.length t.core_queues.(core))

let uprocess t ~slot = Hashtbl.find_opt t.uprocs slot
let thread t ~tid = Hashtbl.find_opt t.threads tid

(* A thread is dead when it exited, was individually killed, or its
   uProcess was killed. *)
let is_dead t th =
  Uthread.state th = Uthread.Exited
  || Uthread.is_killed th
  ||
  match uprocess t ~slot:(Uthread.uproc th) with
  | Some u -> Uprocess.state u = Uprocess.Killed
  | None -> true

let finalize_exit t th =
  if Uthread.state th <> Uthread.Exited then Uthread.set_state th Uthread.Exited;
  Hashtbl.remove t.threads (Uthread.tid th)

let mark_killed t slot =
  match uprocess t ~slot with
  | None -> ()
  | Some u ->
      if Uprocess.state u <> Uprocess.Killed then begin
        Uprocess.set_state u Uprocess.Killed;
        Syscall.close_all t.syscalls ~slot |> ignore;
        (* Parked threads can be reaped immediately; queued ones fall out
           lazily at the next privileged entry of their core. *)
        List.iter
          (fun th ->
            match Uthread.state th with
            | Uthread.Parked -> finalize_exit t th
            | _ -> ())
          (Uprocess.threads u)
      end

(* --- privileged-mode command processing (section 4.3) --- *)

let apply_command t ~core = function
  | Signal.Run_thread tid -> (
      match thread t ~tid with
      | Some th when not (is_dead t th) -> (
          match Uthread.state th with
          | Uthread.Parked | Uthread.Ready ->
              Uthread.set_state th Uthread.Ready;
              if not (Task_queue.mem t.core_queues.(core) th) then begin
                Task_queue.push_front t.core_queues.(core) th ~now:(now t);
                sync_len t ~core;
                (* A uintr-carried Run_thread resuming a preempted
                   request: the wake transition is request-attributable. *)
                let c = Uthread.ctx th in
                if !Vessel_obs.Probe.req_on && c <> Request.none then begin
                  let c = Request.with_phase c Request.Wake in
                  Uthread.set_ctx th c;
                  Request.mark c ~ts:(now t)
                    ~track:(Vessel_obs.Track.Core core)
                end
              end
          | Uthread.Running _ | Uthread.Exited -> ())
      | _ -> ())
  | Signal.Preempt_to_be -> ()
  | Signal.Kill_thread tid -> (
      match thread t ~tid with
      | Some th -> Uthread.mark_killed th
      | None -> ())
  | Signal.Kill_uprocess slot -> mark_killed t slot
  | Signal.Fault { slot; reason = _ } -> mark_killed t slot

let process_commands t ~core =
  (* Entering privileged mode acknowledges any posted user interrupt. The
     ack instant is what lets the checker match a send whose notification
     was deferred (or injected away) but whose posted bit was drained
     here. *)
  (match Hw.Uintr.take_pending t.receivers.(core) with
  | [] -> ()
  | _ :: _ ->
      if !Probe.on then
        Probe.instant ~ts:(now t)
          ~track:(Vessel_obs.Track.Core core)
          ~name:Tag.uintr_ack ());
  match Signal.drain t.signals ~core with
  | [] -> false
  | cmds ->
      List.iter (apply_command t ~core) cmds;
      true

(* --- the local half of the one-level policy (section 4.5) --- *)

let rec pop_live t q =
  match Task_queue.pop q ~now:(now t) with
  | None -> None
  | Some (th, _) ->
      if is_dead t th then begin
        finalize_exit t th;
        pop_live t q
      end
      else Some th

let pick_next t ~core =
  ignore (process_commands t ~core);
  let r = pop_live t t.core_queues.(core) in
  (* pop_live may also have dropped dead entries: re-sync the length. *)
  sync_len t ~core;
  match r with Some _ -> r | None -> pop_live t t.be_queue

(* --- executor hooks --- *)

(* A VESSEL switch executes two WRPKRUs (park out of the old image, load
   the new); under a timing fault profile each is jittered. *)
let wrpkru_jitter t =
  let inj = Hw.Machine.inject t.machine in
  if inj.Hw.Inject.enabled then
    inj.Hw.Inject.wrpkru_extra () + inj.Hw.Inject.wrpkru_extra ()
  else 0

let switch_overhead t ~core ~kind ~next =
  ignore next;
  let c = Hw.Machine.cost t.machine in
  match kind with
  | Exec.Initial | Exec.Idle_wake ->
      c.Cost_model.context_restore + c.Cost_model.queue_op
  | Exec.Park_switch | Exec.Exit_switch ->
      let ns =
        Hw.Machine.jitter t.machine core (Cost_model.vessel_park_switch c)
        + wrpkru_jitter t
      in
      Stats.Histogram.record t.park_hist ns;
      ns
  | Exec.Preempt_switch ->
      (* The Uintr delivery flight is event latency, not core-busy time;
         the handler entry and uiret are. *)
      let base =
        Cost_model.vessel_park_switch c
        + c.Cost_model.uintr_handler_entry + c.Cost_model.uiret
      in
      Hw.Machine.jitter t.machine core base + wrpkru_jitter t

let on_run t ~core th =
  (* Figure 6, step 3: publish the mapping and flip the core's PKRU to the
     target uProcess's image. *)
  let pkru =
    match uprocess t ~slot:(Uthread.uproc th) with
    | Some u -> Uprocess.pkru u
    | None -> Hw.Pkru.all_denied
  in
  Message_pipe.set_task t.pipe ~core ~tid:(Uthread.tid th) ~pkru;
  Hw.Core.set_pkru (Hw.Machine.core t.machine core) pkru;
  if !Probe.on then
    Probe.instant ~ts:(now t)
      ~track:(Vessel_obs.Track.Core core)
      ~name:Tag.dispatch
      ~args:
        [
          ("tid", Vessel_obs.Event.Int (Uthread.tid th));
          ("uproc", Vessel_obs.Event.Int (Uthread.uproc th));
          ("pkru", Vessel_obs.Event.Int (Hw.Pkru.to_int pkru));
          (* nonzero only when resuming a preempted request; a fresh
             dispatch binds its request at the first segment *)
          ("rid", Vessel_obs.Event.Int (Request.rid (Uthread.ctx th)));
        ]
      ();
  if !Probe.metrics_on then Probe.incr "uproc.dispatches";
  Hw.Uintr.set_running (Hw.Machine.uintr t.machine) t.receivers.(core) true

let on_descheduled t ~core th =
  ignore th;
  Hw.Uintr.set_running (Hw.Machine.uintr t.machine) t.receivers.(core) false;
  Message_pipe.set_task t.pipe ~core ~tid:(-1)
    ~pkru:(Mem.Smas.pkru_runtime t.smas)

let on_park t ~core th = if is_dead t th then finalize_exit t th else ignore core

let on_preempted t ~core th =
  if is_dead t th then finalize_exit t th
  else
    match Uthread.priority th with
    | Uthread.Best_effort ->
        (* Preempted best-effort threads return to the global queue
           (Figure 7b). *)
        Task_queue.push t.be_queue th ~now:(now t)
    | Uthread.Latency_critical ->
        Task_queue.push t.core_queues.(core) th ~now:(now t);
        sync_len t ~core

let on_exit t ~core:_ th = finalize_exit t th

(* --- Uintr plumbing --- *)

let handle_uintr t ~core =
  (* Runs [uintr_delivery] ns after senduipi, in the victim's handler. *)
  if !Probe.on then
    Probe.instant ~ts:(now t)
      ~track:(Vessel_obs.Track.Core core)
      ~name:Tag.uintr_handle ();
  if !Probe.metrics_on then Probe.incr "uproc.uintr.handled";
  if process_commands t ~core then Exec.preempt (get_exec t) ~core ~overhead:0

let create ~machine ~smas () =
  let n = Hw.Machine.ncores machine in
  let pipe = Message_pipe.create smas ~ncores:n in
  let gate =
    Call_gate.create
      ~inject:(Hw.Machine.inject machine)
      ~clock:(fun () -> Hw.Machine.now machine)
      ~smas ~pipe ~cost:(Hw.Machine.cost machine) ()
  in
  let fabric = Hw.Machine.uintr machine in
  let receivers =
    Array.init n (fun core -> Hw.Uintr.register_receiver fabric ~id:core)
  in
  let uitt = Hw.Uintr.create_uitt fabric ~size:n in
  Array.iteri (fun core r -> Hw.Uintr.uitt_set uitt ~index:core r ~vector:1)
    receivers;
  let t =
    {
      machine;
      smas;
      pipe;
      gate;
      signals = Signal.create ~ncores:n;
      syscalls = Syscall.create ();
      exec = None;
      index = Core_index.create ~ncores:n;
      (* Deterministic probe ids: core index for the per-core queues, the
         core count for the global best-effort queue. *)
      core_queues = Array.init n (fun i -> Task_queue.create ~id:i ());
      be_queue = Task_queue.create ~id:n ();
      uprocs = Hashtbl.create 8;
      threads = Hashtbl.create 64;
      receivers;
      uitt;
      park_hist = Stats.Histogram.create ();
      next_tid = 1;
    }
  in
  let hooks =
    {
      Exec.pick_next = (fun ~core -> pick_next t ~core);
      on_park = (fun ~core th -> on_park t ~core th);
      on_preempted = (fun ~core th -> on_preempted t ~core th);
      on_exit = (fun ~core th -> on_exit t ~core th);
      switch_overhead =
        (fun ~core ~kind ~next -> switch_overhead t ~core ~kind ~next);
      overhead_category = Stats.Cycle_account.Runtime;
      (* VESSEL redirects syscalls through the trusted runtime. *)
      syscall_category = Stats.Cycle_account.Runtime;
      on_run = (fun ~core th -> on_run t ~core th);
      on_descheduled = (fun ~core th -> on_descheduled t ~core th);
    }
  in
  t.exec <- Some (Exec.create ~index:t.index machine hooks);
  (* Posted user interrupts reach their handler after the delivery
     latency; delivery is a tagged event so each senduipi is
     allocation-free. *)
  let uintr_tag =
    Sim.register_handler (Hw.Machine.sim machine) (fun core _ ->
        handle_uintr t ~core)
  in
  Hw.Machine.set_uintr_dispatch machine (fun r ->
      (* Several domains share the fabric: only react to our receivers. *)
      let core = Hw.Uintr.receiver_id r in
      if core >= 0 && core < n && t.receivers.(core) == r then begin
        let delay = (Hw.Machine.cost machine).Cost_model.uintr_delivery in
        ignore
          (Sim.schedule_tagged_after (Hw.Machine.sim machine) ~delay
             ~tag:uintr_tag ~a:core ~b:0)
      end);
  t

let start t =
  for core = 0 to ncores t - 1 do
    Exec.start (get_exec t) ~core
  done

let stop t =
  for core = 0 to ncores t - 1 do
    Exec.stop (get_exec t) ~core
  done

let register_uprocess t u =
  let slot = Uprocess.slot u in
  if Hashtbl.mem t.uprocs slot then
    invalid_arg (Printf.sprintf "Runtime.register_uprocess: slot %d taken" slot);
  Hashtbl.add t.uprocs slot u

let unregister_uprocess t ~slot =
  match uprocess t ~slot with
  | None -> ()
  | Some u ->
      if Uprocess.state u <> Uprocess.Killed then
        invalid_arg "Runtime.unregister_uprocess: uProcess still alive";
      if Uprocess.live_threads u > 0 then
        invalid_arg "Runtime.unregister_uprocess: threads still live";
      Hashtbl.remove t.uprocs slot

(* Push scheduling commands to a core and kick it with a user interrupt.
   Every send path goes through here so the probe stream sees each one:
   the checker matches sends against handles/acks for the no-lost-wakeup
   invariant. *)
let preempt_core t ~core commands =
  if !Probe.on then
    Probe.instant ~ts:(now t)
      ~track:(Vessel_obs.Track.Core core)
      ~name:Tag.uintr_send
      ~args:[ ("commands", Vessel_obs.Event.Int (List.length commands)) ]
      ();
  if !Probe.metrics_on then Probe.incr "uproc.uintr.sends";
  List.iter (Signal.push t.signals ~core) commands;
  match Hw.Uintr.senduipi (Hw.Machine.uintr t.machine) t.uitt ~index:core with
  | `Notified -> ()
  | `Deferred ->
      (* Victim is not in user mode: idle cores pick the commands up via
         notify; switching cores drain them at the next privileged entry. *)
      if Exec.is_idle (get_exec t) ~core then Exec.notify (get_exec t) ~core

let kill_uprocess t ~slot =
  mark_killed t slot;
  (* Uintr every core currently running one of its threads so the kill is
     acted on promptly (the manager's kill command, section 5.1). *)
  for core = 0 to ncores t - 1 do
    match Exec.current (get_exec t) ~core with
    | Some th when Uthread.uproc th = slot ->
        preempt_core t ~core [ Signal.Kill_uprocess slot ]
    | _ -> ()
  done

let kill_thread t ~tid =
  match thread t ~tid with
  | None -> ()
  | Some th -> (
      Uthread.mark_killed th;
      match Uthread.state th with
      | Uthread.Parked -> finalize_exit t th
      | Uthread.Ready | Uthread.Exited ->
          (* Queued threads are reaped lazily by pick_next. *)
          ()
      | Uthread.Running core ->
          preempt_core t ~core [ Signal.Kill_thread tid ])

let raise_fault t ~slot ~reason =
  (* Section 4.3: no Uintr — the fault is queued and handled when each
     core next enters privileged mode. *)
  let cores = ref [] in
  for core = 0 to ncores t - 1 do
    match Exec.current (get_exec t) ~core with
    | Some th when Uthread.uproc th = slot -> cores := core :: !cores
    | _ -> ()
  done;
  Signal.broadcast_fault t.signals ~cores:!cores ~slot ~reason;
  (* Queued/parked threads die at the next scheduling event; mark the
     uProcess now so pick_next filters them. *)
  mark_killed t slot

let spawn t ~uproc ~app ~priority ~name ~step ~stack ~core =
  ignore stack;
  if Uprocess.state uproc = Uprocess.Killed then
    invalid_arg "Runtime.spawn: uProcess is killed";
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th =
    Uthread.create ~tid ~app ~uproc:(Uprocess.slot uproc) ~name ~priority
      ~step ()
  in
  Uprocess.add_thread uproc th;
  Hashtbl.replace t.threads tid th;
  (match priority with
  | Uthread.Best_effort -> Task_queue.push t.be_queue th ~now:(now t)
  | Uthread.Latency_critical ->
      Task_queue.push t.core_queues.(core) th ~now:(now t);
      sync_len t ~core);
  Exec.notify (get_exec t) ~core;
  th

let wake_thread t th ~core =
  if Uthread.state th = Uthread.Parked && not (is_dead t th) then begin
    Uthread.set_state th Uthread.Ready;
    Task_queue.push t.core_queues.(core) th ~now:(now t);
    sync_len t ~core;
    let c = Uthread.ctx th in
    if !Vessel_obs.Probe.req_on && c <> Request.none then begin
      let c = Request.with_phase c Request.Wake in
      Uthread.set_ctx th c;
      Request.mark c ~ts:(now t) ~track:(Vessel_obs.Track.Core core)
    end;
    Exec.notify (get_exec t) ~core
  end

let queue_delay t ~core = Task_queue.head_delay t.core_queues.(core) ~now:(now t)
let current_thread t ~core = Exec.current (get_exec t) ~core

let assign t th ~core =
  if Uthread.state th <> Uthread.Ready then
    invalid_arg "Runtime.assign: thread not Ready";
  Task_queue.push t.core_queues.(core) th ~now:(now t);
  sync_len t ~core;
  Exec.notify (get_exec t) ~core

let steal_queued t ~core =
  let r = pop_live t t.core_queues.(core) in
  sync_len t ~core;
  r

let switch_latencies t = t.park_hist
