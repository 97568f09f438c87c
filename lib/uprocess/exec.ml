module Sim = Vessel_engine.Sim
module Time = Vessel_engine.Time
module Hw = Vessel_hw
module Stats = Vessel_stats
module Probe = Vessel_obs.Probe
module Tag = Vessel_obs.Tag
module Request = Vessel_obs.Request

type switch_kind = Initial | Park_switch | Preempt_switch | Exit_switch | Idle_wake

type hooks = {
  pick_next : core:int -> Uthread.t option;
  on_park : core:int -> Uthread.t -> unit;
  on_preempted : core:int -> Uthread.t -> unit;
  on_exit : core:int -> Uthread.t -> unit;
  switch_overhead :
    core:Vessel_hw.Core.t -> kind:switch_kind -> next:Uthread.t option -> int;
  overhead_category : Vessel_stats.Cycle_account.category;
  syscall_category : Vessel_stats.Cycle_account.category;
  on_run : core:int -> Uthread.t -> unit;
  on_descheduled : core:int -> Uthread.t -> unit;
}

let default_hooks () =
  {
    pick_next = (fun ~core:_ -> None);
    on_park = (fun ~core:_ _ -> ());
    on_preempted = (fun ~core:_ _ -> ());
    on_exit = (fun ~core:_ _ -> ());
    switch_overhead = (fun ~core:_ ~kind:_ ~next:_ -> 0);
    overhead_category = Stats.Cycle_account.Runtime;
    syscall_category = Stats.Cycle_account.Kernel;
    on_run = (fun ~core:_ _ -> ());
    on_descheduled = (fun ~core:_ _ -> ());
  }

type core_state =
  | Stopped
  | Idle of { since : Time.t }
  | Switching of {
      next : Uthread.t option;
      handle : Vessel_engine.Event_queue.handle;
      mutable preempt_after : bool;
    }
  | Executing of {
      th : Uthread.t;
      action : Uthread.action;
      started : Time.t;
      effective : int;
      handle : Vessel_engine.Event_queue.handle;
    }

type t = {
  machine : Hw.Machine.t;
  hooks : hooks;
  states : core_state array;
  (* Incremental occupancy index: idle/BE bits maintained at every
     core-state write so scheduler placement queries are bit scans. *)
  index : Core_index.t option;
  (* Sim dispatch tags for the two hottest event kinds (segment
     completion and switch landing), registered once in [create] so the
     per-event schedules are closure-free. -1 until registered. *)
  mutable complete_tag : int;
  mutable switch_tag : int;
}

let machine t = t.machine
let sim t = Hw.Machine.sim t.machine
let now t = Hw.Machine.now t.machine
let hw_core t core = Hw.Machine.core t.machine core
let cost t = Hw.Machine.cost t.machine

let core_track core = Vessel_obs.Track.Core core

let cat_counter = function
  | Stats.Cycle_account.App _ -> "cycles.app"
  | Stats.Cycle_account.Runtime -> "cycles.runtime"
  | Stats.Cycle_account.Kernel -> "cycles.kernel"
  | Stats.Cycle_account.Idle -> "cycles.idle"

(* Single write point for core states: keeps the index's idle/BE bits in
   lockstep. The BE bit mirrors [current]'s thread — including one being
   switched in — matching the walks the index replaces. *)
let set_cstate t ~core st =
  (match t.index with
  | None -> ()
  | Some ix ->
      let is_be th =
        match Uthread.priority th with
        | Uthread.Best_effort -> true
        | Uthread.Latency_critical -> false
      in
      let idle, be =
        match st with
        | Idle _ -> (true, false)
        | Executing { th; _ } -> (false, is_be th)
        | Switching { next = Some th; _ } -> (false, is_be th)
        | Switching { next = None; _ } | Stopped -> (false, false)
      in
      Core_index.set_idle ix core idle;
      Core_index.set_be ix core be);
  t.states.(core) <- st

let charge t ~core cat d =
  if d > 0 then begin
    if !Probe.metrics_on then Probe.incr ~by:d (cat_counter cat);
    Hw.Core.charge (hw_core t core) cat d
  end

(* Action bookkeeping: which account a segment bills, and its completion
   callback. *)
let action_category t th = function
  | Uthread.Syscall _ -> t.hooks.syscall_category
  (* Runtime_work is always userspace-runtime time (e.g. a steal loop),
     even when the scheduler's switch overheads land in the kernel. *)
  | Uthread.Runtime_work _ -> Stats.Cycle_account.Runtime
  | _ -> Stats.Cycle_account.App (Uthread.app th)

let action_name = function
  | Uthread.Compute _ -> Tag.compute
  | Uthread.Mem_work _ -> Tag.mem
  | Uthread.Syscall _ -> Tag.syscall
  | Uthread.Runtime_work _ -> Tag.runtime_work
  | Uthread.Park | Uthread.Exit -> "none"

let kind_name = function
  | Initial -> Tag.switch_initial
  | Park_switch -> Tag.switch_park
  | Preempt_switch -> Tag.switch_preempt
  | Exit_switch -> Tag.switch_exit
  | Idle_wake -> Tag.switch_wake

let action_completion = function
  | Uthread.Compute { on_complete; _ }
  | Uthread.Mem_work { on_complete; _ }
  | Uthread.Syscall { on_complete; _ }
  | Uthread.Runtime_work { on_complete; _ } ->
      on_complete
  | Uthread.Park | Uthread.Exit -> None

(* A transient core stall (SMI-style, fault injection): unavailable time
   folded into the switch overhead so it is charged — conservation must
   hold even under chaos. *)
let injected_stall t ~core =
  let inj = Hw.Machine.inject t.machine in
  if not inj.Hw.Inject.enabled then 0
  else begin
    let s = inj.Hw.Inject.core_stall () in
    if s > 0 then begin
      if !Probe.on then
        Probe.instant ~ts:(now t) ~track:(core_track core)
          ~name:Tag.inject_stall
          ~args:[ ("ns", Vessel_obs.Event.Int s) ]
          ();
      if !Probe.metrics_on then Probe.incr "inject.stall"
    end;
    s
  end

let rec free_core t ~core ~kind ~extra =
  let next = t.hooks.pick_next ~core in
  let overhead =
    extra + injected_stall t ~core
    + t.hooks.switch_overhead ~core:(hw_core t core) ~kind ~next
  in
  if overhead <= 0 then land_switch t ~core ~next
  else begin
    if !Probe.on then
      Probe.span_begin ~ts:(now t) ~track:(core_track core)
        ~name:(kind_name kind) ();
    if !Probe.metrics_on then begin
      Probe.incr "uproc.switches";
      Probe.observe "uproc.switch_ns" overhead
    end;
    let handle =
      Sim.schedule_tagged_after (sim t) ~delay:overhead ~tag:t.switch_tag
        ~a:core ~b:overhead
    in
    set_cstate t ~core (Switching { next; handle; preempt_after = false })
  end

and switch_landed t ~core ~overhead =
  if !Probe.on then Probe.span_end ~ts:(now t) ~track:(core_track core);
  charge t ~core t.hooks.overhead_category overhead;
  match t.states.(core) with
  | Switching s ->
      let next =
        (* The chosen thread may have exited/been killed while the
           switch was in flight. *)
        match s.next with
        | Some th when Uthread.state th = Uthread.Exited -> None
        | n -> n
      in
      land_switch t ~core ~next;
      if s.preempt_after then preempt t ~core ~overhead:0
  | Stopped | Idle _ | Executing _ -> ()

and land_switch t ~core ~next =
  match next with
  | Some th -> start_thread t ~core th
  | None -> (
      (* Re-poll once: work may have arrived during the switch. *)
      match t.hooks.pick_next ~core with
      | Some th -> start_thread t ~core th
      | None ->
          set_cstate t ~core (Idle { since = now t });
          if !Probe.on then
            Probe.span_begin ~ts:(now t) ~track:(core_track core)
              ~name:Tag.idle ();
          Hw.Umwait.enter (Hw.Core.umwait (hw_core t core)) ~at:(now t))

and start_thread t ~core th =
  Uthread.set_state th (Uthread.Running core);
  t.hooks.on_run ~core th;
  exec_segment t ~core th

and exec_segment t ~core th =
  let action = Uthread.next_action th ~now:(now t) in
  match action with
  | Uthread.Park ->
      Uthread.set_state th Uthread.Parked;
      t.hooks.on_descheduled ~core th;
      t.hooks.on_park ~core th;
      free_core t ~core ~kind:Park_switch ~extra:0
  | Uthread.Exit ->
      Uthread.set_state th Uthread.Exited;
      t.hooks.on_descheduled ~core th;
      t.hooks.on_exit ~core th;
      free_core t ~core ~kind:Exit_switch ~extra:0
  | Uthread.Compute { ns; _ } -> run_timed t ~core th action ~effective:ns
  | Uthread.Syscall { ns; _ } -> run_timed t ~core th action ~effective:ns
  | Uthread.Runtime_work { ns; _ } -> run_timed t ~core th action ~effective:ns
  | Uthread.Mem_work { ns; footprint; _ } ->
      let c = cost t in
      let extra =
        match footprint with
        | None -> 0
        | Some (base, len) ->
            (* A footprint sweep reads and writes every word of each
               line: 16 word accesses per 64-byte line. Misses overlap in
               the memory pipeline, so each costs only the streaming
               stall, not the full DRAM latency. *)
            let cache = Hw.Machine.cache t.machine in
            let before = Hw.Cache.misses cache in
            Hw.Cache.access_run cache ~word_accesses:16 ~addr:base ~len ();
            (Hw.Cache.misses cache - before) * c.Hw.Cost_model.cache_miss_stall
      in
      let congestion = Hw.Membw.congestion (Hw.Machine.membw t.machine) in
      let effective =
        int_of_float (Float.round (float_of_int (ns + extra) *. congestion))
      in
      run_timed t ~core th action ~effective

and run_timed t ~core th action ~effective =
  let effective = max 0 effective in
  let started = now t in
  if !Probe.on then
    Probe.span_begin ~ts:started ~track:(core_track core)
      ~name:(action_name action)
      ~args:
        [
          ("tid", Vessel_obs.Event.Int (Uthread.tid th));
          ("app", Vessel_obs.Event.Int (Uthread.app th));
        ]
      ();
  (* Dispatch transition for the request this thread serves — fires both
     on first dispatch (the context was just bound by next_action) and
     on resumption after a preemption (the context rode the remainder). *)
  if !Vessel_obs.Probe.req_on then begin
    let c = Uthread.ctx th in
    if c <> Request.none then begin
      let c = Request.with_phase c Request.Dispatch in
      Uthread.set_ctx th c;
      Request.mark c ~ts:started ~track:(core_track core)
    end
  end;
  let handle =
    Sim.schedule_tagged_after (sim t) ~delay:effective ~tag:t.complete_tag
      ~a:core ~b:0
  in
  set_cstate t ~core (Executing { th; action; started; effective; handle })

and complete_segment t ~core th action ~effective =
  if !Probe.on then Probe.span_end ~ts:(now t) ~track:(core_track core);
  charge t ~core (action_category t th action) effective;
  (match action with
  | Uthread.Compute _ | Uthread.Mem_work _ -> Uthread.charge th effective
  | Uthread.Syscall _ | Uthread.Runtime_work _ | Uthread.Park | Uthread.Exit ->
      ());
  (match action with
  | Uthread.Mem_work { bytes; _ } when bytes > 0 ->
      Hw.Membw.consume (Hw.Machine.membw t.machine) ~app:(Uthread.app th)
        ~bytes ~at:(now t)
  | _ -> ());
  (match action_completion action with
  | Some f ->
      f (now t);
      (* The served request finished with this segment: unbind it so the
         context can't leak onto the thread's next request. *)
      if !Vessel_obs.Probe.req_on then Uthread.set_ctx th Request.none
  | None -> ());
  exec_segment t ~core th

and preempt t ~core ~overhead =
  match t.states.(core) with
  | Stopped -> ()
  | Idle _ -> notify t ~core
  | Switching s -> s.preempt_after <- true
  | Executing { th; action; started; effective; handle } ->
      Sim.cancel (sim t) handle;
      if !Probe.on then begin
        Probe.span_end ~ts:(now t) ~track:(core_track core);
        Probe.instant ~ts:(now t) ~track:(core_track core) ~name:Tag.preempt
          ~args:[ ("tid", Vessel_obs.Event.Int (Uthread.tid th)) ]
          ()
      end;
      if !Probe.metrics_on then Probe.incr "uproc.preempts";
      let executed = min effective (now t - started) in
      charge t ~core (action_category t th action) executed;
      (match action with
      | Uthread.Compute _ | Uthread.Mem_work _ -> Uthread.charge th executed
      | _ -> ());
      (* Partial memory traffic is billed pro rata; the remainder keeps
         the rest (Uthread.save_remainder scales bytes with ns). *)
      (match action with
      | Uthread.Mem_work { bytes; _ } when bytes > 0 && effective > 0 ->
          Hw.Membw.consume (Hw.Machine.membw t.machine) ~app:(Uthread.app th)
            ~bytes:(bytes * executed / effective)
            ~at:(now t)
      | _ -> ());
      if executed < effective then begin
        if !Vessel_obs.Probe.req_on then begin
          let c = Uthread.ctx th in
          if c <> Request.none then begin
            let c = Request.with_phase c Request.Preempt in
            Uthread.set_ctx th c;
            Request.mark c ~ts:(now t) ~track:(core_track core)
          end
        end;
        (* Rebase the in-flight action on its effective duration so the
           split arithmetic is consistent with what actually ran. *)
        let inflight =
          match action with
          | Uthread.Compute c -> Uthread.Compute { c with ns = effective }
          | Uthread.Mem_work m -> Uthread.Mem_work { m with ns = effective }
          | Uthread.Syscall s -> Uthread.Syscall { s with ns = effective }
          | Uthread.Runtime_work r ->
              Uthread.Runtime_work { r with ns = effective }
          | (Uthread.Park | Uthread.Exit) as a -> a
        in
        Uthread.save_remainder th inflight ~executed
      end
      else begin
        (* The segment had in fact just finished: deliver its completion. *)
        match action_completion action with
        | Some f ->
            f (now t);
            if !Vessel_obs.Probe.req_on then Uthread.set_ctx th Request.none
        | None -> ()
      end;
      Uthread.set_state th Uthread.Ready;
      t.hooks.on_descheduled ~core th;
      t.hooks.on_preempted ~core th;
      free_core t ~core ~kind:Preempt_switch ~extra:overhead

and notify t ~core =
  match t.states.(core) with
  | Idle { since } ->
      let c = cost t in
      if !Probe.on then Probe.span_end ~ts:(now t) ~track:(core_track core);
      charge t ~core Stats.Cycle_account.Idle (now t - since);
      Hw.Umwait.wake (Hw.Core.umwait (hw_core t core)) ~at:(now t);
      let wake =
        let inj = Hw.Machine.inject t.machine in
        c.Hw.Cost_model.umwait_wake
        + (if inj.Hw.Inject.enabled then inj.Hw.Inject.umwait_extra () else 0)
      in
      free_core t ~core ~kind:Idle_wake ~extra:wake
  | Stopped | Switching _ | Executing _ -> ()

let create ?index machine hooks =
  let t =
    {
      machine;
      hooks;
      states = Array.make (Hw.Machine.ncores machine) Stopped;
      index;
      complete_tag = -1;
      switch_tag = -1;
    }
  in
  let sim = Hw.Machine.sim machine in
  t.complete_tag <-
    Sim.register_handler sim (fun core _ ->
        (* Every transition out of [Executing] cancels the completion
           handle, so a firing completion always finds the segment it was
           scheduled for. *)
        match t.states.(core) with
        | Executing { th; action; effective; _ } ->
            complete_segment t ~core th action ~effective
        | Stopped | Idle _ | Switching _ -> assert false);
  t.switch_tag <-
    Sim.register_handler sim (fun core overhead ->
        switch_landed t ~core ~overhead);
  t

let start t ~core =
  match t.states.(core) with
  | Stopped -> free_core t ~core ~kind:Initial ~extra:0
  | _ -> invalid_arg "Exec.start: core already started"

let start_all t =
  for core = 0 to Array.length t.states - 1 do
    start t ~core
  done

let current t ~core =
  match t.states.(core) with
  | Executing { th; _ } -> Some th
  | Switching { next; _ } -> next
  | Stopped | Idle _ -> None

let is_idle t ~core = match t.states.(core) with Idle _ -> true | _ -> false

let stop t ~core =
  (* Every non-stopped state has one open span on the core's track. *)
  (match t.states.(core) with
  | Executing _ | Switching _ | Idle _ when !Probe.on ->
      Probe.span_end ~ts:(now t) ~track:(core_track core)
  | _ -> ());
  (match t.states.(core) with
  | Executing { th; action; started; effective; handle } ->
      Sim.cancel (sim t) handle;
      let executed = min effective (now t - started) in
      charge t ~core (action_category t th action) executed;
      Uthread.set_state th Uthread.Ready
  | Switching { handle; _ } -> Sim.cancel (sim t) handle
  | Idle { since } -> charge t ~core Stats.Cycle_account.Idle (now t - since)
  | Stopped -> ());
  (match t.states.(core) with
  | Idle _ -> Hw.Umwait.wake (Hw.Core.umwait (hw_core t core)) ~at:(now t)
  | _ -> ());
  set_cstate t ~core Stopped
