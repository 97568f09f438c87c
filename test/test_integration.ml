(* Focused integration tests for cross-module behaviours that the
   per-module suites don't cover: syscall proxying under different
   schedulers, preemption racing a switch, mid-run load changes, and the
   dlopen path driven through a live domain. *)

module Hw = Vessel_hw
module Mem = Vessel_mem
module U = Vessel_uprocess
module S = Vessel_sched
module W = Vessel_workloads
module Sim = Vessel_engine.Sim
module Stats = Vessel_stats
module Obs = Vessel_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Section 5.2.4: under VESSEL, syscalls are intercepted and served by the
   trusted runtime (runtime cycles); under a kernel-process baseline the
   same workload's syscall time lands in the kernel. *)
let syscall_time ~mk =
  let sim = Sim.create ~seed:3 () in
  let machine = Hw.Machine.create ~cores:1 sim in
  let sys = mk machine in
  sys.S.Sched_intf.add_app
    { S.Sched_intf.id = 1; name = "io-app"; class_ = S.Sched_intf.Latency_critical };
  let remaining = ref 100 in
  ignore
    (sys.S.Sched_intf.add_worker ~app_id:1 ~name:"w" ~step:(fun ~now:_ ->
         if !remaining = 0 then U.Uthread.Park
         else begin
           decr remaining;
           U.Uthread.Syscall { ns = 500; on_complete = None }
         end));
  sys.S.Sched_intf.start ();
  Sim.run_until sim 1_000_000;
  sys.S.Sched_intf.stop ();
  let acct = Hw.Machine.total_account machine in
  ( Stats.Cycle_account.total acct Stats.Cycle_account.Runtime,
    Stats.Cycle_account.total acct Stats.Cycle_account.Kernel )

let test_syscall_redirection () =
  let rt_v, k_v =
    syscall_time ~mk:(fun machine -> S.Vessel.system (S.Vessel.make ~machine ()))
  in
  let rt_c, k_c =
    syscall_time ~mk:(fun machine ->
        S.Baseline.system (S.Baseline.make S.Baseline.caladan ~machine))
  in
  (* 100 x 500ns of syscall time: runtime-served under VESSEL... *)
  check_bool "vessel: syscalls in runtime" true (rt_v >= 50_000);
  check_int "vessel: no kernel time" 0 k_v;
  (* ...kernel-served under Caladan. *)
  check_bool "caladan: syscalls in kernel" true (k_c >= 50_000);
  check_bool "caladan: runtime below syscall total" true (rt_c < 50_000)

(* Preempting a core mid-switch defers until the switch lands, then
   fires: no lost preemption, no double execution. *)
let test_preempt_during_switch () =
  let sim = Sim.create ~seed:4 () in
  let machine = Hw.Machine.create ~cores:1 sim in
  let served = ref [] in
  let mk_th tid =
    let done_ = ref false in
    U.Uthread.create ~tid ~app:tid ~uproc:tid ~name:(Printf.sprintf "t%d" tid)
      ~priority:U.Uthread.Latency_critical
      ~step:(fun ~now:_ ->
        if !done_ then U.Uthread.Park
        else begin
          done_ := true;
          U.Uthread.Compute
            { ns = 10_000; on_complete = Some (fun _ -> served := tid :: !served) }
        end)
      ()
  in
  let t1 = mk_th 1 and t2 = mk_th 2 in
  let queue = ref [ t1; t2 ] in
  let hooks =
    {
      (U.Exec.default_hooks ()) with
      U.Exec.pick_next =
        (fun ~core:_ ->
          match !queue with [] -> None | x :: r -> queue := r; Some x);
      on_preempted = (fun ~core:_ th -> queue := !queue @ [ th ]);
      switch_overhead = (fun ~core:_ ~kind:_ ~next:_ -> 1_000);
    }
  in
  let exec = U.Exec.create machine hooks in
  U.Exec.start exec ~core:0;
  (* At t=500 the core is still in its initial 1000ns switch: the preempt
     must defer, then split t1 immediately after it starts. *)
  ignore (Sim.schedule sim ~at:500 (fun _ -> U.Exec.preempt exec ~core:0 ~overhead:0));
  Sim.run_until sim 100_000;
  U.Exec.stop exec ~core:0;
  (* Both threads completed exactly one segment each. *)
  check_int "t1 one completion" 1
    (List.length (List.filter (fun x -> x = 1) !served));
  check_int "t2 one completion" 1
    (List.length (List.filter (fun x -> x = 2) !served));
  check_int "t1 charged its full segment" 10_000 (U.Uthread.total_app_ns t1)

(* Changing the offered rate mid-run takes effect: the epoch mechanism
   kills the stale arrival chain. *)
let test_openloop_rate_change () =
  let sim = Sim.create ~seed:5 () in
  let machine = Hw.Machine.create ~cores:2 sim in
  let v = S.Vessel.make ~machine () in
  let sys = S.Vessel.system v in
  let gen = W.Memcached.make ~sim ~sys ~app_id:1 ~workers:2 () in
  sys.S.Sched_intf.start ();
  W.Openloop.start gen ~rate_rps:100_000. ~until:100_000_000;
  Sim.run_until sim 50_000_000;
  let at_half = W.Openloop.offered gen in
  (* 10x the rate for the second half. *)
  W.Openloop.start gen ~rate_rps:1_000_000. ~until:100_000_000;
  Sim.run_until sim 100_000_000;
  sys.S.Sched_intf.stop ();
  let second_half = W.Openloop.offered gen - at_half in
  check_bool
    (Printf.sprintf "first half ~5k (%d), second ~50k (%d)" at_half second_half)
    true
    (abs (at_half - 5_000) < 500 && abs (second_half - 50_000) < 2_000)

(* dlopen through a live domain: a clean library becomes executable in
   the uProcess's text region; a dirty one is rejected and nothing about
   the running app changes. *)
let test_dlopen_in_live_domain () =
  let sim = Sim.create ~seed:6 () in
  let machine = Hw.Machine.create ~cores:1 sim in
  let mgr = U.Manager.create ~slots:2 ~machine () in
  let rng = Sim.rng sim in
  let image = Mem.Image.make ~name:"app" ~text_size:8192 rng in
  let u = Result.get_ok (U.Manager.create_uprocess mgr ~name:"app" ~image ()) in
  let th =
    U.Manager.spawn_thread mgr ~uproc:u ~app:0
      ~priority:U.Uthread.Latency_critical ~name:"w"
      ~step:(fun ~now:_ -> U.Uthread.Compute { ns = 1_000; on_complete = None })
      ~core:0
  in
  U.Manager.start mgr;
  Sim.run_until sim 10_000;
  let loader = Option.get (U.Manager.loader mgr ~slot:0) in
  (* Clean dlopen mid-run. *)
  (match Mem.Loader.dlopen loader (Mem.Image.library ~name:"libplug.so" ~text_size:4096 rng) with
  | Ok base ->
      check_bool "plugin executable" true
        (Mem.Smas.fetch (U.Manager.smas mgr) ~addr:base ~len:16 = Ok ())
  | Error e -> Alcotest.failf "dlopen failed: %a" Mem.Loader.pp_error e);
  (* Dirty dlopen rejected; the app keeps running. *)
  (match
     Mem.Loader.dlopen loader
       (Mem.Image.make ~name:"libevil.so" ~text_size:4096 ~embed_wrpkru_at:[ 7 ] rng)
   with
  | Error (Mem.Loader.Rejected _) -> ()
  | _ -> Alcotest.fail "dirty dlopen must be rejected");
  Sim.run_until sim 100_000;
  U.Manager.stop mgr;
  check_bool "app unharmed" true (U.Uthread.total_app_ns th > 50_000)

(* The Figure-6 stages appear in the probe stream in the documented
   order: senduipi, handler entry in privileged mode, dispatch with the
   PKRU flip. *)
let test_fig6_trace () =
  let journal = Obs.Journal.create () in
  Obs.Probe.with_sink (Obs.Journal.sink journal) @@ fun () ->
  let sim = Sim.create ~seed:9 () in
  let machine = Hw.Machine.create ~cores:1 sim in
  let v = S.Vessel.make ~machine () in
  let sys = S.Vessel.system v in
  let lc = W.Memcached.make ~sim ~sys ~app_id:1 ~workers:1 () in
  let _lp = W.Linpack.make ~sys ~app_id:2 ~workers:1 () in
  sys.S.Sched_intf.start ();
  (* One request while the BE hog owns the core: forces a Uintr path. *)
  ignore
    (Sim.schedule sim ~at:50_000 (fun _ ->
         W.Openloop.start lc ~rate_rps:1_000_000. ~until:60_000));
  Sim.run_until sim 200_000;
  sys.S.Sched_intf.stop ();
  let events = Obs.Journal.to_list journal in
  let ts_of name =
    List.filter_map
      (fun ev ->
        if Obs.Event.name ev = Some name then Some (Obs.Event.ts ev) else None)
      events
  in
  let sends = ts_of Obs.Tag.uintr_send in
  let handles = ts_of Obs.Tag.uintr_handle in
  let dispatches = ts_of Obs.Tag.dispatch in
  check_bool "send recorded" true (sends <> []);
  check_bool "handle recorded" true (handles <> []);
  check_bool "dispatch recorded" true (dispatches <> []);
  (* Delivery follows the send by the Uintr latency; a dispatch follows. *)
  let s0 = List.hd sends in
  let h0 = List.find (fun at -> at >= s0) handles in
  check_int "delivery latency"
    Hw.Cost_model.default.Hw.Cost_model.uintr_delivery (h0 - s0);
  check_bool "a dispatch follows the handler" true
    (List.exists (fun at -> at >= h0) dispatches)

(* The 13-uProcess limit end to end through a live scheduler. *)
let test_thirteen_uprocesses_live () =
  let sim = Sim.create ~seed:8 () in
  let machine = Hw.Machine.create ~cores:2 sim in
  let v = S.Vessel.make ~machine () in
  let sys = S.Vessel.system v in
  let gens =
    List.init 13 (fun i ->
        W.Synth.make ~sim ~sys ~app_id:(i + 1)
          ~name:(Printf.sprintf "app%d" (i + 1))
          ~class_:S.Sched_intf.Latency_critical ~workers:1
          ~service:(Vessel_engine.Dist.constant 800.) ())
  in
  check_bool "14th app rejected" true
    (try
       sys.S.Sched_intf.add_app
         { S.Sched_intf.id = 14; name = "overflow";
           class_ = S.Sched_intf.Latency_critical };
       false
     with Invalid_argument _ -> true);
  sys.S.Sched_intf.start ();
  List.iter (fun g -> W.Openloop.start g ~rate_rps:50_000. ~until:10_000_000) gens;
  Sim.run_until sim 12_000_000;
  sys.S.Sched_intf.stop ();
  List.iter
    (fun g -> check_bool "every app served" true (W.Openloop.served g > 300))
    gens

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "syscall redirection (5.2.4)" `Quick
          test_syscall_redirection;
        Alcotest.test_case "preempt during switch" `Quick
          test_preempt_during_switch;
        Alcotest.test_case "openloop rate change" `Quick
          test_openloop_rate_change;
        Alcotest.test_case "dlopen in live domain" `Quick
          test_dlopen_in_live_domain;
        Alcotest.test_case "13 uprocesses live" `Quick
          test_thirteen_uprocesses_live;
        Alcotest.test_case "Figure-6 trace order" `Quick test_fig6_trace;
      ] );
  ]
