(* Tests for the scheduler systems: VESSEL's global policy, the
   kernel-mediated baselines (Caladan profiles, Arachne), the CFS
   approximation, and the bandwidth-regulation models. *)

module Hw = Vessel_hw
module U = Vessel_uprocess
module S = Vessel_sched
module Sim = Vessel_engine.Sim
module Stats = Vessel_stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A miniature server app: an injected request queue; each worker pops a
   request, computes [service] ns, records completion latency. *)
type mini_app = {
  spec : S.Sched_intf.app_spec;
  requests : int Queue.t; (* arrival timestamps *)
  latencies : Stats.Histogram.t;
  mutable served : int;
}

let mini_app ~id ~name ~class_ =
  {
    spec = { S.Sched_intf.id; name; class_ };
    requests = Queue.create ();
    latencies = Stats.Histogram.create ();
    served = 0;
  }

let server_step app ~service ~now:_ =
  match Queue.take_opt app.requests with
  | None -> U.Uthread.Park
  | Some arrived ->
      U.Uthread.Compute
        {
          ns = service;
          on_complete =
            Some
              (fun t ->
                app.served <- app.served + 1;
                Stats.Histogram.record app.latencies (max 0 (t - arrived)));
        }

let inject sim (sys : S.Sched_intf.system) app ~at =
  ignore
    (Sim.schedule sim ~at (fun _ ->
         Queue.push at app.requests;
         sys.S.Sched_intf.notify_app ~app_id:app.spec.S.Sched_intf.id))

(* A best-effort burner: computes in bounded chunks, never parks, counts
   completed work. *)
let burner_step counter ~chunk ~now:_ =
  U.Uthread.Compute
    { ns = chunk; on_complete = Some (fun _ -> counter := !counter + chunk) }

(* ------------------------------------------------------------------ *)
(* VESSEL system *)

let mk_vessel ?(cores = 2) () =
  let sim = Sim.create ~seed:21 () in
  let machine = Hw.Machine.create ~cores sim in
  let v = S.Vessel.make ~machine () in
  (sim, machine, v, S.Vessel.system v)

let test_vessel_serves_requests () =
  let sim, _, _, sys = mk_vessel () in
  let app = mini_app ~id:1 ~name:"mc" ~class_:S.Sched_intf.Latency_critical in
  sys.S.Sched_intf.add_app app.spec;
  ignore
    (sys.S.Sched_intf.add_worker ~app_id:1 ~name:"w0"
       ~step:(server_step app ~service:1_000));
  sys.S.Sched_intf.start ();
  for i = 1 to 50 do
    inject sim sys app ~at:(i * 10_000)
  done;
  Sim.run_until sim 1_000_000;
  sys.S.Sched_intf.stop ();
  check_int "all served" 50 app.served;
  (* At this trivial load, latency = switch-in + service: well under 5us. *)
  check_bool "p99 low" true (Stats.Histogram.percentile app.latencies 99. < 5_000)

let test_vessel_be_preempted_for_lc () =
  (* One core, a BE burner hogging it, LC requests arriving: VESSEL's scan
     preempts the burner via Uintr; LC latency stays in the us range. *)
  let sim, _, v, sys = mk_vessel ~cores:1 () in
  let lc = mini_app ~id:1 ~name:"mc" ~class_:S.Sched_intf.Latency_critical in
  let be = mini_app ~id:2 ~name:"linpack" ~class_:S.Sched_intf.Best_effort in
  sys.S.Sched_intf.add_app lc.spec;
  sys.S.Sched_intf.add_app be.spec;
  ignore
    (sys.S.Sched_intf.add_worker ~app_id:1 ~name:"lc0"
       ~step:(server_step lc ~service:1_000));
  let burned = ref 0 in
  ignore
    (sys.S.Sched_intf.add_worker ~app_id:2 ~name:"be0"
       ~step:(burner_step burned ~chunk:100_000));
  sys.S.Sched_intf.start ();
  for i = 1 to 20 do
    inject sim sys lc ~at:(i * 50_000)
  done;
  Sim.run_until sim 2_000_000;
  sys.S.Sched_intf.stop ();
  check_int "lc served" 20 lc.served;
  check_bool "be made progress" true (!burned > 0);
  check_bool "scheduler preempted" true (S.Vessel.preempts_sent v > 0);
  (* Each LC request waits at most ~ a scan interval + switch, not a whole
     100us BE chunk. *)
  check_bool "lc p999 well under BE chunk" true
    (Stats.Histogram.percentile lc.latencies 99.9 < 20_000)

let test_vessel_switch_latencies_table1 () =
  let sim, _, _, sys = mk_vessel ~cores:1 () in
  let app = mini_app ~id:1 ~name:"a" ~class_:S.Sched_intf.Latency_critical in
  sys.S.Sched_intf.add_app app.spec;
  ignore
    (sys.S.Sched_intf.add_worker ~app_id:1 ~name:"w"
       ~step:(server_step app ~service:500));
  sys.S.Sched_intf.start ();
  for i = 1 to 200 do
    inject sim sys app ~at:(i * 5_000)
  done;
  Sim.run_until sim 2_000_000;
  sys.S.Sched_intf.stop ();
  match sys.S.Sched_intf.switch_latencies () with
  | None -> Alcotest.fail "vessel must report switch latencies"
  | Some h ->
      check_bool "many switches" true (Stats.Histogram.count h >= 200);
      let mean = Stats.Histogram.mean h in
      check_bool "mean ~161ns" true (mean > 120. && mean < 260.)

(* ------------------------------------------------------------------ *)
(* Baseline engine: Caladan *)

let mk_baseline ?(cores = 2) profile =
  let sim = Sim.create ~seed:33 () in
  let machine = Hw.Machine.create ~cores sim in
  let b = S.Baseline.make profile ~machine in
  (sim, machine, b, S.Baseline.system b)

let test_caladan_serves_requests () =
  let sim, _, _, sys = mk_baseline S.Baseline.caladan in
  let app = mini_app ~id:1 ~name:"mc" ~class_:S.Sched_intf.Latency_critical in
  sys.S.Sched_intf.add_app app.spec;
  ignore
    (sys.S.Sched_intf.add_worker ~app_id:1 ~name:"w0"
       ~step:(server_step app ~service:1_000));
  sys.S.Sched_intf.start ();
  for i = 1 to 50 do
    inject sim sys app ~at:(i * 10_000)
  done;
  Sim.run_until sim 2_000_000;
  sys.S.Sched_intf.stop ();
  check_int "all served" 50 app.served

let test_caladan_switch_slower_than_vessel () =
  (* Table 1: the Caladan cross-app switch path is an order of magnitude
     dearer than VESSEL's. Drive both with the same ping-pong-ish load and
     compare the recorded histograms. *)
  let run mk =
    let sim, _, _, (sys : S.Sched_intf.system) = mk () in
    let a1 = mini_app ~id:1 ~name:"a1" ~class_:S.Sched_intf.Latency_critical in
    let a2 = mini_app ~id:2 ~name:"a2" ~class_:S.Sched_intf.Latency_critical in
    sys.S.Sched_intf.add_app a1.spec;
    sys.S.Sched_intf.add_app a2.spec;
    ignore (sys.S.Sched_intf.add_worker ~app_id:1 ~name:"w1" ~step:(server_step a1 ~service:500));
    ignore (sys.S.Sched_intf.add_worker ~app_id:2 ~name:"w2" ~step:(server_step a2 ~service:500));
    sys.S.Sched_intf.start ();
    for i = 1 to 100 do
      inject sim sys a1 ~at:(i * 7_000);
      inject sim sys a2 ~at:((i * 7_000) + 3_500)
    done;
    Sim.run_until sim 2_000_000;
    sys.S.Sched_intf.stop ();
    match sys.S.Sched_intf.switch_latencies () with
    | Some h when Stats.Histogram.count h > 0 -> Stats.Histogram.mean h
    | _ -> Alcotest.fail "expected switch latencies"
  in
  let vessel_mean = run (fun () -> mk_vessel ~cores:1 ()) in
  let caladan_mean = run (fun () -> mk_baseline ~cores:1 S.Baseline.caladan) in
  check_bool
    (Printf.sprintf "caladan (%.0fns) >> vessel (%.0fns)" caladan_mean vessel_mean)
    true
    (caladan_mean > 8. *. vessel_mean)

let test_caladan_steal_spin_burns_runtime () =
  (* A core that runs dry spins in the steal loop before parking: runtime
     cycles, the Figure 1b waste. *)
  let sim, machine, _, sys = mk_baseline ~cores:1 S.Baseline.caladan in
  let app = mini_app ~id:1 ~name:"mc" ~class_:S.Sched_intf.Latency_critical in
  sys.S.Sched_intf.add_app app.spec;
  ignore
    (sys.S.Sched_intf.add_worker ~app_id:1 ~name:"w"
       ~step:(server_step app ~service:1_000));
  sys.S.Sched_intf.start ();
  for i = 1 to 10 do
    inject sim sys app ~at:(i * 100_000)
  done;
  Sim.run_until sim 2_000_000;
  sys.S.Sched_intf.stop ();
  let acct = Hw.Machine.total_account machine in
  check_bool "steal-loop runtime cycles" true
    (Stats.Cycle_account.total acct Stats.Cycle_account.Runtime >= 10 * 2_000);
  check_bool "kernel switch cycles" true
    (Stats.Cycle_account.total acct Stats.Cycle_account.Kernel > 0)

let test_caladan_preempts_be_for_lc () =
  let sim, _, b, sys = mk_baseline ~cores:1 S.Baseline.caladan in
  let lc = mini_app ~id:1 ~name:"mc" ~class_:S.Sched_intf.Latency_critical in
  let be = mini_app ~id:2 ~name:"linpack" ~class_:S.Sched_intf.Best_effort in
  sys.S.Sched_intf.add_app lc.spec;
  sys.S.Sched_intf.add_app be.spec;
  ignore (sys.S.Sched_intf.add_worker ~app_id:1 ~name:"lc" ~step:(server_step lc ~service:1_000));
  let burned = ref 0 in
  ignore (sys.S.Sched_intf.add_worker ~app_id:2 ~name:"be" ~step:(burner_step burned ~chunk:50_000));
  sys.S.Sched_intf.start ();
  for i = 1 to 20 do
    inject sim sys lc ~at:(i * 100_000)
  done;
  Sim.run_until sim 4_000_000;
  sys.S.Sched_intf.stop ();
  check_int "lc served" 20 lc.served;
  check_bool "be progressed" true (!burned > 0);
  check_bool "reallocations happened" true (S.Baseline.reallocations b > 0);
  (* Preemption goes through the kernel: worse LC tails than VESSEL would
     show, but still bounded by the 10us pass + kernel path. *)
  check_bool "p999 bounded" true
    (Stats.Histogram.percentile lc.latencies 99.9 < 60_000)

let test_caladan_fig3_stage_sum () =
  let _, _, b, _ = mk_baseline S.Baseline.caladan in
  let stages = S.Baseline.preempt_stages b in
  check_int "seven stages" 7 (List.length stages);
  let total = List.fold_left (fun a (_, d) -> a + d) 0 stages in
  check_bool "~5.3us" true (abs (total - 5_300) <= 530)

let test_arachne_slow_reaction () =
  (* Arachne's arbiter only reallocates at multi-ms passes and does not
     react to wakeups in between: a burst arriving between passes eats
     ms-scale queueing. *)
  let sim, _, _, sys = mk_baseline ~cores:2 S.Baseline.arachne in
  let app = mini_app ~id:1 ~name:"mc" ~class_:S.Sched_intf.Latency_critical in
  sys.S.Sched_intf.add_app app.spec;
  ignore (sys.S.Sched_intf.add_worker ~app_id:1 ~name:"w" ~step:(server_step app ~service:1_000));
  sys.S.Sched_intf.start ();
  Sim.run_until sim 100_000;
  (* Burst arrives right after start-up settles. *)
  for i = 1 to 10 do
    inject sim sys app ~at:(200_000 + (i * 2_000))
  done;
  Sim.run_until sim 20_000_000;
  sys.S.Sched_intf.stop ();
  check_int "eventually served" 10 app.served;
  check_bool "tail is ms-scale" true
    (Stats.Histogram.percentile app.latencies 99. > 200_000)

(* ------------------------------------------------------------------ *)
(* CFS *)

let mk_cfs ?(cores = 1) () =
  let sim = Sim.create ~seed:55 () in
  let machine = Hw.Machine.create ~cores sim in
  let c = S.Cfs.make ~machine () in
  (sim, machine, c, S.Cfs.system c)

let test_cfs_weights () =
  check_int "nice 0" 1024 (S.Cfs.weight_of_nice 0);
  check_bool "nice -19 heavy" true (S.Cfs.weight_of_nice (-19) > 60_000);
  check_bool "nice 19 light" true (S.Cfs.weight_of_nice 19 < 20);
  check_int "clamped" (S.Cfs.weight_of_nice 19) (S.Cfs.weight_of_nice 25)

let test_cfs_fair_sharing_by_weight () =
  (* Two always-runnable burners with equal weight share the core about
     evenly. *)
  let sim, _, _, sys = mk_cfs () in
  let a = mini_app ~id:1 ~name:"a" ~class_:S.Sched_intf.Best_effort in
  let b = mini_app ~id:2 ~name:"b" ~class_:S.Sched_intf.Best_effort in
  sys.S.Sched_intf.add_app a.spec;
  sys.S.Sched_intf.add_app b.spec;
  let ca = ref 0 and cb = ref 0 in
  ignore (sys.S.Sched_intf.add_worker ~app_id:1 ~name:"wa" ~step:(burner_step ca ~chunk:100_000));
  ignore (sys.S.Sched_intf.add_worker ~app_id:2 ~name:"wb" ~step:(burner_step cb ~chunk:100_000));
  sys.S.Sched_intf.start ();
  Sim.run_until sim 100_000_000;
  sys.S.Sched_intf.stop ();
  let fa = float_of_int !ca and fb = float_of_int !cb in
  check_bool "both ran" true (fa > 0. && fb > 0.);
  check_bool "roughly even" true (Float.abs (fa -. fb) /. (fa +. fb) < 0.2)

let test_cfs_lc_sees_ms_tails () =
  (* The paper's CFS pathology: with a BE burner resident, a frequently
     sleeping LC worker eats millisecond queueing on wake. *)
  let sim, _, _, sys = mk_cfs () in
  let lc = mini_app ~id:1 ~name:"mc" ~class_:S.Sched_intf.Latency_critical in
  let be = mini_app ~id:2 ~name:"linpack" ~class_:S.Sched_intf.Best_effort in
  sys.S.Sched_intf.add_app lc.spec;
  sys.S.Sched_intf.add_app be.spec;
  ignore (sys.S.Sched_intf.add_worker ~app_id:1 ~name:"lc" ~step:(server_step lc ~service:1_000));
  let burned = ref 0 in
  ignore (sys.S.Sched_intf.add_worker ~app_id:2 ~name:"be" ~step:(burner_step burned ~chunk:200_000));
  sys.S.Sched_intf.start ();
  for i = 1 to 20 do
    inject sim sys lc ~at:(i * 2_000_000)
  done;
  Sim.run_until sim 100_000_000;
  sys.S.Sched_intf.stop ();
  check_int "served" 20 lc.served;
  check_bool "BE kept the core mostly" true (!burned > 0);
  check_bool "LC p99 in the hundreds of us or worse" true
    (Stats.Histogram.percentile lc.latencies 99. > 300_000)

(* Direct unit checks of scheduler internals. *)

let test_baseline_profiles () =
  let open S.Baseline in
  check_bool "caladan realloc 10us" true (caladan.realloc_interval = 10_000);
  check_bool "caladan steals 2us" true (caladan.steal_spin = 2_000);
  check_bool "dr-l reacts faster than dr-h" true
    (match (caladan_dr_l.policy, caladan_dr_h.policy) with
    | Delay_based { hi = l; _ }, Delay_based { hi = h; _ } -> l < h
    | _ -> false);
  check_bool "arachne is pass-driven" true (not arachne.grant_on_notify);
  check_bool "arachne passes are ms-scale" true
    (arachne.realloc_interval >= 1_000_000)

let test_cfs_timeslice_weighting () =
  (* With a heavy LC thread and a light BE thread runnable, the LC slice
     dominates the period and the BE slice clamps to min_granularity. *)
  let p = S.Cfs.default_params in
  let w_lc = S.Cfs.weight_of_nice p.S.Cfs.lc_nice in
  let w_be = S.Cfs.weight_of_nice p.S.Cfs.be_nice in
  let total = w_lc + w_be in
  let share w = p.S.Cfs.sched_period * w / total in
  check_bool "lc share ~ whole period" true
    (share w_lc > p.S.Cfs.sched_period * 9 / 10);
  check_bool "be share below min granularity (clamps)" true
    (share w_be < p.S.Cfs.min_granularity)

let test_vessel_default_params_sane () =
  let p = S.Vessel.default_params in
  check_bool "be preemption reacts faster than rebalancing" true
    (p.S.Vessel.be_preempt_delay < p.S.Vessel.overload_delay);
  check_bool "rotation amortizes several switches" true
    (p.S.Vessel.rotation_quantum
    >= 10 * Hw.Cost_model.vessel_park_switch Hw.Cost_model.default);
  check_bool "eager by default" true p.S.Vessel.eager_preempt

(* ------------------------------------------------------------------ *)
(* Bandwidth regulation models *)

let test_mba_curve_shape () =
  check_bool "10% setting over-delivers" true
    (S.Mba.achieved_fraction ~setting:0.1 > 0.3);
  check_bool "monotone" true
    (S.Mba.achieved_fraction ~setting:0.3 < S.Mba.achieved_fraction ~setting:0.7);
  Alcotest.(check (float 1e-9)) "exact at 1" 1. (S.Mba.achieved_fraction ~setting:1.)

let test_cgroup_shares_idle_machine () =
  (* Shares don't cap on an idle machine. *)
  check_bool "idle: full bandwidth" true
    (S.Cgroup.shares_achieved_fraction ~setting:0.1 ~contention:0. > 0.95);
  check_bool "contended: near weighted share" true
    (S.Cgroup.shares_achieved_fraction ~setting:0.1 ~contention:1. < 0.15)

let test_cgroup_quota_duty_cycle () =
  let sim = Sim.create () in
  let woken = ref 0 in
  let q =
    S.Cgroup.quota ~sim ~period:1_000 ~fraction:0.3 ~on_refill:(fun () -> incr woken)
  in
  let inner ~now:_ =
    U.Uthread.Compute { ns = 200; on_complete = None }
  in
  (* Budget 300: two segments (200 + clipped 100), then Park. *)
  (match S.Cgroup.wrap q inner ~now:0 with
  | U.Uthread.Compute { ns = 200; _ } -> ()
  | _ -> Alcotest.fail "first segment uncut");
  (match S.Cgroup.wrap q inner ~now:200 with
  | U.Uthread.Compute { ns = 100; _ } -> ()
  | _ -> Alcotest.fail "second segment clipped to budget");
  (match S.Cgroup.wrap q inner ~now:300 with
  | U.Uthread.Park -> ()
  | _ -> Alcotest.fail "throttled");
  check_bool "throttled flag" true (S.Cgroup.throttled q);
  (* Refill fires at the period boundary. *)
  Sim.run_until sim 1_500;
  check_int "refill callback" 1 !woken;
  match S.Cgroup.wrap q inner ~now:1_500 with
  | U.Uthread.Compute { ns = 200; _ } -> ()
  | _ -> Alcotest.fail "budget refilled"

let test_quota_scales_memwork_bytes () =
  let sim = Sim.create () in
  let q = S.Cgroup.quota ~sim ~period:1_000 ~fraction:0.5 ~on_refill:ignore in
  let inner ~now:_ =
    U.Uthread.Mem_work { ns = 1_000; bytes = 10_000; footprint = None; on_complete = None }
  in
  match S.Cgroup.wrap q inner ~now:0 with
  | U.Uthread.Mem_work { ns = 500; bytes = 5_000; _ } -> ()
  | _ -> Alcotest.fail "memwork must clip proportionally"

let test_bw_regulator_tracks_target () =
  (* Operational check: a membench-like thread under the VESSEL regulator
     achieves ~target fraction of its calibrated full rate. *)
  let sim = Sim.create ~seed:77 () in
  let machine = Hw.Machine.create ~cores:1 sim in
  let membw = Hw.Machine.membw machine in
  (* The thread moves 8 bytes/ns when running. *)
  let full_rate = 8. in
  let woken = ref (fun () -> ()) in
  let reg =
    S.Bw_regulator.create ~sim ~membw ~app:1 ~target_fraction:0.4 ~full_rate
      ~on_refill:(fun () -> !woken ()) ()
  in
  let inner ~now:_ =
    U.Uthread.Mem_work
      { ns = 5_000; bytes = 40_000; footprint = None; on_complete = None }
  in
  let th =
    U.Uthread.create ~tid:1 ~app:1 ~uproc:0 ~priority:U.Uthread.Best_effort
      ~step:(S.Bw_regulator.wrap reg inner)
      ()
  in
  let queue = ref [ th ] in
  let hooks =
    {
      (U.Exec.default_hooks ()) with
      U.Exec.pick_next =
        (fun ~core:_ ->
          match !queue with [] -> None | x :: rest -> queue := rest; Some x);
    }
  in
  let exec = U.Exec.create machine hooks in
  (woken :=
     fun () ->
       if U.Uthread.state th = U.Uthread.Parked then begin
         U.Uthread.set_state th U.Uthread.Ready;
         queue := [ th ];
         U.Exec.notify exec ~core:0
       end);
  U.Exec.start exec ~core:0;
  (* Feedback pass every ms. *)
  let rec adjust_tick sim' =
    S.Bw_regulator.adjust reg ~now:(Sim.now sim');
    ignore (Sim.schedule_after sim' ~delay:1_000_000 adjust_tick)
  in
  ignore (Sim.schedule_after sim ~delay:1_000_000 adjust_tick);
  Sim.run_until sim 50_000_000;
  U.Exec.stop exec ~core:0;
  let achieved =
    float_of_int (Hw.Membw.total_bytes membw ~app:1) /. 50_000_000. /. full_rate
  in
  check_bool
    (Printf.sprintf "achieved %.3f ~ 0.4" achieved)
    true
    (Float.abs (achieved -. 0.4) < 0.05)

(* ------------------------------------------------------------------ *)
(* Core_index differential property (the tie-break contract).

   The incremental index must answer every scheduler query identically
   to a fresh O(cores) scan of the same state, for any interleaving of
   the transitions that maintain it. The reference scans below are the
   legacy walks the index replaced, verbatim in their tie-breaking:
   lowest id for idle/BE placement, highest id among minima for the
   shortest queue (the old [downto 0] strict-< loop), ascending cursor
   for the overload scan. Queue lengths go up to 40 so the >= cap
   overflow bucket (cap = 32) and its exact-rescan fallback are hit. *)

type ci_op = Ci_idle of int * bool | Ci_be of int * bool | Ci_len of int * int

let ci_op_gen ncores =
  QCheck.Gen.(
    int_bound (ncores - 1) >>= fun core ->
    int_bound 99 >>= fun k ->
    if k < 30 then bool >>= fun b -> return (Ci_idle (core, b))
    else if k < 60 then bool >>= fun b -> return (Ci_be (core, b))
    else int_bound 40 >>= fun l -> return (Ci_len (core, l)))

let ci_case_print (ncores, ops) =
  Printf.sprintf "ncores=%d [%s]" ncores
    (String.concat "; "
       (List.map
          (function
            | Ci_idle (c, b) -> Printf.sprintf "idle %d %b" c b
            | Ci_be (c, b) -> Printf.sprintf "be %d %b" c b
            | Ci_len (c, l) -> Printf.sprintf "len %d %d" c l)
          ops))

let ci_case_gen =
  QCheck.Gen.(
    oneofl [ 8; 64; 512 ] >>= fun ncores ->
    list_size (int_range 1 250) (ci_op_gen ncores) >>= fun ops ->
    return (ncores, ops))

let prop_core_index_differential =
  QCheck.Test.make ~count:100
    ~name:"core index == fresh O(cores) scan (both query shapes)"
    (QCheck.make ~print:ci_case_print ci_case_gen)
    (fun (ncores, ops) ->
      let module CI = U.Core_index in
      let ix = CI.create ~ncores in
      (* A fixed sparse mask for the intersection query Baseline uses to
         place a worker on an idle core its app owns. *)
      let in_mask c = c mod 3 <> 1 in
      let mask = CI.Bitset.create ncores in
      for c = 0 to ncores - 1 do
        if in_mask c then CI.Bitset.set mask c
      done;
      let idle = Array.make ncores false
      and be = Array.make ncores false
      and lens = Array.make ncores 0 in
      let ref_first a =
        let r = ref (-1) in
        for i = ncores - 1 downto 0 do
          if a.(i) then r := i
        done;
        !r
      in
      let ref_first_masked a =
        let r = ref (-1) in
        for i = ncores - 1 downto 0 do
          if a.(i) && in_mask i then r := i
        done;
        !r
      in
      let ref_shortest () =
        (* ascending with <= keeps the later core on ties: the highest
           id among the minimum-length cores, exactly the old [downto 0]
           strict-< walk's winner. *)
        let best = ref (-1) and bl = ref Stdlib.max_int in
        for c = 0 to ncores - 1 do
          if lens.(c) <= !bl then begin
            best := c;
            bl := lens.(c)
          end
        done;
        !best
      in
      let ref_next_nonempty from =
        let r = ref (-1) in
        for c = ncores - 1 downto from do
          if lens.(c) > 0 then r := c
        done;
        !r
      in
      let fail q got want =
        QCheck.Test.fail_reportf "%s: index=%d scan=%d" q got want
      in
      let check q got want = if got <> want then fail q got want in
      let check_queries () =
        check "first_idle" (CI.first_idle ix) (ref_first idle);
        check "first_be" (CI.first_be ix) (ref_first be);
        check "idle&mask"
          (CI.Bitset.first_and (CI.idle_bits ix) mask)
          (ref_first_masked idle);
        check "shortest" (CI.shortest ix) (ref_shortest ());
        check "next_nonempty 0" (CI.next_nonempty ix ~from:0)
          (ref_next_nonempty 0);
        check "next_nonempty mid"
          (CI.next_nonempty ix ~from:(ncores / 2))
          (ref_next_nonempty (ncores / 2));
        check "next_nonempty last"
          (CI.next_nonempty ix ~from:(ncores - 1))
          (ref_next_nonempty (ncores - 1))
      in
      List.iter
        (fun op ->
          (match op with
          | Ci_idle (c, b) ->
              CI.set_idle ix c b;
              idle.(c) <- b
          | Ci_be (c, b) ->
              CI.set_be ix c b;
              be.(c) <- b
          | Ci_len (c, l) ->
              CI.sync_len ix c l;
              lens.(c) <- l);
          check_queries ())
        ops;
      true)

(* Pset differential: highest set slot must equal the slot the legacy
   List.find_opt over the newest-first worker list would have found. *)
let prop_pset_matches_list =
  QCheck.Test.make ~count:200 ~name:"pset highest == newest-first find_opt"
    QCheck.(list (pair (int_bound 99) bool))
    (fun ops ->
      let module P = U.Core_index.Pset in
      let p = P.create () in
      let slots = 40 in
      let taken = Array.make slots false in
      for _ = 1 to slots do
        ignore (P.register p)
      done;
      List.iter
        (fun (slot, on) ->
          let slot = slot mod slots in
          P.set p slot on;
          taken.(slot) <- on)
        ops;
      let ref_highest = ref (-1) in
      for i = 0 to slots - 1 do
        if taken.(i) then ref_highest := i
      done;
      P.highest p = !ref_highest)

(* Wake/park churn allocation budget. Workers whose step returns a
   preallocated action contribute nothing, and the driver is one closure
   allocated once, so minor-heap traffic is the scheduler's own: the
   scan tick (a bitset cursor), wake placement (Pset and index bit
   scans) and the wake/park dispatch path. Measured ~46 words/event; the
   budget has headroom for queue/accounting noise but fails on any
   per-tick or per-wake list walk, or a constant quietly recomputed per
   switch (e.g. the runtime PKRU's grant-list rebuild this budget
   flushed out). *)
let test_vessel_churn_alloc_budget () =
  let sim = Sim.create ~seed:91 () in
  let machine = Hw.Machine.create ~cores:4 sim in
  let v = S.Vessel.make ~machine () in
  let sys = S.Vessel.system v in
  let spec =
    { S.Sched_intf.id = 1; name = "srv"; class_ = S.Sched_intf.Latency_critical }
  in
  sys.S.Sched_intf.add_app spec;
  let park = U.Uthread.Park in
  for i = 0 to 3 do
    ignore
      (sys.S.Sched_intf.add_worker ~app_id:1
         ~name:(Printf.sprintf "w%d" i)
         ~step:(fun ~now:_ -> park))
  done;
  (* Four wakes every microsecond: each wakes a parked worker, which
     parks again at once — a pure scheduler churn loop. *)
  let rec churn sim' =
    for _ = 1 to 4 do
      sys.S.Sched_intf.notify_app ~app_id:1
    done;
    ignore (Sim.schedule_after sim' ~delay:1_000 churn)
  in
  ignore (Sim.schedule_after sim ~delay:1_000 churn);
  sys.S.Sched_intf.start ();
  Sim.run_until sim 1_000_000;
  (* Warmed up; measure a long steady-state window. *)
  let e0 = Sim.total_events_executed () in
  let w0 = Gc.minor_words () in
  Sim.run_until sim 50_000_000;
  let words = Gc.minor_words () -. w0 in
  let events = Sim.total_events_executed () - e0 in
  sys.S.Sched_intf.stop ();
  check_bool "scheduler churned" true (events > 10_000);
  let per_event = words /. float_of_int events in
  check_bool
    (Printf.sprintf "churn allocation budget (%.1f words/event, %d events, %.0f words)"
       per_event events words)
    true (per_event < 80.)

(* ------------------------------------------------------------------ *)
(* Vessel negative paths: every invalid_arg branch in the public API. *)

let expect_invalid_arg name f =
  check_bool name true (try f (); false with Invalid_argument _ -> true)

(* The scan skips empty queues, which is only sound when an empty queue
   (delay 0) can trigger neither scan action. *)
let test_vessel_negative_delay () =
  let sim = Sim.create ~seed:21 () in
  let machine = Hw.Machine.create ~cores:2 sim in
  let p = S.Vessel.default_params in
  expect_invalid_arg "negative be_preempt_delay rejected" (fun () ->
      ignore
        (S.Vessel.make ~params:{ p with be_preempt_delay = -1 } ~machine ()));
  expect_invalid_arg "negative overload_delay rejected" (fun () ->
      ignore (S.Vessel.make ~params:{ p with overload_delay = -1 } ~machine ()))

let test_vessel_unknown_app () =
  let _, _, _, sys = mk_vessel () in
  expect_invalid_arg "add_worker on unknown app" (fun () ->
      ignore
        (sys.S.Sched_intf.add_worker ~app_id:99 ~name:"w"
           ~step:(fun ~now:_ -> U.Uthread.Park)));
  expect_invalid_arg "notify_app on unknown app" (fun () ->
      sys.S.Sched_intf.notify_app ~app_id:99)

let test_vessel_duplicate_app () =
  let _, _, _, sys = mk_vessel () in
  let spec =
    { S.Sched_intf.id = 1; name = "a"; class_ = S.Sched_intf.Latency_critical }
  in
  sys.S.Sched_intf.add_app spec;
  expect_invalid_arg "duplicate app id rejected" (fun () ->
      sys.S.Sched_intf.add_app { spec with name = "b" })

let test_vessel_slots_exhausted () =
  let sim = Sim.create ~seed:21 () in
  let machine = Hw.Machine.create ~cores:2 sim in
  let v = S.Vessel.make ~slots:1 ~machine () in
  let sys = S.Vessel.system v in
  sys.S.Sched_intf.add_app
    { S.Sched_intf.id = 1; name = "a"; class_ = S.Sched_intf.Latency_critical };
  expect_invalid_arg "no SMAS slot left for a second uProcess" (fun () ->
      sys.S.Sched_intf.add_app
        { S.Sched_intf.id = 2; name = "b"; class_ = S.Sched_intf.Best_effort })

let suite =
  [
    ( "sched.vessel",
      [
        Alcotest.test_case "serves requests" `Quick test_vessel_serves_requests;
        Alcotest.test_case "BE preempted for LC" `Quick
          test_vessel_be_preempted_for_lc;
        Alcotest.test_case "switch latencies (Table 1)" `Quick
          test_vessel_switch_latencies_table1;
        Alcotest.test_case "wake/park churn allocation budget" `Quick
          test_vessel_churn_alloc_budget;
        Alcotest.test_case "negative delay rejected" `Quick
          test_vessel_negative_delay;
        Alcotest.test_case "unknown app rejected" `Quick test_vessel_unknown_app;
        Alcotest.test_case "duplicate app rejected" `Quick
          test_vessel_duplicate_app;
        Alcotest.test_case "slots exhausted" `Quick test_vessel_slots_exhausted;
      ] );
    ( "sched.caladan",
      [
        Alcotest.test_case "serves requests" `Quick test_caladan_serves_requests;
        Alcotest.test_case "switch >> vessel (Table 1)" `Quick
          test_caladan_switch_slower_than_vessel;
        Alcotest.test_case "steal spin burns runtime (Fig 1b)" `Quick
          test_caladan_steal_spin_burns_runtime;
        Alcotest.test_case "preempts BE for LC" `Quick
          test_caladan_preempts_be_for_lc;
        Alcotest.test_case "Fig 3 stage sum" `Quick test_caladan_fig3_stage_sum;
        Alcotest.test_case "arachne reacts slowly" `Quick
          test_arachne_slow_reaction;
      ] );
    ( "sched.cfs",
      [
        Alcotest.test_case "weights" `Quick test_cfs_weights;
        Alcotest.test_case "fair sharing" `Quick test_cfs_fair_sharing_by_weight;
        Alcotest.test_case "LC ms tails under BE (Fig 9)" `Quick
          test_cfs_lc_sees_ms_tails;
      ] );
    ( "sched.core_index",
      [
        QCheck_alcotest.to_alcotest prop_core_index_differential;
        QCheck_alcotest.to_alcotest prop_pset_matches_list;
      ] );
    ( "sched.internals",
      [
        Alcotest.test_case "baseline profiles" `Quick test_baseline_profiles;
        Alcotest.test_case "cfs timeslice weighting" `Quick
          test_cfs_timeslice_weighting;
        Alcotest.test_case "vessel params sane" `Quick
          test_vessel_default_params_sane;
      ] );
    ( "sched.bandwidth",
      [
        Alcotest.test_case "MBA curve" `Quick test_mba_curve_shape;
        Alcotest.test_case "cgroup shares on idle machine" `Quick
          test_cgroup_shares_idle_machine;
        Alcotest.test_case "quota duty cycle" `Quick test_cgroup_quota_duty_cycle;
        Alcotest.test_case "quota clips memwork bytes" `Quick
          test_quota_scales_memwork_bytes;
        Alcotest.test_case "VESSEL regulator tracks target" `Quick
          test_bw_regulator_tracks_target;
      ] );
  ]
