(* Tests for the execution-gap suite: the Gap_stats ledger against a
   naive replay (synthetic streams and a live tracer run), the gap
   invariant's enqueue->dispatch semantics, -j independence of the gaps
   experiment and its chaos verdicts, and the deliberately-broken
   scheduler the gap invariant must catch. *)

module Sim = Vessel_engine.Sim
module Stats = Vessel_stats
module GS = Stats.Gap_stats
module Obs = Vessel_obs
module W = Vessel_workloads
module S = Vessel_sched
module E = Vessel_experiments
module C = Vessel_check

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Gap_stats on synthetic stamp streams.

   A stream is (wake, completion stamps) per window; the gap formula is
   uniform — gap_k = t_k - t_{k-1} - chunk with t_0 = wake — the first
   being the outer gap, the rest inner. *)

(* Ingest a stream exactly the way the tracer does, one sample at a
   time. *)
let ingest ~chunk th windows =
  List.iter
    (fun (wake, stamps) ->
      ignore
        (List.fold_left
           (fun prev ts ->
             let gap = ts - prev - chunk in
             if prev = wake then GS.record_outer th gap
             else GS.record_inner th gap;
             GS.add_run th chunk;
             ts)
           wake stamps);
      GS.add_window th)
    windows

(* The naive replay: all gaps of a stream, outer first per window. *)
let replay ~chunk windows =
  List.concat_map
    (fun (wake, stamps) ->
      let rec go prev = function
        | [] -> []
        | ts :: rest -> (ts - prev - chunk) :: go ts rest
      in
      go wake stamps)
    windows

(* Wall time covered by spin windows: sum of (last stamp - wake). *)
let wall ~chunk:_ windows =
  List.fold_left
    (fun acc (wake, stamps) ->
      match List.rev stamps with [] -> acc | last :: _ -> acc + (last - wake))
    0 windows

(* (chunk, per-thread gap lists): each inner list is one window's gaps,
   from which the stamp stream is reconstructed. *)
let stream_arb =
  QCheck.(
    pair
      (int_range 50 1_000)
      (list_of_size
         Gen.(1 -- 3)
         (list_of_size Gen.(1 -- 10) (list_of_size Gen.(1 -- 8) (int_range 0 5_000)))))

let windows_of ~chunk gap_windows =
  let rec build wake = function
    | [] -> []
    | gaps :: rest ->
        let stamps, last =
          List.fold_left
            (fun (acc, prev) g ->
              let ts = prev + chunk + g in
              (ts :: acc, ts))
            ([], wake) gaps
        in
        (wake, List.rev stamps) :: build (last + 1_000) rest
  in
  build 0 gap_windows

let prop_ledger_conservation =
  QCheck.Test.make ~count:200 ~name:"gap ledger conservation (exact)"
    stream_arb
    (fun (chunk, threads) ->
      let t = GS.create () in
      List.iteri
        (fun i gap_windows ->
          let th = GS.add_thread t in
          let windows = windows_of ~chunk gap_windows in
          ingest ~chunk th windows;
          (* Per thread: run segments + observed gaps cover the wall time
             since each wake, exactly. *)
          if
            not
              (GS.gap_ns th + GS.run_ns th = wall ~chunk windows
              && GS.windows th = List.length windows)
          then
            QCheck.Test.fail_reportf "thread %d: %d + %d <> %d" i
              (GS.gap_ns th) (GS.run_ns th) (wall ~chunk windows))
        threads;
      true)

let prop_ledger_matches_naive_replay =
  QCheck.Test.make ~count:200
    ~name:"Gap_stats max/p99 equal a naive replay of the stamp stream"
    stream_arb
    (fun (chunk, threads) ->
      let t = GS.create () in
      let all_gaps =
        List.concat_map
          (fun gap_windows ->
            let th = GS.add_thread t in
            let windows = windows_of ~chunk gap_windows in
            ingest ~chunk th windows;
            replay ~chunk windows)
          threads
      in
      let naive_max = List.fold_left max 0 all_gaps in
      let naive_hist = Stats.Histogram.create () in
      List.iter (Stats.Histogram.record naive_hist) all_gaps;
      GS.max_gap t = naive_max
      && GS.p99_gap t = Stats.Histogram.percentile naive_hist 99.)

let test_fairness_index () =
  let index runs =
    let t = GS.create () in
    List.iter (fun ns -> GS.add_run (GS.add_thread t) ns) runs;
    GS.fairness t
  in
  Alcotest.(check (float 1e-9)) "equal shares" 1.0 (index [ 1_000; 1_000 ]);
  Alcotest.(check (float 1e-9)) "one thread starved" 0.5 (index [ 1_000; 0 ]);
  Alcotest.(check (float 1e-9)) "empty collection" 1.0 (index []);
  Alcotest.(check (float 1e-9)) "all idle" 1.0 (index [ 0; 0 ])

(* ------------------------------------------------------------------ *)
(* The live tracer against the same replay: run a real VESSEL sim
   (tracers contending with linpack) with raw stamps retained, then
   recompute every ledger quantity offline from the stamps. *)

let test_tracer_ledger_matches_replay () =
  let chunk = 1_000 in
  let b = E.Runner.build ~seed:9 ~cores:2 E.Runner.Vessel in
  let tracer =
    W.Gaptracer.make ~sim:b.E.Runner.sim ~sys:b.E.Runner.sys ~app_id:1
      ~threads:2 ~chunk_ns:chunk ~keep_stamps:true ~until:3_000_000 ()
  in
  let _lp = W.Linpack.make ~sys:b.E.Runner.sys ~app_id:10 ~workers:2 () in
  b.E.Runner.sys.S.Sched_intf.start ();
  Sim.run_until b.E.Runner.sim 3_000_000;
  b.E.Runner.sys.S.Sched_intf.stop ();
  let stamps = W.Gaptracer.stamps tracer in
  let gs = W.Gaptracer.stats tracer in
  check_bool "tracer actually spun" true (GS.total_windows gs > 10);
  List.iteri
    (fun i th ->
      (* Only completed windows have stamps; the ledger may hold one
         in-flight window's worth of extra samples, so replay the stamps
         and compare against a ledger rebuilt from them. *)
      let windows = stamps.(i) in
      check_bool "windows recorded" true (List.length windows > 5);
      let t' = GS.create () in
      let th' = GS.add_thread t' in
      ingest ~chunk th' windows;
      let gaps = replay ~chunk windows in
      check_int
        (Printf.sprintf "thread %d: replay conservation" i)
        (wall ~chunk windows)
        (GS.gap_ns th' + GS.run_ns th');
      check_int
        (Printf.sprintf "thread %d: live max matches replay" i)
        (List.fold_left max 0 gaps)
        (max (GS.max_inner th') (GS.max_outer th'));
      (* The live ledger covers at least the completed windows. *)
      check_bool
        (Printf.sprintf "thread %d: live ledger >= completed windows" i)
        true
        (GS.windows th >= List.length windows
        && GS.gap_ns th >= GS.gap_ns th'
        && GS.run_ns th >= GS.run_ns th'))
    (GS.threads gs)

(* ------------------------------------------------------------------ *)
(* The gap invariant's semantics on synthetic streams: enqueue ->
   dispatch, not enqueue -> pop. *)

let qev ~ts ?(lc = 1) name tid =
  Obs.Event.Instant
    {
      ts;
      track = Obs.Track.Sched;
      name;
      args =
        [ ("q", Obs.Event.Int 0); ("tid", Obs.Event.Int tid);
          ("lc", Obs.Event.Int lc); ("at", Obs.Event.Int ts) ];
    }

let dispatch ~ts ~tid =
  Obs.Event.Instant
    {
      ts;
      track = Obs.Track.Core 0;
      name = Obs.Tag.dispatch;
      args = [ ("tid", Obs.Event.Int tid) ];
    }

let invariants c =
  List.map (fun v -> v.C.Checker.invariant) (C.Checker.violations c)

let test_gap_pop_is_not_enough () =
  (* A pop without a dispatch must not clear the gap clock. *)
  let c = C.Checker.create () in
  List.iter (C.Checker.handle c)
    [ qev ~ts:0 Obs.Tag.queue_push 7; qev ~ts:1_000 Obs.Tag.queue_pop 7 ];
  C.Checker.finalize c ~elapsed:10_000_000;
  check_bool "gap flagged" true (List.mem "gap" (invariants c))

let test_gap_cleared_by_dispatch () =
  let c = C.Checker.create () in
  List.iter (C.Checker.handle c)
    [
      qev ~ts:0 Obs.Tag.queue_push 7;
      qev ~ts:1_000 Obs.Tag.queue_pop 7;
      dispatch ~ts:2_000 ~tid:7;
    ];
  C.Checker.finalize c ~elapsed:10_000_000;
  check_bool "dispatched in time is clean" true (C.Checker.clean c)

let test_gap_checked_exactly_at_dispatch () =
  (* A dispatch that arrives past the bound reports the exact gap even
     though the thread did eventually run. *)
  let c = C.Checker.create () in
  List.iter (C.Checker.handle c)
    [ qev ~ts:0 Obs.Tag.queue_push 7; dispatch ~ts:6_000_000 ~tid:7 ];
  check_bool "late dispatch flagged" true (List.mem "gap" (invariants c))

let test_gap_ignores_best_effort () =
  let c = C.Checker.create () in
  C.Checker.handle c (qev ~ts:0 ~lc:0 Obs.Tag.queue_push 8);
  C.Checker.finalize c ~elapsed:60_000_000;
  check_bool "BE wait is not a gap" true
    (not (List.mem "gap" (invariants c)))

(* ------------------------------------------------------------------ *)
(* The gaps experiment and chaos scenario across -j. *)

let test_gaps_rows_and_artifacts_identical_across_jobs () =
  Fun.protect
    ~finally:(fun () ->
      Obs.Collector.reset ();
      E.Runner.set_domains 1)
    (fun () ->
      let run domains =
        Obs.Collector.reset ();
        Obs.Collector.configure ~trace:true ~metrics:true ();
        E.Runner.set_domains domains;
        let rows =
          E.Exp_gaps.run ~seed:7 ~cores:2 ~duties:[ 0.1; 0.5 ]
            ~duration:3_000_000 ()
        in
        let bt = Buffer.create 65536 and bm = Buffer.create 4096 in
        Obs.Collector.write_trace (Buffer.add_string bt);
        Obs.Collector.write_metrics (Buffer.add_string bm);
        (rows, Buffer.contents bt, Buffer.contents bm)
      in
      let r1, t1, m1 = run 1 in
      let r4, t4, m4 = run 4 in
      check_bool "rows identical" true (r1 = r4);
      check_bool "trace byte-identical" true (String.equal t1 t4);
      check_bool "metrics byte-identical" true (String.equal m1 m4);
      check_bool "trace non-trivial" true (String.length t1 > 1_000);
      check_bool "every system produced windows" true
        (List.for_all (fun r -> r.E.Exp_gaps.windows > 0) r1))

let test_gaps_check_verdicts_across_jobs () =
  let sweep domains =
    C.Harness.run_sweep ~domains ~seeds:[ 42; 43 ]
      ~profiles:[ C.Fault.Chaos ]
      ~scenarios:[ C.Harness.Gaps ]
      ()
  in
  let v1 = sweep 1 and v4 = sweep 4 in
  check_bool "verdicts identical at -j 1 and -j 4" true (v1 = v4);
  List.iter
    (fun v ->
      check_int "no violations under chaos" 0 v.C.Harness.total_violations;
      check_bool "checker saw events" true (v.C.Harness.events > 0))
    v1

(* ------------------------------------------------------------------ *)
(* The deliberately-broken scheduler: with best-effort preemption and
   eager wake-time preemption both disabled, linpack keeps every core
   and the runnable tracer/memcached threads never reach a core — the
   gap invariant must catch it, and the identical run with stock params
   must be clean. *)

let test_broken_scheduler_caught_by_gap_invariant () =
  let broken =
    {
      S.Vessel.default_params with
      be_preempt_delay = max_int;
      eager_preempt = false;
    }
  in
  let config = { C.Checker.default_config with gap_bound = 2_000_000 } in
  let v =
    C.Harness.run_one ~vessel_params:broken ~config ~seed:8
      ~profile:C.Fault.None_ ~scenario:C.Harness.Gaps ()
  in
  check_bool "violations reported" true (v.C.Harness.total_violations > 0);
  check_bool "gap invariant named" true
    (List.exists
       (fun viol -> viol.C.Checker.invariant = "gap")
       v.C.Harness.violations);
  let ok =
    C.Harness.run_one ~config ~seed:8 ~profile:C.Fault.None_
      ~scenario:C.Harness.Gaps ()
  in
  check_int "stock params clean" 0 ok.C.Harness.total_violations

let suite =
  [
    ( "gaps.ledger",
      [
        QCheck_alcotest.to_alcotest prop_ledger_conservation;
        QCheck_alcotest.to_alcotest prop_ledger_matches_naive_replay;
        Alcotest.test_case "fairness index" `Quick test_fairness_index;
        Alcotest.test_case "live tracer matches replay" `Quick
          test_tracer_ledger_matches_replay;
      ] );
    ( "gaps.invariant",
      [
        Alcotest.test_case "pop is not enough" `Quick test_gap_pop_is_not_enough;
        Alcotest.test_case "cleared by dispatch" `Quick
          test_gap_cleared_by_dispatch;
        Alcotest.test_case "exact check at late dispatch" `Quick
          test_gap_checked_exactly_at_dispatch;
        Alcotest.test_case "best-effort ignored" `Quick
          test_gap_ignores_best_effort;
      ] );
    ( "gaps.experiment",
      [
        Alcotest.test_case "rows/trace/metrics identical at -j 1 and -j 4"
          `Slow test_gaps_rows_and_artifacts_identical_across_jobs;
        Alcotest.test_case "check verdicts identical at -j 1 and -j 4" `Slow
          test_gaps_check_verdicts_across_jobs;
        Alcotest.test_case "broken scheduler caught by gap invariant" `Quick
          test_broken_scheduler_caught_by_gap_invariant;
      ] );
  ]
