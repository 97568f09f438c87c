(* Tests for the workload generators: the open-loop Poisson client, the
   memcached/Silo service mixes, the best-effort apps and the ping-pong
   microbenchmark pair. *)

module Hw = Vessel_hw
module U = Vessel_uprocess
module S = Vessel_sched
module W = Vessel_workloads
module Sim = Vessel_engine.Sim
module Dist = Vessel_engine.Dist
module Rng = Vessel_engine.Rng
module Stats = Vessel_stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_vessel ?(cores = 2) ?(seed = 9) () =
  let sim = Sim.create ~seed () in
  let machine = Hw.Machine.create ~cores sim in
  let v = S.Vessel.make ~machine () in
  (sim, machine, S.Vessel.system v)

(* ------------------------------------------------------------------ *)
(* Service distributions *)

let sample_stats d n seed =
  let rng = Rng.create ~seed in
  let xs = Array.init n (fun _ -> Dist.sample d rng) in
  Array.sort compare xs;
  let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
  (mean, xs.(n / 2), xs.(n * 999 / 1000))

let test_memcached_service_mean () =
  let mean, _, _ = sample_stats W.Memcached.service_dist 100_000 1 in
  check_bool
    (Printf.sprintf "mean %.0f ~ 1000ns" mean)
    true
    (Float.abs (mean -. 1_000.) < 60.);
  check_bool "analytic mean ~1us" true
    (Float.abs (W.Memcached.mean_service_ns -. 1_000.) < 50.)

let test_silo_service_quantiles () =
  let _, p50, p999 = sample_stats W.Silo.service_dist 200_000 2 in
  check_bool "p50 ~ 20us" true (Float.abs (p50 -. 20_000.) /. 20_000. < 0.06);
  check_bool "p999 ~ 280us" true
    (Float.abs (p999 -. 280_000.) /. 280_000. < 0.15)

(* ------------------------------------------------------------------ *)
(* Openloop *)

let test_openloop_poisson_rate () =
  let sim, _, sys = mk_vessel () in
  let gen = W.Memcached.make ~sim ~sys ~app_id:1 ~workers:2 () in
  sys.S.Sched_intf.start ();
  (* 100k rps for 100ms => ~10_000 requests. *)
  W.Openloop.start gen ~rate_rps:100_000. ~until:100_000_000;
  Sim.run_until sim 110_000_000;
  sys.S.Sched_intf.stop ();
  let n = W.Openloop.offered gen in
  check_bool (Printf.sprintf "offered %d ~ 10000" n) true
    (abs (n - 10_000) < 400);
  check_int "all served (trivial load)" n (W.Openloop.served gen)

let test_openloop_latency_includes_queueing () =
  (* One worker, bursty back-to-back arrivals: later requests queue behind
     earlier ones, so sojourn > service. *)
  let sim, _, sys = mk_vessel ~cores:1 () in
  let gen =
    W.Synth.make ~sim ~sys ~app_id:1 ~name:"srv"
      ~class_:S.Sched_intf.Latency_critical ~workers:1
      ~service:(Dist.constant 10_000.) ()
  in
  sys.S.Sched_intf.start ();
  (* Inject 5 requests at the same instant via a very high rate spike. *)
  W.Openloop.start gen ~rate_rps:5_000_000. ~until:1_000;
  Sim.run_until sim 1_000_000;
  sys.S.Sched_intf.stop ();
  let served = W.Openloop.served gen in
  check_bool "several served" true (served >= 3);
  let h = W.Openloop.latencies gen in
  check_bool "max latency shows queueing" true
    (Stats.Histogram.max h > 15_000)

let test_openloop_window_excludes_warmup () =
  let sim, _, sys = mk_vessel () in
  let gen = W.Memcached.make ~sim ~sys ~app_id:1 ~workers:1 () in
  sys.S.Sched_intf.start ();
  W.Openloop.start gen ~rate_rps:50_000. ~until:50_000_000;
  (* Open the measurement window halfway. *)
  W.Openloop.open_window gen ~at:25_000_000;
  Sim.run_until sim 60_000_000;
  sys.S.Sched_intf.stop ();
  let offered = W.Openloop.offered gen in
  check_bool "window sees about half the run" true
    (abs (offered - 1_250) < 150);
  check_int "served equals offered at trivial load" offered
    (W.Openloop.served gen)

let test_openloop_throughput () =
  let sim, _, sys = mk_vessel () in
  let gen = W.Memcached.make ~sim ~sys ~app_id:1 ~workers:2 () in
  sys.S.Sched_intf.start ();
  W.Openloop.start gen ~rate_rps:200_000. ~until:100_000_000;
  Sim.run_until sim 100_000_000;
  sys.S.Sched_intf.stop ();
  let tput = W.Openloop.throughput_rps gen ~now:100_000_000 in
  check_bool
    (Printf.sprintf "throughput %.0f ~ 200k" tput)
    true
    (Float.abs (tput -. 200_000.) /. 200_000. < 0.05)

(* ------------------------------------------------------------------ *)
(* Best-effort apps *)

let test_linpack_soaks_cpu () =
  let sim, _, sys = mk_vessel ~cores:2 () in
  let lp = W.Linpack.make ~sys ~app_id:1 ~workers:2 () in
  sys.S.Sched_intf.start ();
  Sim.run_until sim 10_000_000;
  sys.S.Sched_intf.stop ();
  (* Two workers on two cores for 10ms: ~20ms of compute minus overheads. *)
  let done_ns = W.Linpack.completed_ns lp in
  check_bool
    (Printf.sprintf "completed %.1fms ~ 20ms" (float_of_int done_ns /. 1e6))
    true
    (done_ns > 19_000_000)

let test_membench_moves_bytes () =
  let sim, machine, sys = mk_vessel ~cores:1 () in
  let mb = W.Membench.make ~sys ~app_id:1 ~workers:1 () in
  sys.S.Sched_intf.start ();
  Sim.run_until sim 10_000_000;
  sys.S.Sched_intf.stop ();
  (* 50% duty memory phases at 8 B/ns => ~40 MB in 10ms. *)
  let bytes = W.Membench.bytes_moved mb in
  check_bool
    (Printf.sprintf "moved %d ~ 40MB" bytes)
    true
    (abs (bytes - 40_000_000) < 2_000_000);
  check_int "controller agrees" bytes
    (Hw.Membw.total_bytes (Hw.Machine.membw machine) ~app:1);
  check_bool "full_rate helper" true
    (Float.abs (W.Membench.full_rate ~mem_ns:5_000 ~compute_ns:5_000 ~bytes_per_ns:8 -. 4.) < 1e-9)

let test_objcopy_counts_and_footprint () =
  let sim, machine, sys = mk_vessel ~cores:1 () in
  let oc =
    W.Objcopy.make ~sys ~app_id:1 ~name:"copyA" ~region:(0, 512 * 1024)
      ~park_every:0 ()
  in
  sys.S.Sched_intf.start ();
  Sim.run_until sim 1_000_000;
  sys.S.Sched_intf.stop ();
  check_bool "objects copied" true (W.Objcopy.copied_objects oc > 100);
  check_bool "cache touched" true (Hw.Cache.accesses (Hw.Machine.cache machine) > 0);
  check_bool "busy time tracked" true (W.Objcopy.completion_time_ns oc > 0)

let test_openloop_bursty () =
  let sim, _, sys = mk_vessel ~cores:4 () in
  let gen = W.Memcached.make ~sim ~sys ~app_id:1 ~workers:4 () in
  sys.S.Sched_intf.start ();
  (* 100k base, 1M bursts for 50us every 500us over 50ms:
     mean = 0.9*100k + 0.1*1M = 190k => ~9.5k requests. *)
  W.Openloop.start_bursty gen ~base_rps:100_000. ~burst_rps:1_000_000.
    ~burst_len:50_000 ~period:500_000 ~until:50_000_000;
  Sim.run_until sim 60_000_000;
  sys.S.Sched_intf.stop ();
  let n = W.Openloop.offered gen in
  check_bool (Printf.sprintf "offered %d ~ 9500" n) true (abs (n - 9_500) < 700);
  check_bool "bad args rejected" true
    (try
       W.Openloop.start_bursty gen ~base_rps:1. ~burst_rps:1. ~burst_len:10
         ~period:5 ~until:1;
       false
     with Invalid_argument _ -> true)

let test_pingpong_handoffs () =
  let sim, _, sys = mk_vessel ~cores:1 () in
  let _ta, _tb, handoffs = W.Synth.pingpong_pair ~sim ~sys ~app_ids:(1, 2) () in
  sys.S.Sched_intf.start ();
  ignore
    (Sim.schedule sim ~at:1_000 (fun _ -> sys.S.Sched_intf.notify_app ~app_id:1));
  Sim.run_until sim 1_000_000;
  sys.S.Sched_intf.stop ();
  (* Each cycle is ~100ns burst + ~161ns switch: thousands of handoffs in
     1ms. *)
  check_bool
    (Printf.sprintf "%d handoffs" (handoffs ()))
    true
    (handoffs () > 1_000)

(* ------------------------------------------------------------------ *)
(* Deterministic replay: the property every fault-injection verdict and
   repro command rests on. Same seed => identical simulation, so each
   workload's observable counters must match exactly across runs. *)

let replay_twice f =
  let a = f () and b = f () in
  (a, b)

let test_silo_replay_deterministic () =
  let run () =
    let sim, _, sys = mk_vessel ~cores:2 ~seed:31 () in
    let gen = W.Silo.make ~sim ~sys ~app_id:1 ~workers:2 () in
    sys.S.Sched_intf.start ();
    W.Openloop.start gen ~rate_rps:20_000. ~until:20_000_000;
    Sim.run_until sim 25_000_000;
    sys.S.Sched_intf.stop ();
    ( W.Openloop.offered gen,
      W.Openloop.served gen,
      Stats.Histogram.percentile (W.Openloop.latencies gen) 99. )
  in
  let (o1, s1, p1), (o2, s2, p2) = replay_twice run in
  check_int "offered replays" o1 o2;
  check_int "served replays" s1 s2;
  check_int "p99 replays" p1 p2;
  check_bool "run did work" true (s1 > 100)

let test_linpack_replay_deterministic () =
  let run () =
    let sim, _, sys = mk_vessel ~cores:2 ~seed:32 () in
    let lp = W.Linpack.make ~sys ~app_id:1 ~workers:2 () in
    sys.S.Sched_intf.start ();
    Sim.run_until sim 5_000_000;
    sys.S.Sched_intf.stop ();
    W.Linpack.completed_ns lp
  in
  let a, b = replay_twice run in
  check_int "completed_ns replays" a b;
  check_bool "run did work" true (a > 0)

let test_objcopy_replay_deterministic () =
  let run () =
    let sim, machine, sys = mk_vessel ~cores:1 ~seed:33 () in
    let oc =
      W.Objcopy.make ~sys ~app_id:1 ~name:"copyA" ~region:(0, 512 * 1024)
        ~park_every:0 ()
    in
    sys.S.Sched_intf.start ();
    Sim.run_until sim 1_000_000;
    sys.S.Sched_intf.stop ();
    ( W.Objcopy.copied_objects oc,
      W.Objcopy.completion_time_ns oc,
      Hw.Cache.accesses (Hw.Machine.cache machine) )
  in
  let (n1, t1, c1), (n2, t2, c2) = replay_twice run in
  check_int "objects replay" n1 n2;
  check_int "busy time replays" t1 t2;
  check_int "cache accesses replay" c1 c2;
  check_bool "run did work" true (n1 > 0)

let suite =
  [
    ( "workloads.distributions",
      [
        Alcotest.test_case "memcached mean 1us" `Quick test_memcached_service_mean;
        Alcotest.test_case "silo quantiles (TPC-C)" `Quick
          test_silo_service_quantiles;
      ] );
    ( "workloads.openloop",
      [
        Alcotest.test_case "poisson rate" `Quick test_openloop_poisson_rate;
        Alcotest.test_case "latency includes queueing" `Quick
          test_openloop_latency_includes_queueing;
        Alcotest.test_case "warmup window" `Quick test_openloop_window_excludes_warmup;
        Alcotest.test_case "throughput" `Quick test_openloop_throughput;
      ] );
    ( "workloads.apps",
      [
        Alcotest.test_case "linpack soaks cpu" `Quick test_linpack_soaks_cpu;
        Alcotest.test_case "membench moves bytes" `Quick test_membench_moves_bytes;
        Alcotest.test_case "objcopy" `Quick test_objcopy_counts_and_footprint;
        Alcotest.test_case "bursty arrivals" `Quick test_openloop_bursty;
        Alcotest.test_case "pingpong handoffs" `Quick test_pingpong_handoffs;
      ] );
    ( "workloads.replay",
      [
        Alcotest.test_case "silo deterministic" `Quick
          test_silo_replay_deterministic;
        Alcotest.test_case "linpack deterministic" `Quick
          test_linpack_replay_deterministic;
        Alcotest.test_case "objcopy deterministic" `Quick
          test_objcopy_replay_deterministic;
      ] );
  ]
