module Sim = Vessel_engine.Sim
module Pool = Vessel_engine.Pool
module Hw = Vessel_hw
module S = Vessel_sched
module W = Vessel_workloads
module Stats = Vessel_stats

(* ------------------------------------------------------------------ *)
(* Parallel sweep execution.

   Every sweep point builds its own [Sim.t]/[Machine.t] from an explicit
   seed, so fanning points across domains cannot change any result —
   only the wall clock. The default worker count is process-wide,
   settable once from the CLI's [-j]. *)

let domain_count = ref (Pool.default_domains ())
let set_domains n = domain_count := max 1 n
let domains () = !domain_count

let sweep ?domains f points =
  let domains = Option.value domains ~default:!domain_count in
  if Vessel_obs.Collector.active () then begin
    (* Each point becomes its own collector unit, keyed by (fork seq,
       point index) — pure program structure — so traces and metrics
       merge identically at any [-j N]. *)
    let fork = Vessel_obs.Collector.fork_point () in
    Pool.map ~domains
      (fun (i, p) ->
        Vessel_obs.Collector.with_child fork ~index:i (fun () -> f p))
      (List.mapi (fun i p -> (i, p)) points)
  end
  else Pool.map ~domains f points

let sweep_points ?domains jobs = sweep ?domains (fun job -> job ()) jobs

type sched_kind =
  | Vessel
  | Caladan
  | Caladan_dr_l
  | Caladan_dr_h
  | Arachne
  | Linux_cfs

let sched_name = function
  | Vessel -> "vessel"
  | Caladan -> "caladan"
  | Caladan_dr_l -> "caladan-dr-l"
  | Caladan_dr_h -> "caladan-dr-h"
  | Arachne -> "arachne"
  | Linux_cfs -> "linux-cfs"

let all_systems =
  [ Vessel; Caladan; Caladan_dr_l; Caladan_dr_h; Arachne; Linux_cfs ]

type built = {
  machine : Hw.Machine.t;
  sim : Sim.t;
  sys : S.Sched_intf.system;
  vessel : S.Vessel.t option;
  baseline : S.Baseline.t option;
}

let build ?(seed = 42) ?sim ?cost ?vessel_params ?(profile_tweak = Fun.id)
    ~cores kind =
  let sim =
    match sim with Some s -> s | None -> Sim.create ~seed ()
  in
  let machine = Hw.Machine.create ?cost ~cores sim in
  match kind with
  | Vessel ->
      let v = S.Vessel.make ?params:vessel_params ~machine () in
      { machine; sim; sys = S.Vessel.system v; vessel = Some v; baseline = None }
  | Caladan | Caladan_dr_l | Caladan_dr_h | Arachne ->
      let profile =
        profile_tweak
          (match kind with
          | Caladan -> S.Baseline.caladan
          | Caladan_dr_l -> S.Baseline.caladan_dr_l
          | Caladan_dr_h -> S.Baseline.caladan_dr_h
          | Arachne -> S.Baseline.arachne
          | Vessel | Linux_cfs -> assert false)
      in
      let b = S.Baseline.make profile ~machine in
      { machine; sim; sys = S.Baseline.system b; vessel = None; baseline = Some b }
  | Linux_cfs ->
      let c = S.Cfs.make ~machine () in
      { machine; sim; sys = S.Cfs.system c; vessel = None; baseline = None }

type l_app = Memcached | Silo

let l_app_name = function Memcached -> "memcached" | Silo -> "silo"

type measurement = {
  sched : sched_kind;
  offered_rps : float;
  achieved_rps : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  b_completed_ns : int;
  app_cores : float;
  runtime_cores : float;
  kernel_cores : float;
  idle_cores : float;
  window_ns : int;
}

let make_l_app b ~l_app ~app_id ~workers =
  match l_app with
  | Memcached -> W.Memcached.make ~sim:b.sim ~sys:b.sys ~app_id ~workers ()
  | Silo -> W.Silo.make ~sim:b.sim ~sys:b.sys ~app_id ~workers ()

let percentile_us h p =
  float_of_int (Stats.Histogram.percentile h p) /. 1e3

(* Snapshot the accounting inside the window only: run the warmup, diff
   totals at window close. *)
let account_snapshot machine =
  let acc = Hw.Machine.total_account machine in
  ( Stats.Cycle_account.app_total acc,
    Stats.Cycle_account.total acc Stats.Cycle_account.Runtime,
    Stats.Cycle_account.total acc Stats.Cycle_account.Kernel,
    Stats.Cycle_account.total acc Stats.Cycle_account.Idle )

(* Request ids that are multiples of 2^shift, targeting <= ~64k sampled
   requests per point: attribution stays exact per sampled request while
   buffers stay small on the longest sweeps. *)
let attrib_sample_shift ~rate_rps ~span_ns =
  let expected = rate_rps *. float_of_int span_ns /. 1e9 in
  let shift = ref 0 in
  while expected /. float_of_int (1 lsl !shift) > 65536. do
    incr shift
  done;
  !shift

let run_colocation ?(seed = 42) ?(cores = 8) ?l_workers ?b_workers
    ?(warmup = 20_000_000) ?(duration = 100_000_000) ?(with_b_app = true)
    ~sched ~l_app ~rate_rps () =
  let l_workers = match l_workers with Some w -> w | None -> cores in
  let b_workers = match b_workers with Some w -> w | None -> cores in
  let b = build ~seed ~cores sched in
  (* One attribution instance per point when --attrib is live; lane 0 is
     the whole (single) machine. Registration keys on the collector unit,
     so sweep fan-out cannot reorder the report. *)
  let attrib =
    if Vessel_obs.Request.active () then
      Some
        (Vessel_obs.Attrib.create
           ~label:
             (Printf.sprintf "%s %s %.0frps" (sched_name sched)
                (l_app_name l_app) rate_rps)
           ~sample_shift:
             (attrib_sample_shift ~rate_rps ~span_ns:(warmup + duration))
           ())
    else None
  in
  (fun body ->
    match attrib with
    | Some a -> Vessel_obs.Attrib.with_lane a ~lane:0 body
    | None -> body ())
  @@ fun () ->
  let gen = make_l_app b ~l_app ~app_id:1 ~workers:l_workers in
  let lp =
    if with_b_app then Some (W.Linpack.make ~sys:b.sys ~app_id:2 ~workers:b_workers ())
    else None
  in
  let horizon = warmup + duration in
  b.sys.S.Sched_intf.start ();
  W.Openloop.start gen ~rate_rps ~until:horizon;
  (* Warm up, then snapshot-and-measure. *)
  Sim.run_until b.sim warmup;
  W.Openloop.open_window gen ~at:warmup;
  let app0, rt0, k0, idle0 = account_snapshot b.machine in
  let b_done0 = match lp with Some l -> W.Linpack.completed_ns l | None -> 0 in
  Sim.run_until b.sim horizon;
  b.sys.S.Sched_intf.stop ();
  let app1, rt1, k1, idle1 = account_snapshot b.machine in
  let b_done1 = match lp with Some l -> W.Linpack.completed_ns l | None -> 0 in
  let h = W.Openloop.latencies gen in
  let wall = float_of_int duration in
  {
    sched;
    offered_rps = rate_rps;
    achieved_rps = W.Openloop.throughput_rps gen ~now:horizon;
    p50_us = percentile_us h 50.;
    p99_us = percentile_us h 99.;
    p999_us = percentile_us h 99.9;
    b_completed_ns = b_done1 - b_done0;
    app_cores = float_of_int (app1 - app0) /. wall;
    runtime_cores = float_of_int (rt1 - rt0) /. wall;
    kernel_cores = float_of_int (k1 - k0) /. wall;
    idle_cores = float_of_int (idle1 - idle0) /. wall;
    window_ns = duration;
  }

(* Run-alone capacity probes are pure functions of their parameters:
   each builds a private Sim from the explicit seed, so the same key
   always yields the same float. Several experiments (fig1, fig9, fig12,
   fig13, burst, ablation…) re-measure the same (seed, cores, sched,
   l_app) points; memoizing process-wide turns those repeats into table
   hits without changing any reported number.

   The cache must be bypassed while a trace/metrics collector or request
   attribution is live: a cached probe would skip the run entirely and
   its collector unit's events would vanish from the merged output
   (breaking byte-identity and -j determinism of traces). Sweep points
   run on worker domains, hence the mutex; a racing duplicate compute is
   harmless because both sides produce the identical value. *)
let capacity_mutex = Mutex.create ()

let capacity_cache :
    (int * int * int option * sched_kind * l_app, float) Hashtbl.t =
  Hashtbl.create 16

let memo_capacity key compute =
  if Vessel_obs.Collector.active () || Vessel_obs.Request.active () then
    compute ()
  else begin
    Mutex.lock capacity_mutex;
    let hit = Hashtbl.find_opt capacity_cache key in
    Mutex.unlock capacity_mutex;
    match hit with
    | Some v -> v
    | None ->
        let v = compute () in
        Mutex.lock capacity_mutex;
        if not (Hashtbl.mem capacity_cache key) then
          Hashtbl.add capacity_cache key v;
        Mutex.unlock capacity_mutex;
        v
  end

let l_alone_capacity ?(seed = 42) ?(cores = 8) ?l_workers ~sched ~l_app () =
  memo_capacity (seed, cores, l_workers, sched, l_app) @@ fun () ->
  (* Overload the server: capacity is the served rate under saturation. *)
  let mean_service =
    match l_app with
    | Memcached -> W.Memcached.mean_service_ns
    | Silo -> Vessel_engine.Dist.mean W.Silo.service_dist
  in
  let saturating = 1.3 *. (float_of_int cores /. mean_service *. 1e9) in
  let m =
    run_colocation ~seed ~cores ?l_workers ~with_b_app:false ~sched ~l_app
      ~rate_rps:saturating ()
  in
  m.achieved_rps

let b_alone_capacity ?(seed = 42) ?(cores = 8) ?b_workers ~sched () =
  let b_workers = match b_workers with Some w -> w | None -> cores in
  let b = build ~seed ~cores sched in
  let lp = W.Linpack.make ~sys:b.sys ~app_id:2 ~workers:b_workers () in
  let warmup = 5_000_000 and duration = 50_000_000 in
  b.sys.S.Sched_intf.start ();
  Sim.run_until b.sim warmup;
  let d0 = W.Linpack.completed_ns lp in
  Sim.run_until b.sim (warmup + duration);
  b.sys.S.Sched_intf.stop ();
  float_of_int (W.Linpack.completed_ns lp - d0) /. float_of_int duration

let normalized_total ~m ~l_max_rps ~b_max_ns_per_ns =
  let l = if l_max_rps <= 0. then 0. else m.achieved_rps /. l_max_rps in
  let b_rate = float_of_int m.b_completed_ns /. float_of_int m.window_ns in
  let b = if b_max_ns_per_ns <= 0. then 0. else b_rate /. b_max_ns_per_ns in
  l +. b
