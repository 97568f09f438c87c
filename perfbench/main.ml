(* perfbench: an outside-in benchmark of the simulator.

   One process runs one workload, built from the seed on the command
   line, in whole rounds until the requested seconds have passed. A round
   is a fixed amount of simulated work: the same points, the same
   horizons and fixed offered rates (never the memoized capacity probes),
   so its event count repeats exactly for a given seed. Every point is one
   operation, and so is every file the trace_export workload writes; an
   operation fails when any of its reference checks fails or it raises.

   --trace 0 times rounds with nothing wrapped and prints the end-to-end
   metrics. --trace 1 follows the first round with pairs of rounds, one
   plain and one with the layer boundaries wrapped, prints the per-layer
   metrics and the wrapping's overhead, and writes its spans to the
   output directory. The last line of standard output is the JSON
   result. *)

module Sim = Vessel_engine.Sim
module Pool = Vessel_engine.Pool
module Cluster = Vessel_cluster.Cluster
module Hw = Vessel_hw
module S = Vessel_sched
module W = Vessel_workloads
module Stats = Vessel_stats
module Obs = Vessel_obs
module Runner = Vessel_experiments.Runner

(* ---- one round's measurements --------------------------------------- *)

(* An operation fails when it has [failures] (a wrong output) or
   [known] ones (a program fault this benchmark documents; see the
   README). Only the former make a run incorrect. *)
type op = { label : string; failures : string list; known : string list }

type acc = {
  layer : bool;  (** wrap the layer boundaries *)
  adjust : bool;  (** measure host speed around each point (warm rounds) *)
  mutable ref_ns : int list;  (** reference-loop times, newest first *)
  mutable pending_run : float;  (** run ns since the last reference loop *)
  mutable pending_cpu : float;  (** cpu s since the last reference loop *)
  mutable adj_run : float;  (** run ns at unit host speed *)
  mutable adj_cpu : float;  (** cpu s at unit host speed *)
  mutable origin : (int * float) option;
      (** process start (wall ns, cpu s): the first set-up starts there *)
  mutable setup_ns : int;
  mutable run_ns : int;
  mutable cpu : float;
  mutable events : int;
  mutable ops : op list;  (** newest first *)
  mutable span_ns : (string * int) list;  (** coarse span totals by name *)
  (* layer figures; the cache counters and the engine's minor words are
     filled in every round, the rest when [layer] *)
  mutable groups : Layer.group list;
  mutable engine_ns : int;
  mutable engine_self_ns : int;
  mutable engine_minor : float;
  mutable cache_accesses : int;
  mutable cache_misses : int;
  mutable replay_lines : int;
  mutable replay_ns : int;
  mutable epochs : int;
  mutable machine_ns : int;
  mutable sync_ns : int;
  (* trace_export figures, filled in every round *)
  mutable recorded_ns : int;
  mutable plain_ns : int;
  mutable trace_bytes : int;
  mutable trace_export_ns : int;
  mutable attrib_export_ns : int;
}

let new_acc ~layer ~adjust ~origin =
  {
    layer;
    adjust;
    ref_ns = [];
    pending_run = 0.;
    pending_cpu = 0.;
    adj_run = 0.;
    adj_cpu = 0.;
    origin;
    setup_ns = 0;
    run_ns = 0;
    cpu = 0.;
    events = 0;
    ops = [];
    span_ns = [];
    groups = [];
    engine_ns = 0;
    engine_self_ns = 0;
    engine_minor = 0.;
    cache_accesses = 0;
    cache_misses = 0;
    replay_lines = 0;
    replay_ns = 0;
    epochs = 0;
    machine_ns = 0;
    sync_ns = 0;
    recorded_ns = 0;
    plain_ns = 0;
    trace_bytes = 0;
    trace_export_ns = 0;
    attrib_export_ns = 0;
  }

(* Wall and CPU time of a set-up or run phase. The round's first set-up
   is timed from the process's start, so [setup_s] is a cold set-up. *)
let phase acc ~setup f =
  let t0, c0 =
    match acc.origin with
    | Some o when setup ->
        acc.origin <- None;
        o
    | _ -> (Layer.now_ns (), Layer.cpu_s ())
  in
  let r = f () in
  let d = Layer.now_ns () - t0 in
  let cpu = Layer.cpu_s () -. c0 in
  let run = if setup then 0. else float_of_int d in
  if setup then acc.setup_ns <- acc.setup_ns + d else acc.run_ns <- acc.run_ns + d;
  acc.cpu <- acc.cpu +. cpu;
  if acc.adjust then begin
    acc.pending_run <- acc.pending_run +. run;
    acc.pending_cpu <- acc.pending_cpu +. cpu
  end
  else begin
    acc.adj_run <- acc.adj_run +. run;
    acc.adj_cpu <- acc.adj_cpu +. cpu
  end;
  r

(* The reference loop's time on the host taken as unit speed. *)
let unit_ref_ns = 100_000_000.

(* Between the points of a warm round, outside every timed phase, and
   at its end: the host's current speed. The phases since the previous
   reference loop are scaled by unit speed over the mean of the two
   loops around them. The cold round skips this so that its set-up runs
   straight from the process's launch. *)
let host_speed acc =
  if acc.adjust then begin
    let c = Layer.ref_loop () in
    let around =
      match acc.ref_ns with p :: _ -> (p + c) / 2 | [] -> c
    in
    let scale = unit_ref_ns /. float_of_int around in
    acc.adj_run <- acc.adj_run +. (acc.pending_run *. scale);
    acc.adj_cpu <- acc.adj_cpu +. (acc.pending_cpu *. scale);
    acc.pending_run <- 0.;
    acc.pending_cpu <- 0.;
    acc.ref_ns <- c :: acc.ref_ns
  end

let setup acc f = phase acc ~setup:true f
let run acc f = phase acc ~setup:false f
let add_span acc (s : Layer.span) =
  let d = s.end_ns - s.start_ns in
  let prev = Option.value (List.assoc_opt s.name acc.span_ns) ~default:0 in
  acc.span_ns <- (s.name, prev + d) :: List.remove_assoc s.name acc.span_ns;
  d

let lspan acc name f =
  if not acc.layer then f ()
  else begin
    let r, s = Layer.measure name f in
    ignore (add_span acc s);
    r
  end

(* One stretch of simulation ([Sim.run_until] or the cluster's epoch
   loop). Minor words are counted in every round; with the layer run on,
   it is also a span. For one machine, [covered] reads how long the
   wrapped calls made inside it took so far: they are its children, and
   the rest is the engine's own dispatch time. *)
let engine acc ?covered f =
  if not acc.layer then begin
    let w0 = Gc.quick_stat () in
    f ();
    let w1 = Gc.quick_stat () in
    acc.engine_minor <- acc.engine_minor +. (w1.Gc.minor_words -. w0.Gc.minor_words)
  end
  else begin
    let c0 = match covered with Some c -> c () | None -> 0 in
    let (), s = Layer.measure "engine" f in
    let d = add_span acc s in
    acc.engine_ns <- acc.engine_ns + d;
    acc.engine_minor <- acc.engine_minor +. s.Layer.minor_words;
    match covered with
    | Some c -> acc.engine_self_ns <- acc.engine_self_ns + d - (c () - c0)
    | None -> ()
  end

let new_group acc ?footprints () =
  let g = Layer.group ?footprints () in
  acc.groups <- g :: acc.groups;
  g

let count_cache acc machine =
  let c = Hw.Machine.cache machine in
  acc.cache_accesses <- acc.cache_accesses + Hw.Cache.accesses c;
  acc.cache_misses <- acc.cache_misses + Hw.Cache.misses c

(* An operation: its checks, or the exception that stopped it. *)
let op_known acc label f =
  let failures, known =
    match f () with
    | v -> v
    | exception e -> ([ "raised " ^ Printexc.to_string e ], [])
  in
  acc.ops <- { label; failures; known } :: acc.ops

let op acc label f = op_known acc label (fun () -> (f (), []))
let op_failed o = o.failures <> [] || o.known <> []

(* ---- colocation (colo, trace_export) --------------------------------- *)

(* Nominal capacity: one request per microsecond per core (Memcached's
   USR mix averages 1 us of service). Rates are fixed from it. *)
let nominal_rps cores = float_of_int cores *. 1e6
let memcached_floor_ns = 300
let linpack_chunk_ns = 20_000

type colo = {
  c_sched : Runner.sched_kind;
  c_load : float;
  rate_rps : float;
  cores : int;
  window : int;
  offered : int;
  served : int;
  p50 : int;
  p99 : int;
  p999 : int;
  b_completed : int;
  charged : int;
  c_events : int;
}

let colo_fields c =
  [
    ("events", c.c_events);
    ("offered", c.offered);
    ("served", c.served);
    ("p50_ns", c.p50);
    ("p99_ns", c.p99);
    ("p999_ns", c.p999);
    ("b_completed_ns", c.b_completed);
    ("charged_ns", c.charged);
  ]

(* Memcached (latency-critical) plus Linpack (best effort) on one
   machine: the Figure 1/9 scenario, built from the public constructors
   so set-up and run are timed apart. With [attrib], an attribution
   instance records the point as [--attrib] does. *)
let colocation acc ~seed ~cores ~warmup ~window ~attrib sched load =
  host_speed acc;
  let rate_rps = load *. nominal_rps cores in
  let horizon = warmup + window in
  let g = new_group acc () in
  let b, gen, lp, lane =
    setup acc (fun () ->
        let b = lspan acc "sched.build" (fun () -> Runner.build ~seed ~cores sched) in
        let sys =
          if acc.layer then Layer.wrap_system ~timed:true g b.Runner.sys
          else b.Runner.sys
        in
        let lane =
          if attrib then
            let a =
              Obs.Attrib.create
                ~label:
                  (Printf.sprintf "%s memcached %.0frps" (Runner.sched_name sched)
                     rate_rps)
                ()
            in
            fun f -> Obs.Attrib.with_lane a ~lane:0 f
          else fun f -> f ()
        in
        let gen =
          lspan acc "workload.build" (fun () ->
              W.Memcached.make ~sim:b.Runner.sim ~sys ~app_id:1 ~workers:cores
                ())
        in
        let lp =
          lspan acc "workload.build" (fun () ->
              W.Linpack.make ~sys ~app_id:2 ~workers:cores ())
        in
        (b, gen, lp, lane))
  in
  let grand () = Stats.Cycle_account.grand_total (Hw.Machine.total_account b.Runner.machine) in
  run acc (fun () ->
      lane @@ fun () ->
      b.Runner.sys.S.Sched_intf.start ();
      W.Openloop.start gen ~rate_rps ~until:horizon;
      let covered () = Layer.covered g in
      engine acc ~covered (fun () -> Sim.run_until b.Runner.sim warmup);
      W.Openloop.open_window gen ~at:warmup;
      let a0 = grand () and d0 = W.Linpack.completed_ns lp in
      engine acc ~covered (fun () -> Sim.run_until b.Runner.sim horizon);
      b.Runner.sys.S.Sched_intf.stop ();
      let h = W.Openloop.latencies gen in
      let pct p = Stats.Histogram.percentile h p in
      let events = Sim.events_executed b.Runner.sim in
      acc.events <- acc.events + events;
      count_cache acc b.Runner.machine;
      {
        c_sched = sched;
        c_load = load;
        rate_rps;
        cores;
        window;
        offered = W.Openloop.offered gen;
        served = W.Openloop.served gen;
        p50 = pct 50.;
        p99 = pct 99.;
        p999 = pct 99.9;
        b_completed = W.Linpack.completed_ns lp - d0;
        charged = grand () - a0;
        c_events = events;
      })

let colo_checks c =
  Check.all
    [
      Check.cycle_accounts ~cores:c.cores ~window_ns:c.window
        ~charged_ns:c.charged ~max_segment_ns:linpack_chunk_ns;
      Check.poisson_count ~rate_rps:c.rate_rps ~window_ns:c.window
        ~count:c.offered;
      Check.served ~offered:c.offered ~served:c.served ~min_share:0.99;
      Check.latency ~floor_ns:memcached_floor_ns ~p50:c.p50 ~p99:c.p99
        ~p999:c.p999;
      Check.completed_work ~cores:c.cores ~window_ns:c.window
        ~completed_ns:c.b_completed;
    ]

let colo_label c =
  Printf.sprintf "%s load %.1f" (Runner.sched_name c.c_sched) c.c_load

let colo_line c =
  Printf.sprintf
    "%-8s load %.1f  offered %7d  served %7d  p50 %5.2f us  p99 %6.2f us  \
     p999 %6.2f us  linpack %.1f cores  accounts %+d ns  events %d"
    (Runner.sched_name c.c_sched) c.c_load c.offered c.served
    (float_of_int c.p50 /. 1e3)
    (float_of_int c.p99 /. 1e3)
    (float_of_int c.p999 /. 1e3)
    (float_of_int c.b_completed /. float_of_int c.window)
    (c.charged - (c.cores * c.window))
    c.c_events

(* colo: VESSEL and Caladan at three fixed loads, 8 cores, 20 ms warm-up
   and a 100 ms window each. *)
let colo_loads = [ 0.3; 0.6; 0.9 ]
let top_load = 0.9

let colo_round acc ~seed ~verbose =
  let results =
    List.concat_map
      (fun sched ->
        List.map
          (fun load ->
            ( sched,
              load,
              match
                colocation acc ~seed ~cores:8 ~warmup:20_000_000
                  ~window:100_000_000 ~attrib:false sched load
              with
              | c -> Ok c
              | exception e -> Error e ))
          colo_loads)
      [ Runner.Vessel; Runner.Caladan ]
  in
  let top sched =
    List.find_map
      (fun (s, l, r) ->
        match r with Ok c when s = sched && l = top_load -> Some c | _ -> None)
      results
  in
  List.iter
    (fun (sched, load, r) ->
      op acc (Printf.sprintf "%s load %.1f" (Runner.sched_name sched) load) (fun () ->
          match r with
          | Error e -> raise e
          | Ok c ->
              if verbose then print_endline ("  " ^ colo_line c);
              Check.all
                [
                  colo_checks c;
                  (if sched = Runner.Caladan && load = top_load then
                     match top Runner.Vessel with
                     | Some v ->
                         Check.tail_order ~vessel_p999:v.p999
                           ~caladan_p999:c.p999
                     | None -> Check.fail "no VESSEL point at the top load"
                   else Check.ok);
                ]))
    results

(* ---- objcopy --------------------------------------------------------- *)

let oc_working_set = 512 * 1024
let oc_object_bytes = 4096
let oc_batch_objects = 16
let oc_line = 64
let oc_words_per_line = 16
let oc_duration = 150_000_000

type oc = {
  o_sched : Runner.sched_kind;
  accesses : int;
  misses : int;
  copied : int;
  regions : (int * (int * int)) list;  (** app -> (base, len) *)
  footprints : (int * int * int) list;
  o_events : int;
}

let miss_rate o =
  if o.accesses = 0 then 0. else float_of_int o.misses /. float_of_int o.accesses

(* Figure 11's two object-copy apps on one core from a cold LLC, with
   Figure 11's placements: adjacent 512 KiB regions in one SMAS for
   VESSEL, scattered 2.4x spans for separate address spaces. *)
let objcopy acc ~seed sched =
  host_speed acc;
  let ws = oc_working_set in
  let fragmented = ws * 12 / 5 in
  let region_a, region_b =
    match sched with
    | Runner.Vessel -> ((0x100000, ws), (0x100000 + ws, ws))
    | _ -> ((0x100000, fragmented), (0x100000 + (4 * fragmented), fragmented))
  in
  let fps = Queue.create () in
  let g = new_group acc ~footprints:fps () in
  let b, sys, a, c =
    setup acc (fun () ->
        let b = lspan acc "sched.build" (fun () -> Runner.build ~seed ~cores:1 sched) in
        let sys = Layer.wrap_system ~timed:acc.layer g b.Runner.sys in
        let make app_id name region =
          lspan acc "workload.build" (fun () ->
              W.Objcopy.make ~sys ~app_id ~name ~region
                ~object_bytes:oc_object_bytes
                ~objects_per_batch:oc_batch_objects ())
        in
        let a = make 1 "copyA" region_a in
        let c = make 2 "copyB" region_b in
        (b, sys, a, c))
  in
  run acc (fun () ->
      let sim = b.Runner.sim in
      sys.S.Sched_intf.start ();
      (* The copiers park between batches; keep both runnable so the
         core alternates between the two applications. *)
      let rec kick sim =
        sys.S.Sched_intf.notify_app ~app_id:1;
        sys.S.Sched_intf.notify_app ~app_id:2;
        if Sim.now sim < oc_duration then
          ignore (Sim.schedule_after sim ~delay:20_000 kick)
      in
      ignore (Sim.schedule sim ~at:0 kick);
      engine acc ~covered:(fun () -> Layer.covered g) (fun () ->
          Sim.run_until sim oc_duration);
      sys.S.Sched_intf.stop ();
      let cache = Hw.Machine.cache b.Runner.machine in
      let events = Sim.events_executed sim in
      acc.events <- acc.events + events;
      count_cache acc b.Runner.machine;
      {
        o_sched = sched;
        accesses = Hw.Cache.accesses cache;
        misses = Hw.Cache.misses cache;
        copied = W.Objcopy.copied_objects a + W.Objcopy.copied_objects c;
        regions = [ (1, region_a); (2, region_b) ];
        footprints = List.of_seq (Queue.to_seq fps);
        o_events = events;
      })

(* The worker steps' footprints, each touched once, on a fresh cache. *)
let replay acc o =
  let cache = Hw.Cache.create () in
  let t0 = Layer.now_ns () in
  List.iter
    (fun (_, base, len) ->
      Hw.Cache.access_run cache ~word_accesses:oc_words_per_line ~addr:base
        ~len ();
      acc.replay_lines <-
        acc.replay_lines + ((base + len - 1) / oc_line) - (base / oc_line) + 1)
    o.footprints;
  acc.replay_ns <- acc.replay_ns + (Layer.now_ns () - t0)

let objcopy_round acc ~seed ~verbose =
  let vessel = ref None in
  List.iter
    (fun sched ->
      op acc (Runner.sched_name sched) (fun () ->
          let o = objcopy acc ~seed sched in
          if acc.layer then replay acc o;
          if verbose then
            Printf.printf
              "  %-8s accesses %d  misses %d  miss rate %.4f%%  copied %d  \
               events %d\n"
              (Runner.sched_name sched) o.accesses o.misses
              (100. *. miss_rate o) o.copied o.o_events;
          let bound =
            Check.miss_bound ~words_per_line:oc_words_per_line
              ~accesses:o.accesses ~misses:o.misses
          in
          match sched with
          | Runner.Vessel ->
              vessel := Some o;
              Check.all
                (bound
                 :: Check.compulsory_misses ~apps:2 ~working_set:oc_working_set
                      ~line:oc_line ~misses:o.misses
                 :: Check.accesses_cover
                      ~words_per_object:
                        (oc_object_bytes / oc_line * oc_words_per_line)
                      ~copied:o.copied ~accesses:o.accesses
                 :: List.map
                      (fun (app, region) ->
                        Check.batches_inside ~region
                          ~batch_bytes:(oc_batch_objects * oc_object_bytes)
                          (List.filter_map
                             (fun (a, base, len) ->
                               if a = app then Some (base, len) else None)
                             o.footprints))
                      o.regions)
          | _ -> (
              match !vessel with
              | Some v ->
                  Check.all
                    [
                      bound;
                      Check.miss_rate_order ~vessel:(miss_rate v)
                        ~caladan:(miss_rate o);
                    ]
              | None -> Check.fail "no VESSEL point to compare against")))
    [ Runner.Vessel; Runner.Caladan ]

(* ---- fleet ------------------------------------------------------------ *)

let fl_backends = 8
let fl_cores = 2
let fl_lookahead = 20_000
let fl_warmup = 2_000_000
let fl_window = 10_000_000
(* The fleet experiment fans its machines over two domains. Here, at
   two domains, each of a round's 5,400 epochs hands work to a parked
   pool domain, and on a shared 2-core host run_s spread 29% (quartile
   distance over median, 10 seeds) from run to run, past any bound the
   benchmark may set; at one domain it spread 15%. *)
let fl_domains = 1
let fl_rate_rps = 0.55 *. nominal_rps (fl_backends * fl_cores)

type scenario = Skew | Hotspot | Restart

let scenario_name = function
  | Skew -> "skew"
  | Hotspot -> "hotspot"
  | Restart -> "restart"

type fl = {
  f_offered : int;
  f_served : int;
  dropped : int;
  dispatched : int array;
  served_by : int array;
  inflight : int array;
  hist_count : int;
  f_p99 : int;
  f_events : int;
}

(* The layer run's machine scope: the first call per machine per epoch
   is that machine's epoch compute; later calls in the same epoch are
   Net deliveries at the barrier, which count as synchronisation. *)
let scoped_stepper acc cluster groups =
  let n = Cluster.machines cluster in
  let epoch = ref 0 in
  let seen = Array.make n (-1) in
  let dur = Array.make n 0 and dom = Array.make n 0 and self = Array.make n 0 in
  Cluster.set_scope cluster (fun m f ->
      if seen.(m) = !epoch then f ()
      else begin
        seen.(m) <- !epoch;
        let covered () =
          match groups.(m) with Some g -> Layer.covered g | None -> 0
        in
        let c0 = covered () in
        let t0 = Layer.now_ns () in
        f ();
        let d = Layer.now_ns () - t0 in
        dur.(m) <- d;
        dom.(m) <- (Domain.self () :> int);
        self.(m) <- d - (covered () - c0)
      end);
  fun target ->
    while Cluster.now cluster < target do
      incr epoch;
      let until = min target (Cluster.now cluster + Cluster.lookahead cluster) in
      let t0 = Layer.now_ns () in
      Cluster.run_until ~domains:fl_domains cluster until;
      let wall = Layer.now_ns () - t0 in
      (* The busiest domain's machine compute bounds the epoch from
         below; the rest of its wall time is pool handoff, barrier wait
         and the Net flush. *)
      let per_dom = ref [] in
      for m = 0 to n - 1 do
        if seen.(m) = !epoch then begin
          acc.machine_ns <- acc.machine_ns + dur.(m);
          acc.engine_self_ns <- acc.engine_self_ns + self.(m);
          let prev = Option.value (List.assoc_opt dom.(m) !per_dom) ~default:0 in
          per_dom := (dom.(m), prev + dur.(m)) :: List.remove_assoc dom.(m) !per_dom
        end
      done;
      let busiest = List.fold_left (fun a (_, d) -> max a d) 0 !per_dom in
      acc.sync_ns <- acc.sync_ns + (wall - busiest)
    done

(* Exp_fleet's make-up: 8 two-core VESSEL backends behind a frontend
   machine, Zipf(1.1) keys over 1M, a fixed 0.55 of nominal capacity. *)
let fleet acc ~seed scenario policy =
  host_speed acc;
  let machines = fl_backends + 1 in
  let horizon = fl_warmup + fl_window in
  let cluster, builds, fe, step_to =
    setup acc (fun () ->
        let cluster =
          Cluster.create ~seed ~machines ~lookahead:fl_lookahead ()
        in
        let groups =
          Array.init machines (fun m ->
              if m = 0 || not acc.layer then None else Some (new_group acc ()))
        in
        let step_to =
          if acc.layer then scoped_stepper acc cluster groups
          else fun target ->
            Cluster.run_until ~domains:fl_domains cluster target
        in
        let cores_of i =
          if scenario = Hotspot && i = 0 then fl_cores / 2 else fl_cores
        in
        let builds =
          List.init fl_backends (fun i ->
              let b =
                lspan acc "sched.build" (fun () ->
                    Runner.build
                      ~sim:(Cluster.sim cluster (i + 1))
                      ~cores:(cores_of i) Runner.Vessel)
              in
              let sys =
                match groups.(i + 1) with
                | Some g -> Layer.wrap_system ~timed:true g b.Runner.sys
                | None -> b.Runner.sys
              in
              (i + 1, b, sys))
        in
        let fe =
          lspan acc "workload.build" (fun () ->
              W.Frontend.create ~cluster ~frontend:0 ~policy
                ~service:W.Memcached.service_dist ~workers:fl_cores
                ~backends:(List.map (fun (m, _, sys) -> (m, sys)) builds)
                ())
        in
        (cluster, builds, fe, step_to))
  in
  run acc (fun () ->
      List.iter (fun (_, b, _) -> b.Runner.sys.S.Sched_intf.start ()) builds;
      W.Frontend.start fe ~rate_rps:fl_rate_rps ~until:horizon;
      if scenario = Restart then begin
        let gap = fl_window / fl_backends in
        W.Frontend.schedule_rolling_restart fe ~start:fl_warmup ~gap
          ~down_for:(gap / 2)
      end;
      (* The engine's own dispatch time is counted per machine epoch by
         the scoped stepper, summed over the domains. *)
      engine acc (fun () -> step_to fl_warmup);
      W.Frontend.open_window fe ~at:fl_warmup;
      engine acc (fun () -> step_to horizon);
      List.iter (fun (_, b, _) -> b.Runner.sys.S.Sched_intf.stop ()) builds;
      let events = ref 0 in
      for m = 0 to machines - 1 do
        events := !events + Sim.events_executed (Cluster.sim cluster m)
      done;
      acc.events <- acc.events + !events;
      acc.epochs <- acc.epochs + Cluster.epochs cluster;
      List.iter (fun (_, b, _) -> count_cache acc b.Runner.machine) builds;
      let per f = Array.init fl_backends (fun i -> f fe i) in
      let agg = W.Frontend.latencies fe in
      {
        f_offered = W.Frontend.offered fe;
        f_served = W.Frontend.served fe;
        dropped = W.Frontend.dropped fe;
        dispatched = per W.Frontend.dispatched;
        served_by = per W.Frontend.served_by;
        inflight = per W.Frontend.inflight;
        hist_count = Stats.Histogram.count agg;
        f_p99 = Stats.Histogram.percentile agg 99.;
        f_events = !events;
      })

let fleet_round acc ~seed ~verbose =
  List.iter
    (fun scenario ->
      List.iter
        (fun policy ->
          let label =
            Printf.sprintf "%s/%s" (scenario_name scenario)
              (W.Frontend.policy_name policy)
          in
          op acc label (fun () ->
              let f = fleet acc ~seed scenario policy in
              if verbose then
                Printf.printf
                  "  %-24s offered %6d  served %6d  dropped %d  p99 %6.2f us  \
                   events %d\n"
                  label f.f_offered f.f_served f.dropped
                  (float_of_int f.f_p99 /. 1e3)
                  f.f_events;
              Check.all
                [
                  Check.routed ~offered:f.f_offered ~dropped:f.dropped
                    ~dispatched:f.dispatched;
                  Check.served_split ~served:f.f_served ~served_by:f.served_by
                    ~histogram_count:f.hist_count;
                  Check.backend_flow ~served_by:f.served_by
                    ~dispatched:f.dispatched ~inflight:f.inflight;
                  (if scenario = Skew && policy = W.Frontend.Round_robin then
                     Check.round_robin_even ~dispatched:f.dispatched
                   else Check.ok);
                ]))
        W.Frontend.all_policies)
    [ Skew; Hotspot; Restart ]

(* ---- trace_export ----------------------------------------------------- *)

let tx_points =
  [
    (Runner.Vessel, 0.3);
    (Runner.Vessel, 0.9);
    (Runner.Caladan, 0.3);
    (Runner.Caladan, 0.9);
  ]

(* Files the benchmark writes, relative to the checkout root. *)
let out_dir = Filename.concat "perfbench" "out"

let tx_cores = 2
let tx_warmup = 5_000_000
let tx_window = 10_000_000

let write_file path writer =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> writer (output_string oc))

let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)

(* The recorded run's exported metrics: switch and preempt counters. *)
let counter v name =
  Option.value (Jscan.to_int (Jscan.path [ "counters"; name ] v)) ~default:0

let attrib_units v =
  List.map
    (fun u ->
      let int ks = Option.value (Jscan.to_int (Jscan.path ks u)) ~default:(-1) in
      {
        Check.label = Option.value (Jscan.to_str (Jscan.field "label" u)) ~default:"?";
        e2e_sum = int [ "e2e_ns"; "sum" ];
        phase_sums =
          (match Jscan.field "phases" u with
          | Jscan.Obj phases ->
              List.map
                (fun (_, p) ->
                  Option.value (Jscan.to_int (Jscan.field "sum" p)) ~default:(-1))
                phases
          | _ -> []);
        violations = int [ "requests"; "conservation_violations" ];
        malformed = int [ "requests"; "malformed" ];
      })
    (Jscan.to_list (Jscan.field "units" v))

(* Four short colocation points with trace, metrics and attribution
   recording on, written out as --trace, --metrics and --attrib do; then
   the same points with recording off, for the checks and the
   recording-cost ratio. *)
let trace_export_round acc ~seed ~verbose =
  let point a ~attrib (sched, load) =
    match
      colocation a ~seed ~cores:tx_cores ~warmup:tx_warmup ~window:tx_window
        ~attrib sched load
    with
    | c -> Ok c
    | exception e -> Error e
  in
  Obs.Collector.configure ~trace:true ~metrics:true ~attrib:true ();
  let fork = Obs.Collector.fork_point () in
  let run0 = acc.run_ns in
  let recorded =
    List.mapi
      (fun i p ->
        Obs.Collector.with_child fork ~index:i (fun () -> point acc ~attrib:true p))
      tx_points
  in
  acc.recorded_ns <- acc.run_ns - run0;
  host_speed acc;
  let file ext = Filename.concat out_dir ("trace_export." ^ ext) in
  let export name path writer =
    match
      run acc (fun () ->
          let t0 = Layer.now_ns () in
          lspan acc name (fun () -> write_file path writer);
          Layer.now_ns () - t0)
    with
    | ns -> Ok ns
    | exception e -> Error e
  in
  let trace = export "obs.write_trace" (file "trace.json") Obs.Collector.write_trace in
  let metrics =
    export "obs.write_metrics" (file "metrics.json") Obs.Collector.write_metrics
  in
  let attrib = export "obs.write_attrib" (file "attrib.json") Obs.Attrib.write in
  (match trace with Ok ns -> acc.trace_export_ns <- ns | Error _ -> ());
  (match attrib with Ok ns -> acc.attrib_export_ns <- ns | Error _ -> ());
  Obs.Collector.reset ();
  Obs.Attrib.reset ();
  let side = new_acc ~layer:false ~adjust:false ~origin:None in
  let plain = List.map (point side ~attrib:false) tx_points in
  acc.plain_ns <- side.run_ns;
  List.iter2
    (fun r p ->
      let label = match r with Ok c -> colo_label c | Error _ -> "point" in
      op acc label (fun () ->
          match (r, p) with
          | Error e, _ | _, Error e -> raise e
          | Ok c, Ok q ->
              if verbose then print_endline ("  " ^ colo_line c);
              Check.same_fields ~recorded:(colo_fields c) ~plain:(colo_fields q)))
    recorded plain;
  let stats = ref None in
  op acc "trace file" (fun () ->
      match trace with
      | Error e -> raise e
      | Ok _ ->
          acc.trace_bytes <- file_size (file "trace.json");
          let ic = open_in_bin (file "trace.json") in
          let s =
            Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
                Jscan.scan_trace (Jscan.of_channel ic))
          in
          stats := Some s;
          if verbose then
            Printf.printf
              "  trace %d bytes, %d events on %d tracks, %d switch spans, %d \
               preempts, %d events back in time\n"
              acc.trace_bytes s.Jscan.events s.Jscan.tracks s.Jscan.switch_spans
              s.Jscan.preempt_instants
              (List.fold_left (fun a (_, n) -> a + n) 0 s.Jscan.backwards);
          if s.Jscan.events = 0 then [ "trace has no events" ] else s.Jscan.problems);
  (* Task_queue stamps queue.pop and queue.remove instants with the
     entry's enqueue time, so the scheduler track goes back in time at
     every VESSEL point's first preemption, whatever the seed. *)
  op_known acc "trace order" (fun () ->
      match !stats with
      | None -> ([ "no trace scan" ], [])
      | Some s ->
          Check.track_order ~known:[ "queue.pop"; "queue.remove" ]
            s.Jscan.backwards);
  op acc "metrics file" (fun () ->
      match (metrics, !stats) with
      | Error e, _ -> raise e
      | Ok _, None -> Check.fail "no trace scan to compare against"
      | Ok _, Some s ->
          let v = Jscan.parse_file (file "metrics.json") in
          Check.trace_vs_metrics ~switch_spans:s.Jscan.switch_spans
            ~preempt_instants:s.Jscan.preempt_instants
            ~switches:(counter v "uproc.switches")
            ~preempts:(counter v "uproc.preempts"));
  op acc "attrib file" (fun () ->
      match attrib with
      | Error e -> raise e
      | Ok _ -> Check.attribution (attrib_units (Jscan.parse_file (file "attrib.json"))))

(* ---- rounds, metrics and output --------------------------------------- *)

let workloads = [ "colo"; "objcopy"; "fleet"; "trace_export" ]

type round = {
  a : acc;
  gc_promoted : float;
  gc_major : int;
  top_heap_words : int;
}

let run_round ~workload ~seed ~layer ~origin ~verbose =
  let acc = new_acc ~layer ~adjust:(origin = None) ~origin in
  let g0 = Gc.quick_stat () in
  (match workload with
  | "colo" -> colo_round acc ~seed ~verbose
  | "objcopy" -> objcopy_round acc ~seed ~verbose
  | "fleet" -> fleet_round acc ~seed ~verbose
  | _ -> trace_export_round acc ~seed ~verbose);
  host_speed acc;
  let g1 = Gc.quick_stat () in
  {
    a = acc;
    gc_promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    top_heap_words = g1.Gc.top_heap_words;
  }

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let secs ns = float_of_int ns /. 1e9

let per x n = if n = 0 then 0. else x /. float_of_int n

(* Peak resident memory of this process, from the kernel's high-water
   mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  find ()


let calls_of sel r =
  let c = Layer.calls () in
  List.iter (fun g -> Layer.add_calls ~into:c (sel g)) r.a.groups;
  c

let named r name =
  secs (Option.value (List.assoc_opt name r.a.span_ns) ~default:0)

(* Per-layer metrics: medians over the wrapped rounds, except the GC,
   obs and timed-run figures, which come from the plain rounds (they
   need no wrapping, and must not pay for it). Layers a workload does
   not use read 0. *)
let layer_metrics ~plain ~wrapped =
  let m f = median (List.map f wrapped) in
  let p f = median (List.map f plain) in
  let i x = float_of_int x in
  let notify = calls_of (fun g -> g.Layer.notify)
  and step = calls_of (fun g -> g.Layer.step) in
  let mb = 1024. *. 1024. in
  [
    ("engine.events", "count", p (fun r -> i r.a.events));
    ("engine.run_s", "s", m (fun r -> secs r.a.engine_ns));
    ("engine.ns_per_event", "ns", m (fun r -> per (i r.a.engine_ns) r.a.events));
    ("engine.self_s", "s", m (fun r -> secs r.a.engine_self_ns));
    ("sched.notify_calls", "count", m (fun r -> i (notify r).n));
    ("sched.notify_ns", "ns", m (fun r -> let c = notify r in per (i c.ns) c.n));
    ("sched.build_s", "s", m (fun r -> named r "sched.build"));
    ("workload.step_calls", "count", m (fun r -> i (step r).n));
    ("workload.step_ns", "ns", m (fun r -> let c = step r in per (i c.ns) c.n));
    ("workload.build_s", "s", m (fun r -> named r "workload.build"));
    ("hw.cache.accesses", "count", p (fun r -> i r.a.cache_accesses));
    ("hw.cache.misses", "count", p (fun r -> i r.a.cache_misses));
    ("hw.cache.lines", "count", m (fun r -> i r.a.replay_lines));
    ( "hw.cache.ns_per_line", "ns",
      m (fun r -> per (i r.a.replay_ns) r.a.replay_lines) );
    ("cluster.epochs", "count", p (fun r -> i r.a.epochs));
    ("cluster.machine_s", "s", m (fun r -> secs r.a.machine_ns));
    ("cluster.sync_s", "s", m (fun r -> secs r.a.sync_ns));
    ( "obs.record_ratio", "ratio",
      p (fun r -> per (i r.a.recorded_ns) r.a.plain_ns) );
    ("obs.trace_bytes", "B", p (fun r -> i r.a.trace_bytes));
    ("obs.trace_export_s", "s", p (fun r -> secs r.a.trace_export_ns));
    ( "obs.trace_mb_per_s", "MB/s",
      p (fun r ->
          if r.a.trace_export_ns = 0 then 0.
          else i r.a.trace_bytes /. 1e6 /. secs r.a.trace_export_ns) );
    ("obs.attrib_export_s", "s", p (fun r -> secs r.a.attrib_export_ns));
    ( "gc.minor_words_per_event", "words/event",
      p (fun r -> per r.a.engine_minor r.a.events) );
    ("gc.promoted_words", "words", p (fun r -> r.gc_promoted));
    ("gc.major_collections", "count", p (fun r -> i r.gc_major));
    ("gc.top_heap_mb", "MB", p (fun r -> i (r.top_heap_words * 8) /. mb));
    ("layer.timed_run_s", "s", p (fun r -> secs r.a.run_ns));
    ("layer.run_s", "s", m (fun r -> secs r.a.run_ns));
    ( "layer.overhead_s", "s",
      m (fun r -> secs r.a.run_ns) -. p (fun r -> secs r.a.run_ns) );
  ]

(* The layer run's spans: coarse ones one by one, per-call boundaries
   aggregated per wrapped round. *)
let write_spans path ~workload ~wrapped =
  let span_json (s : Layer.span) =
    Printf.sprintf
      "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_ns\": %d, \
       \"end_ns\": %d, \"minor_words\": %.0f, \"promoted_words\": %.0f, \
       \"major_collections\": %d}"
      s.id s.parent s.name s.start_ns s.end_ns s.minor_words s.promoted_words
      s.major_collections
  in
  let calls_json name (c : Layer.calls) =
    Printf.sprintf
      "%S: {\"calls\": %d, \"ns\": %d, \"self_ns\": %d, \"minor_words\": %d}"
      name c.n c.ns c.self_ns c.words
  in
  let round_json r =
    Printf.sprintf
      "{%s, %s, \"cluster.machine\": {\"ns\": %d}, \"cluster.sync\": {\"ns\": \
       %d}, \"engine.self\": {\"ns\": %d}}"
      (calls_json "sched.notify" (calls_of (fun g -> g.Layer.notify) r))
      (calls_json "workload.step" (calls_of (fun g -> g.Layer.step) r))
      r.a.machine_ns r.a.sync_ns r.a.engine_self_ns
  in
  write_file path (fun out ->
      out (Printf.sprintf "{\"workload\": %S,\n \"spans\": [\n  " workload);
      out (String.concat ",\n  " (List.rev_map span_json !Layer.spans));
      out "],\n \"boundaries\": [\n  ";
      out (String.concat ",\n  " (List.map round_json wrapped));
      out "]}\n")

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  let started = Layer.now_ns () in
  let workload = ref "" and seed = ref 42 and seconds = ref 20 in
  let trace = ref 0 and t0 = ref (-1) in
  let usage =
    "main.exe --workload {colo|objcopy|fleet|trace_export} [--seed N] \
     [--seconds S] [--trace 0|1] [--t0-ns NS]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for every generated input");
      ("--seconds", Arg.Set_int seconds, "S run whole rounds for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or layer (1) run");
      ("--t0-ns", Arg.Set_int t0, "NS process start on the monotonic clock");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline ("perfbench: bad --seconds or --trace\n" ^ usage);
    exit 2
  end;
  Pool.tune_gc ();
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let layered = !trace = 1 in
  let origin = ((if !t0 >= 0 then !t0 else started), 0.) in
  let deadline = Layer.now_ns () + (!seconds * 1_000_000_000) in
  let go ~layer ~origin ~verbose =
    run_round ~workload:!workload ~seed:!seed ~layer ~origin ~verbose
  in
  (* The first round is cold: its set-up is [setup_s], and the memory
     high-water mark after it is one round's peak, whatever the run's
     length. The rounds after it are warm; [run_s] and [cpu_s] are their
     medians, at unit host speed (see [host_speed]). The layer run pairs
     each warm plain round with a wrapped one. *)
  Printf.printf "%s, seed %d, round 1:\n%!" !workload !seed;
  let cold = go ~layer:false ~origin:(Some origin) ~verbose:true in
  let rss = peak_rss_mb () in
  let pairs = ref [] in
  while Layer.now_ns () < deadline || (layered && !pairs = []) do
    let plain = go ~layer:false ~origin:None ~verbose:false in
    let wrapped =
      if layered then Some (go ~layer:true ~origin:None ~verbose:false) else None
    in
    pairs := (plain, wrapped) :: !pairs
  done;
  let pairs = List.rev !pairs in
  let warm = List.map fst pairs and wrapped = List.filter_map snd pairs in
  let plain = cold :: warm in
  let all = plain @ wrapped in
  (* Fixed work: every round of the run simulates the same events. *)
  let events0 = cold.a.events in
  List.iter
    (fun r ->
      if r.a.events <> events0 then
        r.a.ops <-
          {
            label = "round";
            failures =
              [ Printf.sprintf "%d events, the first round had %d" r.a.events events0 ];
            known = [];
          }
          :: r.a.ops)
    all;
  let ops = List.concat_map (fun r -> List.rev r.a.ops) all in
  let failed = List.filter op_failed ops in
  List.iteri
    (fun k r ->
      let n = List.length r.a.ops in
      let bad = List.length (List.filter op_failed r.a.ops) in
      Printf.printf
        "round %d%s: setup %.4f s  run %.4f s  cpu %.4f s  at unit speed: run \
         %.4f s  cpu %.4f s  (reference loop %.1f ms)  events %d  ops %d/%d ok\n"
        (k + 1)
        (if r.a.layer then " (layer)" else "")
        (secs r.a.setup_ns) (secs r.a.run_ns) r.a.cpu (r.a.adj_run /. 1e9)
        r.a.adj_cpu
        (median (List.map float_of_int r.a.ref_ns) /. 1e6)
        r.a.events (n - bad) n)
    all;
  List.iter
    (fun o ->
      List.iter (fun f -> Printf.printf "FAILED %s: %s\n" o.label f) o.failures;
      List.iter (fun f -> Printf.printf "KNOWN FAULT %s: %s\n" o.label f) o.known)
    failed;
  let metrics =
    if layered then begin
      write_spans
        (Filename.concat out_dir (!workload ^ ".spans.json"))
        ~workload:!workload ~wrapped;
      layer_metrics ~plain:warm ~wrapped
    end
    else
      let steady = if warm = [] then [ cold ] else warm in
      [
        ("run_s", "s", median (List.map (fun r -> r.a.adj_run /. 1e9) steady));
        ("setup_s", "s", secs cold.a.setup_ns);
        ("cpu_s", "s", median (List.map (fun r -> r.a.adj_cpu) steady));
        ("peak_rss_mb", "MB", rss);
      ]
  in
  List.iter (fun (k, u, v) -> Printf.printf "%s = %s %s\n" k (json_number v) u) metrics;
  Printf.printf "attempted = %d, failed = %d\n" (List.length ops) (List.length failed);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (List.for_all (fun o -> o.failures = []) ops)
    (List.length ops) (List.length failed)
    (String.concat ", "
       (List.map
          (fun (k, u, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_number v) u)
          metrics))
