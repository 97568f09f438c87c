module Sim = Vessel_engine.Sim
module S = Vessel_sched
module W = Vessel_workloads
module Stats = Vessel_stats
module Probe = Vessel_obs.Probe

(* The schedgaps / hwlat-tracer experiment (ROADMAP item 3): tracer
   threads sleep-then-spin while a bursty memcached and a never-parking
   linpack fight for the same cores, for every scheduler in lib/sched,
   at several burst duty cycles. The numbers the table reports — max
   gap, p99 gap, Jain fairness over tracer CPU time — are the standing
   fairness regression later scheduling PRs must hold. *)

type row = {
  system : Runner.sched_kind;
  duty : float; (* burst_len / period *)
  windows : int;
  p99_ns : int;
  max_outer_ns : int;
  max_inner_ns : int;
  fairness : float;
}

let tracers = 2

let measure ~seed ~cores ~cap ~period ~duration (sched, duty) =
  let b = Runner.build ~seed ~cores sched in
  let tracer =
    W.Gaptracer.make ~sim:b.Runner.sim ~sys:b.Runner.sys ~app_id:1
      ~threads:tracers ~until:duration ()
  in
  let gen =
    W.Memcached.make ~sim:b.Runner.sim ~sys:b.Runner.sys ~app_id:10
      ~workers:cores ()
  in
  let _lp = W.Linpack.make ~sys:b.Runner.sys ~app_id:11 ~workers:cores () in
  (* At least 1 ns, so a duty under 1 / period still makes a valid burst. *)
  let burst_len = max 1 (int_of_float (duty *. float_of_int period)) in
  b.Runner.sys.S.Sched_intf.start ();
  W.Openloop.start_bursty gen ~base_rps:(0.2 *. cap) ~burst_rps:(1.2 *. cap)
    ~burst_len ~period ~until:duration;
  Sim.run_until b.Runner.sim duration;
  b.Runner.sys.S.Sched_intf.stop ();
  let gs = W.Gaptracer.stats tracer in
  let max_outer, max_inner =
    List.fold_left
      (fun (o, i) th ->
        ( max o (Stats.Gap_stats.max_outer th),
          max i (Stats.Gap_stats.max_inner th) ))
      (0, 0)
      (Stats.Gap_stats.threads gs)
  in
  let row =
    {
      system = sched;
      duty;
      windows = Stats.Gap_stats.total_windows gs;
      p99_ns = Stats.Gap_stats.p99_gap gs;
      max_outer_ns = max_outer;
      max_inner_ns = max_inner;
      fairness = Stats.Gap_stats.fairness gs;
    }
  in
  if !Probe.metrics_on then begin
    Probe.set_gauge "gaps.max_ns" (max max_outer max_inner);
    Probe.set_gauge "gaps.p99_ns" row.p99_ns;
    Probe.set_gauge "gaps.fairness_ppm" (int_of_float (row.fairness *. 1e6))
  end;
  row

let run ?(seed = 42) ?(cores = 4)
    ?(systems = [ Runner.Vessel; Runner.Caladan; Runner.Linux_cfs ])
    ?(duties = [ 0.1; 0.3; 0.5 ]) ?(period = 300_000)
    ?(duration = 50_000_000) () =
  let cap =
    Runner.l_alone_capacity ~seed ~cores ~sched:Runner.Vessel
      ~l_app:Runner.Memcached ()
  in
  Runner.sweep
    (measure ~seed ~cores ~cap ~period ~duration)
    (List.concat_map (fun s -> List.map (fun d -> (s, d)) duties) systems)

(* The bound a row's max gap must stay under for the run to count as
   clean — same default as the checker's gap invariant. *)
let default_bound = 5_000_000

(* Only schedulers that promise the bound are gated: CFS timeshares on a
   6 ms sched_period, so multi-ms outer gaps under a never-parking
   best-effort app are its *correct* behaviour — it rides along as the
   contrast baseline, informational only. *)
let gated = function Runner.Linux_cfs -> false | _ -> true

let worst_gap rows =
  List.fold_left
    (fun acc r -> max acc (max r.max_outer_ns r.max_inner_ns))
    0 rows

let print ?(bound = default_bound) rows =
  Report.section
    "Execution gaps & fairness (schedgaps-style tracer under bursty load)";
  Report.paper_note
    "not in the paper: the longest window a runnable tracer thread goes \
     unscheduled, per scheduler and burst duty cycle — where co-scheduling \
     designs silently starve background work";
  let t =
    Stats.Table.create
      ~columns:
        [ "system"; "duty"; "windows"; "p99 gap"; "max outer"; "max inner";
          "fairness" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          Runner.sched_name r.system;
          Report.f2 r.duty;
          string_of_int r.windows;
          Report.us (float_of_int r.p99_ns /. 1e3);
          Report.us (float_of_int r.max_outer_ns /. 1e3);
          Report.us (float_of_int r.max_inner_ns /. 1e3);
          Report.f2 r.fairness;
        ])
    rows;
  Report.table t;
  let g = List.filter (fun r -> gated r.system) rows in
  let worst = worst_gap g in
  Format.printf
    "gaps: %d points, %d gated, worst gated gap %.1f us, %s (bound %.1f ms)@."
    (List.length rows) (List.length g)
    (float_of_int worst /. 1e3)
    (if worst <= bound then "ok" else "FAIL")
    (float_of_int bound /. 1e6)
