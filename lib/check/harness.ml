module Sim = Vessel_engine.Sim
module Rng = Vessel_engine.Rng
module Hw = Vessel_hw
module Mem = Vessel_mem
module U = Vessel_uprocess
module S = Vessel_sched
module W = Vessel_workloads
module E = Vessel_experiments
module Probe = Vessel_obs.Probe

module Cluster = Vessel_cluster.Cluster

type scenario = Fig1_class | Fig9_class | Gate | Fleet_class | Gaps

let all_scenarios = [ Fig1_class; Fig9_class; Gate; Fleet_class; Gaps ]

let scenario_name = function
  | Fig1_class -> "fig1"
  | Fig9_class -> "fig9"
  | Gate -> "gate"
  | Fleet_class -> "fleet"
  | Gaps -> "gaps"

type verdict = {
  seed : int;
  profile : Fault.profile;
  scenario : scenario;
  faults : int;
  events : int;
  total_violations : int;
  violations : Checker.violation list;
}

(* Scenario scale: small enough that a multi-profile multi-seed sweep
   stays interactive, long enough that queueing, preemption and the
   injected fault classes all get real exercise. *)
let colo_cores = 2
let colo_duration = 10_000_000 (* 10 ms *)
let gate_crossings = 200
let gate_spacing = 1_000

(* A fig1/fig9-class colocation: a latency-critical memcached against a
   never-parking linpack, at half the run-alone capacity. Fig9-class runs
   it under VESSEL (Uintr preemption), fig1-class under Caladan (kernel
   IPIs) — together they exercise both delivery fabrics. *)
let run_colocation ~kind ?vessel_params ~seed ~profile ~checker () =
  let b = E.Runner.build ~seed ?vessel_params ~cores:colo_cores kind in
  Fault.install profile
    ~rng:(Rng.split (Sim.rng b.E.Runner.sim))
    b.E.Runner.machine;
  let rate_rps =
    0.5 *. float_of_int colo_cores /. W.Memcached.mean_service_ns *. 1e9
  in
  Probe.with_sink (Checker.sink checker) (fun () ->
      let gen =
        W.Memcached.make ~sim:b.E.Runner.sim ~sys:b.E.Runner.sys ~app_id:1
          ~workers:colo_cores ()
      in
      let _lp =
        W.Linpack.make ~sys:b.E.Runner.sys ~app_id:2 ~workers:colo_cores ()
      in
      b.E.Runner.sys.S.Sched_intf.start ();
      W.Openloop.start gen ~rate_rps ~until:colo_duration;
      Sim.run_until b.E.Runner.sim colo_duration;
      b.E.Runner.sys.S.Sched_intf.stop ());
  Checker.finalize checker ~machine:b.E.Runner.machine ~elapsed:colo_duration;
  Hw.Inject.injected (Hw.Machine.inject b.E.Runner.machine)

(* The schedgaps colocation: sleep-then-spin tracer threads against
   *bursty* memcached and a never-parking linpack, under VESSEL. The
   burst duty cycle is what schedgaps found co-scheduling designs
   mishandle; the gap invariant (enqueue -> dispatch) is the judge. *)
let gaps_tracers = 2

let run_gaps ?vessel_params ~seed ~profile ~checker () =
  let b =
    E.Runner.build ~seed ?vessel_params ~cores:colo_cores E.Runner.Vessel
  in
  Fault.install profile
    ~rng:(Rng.split (Sim.rng b.E.Runner.sim))
    b.E.Runner.machine;
  let cap = float_of_int colo_cores /. W.Memcached.mean_service_ns *. 1e9 in
  Probe.with_sink (Checker.sink checker) (fun () ->
      let _tracer =
        W.Gaptracer.make ~sim:b.E.Runner.sim ~sys:b.E.Runner.sys ~app_id:1
          ~threads:gaps_tracers ~until:colo_duration ()
      in
      let gen =
        W.Memcached.make ~sim:b.E.Runner.sim ~sys:b.E.Runner.sys ~app_id:10
          ~workers:colo_cores ()
      in
      let _lp =
        W.Linpack.make ~sys:b.E.Runner.sys ~app_id:11 ~workers:colo_cores ()
      in
      b.E.Runner.sys.S.Sched_intf.start ();
      W.Openloop.start_bursty gen ~base_rps:(0.25 *. cap) ~burst_rps:cap
        ~burst_len:30_000 ~period:300_000 ~until:colo_duration;
      Sim.run_until b.E.Runner.sim colo_duration;
      b.E.Runner.sys.S.Sched_intf.stop ());
  Checker.finalize checker ~machine:b.E.Runner.machine ~elapsed:colo_duration;
  Hw.Inject.injected (Hw.Machine.inject b.E.Runner.machine)

(* Call-gate crossings under WRPKRU jitter: the PKRU-consistency
   invariant on the path the colocation scenarios cross implicitly at
   every dispatch. No executor runs, so conservation is not checked. *)
let run_gate ~seed ~profile ~checker () =
  let sim = Sim.create ~seed () in
  let machine = Hw.Machine.create ~cores:1 sim in
  Fault.install profile ~rng:(Rng.split (Sim.rng sim)) machine;
  Probe.with_sink (Checker.sink checker) (fun () ->
      let smas = Mem.Smas.create (Mem.Layout.create ~slots:2 ()) in
      Mem.Smas.attach_slot_data smas 0;
      let pipe = U.Message_pipe.create smas ~ncores:1 in
      let gate =
        U.Call_gate.create
          ~inject:(Hw.Machine.inject machine)
          ~clock:(fun () -> Sim.now sim)
          ~smas ~pipe ~cost:(Hw.Machine.cost machine) ()
      in
      U.Message_pipe.register_function pipe ~index:0 ~fn_id:100;
      let core = Hw.Machine.core machine 0 in
      let task_pkru = Mem.Smas.pkru_for_slot smas 0 in
      U.Message_pipe.set_task pipe ~core:0 ~tid:1 ~pkru:task_pkru;
      Hw.Core.set_pkru core task_pkru;
      let user_stack =
        (Mem.Layout.slot_data (Mem.Smas.layout smas) 0).Mem.Region.base
        + 0x1000
      in
      for i = 0 to gate_crossings - 1 do
        ignore
          (Sim.schedule sim ~at:(i * gate_spacing) (fun _ ->
               match U.Call_gate.enter gate ~core ~fn_index:0 ~user_stack with
               | Error _ -> ()
               | Ok session ->
                   ignore (U.Call_gate.leave gate ~core session)))
      done;
      Sim.run_until sim (gate_crossings * gate_spacing));
  Checker.finalize checker ~elapsed:(gate_crossings * gate_spacing);
  Hw.Inject.injected (Hw.Machine.inject machine)

(* A small fleet: a frontend machine load-balancing a memcached-class
   service over VESSEL backends, faults injected on every backend. One
   checker per machine — installed as the cluster scope, so each
   machine's probe stream (including barrier-time link deliveries) is
   validated in isolation and the new causality invariant sees exactly
   its own machine's epochs. Runs inside a sweep point, so the cluster
   itself runs sequentially (a nested pool map would anyway). *)
let fleet_backends = 3
let fleet_lookahead = 20_000 (* 20 us: epoch stride and link latency *)

let run_fleet ?config ~seed ~profile () =
  let machines = fleet_backends + 1 in
  let cluster =
    Cluster.create ~seed ~machines ~lookahead:fleet_lookahead ()
  in
  let checkers = Array.init machines (fun _ -> Checker.create ?config ()) in
  let sinks = Array.map Checker.sink checkers in
  Cluster.set_scope cluster (fun m f -> Probe.with_sink sinks.(m) f);
  let builds =
    List.init fleet_backends (fun i ->
        let sim = Cluster.sim cluster (i + 1) in
        let b = E.Runner.build ~sim ~cores:colo_cores E.Runner.Vessel in
        Fault.install profile ~rng:(Rng.split (Sim.rng sim)) b.E.Runner.machine;
        (i + 1, b))
  in
  let fe =
    W.Frontend.create ~cluster ~frontend:0 ~policy:W.Frontend.Least_loaded
      ~service:W.Memcached.service_dist ~workers:colo_cores
      ~backends:(List.map (fun (m, b) -> (m, b.E.Runner.sys)) builds)
      ()
  in
  let rate_rps =
    0.5
    *. float_of_int (fleet_backends * colo_cores)
    /. W.Memcached.mean_service_ns *. 1e9
  in
  List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.start ()) builds;
  W.Frontend.start fe ~rate_rps ~until:colo_duration;
  Cluster.run_until cluster colo_duration;
  List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.stop ()) builds;
  Checker.finalize checkers.(0) ~elapsed:colo_duration;
  List.iter
    (fun (m, b) ->
      Checker.finalize checkers.(m) ~machine:b.E.Runner.machine
        ~elapsed:colo_duration)
    builds;
  let faults =
    List.fold_left
      (fun acc (_, b) ->
        acc + Hw.Inject.injected (Hw.Machine.inject b.E.Runner.machine))
      0 builds
  in
  (faults, checkers)

let verdict_of ~seed ~profile ~scenario ~faults checkers =
  {
    seed;
    profile;
    scenario;
    faults;
    events =
      Array.fold_left (fun acc c -> acc + Checker.events_seen c) 0 checkers;
    total_violations =
      Array.fold_left
        (fun acc c -> acc + Checker.total_violations c)
        0 checkers;
    violations =
      List.concat_map Checker.violations (Array.to_list checkers);
  }

let run_one ?vessel_params ?config ~seed ~profile ~scenario () =
  match scenario with
  | Fleet_class ->
      let faults, checkers = run_fleet ?config ~seed ~profile () in
      verdict_of ~seed ~profile ~scenario ~faults checkers
  | Fig1_class | Fig9_class | Gate | Gaps ->
      let checker = Checker.create ?config () in
      let faults =
        match scenario with
        | Fig1_class ->
            run_colocation ~kind:E.Runner.Caladan ~seed ~profile ~checker ()
        | Fig9_class ->
            run_colocation ~kind:E.Runner.Vessel ?vessel_params ~seed ~profile
              ~checker ()
        | Gate -> run_gate ~seed ~profile ~checker ()
        | Gaps -> run_gaps ?vessel_params ~seed ~profile ~checker ()
        | Fleet_class -> assert false
      in
      verdict_of ~seed ~profile ~scenario ~faults [| checker |]

let run_sweep ?vessel_params ?config ?domains ~seeds ~profiles ~scenarios ()
    =
  let points =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun profile ->
            List.map (fun scenario -> (seed, profile, scenario)) scenarios)
          profiles)
      seeds
  in
  E.Runner.sweep ?domains
    (fun (seed, profile, scenario) ->
      run_one ?vessel_params ?config ~seed ~profile ~scenario ())
    points

let pp_verdict ppf v =
  Format.fprintf ppf "seed %d profile=%s scenario=%s %s" v.seed
    (Fault.to_string v.profile)
    (scenario_name v.scenario)
    (if v.total_violations = 0 then "ok"
     else Printf.sprintf "VIOLATION (%d)" v.total_violations);
  List.iter
    (fun viol -> Format.fprintf ppf "@.  %a" Checker.pp_violation viol)
    v.violations;
  if v.total_violations > List.length v.violations then
    Format.fprintf ppf "@.  ... %d more"
      (v.total_violations - List.length v.violations)

(* Per-seed verdict lines, a repro command for every violating run, and a
   one-line summary. Returns the number of violating runs. *)
let print_report ?(out = Format.std_formatter) verdicts =
  let bad = ref 0 in
  let faults = ref 0 in
  List.iter
    (fun v ->
      Format.fprintf out "%a@." pp_verdict v;
      faults := !faults + v.faults;
      if v.total_violations > 0 then begin
        incr bad;
        Format.fprintf out
          "  repro: vessel-sim check --scenario %s --profile %s --seed %d \
           --seeds 1 --trace check_trace.json@."
          (scenario_name v.scenario)
          (Fault.to_string v.profile)
          v.seed
      end)
    verdicts;
  Format.fprintf out "check: %d runs, %d ok, %d violating, %d faults injected@."
    (List.length verdicts)
    (List.length verdicts - !bad)
    !bad !faults;
  !bad
