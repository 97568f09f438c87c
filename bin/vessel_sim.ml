(* vessel-sim: run any of the paper's experiments from the command line.

   Each subcommand regenerates one table or figure of "Fast Core
   Scheduling with Userspace Process Abstraction" (SOSP '24) and prints
   the measured rows next to a note of what the paper reports. *)

open Cmdliner
open Vessel_experiments

let version = "1.5.0"

let seed =
  let doc = "Root RNG seed; every run is deterministic given the seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Range-checked converters: an out-of-range count or duty would reach
   the simulation as an empty machine or an empty burst and fail there
   as an uncaught exception. *)
let checked conv ok what =
  let parse = Arg.conv_parser conv in
  Arg.conv
    ( (fun s ->
        match parse s with
        | Ok v when ok v -> Ok v
        | Ok _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
        | Error _ as e -> e),
      Arg.conv_printer conv )

let positive = checked Arg.int (fun n -> n >= 1) "a positive integer"

(* 128 is the OCaml runtime's domain limit (Max_domains): a sweep with
   more points than that would otherwise spawn past it. *)
let jobs =
  let doc =
    "Worker domains for sweep execution, 1 to 128. Each sweep point is \
     an independent simulation built from an explicit seed, so the \
     output is byte-identical at any $(docv); 1 runs fully sequentially."
  in
  Arg.(
    value
    & opt
        (checked int (fun n -> n >= 1 && n <= 128) "an integer from 1 to 128")
        (Vessel_engine.Pool.default_domains ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_file =
  let doc =
    "Write a Chrome trace_event JSON timeline of the run to $(docv) \
     (open in Perfetto or chrome://tracing). Simulated nanoseconds map \
     to trace microseconds; output is byte-identical at any -j N."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_file =
  let doc =
    "Write a JSON snapshot of the run's counters, gauges and latency \
     histograms to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let attrib_file =
  let doc =
    "Write a JSON latency-attribution artifact ($(b,vessel-attrib-1) \
     schema) to $(docv) and print a p99 blame report: each request's \
     end-to-end latency decomposed into ingress, network, run-queue, \
     service, scheduling and epoch-barrier phases. Output is \
     byte-identical at any -j N."
  in
  Arg.(value & opt (some string) None & info [ "attrib" ] ~docv:"FILE" ~doc)

(* Output files are written after the command returns (see the bottom of
   this file), so the flags only stash the paths and flip the probes on. *)
let trace_out = ref None
let metrics_out = ref None
let attrib_out = ref None

(* Applied before every command: fan sweeps out across domains and arm
   the observability collector. *)
let with_common run =
  Term.(
    const (fun j trace metrics attrib ->
        Runner.set_domains j;
        trace_out := trace;
        metrics_out := metrics;
        attrib_out := attrib;
        if trace <> None || metrics <> None || attrib <> None then
          Vessel_obs.Collector.configure ~trace:(trace <> None)
            ~metrics:(metrics <> None) ~attrib:(attrib <> None) ();
        run)
    $ jobs $ trace_file $ metrics_file $ attrib_file)

let cores =
  let doc = "Worker cores for the colocation experiments." in
  Arg.(value & opt positive 8 & info [ "cores" ] ~docv:"N" ~doc)

let l_app =
  let doc = "Latency-critical app for fig9: memcached or silo." in
  let app_conv =
    Arg.enum [ ("memcached", Runner.Memcached); ("silo", Runner.Silo) ]
  in
  Arg.(value & opt app_conv Runner.Memcached & info [ "l-app" ] ~docv:"APP" ~doc)

let run_table1 seed =
  Exp_table1.print (Exp_table1.run ~seed ())

let run_fig1 seed cores = Exp_fig1.print (Exp_fig1.run ~seed ~cores ())
let run_fig2 seed = Exp_fig2.print (Exp_fig2.run ~seed ())
let run_fig3 seed = Exp_fig3.print (Exp_fig3.run ~seed ())

let run_fig9 seed cores l_app =
  Exp_fig9.print ~l_app (Exp_fig9.run ~seed ~cores ~l_app ())

let run_fig10 seed = Exp_fig10.print (Exp_fig10.run ~seed ())
let run_fig11 seed = Exp_fig11.print (Exp_fig11.run ~seed ())
let run_fig12 seed = Exp_fig12.print (Exp_fig12.run ~seed ())

let run_fig13a seed cores =
  Exp_fig13.print_colocation (Exp_fig13.run_colocation ~seed ~cores ())

let run_fig13b seed = Exp_fig13.print_accuracy (Exp_fig13.run_accuracy ~seed ())

(* --- fleet: multi-machine cluster behind a load balancer ------------ *)

let fleet_machines =
  let doc = "Backend machines in the fleet (plus one frontend machine)." in
  Arg.(value & opt positive 8 & info [ "machines" ] ~docv:"N" ~doc)

let fleet_cores =
  let doc = "Worker cores per backend machine." in
  Arg.(value & opt positive 2 & info [ "fleet-cores" ] ~docv:"N" ~doc)

let fleet_policies =
  let doc =
    "Comma-separated routing policies: $(b,round-robin) (or rr), \
     $(b,least-loaded) (ll), $(b,consistent-hash) (ch)."
  in
  let policy_conv =
    Arg.conv
      ( (fun s ->
          match Vessel_workloads.Frontend.policy_of_string s with
          | Some p -> Ok p
          | None -> Error (`Msg (Printf.sprintf "unknown policy %S" s))),
        fun ppf p ->
          Format.pp_print_string ppf
            (Vessel_workloads.Frontend.policy_name p) )
  in
  Arg.(
    value
    & opt (list policy_conv) Vessel_workloads.Frontend.all_policies
    & info [ "policies" ] ~docv:"P,P" ~doc)

let run_fleet seed machines cores policies =
  Exp_fleet.print
    (Exp_fleet.run ~seed ~backends:machines ~cores ~policies ())

(* --- gaps: schedgaps-style execution-gap & fairness regression ------ *)

let gaps_schedulers =
  let doc =
    "Comma-separated scheduler ids to sweep: $(b,vessel), $(b,caladan), \
     $(b,caladan-dr-l), $(b,caladan-dr-h), $(b,arachne), $(b,linux-cfs)."
  in
  let sched_conv =
    Arg.conv
      ( (fun s ->
          match
            List.find_opt
              (fun k -> String.equal (Runner.sched_name k) s)
              Runner.all_systems
          with
          | Some k -> Ok k
          | None -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s))),
        fun ppf k -> Format.pp_print_string ppf (Runner.sched_name k) )
  in
  Arg.(
    value
    & opt (list sched_conv) Exp_gaps.default_systems
    & info [ "schedulers" ] ~docv:"S,S" ~doc)

let gaps_duties =
  let doc =
    "Comma-separated burst duty cycles (burst_len / period), each \
     strictly between 0 and 1."
  in
  let duty =
    checked Arg.float
      (fun d -> d > 0. && d < 1.)
      "a duty cycle strictly between 0 and 1"
  in
  Arg.(
    value
    & opt (list duty) Exp_gaps.default_duties
    & info [ "duties" ] ~docv:"D,D" ~doc)

let gaps_duration =
  let doc = "Simulated milliseconds per sweep point." in
  Arg.(value & opt positive 50 & info [ "duration-ms" ] ~docv:"MS" ~doc)

let run_gaps seed cores systems duties duration_ms =
  Exp_gaps.print
    (Exp_gaps.run ~seed ~cores ~systems ~duties
       ~duration:(duration_ms * 1_000_000) ())

(* --- check: fault-injection sweep with runtime invariant checking --- *)

let check_seeds =
  let doc = "Number of consecutive seeds to sweep, starting at --seed." in
  Arg.(value & opt positive 8 & info [ "seeds" ] ~docv:"N" ~doc)

let check_profile =
  let doc =
    "Fault profile: $(b,none), $(b,delivery), $(b,timing), $(b,chaos) or \
     $(b,all)."
  in
  let profile_conv =
    Arg.enum
      (("all", Vessel_check.Fault.all)
      :: List.map
           (fun p -> (Vessel_check.Fault.to_string p, [ p ]))
           Vessel_check.Fault.all)
  in
  Arg.(
    value
    & opt profile_conv Vessel_check.Fault.all
    & info [ "profile" ] ~docv:"P" ~doc)

let check_scenario =
  let doc =
    "Scenario: $(b,fig1) (Caladan colocation), $(b,fig9) (VESSEL \
     colocation), $(b,gate) (call-gate crossings), $(b,fleet) \
     (multi-machine cluster behind a load balancer), $(b,gaps) \
     (gap tracer under bursty colocation) or $(b,all)."
  in
  let scenario_conv =
    Arg.enum
      (("all", Vessel_check.Harness.all_scenarios)
      :: List.map
           (fun s -> (Vessel_check.Harness.scenario_name s, [ s ]))
           Vessel_check.Harness.all_scenarios)
  in
  Arg.(
    value
    & opt scenario_conv Vessel_check.Harness.all_scenarios
    & info [ "scenario" ] ~docv:"S" ~doc)

(* Violations exit 1, but only after the trailing trace/metrics writes so
   a violating run still produces its repro artifacts. *)
let check_failed = ref false

let run_check seed nseeds profiles scenarios =
  let seeds = List.init nseeds (fun i -> seed + i) in
  let bad =
    Vessel_check.Harness.print_report
      (Vessel_check.Harness.run_sweep ~seeds ~profiles ~scenarios ())
  in
  if bad > 0 then check_failed := true

let run_ablation seed cores =
  Exp_ablation.print_switch_cost (Exp_ablation.run_switch_cost ~seed ~cores ());
  Exp_ablation.print_policy (Exp_ablation.run_policy ~seed ~cores ())

let run_all seed cores =
  run_table1 seed;
  run_fig1 seed cores;
  run_fig2 seed;
  run_fig3 seed;
  run_fig9 seed cores Runner.Memcached;
  run_fig9 seed cores Runner.Silo;
  run_fig10 seed;
  run_fig11 seed;
  run_fig12 seed;
  run_fig13a seed cores;
  run_fig13b seed;
  run_ablation seed cores

(* The single source of truth for what vessel-sim can run: subcommands
   and the `list` output are both generated from this table. *)
let command_table =
  [
    ("table1", "Table 1: context-switch latency",
     Term.(with_common run_table1 $ seed));
    ("fig1", "Figure 1: cost of colocation under Caladan",
     Term.(with_common run_fig1 $ seed $ cores));
    ("fig2", "Figure 2: dense colocation kernel cycles",
     Term.(with_common run_fig2 $ seed));
    ("fig3", "Figure 3: Caladan core-reallocation timeline",
     Term.(with_common run_fig3 $ seed));
    ("fig9", "Figure 9: L-app + B-app across all systems",
     Term.(with_common run_fig9 $ seed $ cores $ l_app));
    ("fig10", "Figure 10: dense colocation, 1 vs 10 instances",
     Term.(with_common run_fig10 $ seed));
    ("fig11", "Figure 11: cache friendliness",
     Term.(with_common run_fig11 $ seed));
    ("fig12", "Figure 12: goodput vs core count",
     Term.(with_common run_fig12 $ seed));
    ("fig13a", "Figure 13a: bandwidth-aware colocation",
     Term.(with_common run_fig13a $ seed $ cores));
    ("fig13b", "Figure 13b: bandwidth-regulation accuracy",
     Term.(with_common run_fig13b $ seed));
    ("ablation", "Ablations: switch-cost sweep, mechanism vs policy",
     Term.(with_common run_ablation $ seed $ cores));
    ("check", "Fault-injection sweep with runtime invariant checking",
     Term.(
       with_common run_check $ seed $ check_seeds $ check_profile
       $ check_scenario));
    ("burst", "Burst absorption under us-scale load spikes",
     Term.(
       with_common (fun seed cores ->
           Exp_burst.print (Exp_burst.run ~seed ~cores ()))
       $ seed $ cores));
    ("gaps", "Execution gaps & fairness under bursty colocation",
     Term.(
       with_common run_gaps $ seed $ cores $ gaps_schedulers $ gaps_duties
       $ gaps_duration));
    ("fleet", "Fleet: machines under one clock behind a load balancer",
     Term.(
       with_common run_fleet $ seed $ fleet_machines $ fleet_cores
       $ fleet_policies));
    ("all", "Every table and figure",
     Term.(with_common run_all $ seed $ cores));
  ]

let run_list () =
  List.iter
    (fun (name, doc, _) -> Printf.printf "%-10s %s\n" name doc)
    command_table;
  print_string
    "\nEvery experiment also accepts --trace FILE, --metrics FILE and \
     --attrib FILE.\n"

let cmds =
  Cmd.v
    (Cmd.info "list" ~version
       ~doc:"Print every experiment id with a one-line description")
    Term.(with_common run_list $ const ())
  :: List.map
       (fun (name, doc, term) -> Cmd.v (Cmd.info name ~version ~doc) term)
       command_table

(* Artifact writes happen after a successful run; an unwritable path is
   a usage error (exit 2), reported like cmdliner's own. *)
let write_file path writer =
  match open_out path with
  | exception Sys_error msg ->
      Printf.eprintf "vessel-sim: %s\n" msg;
      exit 2
  | oc ->
      writer (output_string oc);
      close_out oc

let () =
  (* Simulations churn through short-lived events; a larger minor heap
     and lazier compaction cut GC overhead across every experiment. *)
  Vessel_engine.Pool.tune_gc ();
  let info =
    Cmd.info "vessel-sim" ~version
      ~doc:
        "Reproduce the evaluation of 'Fast Core Scheduling with Userspace \
         Process Abstraction' (SOSP '24)"
  in
  let code =
    match Cmd.eval (Cmd.group info cmds) with
    (* Unknown experiments and bad flags exit 2, not cmdliner's 124. *)
    | 124 -> 2
    | c -> c
  in
  if code = 0 then begin
    Option.iter
      (fun f -> write_file f Vessel_obs.Collector.write_trace)
      !trace_out;
    Option.iter
      (fun f -> write_file f Vessel_obs.Collector.write_metrics)
      !metrics_out;
    Option.iter
      (fun f ->
        let ss = Vessel_obs.Attrib.summaries () in
        Vessel_obs.Attrib.report print_string ss;
        write_file f (fun out -> Vessel_obs.Attrib.write_summaries out ss))
      !attrib_out
  end;
  exit (if code = 0 && !check_failed then 1 else code)
