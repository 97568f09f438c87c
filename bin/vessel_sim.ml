(* vessel-sim: run any of the paper's experiments from the command line.

   Each subcommand regenerates one table or figure of "Fast Core
   Scheduling with Userspace Process Abstraction" (SOSP '24) and prints
   the measured rows next to a note of what the paper reports. The
   experiment subcommands, `list` and `all` come from the catalog
   (catalog.ml); `check` is this file's own. *)

open Cmdliner
open Vessel_experiments

let version = "1.6.0"

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

(* Every command's shared flags: fan sweeps out across domains and arm
   the observability collector, before the command runs. *)
let common =
  Term.(
    const (fun j trace metrics attrib ->
        Runner.set_domains j;
        trace_out := trace;
        metrics_out := metrics;
        attrib_out := attrib;
        if trace <> None || metrics <> None || attrib <> None then
          Vessel_obs.Collector.configure ~trace:(trace <> None)
            ~metrics:(metrics <> None) ~attrib:(attrib <> None) ())
    $ Catalog.jobs $ trace_file $ metrics_file $ attrib_file)

(* --- check: fault-injection sweep with runtime invariant checking --- *)

let check_seed =
  let doc = "First seed of the sweep." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let check_seeds =
  let doc = "Number of consecutive seeds to sweep, starting at --seed." in
  Arg.(value & opt Catalog.positive 8 & info [ "seeds" ] ~docv:"N" ~doc)

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

let run_check () seed nseeds profiles scenarios =
  let seeds = List.init nseeds (fun i -> seed + i) in
  let bad =
    Vessel_check.Harness.print_report
      (Vessel_check.Harness.run_sweep ~seeds ~profiles ~scenarios ())
  in
  if bad > 0 then check_failed := true

let check_doc = "Fault-injection sweep with runtime invariant checking"
let all_doc = "Every experiment above, at its defaults"

let run_list () =
  List.iter
    (fun (id, doc) -> Printf.printf "%-10s %s\n" id doc)
    (List.map (fun (e : Catalog.t) -> (e.id, e.doc)) Catalog.all
    @ [ ("check", check_doc); ("all", all_doc) ]);
  print_string
    "\nEvery experiment also accepts --trace FILE, --metrics FILE and \
     --attrib FILE.\n"

let cmds =
  let cmd id doc term = Cmd.v (Cmd.info id ~version ~doc) term in
  cmd "list" "Print every experiment id with a one-line description"
    Term.(const run_list $ common)
  :: cmd "check" check_doc
       Term.(
         const run_check $ common $ check_seed $ check_seeds $ check_profile
         $ check_scenario)
  :: cmd "all" all_doc
       Term.(
         const (fun () seed ->
             List.iter (fun e -> Catalog.defaults e seed) Catalog.all)
         $ common $ Catalog.seed)
  :: List.map
       (fun (e : Catalog.t) ->
         cmd e.id e.doc
           Term.(const (fun () run seed -> run seed) $ common $ e.term
                 $ Catalog.seed))
       Catalog.all

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
