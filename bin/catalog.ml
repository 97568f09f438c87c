(* The experiment catalog: the one list of what vessel-sim and the bench
   run, in paper order.

   Each entry's term parses only the experiment's own flags, and every
   flag defaults to absent and reaches the library as [?arg]: an
   experiment's defaults live in its Exp_* module alone. A run with no
   flags (see [defaults]) is therefore the library configuration, which
   is what `vessel-sim all` and every bench row run. *)

open Cmdliner
open Vessel_experiments

type t = {
  id : string;
  doc : string;
  term : (int option -> unit) Term.t;
      (** the experiment's flags; the result runs it at a seed (absent:
          the library's) and prints its tables *)
  long : bool;  (** outside the bench's --quick set *)
}

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

let seed =
  let doc =
    "Root RNG seed; every run is deterministic given the seed. Absent, \
     each experiment uses its library default."
  in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

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

let opt_flag c name docv doc =
  Arg.(value & opt (some c) None & info [ name ] ~docv ~doc)

let cores =
  opt_flag positive "cores" "N"
    "Worker cores. Absent, the experiment's own core count (see \
     EXPERIMENTS.md)."

let l_app =
  opt_flag
    (Arg.enum [ ("memcached", Runner.Memcached); ("silo", Runner.Silo) ])
    "l-app" "APP"
    "Latency-critical app: memcached or silo. Absent, both panels, \
     memcached first."

let machines =
  opt_flag positive "machines" "N"
    "Backend machines in the fleet (plus one frontend machine)."

let fleet_cores =
  opt_flag positive "fleet-cores" "N" "Worker cores per backend machine."

let policies =
  let policy =
    Arg.conv
      ( (fun s ->
          match Vessel_workloads.Frontend.policy_of_string s with
          | Some p -> Ok p
          | None -> Error (`Msg (Printf.sprintf "unknown policy %S" s))),
        fun ppf p ->
          Format.pp_print_string ppf (Vessel_workloads.Frontend.policy_name p)
      )
  in
  opt_flag (Arg.list policy) "policies" "P,P"
    "Comma-separated routing policies: $(b,round-robin) (or rr), \
     $(b,least-loaded) (ll), $(b,consistent-hash) (ch)."

let schedulers =
  let sched =
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
  opt_flag (Arg.list sched) "schedulers" "S,S"
    "Comma-separated scheduler ids to sweep: $(b,vessel), $(b,caladan), \
     $(b,caladan-dr-l), $(b,caladan-dr-h), $(b,arachne), $(b,linux-cfs)."

let duties =
  let duty =
    checked Arg.float
      (fun d -> d > 0. && d < 1.)
      "a duty cycle strictly between 0 and 1"
  in
  opt_flag (Arg.list duty) "duties" "D,D"
    "Comma-separated burst duty cycles (burst_len / period), each \
     strictly between 0 and 1."

let duration_ms =
  opt_flag positive "duration-ms" "MS" "Simulated milliseconds per sweep point."

let v ?(long = false) id doc term = { id; doc; term; long }

let all =
  [
    v "table1" "Table 1: context-switch latency"
      (Term.const (fun seed -> Exp_table1.print (Exp_table1.run ?seed ())));
    v "fig1" "Figure 1: cost of colocation under Caladan"
      Term.(
        const (fun cores seed -> Exp_fig1.print (Exp_fig1.run ?seed ?cores ()))
        $ cores);
    v "fig2" "Figure 2: dense colocation kernel cycles"
      (Term.const (fun seed -> Exp_fig2.print (Exp_fig2.run ?seed ())));
    v "fig3" "Figure 3: Caladan core-reallocation timeline"
      (Term.const (fun seed -> Exp_fig3.print (Exp_fig3.run ?seed ())));
    v "fig9" ~long:true "Figure 9: L-app + B-app across all systems"
      Term.(
        const (fun cores l_app seed ->
            List.iter
              (fun l_app ->
                Exp_fig9.print ~l_app (Exp_fig9.run ?seed ?cores ~l_app ()))
              (match l_app with
              | Some a -> [ a ]
              | None -> [ Runner.Memcached; Runner.Silo ]))
        $ cores $ l_app);
    v "fig10" "Figure 10: dense colocation, 1 vs 10 instances"
      (Term.const (fun seed -> Exp_fig10.print (Exp_fig10.run ?seed ())));
    v "fig11" "Figure 11: cache friendliness"
      (Term.const (fun seed -> Exp_fig11.print (Exp_fig11.run ?seed ())));
    v "fig12" ~long:true "Figure 12: goodput vs core count"
      (Term.const (fun seed -> Exp_fig12.print (Exp_fig12.run ?seed ())));
    v "fig13a" "Figure 13a: bandwidth-aware colocation"
      Term.(
        const (fun cores seed ->
            Exp_fig13.print_colocation
              (Exp_fig13.run_colocation ?seed ?cores ()))
        $ cores);
    v "fig13b" "Figure 13b: bandwidth-regulation accuracy"
      (Term.const (fun seed ->
           Exp_fig13.print_accuracy (Exp_fig13.run_accuracy ?seed ())));
    v "ablation" "Ablations: switch-cost sweep, mechanism vs policy"
      Term.(
        const (fun cores seed ->
            Exp_ablation.print_switch_cost
              (Exp_ablation.run_switch_cost ?seed ?cores ());
            Exp_ablation.print_policy (Exp_ablation.run_policy ?seed ?cores ()))
        $ cores);
    v "burst" "Burst absorption under us-scale load spikes"
      Term.(
        const (fun cores seed -> Exp_burst.print (Exp_burst.run ?seed ?cores ()))
        $ cores);
    v "gaps" "Execution gaps & fairness under bursty colocation"
      Term.(
        const (fun cores systems duties duration_ms seed ->
            let duration = Option.map (fun ms -> ms * 1_000_000) duration_ms in
            Exp_gaps.print
              (Exp_gaps.run ?seed ?cores ?systems ?duties ?duration ()))
        $ cores $ schedulers $ duties $ duration_ms);
    v "fleet" "Fleet: machines under one clock behind a load balancer"
      Term.(
        const (fun backends cores policies seed ->
            Exp_fleet.print (Exp_fleet.run ?seed ?backends ?cores ?policies ()))
        $ machines $ fleet_cores $ policies);
  ]

(* An entry's no-flag configuration: its term evaluated on an empty
   command line. *)
let defaults e =
  match Cmd.eval_value ~argv:[| e.id |] (Cmd.v (Cmd.info e.id) e.term) with
  | Ok (`Ok run) -> run
  | _ -> invalid_arg ("Catalog.defaults: " ^ e.id)
