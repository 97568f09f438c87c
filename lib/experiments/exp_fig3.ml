module Sim = Vessel_engine.Sim
module S = Vessel_sched
module U = Vessel_uprocess
module Stats = Vessel_stats
module Obs = Vessel_obs

type t = {
  stages : (string * int) list;
  stage_total_ns : int;
  measured_preemption_us : float;
  (* Timeline cross-check pulled from the observability stream: the same
     reallocation as seen by the ipi/preempt/compute probes. *)
  observed_ipi_flight_ns : int;
  observed_send_to_dispatch_ns : int;
}

let service_ns = 1_000

let run_point ~seed () =
  (* Capture the probe stream into a journal regardless of --trace, so
     the printed report is identical with and without a trace file. *)
  let journal = Obs.Journal.create () in
  Obs.Probe.with_sink (Obs.Journal.sink journal) @@ fun () ->
  let b = Runner.build ~seed ~cores:1 Runner.Caladan in
  let baseline = Option.get b.Runner.baseline in
  let sys = b.Runner.sys in
  (* A best-effort hog that owns the core. *)
  sys.S.Sched_intf.add_app
    { S.Sched_intf.id = 2; name = "hog"; class_ = S.Sched_intf.Best_effort };
  ignore
    (sys.S.Sched_intf.add_worker ~app_id:2 ~name:"hog-w0" ~step:(fun ~now:_ ->
         U.Uthread.Compute { ns = 1_000_000; on_complete = None }));
  (* The latency-critical app with one pending worker. *)
  sys.S.Sched_intf.add_app
    { S.Sched_intf.id = 1; name = "lc"; class_ = S.Sched_intf.Latency_critical };
  let arrived = ref 0 and completed = ref 0 in
  let pending = ref 0 in
  ignore
    (sys.S.Sched_intf.add_worker ~app_id:1 ~name:"lc-w0" ~step:(fun ~now:_ ->
         if !pending > 0 then begin
           decr pending;
           U.Uthread.Compute
             { ns = service_ns; on_complete = Some (fun t -> completed := t) }
         end
         else U.Uthread.Park));
  sys.S.Sched_intf.start ();
  (* Let the hog settle in, then fire exactly one request. *)
  ignore
    (Sim.schedule b.Runner.sim ~at:50_000 (fun sim ->
         arrived := Sim.now sim;
         incr pending;
         sys.S.Sched_intf.notify_app ~app_id:1));
  Sim.run_until b.Runner.sim 1_000_000;
  sys.S.Sched_intf.stop ();
  let stages = S.Baseline.preempt_stages baseline in
  if !completed = 0 then failwith "Exp_fig3: request never completed";
  let events = Obs.Journal.to_list journal in
  let instant_ts name =
    List.find_map
      (function
        | Obs.Event.Instant { ts; name = n; _ } when String.equal n name ->
            Some ts
        | _ -> None)
      events
  in
  let require what = function
    | Some ts -> ts
    | None -> failwith (Printf.sprintf "Exp_fig3: no %s event in trace" what)
  in
  let send = require Obs.Tag.ipi_send (instant_ts Obs.Tag.ipi_send) in
  let deliver = require Obs.Tag.ipi_deliver (instant_ts Obs.Tag.ipi_deliver) in
  let lc_start =
    require "lc compute"
      (List.find_map
         (function
           | Obs.Event.Span_begin { ts; name; args; _ }
             when String.equal name Obs.Tag.compute
                  && List.assoc_opt "app" args = Some (Obs.Event.Int 1) ->
               Some ts
           | _ -> None)
         events)
  in
  {
    stages;
    stage_total_ns = List.fold_left (fun a (_, d) -> a + d) 0 stages;
    measured_preemption_us =
      float_of_int (!completed - !arrived - service_ns) /. 1e3;
    observed_ipi_flight_ns = deliver - send;
    observed_send_to_dispatch_ns = lc_start - send;
  }

let run ?(seed = 42) () =
  match Runner.sweep_points [ run_point ~seed ] with
  | [ t ] -> t
  | _ -> assert false

let print t =
  Report.section "Figure 3: timeline of a Caladan core reallocation";
  Report.paper_note
    "one ioctl/IPI plus four user-kernel crossings; the whole operation \
     averages 5.3 us";
  let tbl = Stats.Table.create ~columns:[ "stage"; "ns"; "cumulative ns" ] in
  let _ =
    List.fold_left
      (fun acc (label, ns) ->
        let acc = acc + ns in
        Stats.Table.add_row tbl [ label; string_of_int ns; string_of_int acc ];
        acc)
      0 t.stages
  in
  Report.table tbl;
  Report.kv "stage total" (Printf.sprintf "%.3fus" (float_of_int t.stage_total_ns /. 1e3));
  Report.kv "measured end-to-end preemption (wake to completion - service)"
    (Printf.sprintf "%.3fus" t.measured_preemption_us);
  Report.kv "observed ipi.send -> ipi.deliver (trace)"
    (Printf.sprintf "%dns" t.observed_ipi_flight_ns);
  Report.kv "observed ipi.send -> lc compute start (trace)"
    (Printf.sprintf "%dns" t.observed_send_to_dispatch_ns)
