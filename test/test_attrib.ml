(* Tests for request-level latency attribution: the hand-built ledger
   algebra (gap charging, hop splitting), the sink replay path, and the
   conservation law — per-phase charges sum to end-to-end latency
   exactly — on live runs, single-machine and fleet, at any -j. *)

module Obs = Vessel_obs
module Request = Vessel_obs.Request
module Attrib = Vessel_obs.Attrib
module Runner = Vessel_experiments.Runner
module Exp_fleet = Vessel_experiments.Exp_fleet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Every test owns the global attrib registry and collector state. *)
let scoped f () =
  Obs.Collector.reset ();
  Attrib.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Collector.reset ();
      Attrib.reset ())
    f

let bucket names name =
  let rec find i = if names.(i) = name then i else find (i + 1) in
  find 0

let b = bucket Attrib.bucket_names

(* ------------------------------------------------------------------ *)
(* Ledger algebra on a hand-built two-lane stamp stream. *)

let test_ledger_hop_split () =
  let a = Attrib.create ~lanes:2 ~hop_ns:20 () in
  let stamp lane phase ts = Attrib.record a ~lane (Request.v ~rid:1 phase) ts in
  (* Frontend lane 0, backend lane 1; both inter-lane gaps exceed the
     20 ns hop, so the excess lands in the barrier bucket. *)
  stamp 0 Request.Arrive 0;
  stamp 0 Request.Lb 10;
  stamp 1 Request.Enqueue 55;
  stamp 1 Request.Dispatch 60;
  stamp 1 Request.Complete 100;
  stamp 0 Request.Done 130;
  match (Attrib.summarize a).Attrib.ledgers with
  | [ l ] ->
      check_int "rid" 1 l.Attrib.rid;
      check_int "e2e" 130 l.Attrib.e2e_ns;
      check_int "shard = complete lane" 1 l.Attrib.shard;
      check_int "ingress" 10 l.Attrib.by_bucket.(b "ingress");
      check_int "net_req capped at hop" 20 l.Attrib.by_bucket.(b "net_req");
      check_int "queue" 5 l.Attrib.by_bucket.(b "queue");
      check_int "service" 40 l.Attrib.by_bucket.(b "service");
      check_int "sched" 0 l.Attrib.by_bucket.(b "sched");
      check_int "net_resp capped at hop" 20 l.Attrib.by_bucket.(b "net_resp");
      check_int "barrier residue" 35 l.Attrib.by_bucket.(b "barrier");
      check_int "conserved" l.Attrib.e2e_ns
        (Array.fold_left ( + ) 0 l.Attrib.by_bucket)
  | ls -> Alcotest.failf "expected 1 ledger, got %d" (List.length ls)

let test_summary_counts () =
  let a = Attrib.create () in
  let stamp rid phase ts = Attrib.record a ~lane:0 (Request.v ~rid phase) ts in
  (* rid 1 completes; rid 2 never finishes; rid 3 starts mid-pipeline
     (its arrival predates recording). *)
  stamp 1 Request.Arrive 0;
  stamp 1 Request.Done 7;
  stamp 2 Request.Arrive 3;
  stamp 3 Request.Dispatch 5;
  stamp 3 Request.Done 9;
  let s = Attrib.summarize a in
  check_int "completed" 1 (List.length s.Attrib.ledgers);
  check_int "inflight" 1 s.Attrib.inflight;
  check_int "malformed" 1 s.Attrib.malformed;
  check_int "violations" 0 s.Attrib.violations

(* A preempted request: Dispatch / Preempt / Wake / Dispatch. The
   preempt-to-wake gap is scheduler overhead; wake-to-dispatch is
   queueing again; only running intervals are service. *)
let test_preemption_phases () =
  let a = Attrib.create () in
  let stamp phase ts = Attrib.record a ~lane:0 (Request.v ~rid:1 phase) ts in
  stamp Request.Arrive 0;
  stamp Request.Enqueue 0;
  stamp Request.Dispatch 10;
  stamp Request.Preempt 40;
  stamp Request.Wake 52;
  stamp Request.Dispatch 60;
  stamp Request.Complete 90;
  stamp Request.Done 90;
  match (Attrib.summarize a).Attrib.ledgers with
  | [ l ] ->
      check_int "queue = initial + requeue" 18 l.Attrib.by_bucket.(b "queue");
      check_int "service = both runs" 60 l.Attrib.by_bucket.(b "service");
      check_int "sched = preempt..wake" 12 l.Attrib.by_bucket.(b "sched");
      check_int "conserved" 90 (Array.fold_left ( + ) 0 l.Attrib.by_bucket)
  | ls -> Alcotest.failf "expected 1 ledger, got %d" (List.length ls)

(* The sink replays req.* trace instants into stamps — the same numbers
   must come out as from direct recording. *)
let test_sink_replay () =
  let a = Attrib.create () in
  let sink = Attrib.sink a ~lane:0 in
  let replay phase ts =
    Obs.Sink.emit sink
      (Obs.Event.Instant
         {
           ts;
           track = Obs.Track.Engine;
           name = Request.tags.(Request.phase_index phase);
           args = [ ("rid", Obs.Event.Int 9) ];
         })
  in
  replay Request.Arrive 100;
  replay Request.Enqueue 110;
  replay Request.Dispatch 130;
  replay Request.Complete 150;
  replay Request.Done 150;
  (* Non-request and rid-less events are ignored. *)
  Obs.Sink.emit sink
    (Obs.Event.Instant
       { ts = 1; track = Obs.Track.Engine; name = "vessel.wake"; args = [] });
  match (Attrib.summarize a).Attrib.ledgers with
  | [ l ] ->
      check_int "rid" 9 l.Attrib.rid;
      check_int "e2e" 50 l.Attrib.e2e_ns;
      check_int "queue" 20 l.Attrib.by_bucket.(b "queue");
      check_int "service" 20 l.Attrib.by_bucket.(b "service")
  | ls -> Alcotest.failf "expected 1 ledger, got %d" (List.length ls)

(* ------------------------------------------------------------------ *)
(* Differential: [Attrib.summarize] against the list-based finalizer it
   replaced, kept here as the reference. The reference groups stamps by
   rid in a hash table of lists, lanes in index order and each lane in
   recording order, then stable-sorts each request's stamps by (ts,
   phase, lane) and walks them. *)

let reference_summarize ~hop_ns (lanes : (int * int) list array) =
  let bucket_of_phase = [| 0; 1; 2; 2; 3; 4; 5; -1 |] in
  let by_rid : (int, (int * int * int) list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun lane stamps ->
      List.iter
        (fun (c, ts) ->
          let rid = c lsr 3 in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_rid rid) in
          Hashtbl.replace by_rid rid ((c, ts, lane) :: prev))
        stamps)
    lanes;
  let rids = List.sort compare (Hashtbl.fold (fun rid _ acc -> rid :: acc) by_rid []) in
  let inflight = ref 0 and malformed = ref 0 and violations = ref 0 in
  let ledgers =
    List.filter_map
      (fun rid ->
        let stamps =
          List.stable_sort
            (fun (c1, t1, l1) (c2, t2, l2) ->
              compare (t1, c1 land 7, l1) (t2, c2 land 7, l2))
            (List.rev (Hashtbl.find by_rid rid))
        in
        match stamps with
        | (c0, t0, _) :: rest when c0 land 7 = 0 ->
            let by_bucket = Array.make Attrib.nbuckets 0 in
            let shard = ref 0 in
            let rec walk prev_phase prev_ts = function
              | [] ->
                  incr inflight;
                  None
              | (c, ts, lane) :: tl ->
                  let gap = ts - prev_ts in
                  (match prev_phase with
                  | 1 | 6 ->
                      let hop = min gap hop_ns in
                      let b = bucket_of_phase.(prev_phase) in
                      by_bucket.(b) <- by_bucket.(b) + hop;
                      by_bucket.(6) <- by_bucket.(6) + (gap - hop)
                  | p ->
                      let b = bucket_of_phase.(p) in
                      by_bucket.(b) <- by_bucket.(b) + gap);
                  let ph = c land 7 in
                  if ph = 6 || (ph = 4 && !shard = 0) then shard := lane + 1;
                  if ph = 7 then begin
                    let e2e = ts - t0 in
                    if Array.fold_left ( + ) 0 by_bucket <> e2e then
                      incr violations;
                    Some
                      {
                        Attrib.rid;
                        e2e_ns = e2e;
                        shard = max 0 (!shard - 1);
                        by_bucket;
                      }
                  end
                  else walk ph ts tl
            in
            walk (c0 land 7) t0 rest
        | _ ->
            incr malformed;
            None)
      rids
  in
  (ledgers, !inflight, !malformed, !violations)

(* Random multi-lane streams of (lane, rid, phase, ts) stamps. A stamp
   of phase p falls in [5p, 5p + 12], so a request's stamps mostly run
   in phase order, yet windows overlap: equal timestamps are common, and
   a rid may lack its Arrive or its Done or have stamps after Done. Over
   2,000 cases this gives ~3,400 completed ledgers, ~2,100 in flight and
   ~5,600 malformed. *)
let summarize_matches_reference =
  let stamp lanes =
    QCheck.Gen.(
      map
        (fun (lane, rid, p, d) -> (lane, rid, p, (5 * p) + d))
        (quad (int_bound (lanes - 1)) (int_range 1 6) (int_bound 7) (int_bound 12)))
  in
  let gen =
    QCheck.Gen.(
      int_range 1 3 >>= fun lanes ->
      pair (pure lanes) (pair (int_bound 30) (list_size (0 -- 80) (stamp lanes))))
  in
  let print (lanes, (hop_ns, stamps)) =
    Printf.sprintf "lanes %d, hop %d: %s" lanes hop_ns
      (String.concat " "
         (List.map
            (fun (l, rid, p, ts) -> Printf.sprintf "L%d:r%d:p%d@%d" l rid p ts)
            stamps))
  in
  QCheck.Test.make ~count:2_000 ~name:"summarize = list-based reference"
    (QCheck.make ~print gen)
    (fun (lanes, (hop_ns, stamps)) ->
      scoped
        (fun () ->
          let a = Attrib.create ~lanes ~hop_ns () in
          let per_lane = Array.make lanes [] in
          List.iter
            (fun (lane, rid, p, ts) ->
              let c = (rid lsl 3) lor p in
              Attrib.record a ~lane c ts;
              per_lane.(lane) <- (c, ts) :: per_lane.(lane))
            stamps;
          let s = Attrib.summarize a in
          let ledgers, inflight, malformed, violations =
            reference_summarize ~hop_ns (Array.map List.rev per_lane)
          in
          s.Attrib.ledgers = ledgers
          && s.Attrib.inflight = inflight
          && s.Attrib.malformed = malformed
          && s.Attrib.violations = violations)
        ())

(* The percentile arrays' sort orders as [Int.compare] does, over the
   whole int range: negatives, extremes and repeated values. *)
let sort_ints_matches_compare =
  let value =
    QCheck.Gen.(
      oneof
        [ int; int_range (-70_000) 70_000; oneofl [ min_int; max_int; 0; -1 ] ])
  in
  QCheck.Test.make ~count:500 ~name:"sort_ints = Array.sort Int.compare"
    QCheck.(make ~print:Print.(array int) Gen.(array_size (0 -- 300) value))
    (fun a ->
      let expected = Array.copy a and got = Array.copy a in
      Array.sort Int.compare expected;
      Attrib.sort_ints got;
      expected = got)

(* ------------------------------------------------------------------ *)
(* Conservation on live runs. *)

let conserved s =
  s.Attrib.violations = 0
  && s.Attrib.malformed = 0
  && s.Attrib.ledgers <> []
  && List.for_all
       (fun l ->
         Array.fold_left ( + ) 0 l.Attrib.by_bucket = l.Attrib.e2e_ns)
       s.Attrib.ledgers

let conservation_single_sim =
  QCheck.Test.make ~count:6 ~name:"attrib conservation (single machine)"
    QCheck.(pair (int_range 0 999) (int_range 100 400))
    (fun (seed_off, krps) ->
      scoped
        (fun () ->
          Obs.Collector.configure ~attrib:true ();
          ignore
            (Runner.run_colocation ~seed:(42 + seed_off) ~cores:2
               ~warmup:1_000_000 ~duration:4_000_000 ~sched:Runner.Vessel
               ~l_app:Runner.Memcached
               ~rate_rps:(float_of_int krps *. 1_000.)
               ());
          match Attrib.instances () with
          | [ a ] -> conserved (Attrib.summarize a)
          | l -> QCheck.Test.fail_reportf "%d instances" (List.length l))
        ())

let fleet_report j =
  Obs.Collector.reset ();
  Attrib.reset ();
  Obs.Collector.configure ~attrib:true ();
  Runner.set_domains j;
  ignore
    (Exp_fleet.run ~seed:42 ~backends:3 ~cores:2 ~warmup:500_000
       ~duration:2_000_000
       ~policies:[ Vessel_workloads.Frontend.Least_loaded ]
       ~scenarios:[ Exp_fleet.Skew ] ());
  let ss = Attrib.summaries () in
  let b = Buffer.create 4096 in
  Attrib.write (Buffer.add_string b);
  Attrib.report (Buffer.add_string b) ss;
  (List.for_all conserved ss, Buffer.contents b)

let test_fleet_conservation_any_j () =
  let saved = Runner.domains () in
  Fun.protect
    ~finally:(fun () -> Runner.set_domains saved)
    (scoped (fun () ->
         let ok1, out1 = fleet_report 1 in
         let ok4, out4 = fleet_report 4 in
         check_bool "fleet ledgers conserve at -j 1" true ok1;
         check_bool "fleet ledgers conserve at -j 4" true ok4;
         check_bool "artifact+report byte-identical at -j 1 and -j 4" true
           (String.equal out1 out4);
         check_bool "artifact non-trivial" true (String.length out1 > 500)))

let suite =
  [
    ( "attrib",
      [
        Alcotest.test_case "hop split + conservation" `Quick
          (scoped test_ledger_hop_split);
        Alcotest.test_case "inflight/malformed counting" `Quick
          (scoped test_summary_counts);
        Alcotest.test_case "preemption phase charges" `Quick
          (scoped test_preemption_phases);
        Alcotest.test_case "sink replay" `Quick (scoped test_sink_replay);
        QCheck_alcotest.to_alcotest summarize_matches_reference;
        QCheck_alcotest.to_alcotest sort_ints_matches_compare;
        QCheck_alcotest.to_alcotest conservation_single_sim;
        Alcotest.test_case "fleet conservation, -j 1 = -j 4" `Slow
          test_fleet_conservation_any_j;
      ] );
  ]
