(* The reference checks must catch wrong outputs: each case feeds a
   check one input that holds and one deliberately wrong input, and the
   wrong one must fail. *)

let failures = ref 0

(* Silent when the case holds. *)
let case name ~good ~bad =
  match (good, bad) with
  | [], _ :: _ -> ()
  | _ ->
      incr failures;
      Printf.printf "FAIL %s: %s\n" name
        (if good <> [] then "rejected the good input: " ^ String.concat "; " good
         else "accepted the wrong input")

(* A small Chrome trace in the exporter's layout. *)
let trace events =
  "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
  ^ String.concat ",\n" events
  ^ "\n]}\n"

let ev ?(name = "compute") ?(tid = 10) ph ts =
  Printf.sprintf
    "{\"name\": %S, \"ph\": %S, \"ts\": %s, \"pid\": 1, \"tid\": %d}" name ph
    ts tid

let scan s = Jscan.scan_trace (Jscan.of_string s)
let problems s = (scan s).Jscan.problems

let attrib_unit ?(phase_sums = [ 100; 250; 650 ]) () =
  {
    Check.label = "vessel memcached";
    e2e_sum = 1000;
    phase_sums;
    violations = 0;
    malformed = 0;
  }

let () =
  (* objcopy: one extra miss *)
  case "compulsory misses: one extra miss"
    ~good:(Check.compulsory_misses ~apps:2 ~working_set:524288 ~line:64 ~misses:16384)
    ~bad:(Check.compulsory_misses ~apps:2 ~working_set:524288 ~line:64 ~misses:16385);
  case "accesses cover copied objects"
    ~good:(Check.accesses_cover ~words_per_object:1024 ~copied:10 ~accesses:10240)
    ~bad:(Check.accesses_cover ~words_per_object:1024 ~copied:10 ~accesses:10239);
  case "batches stay inside the region"
    ~good:(Check.batches_inside ~region:(0, 131072) ~batch_bytes:65536
             [ (0, 65536); (65536, 65536) ])
    ~bad:(Check.batches_inside ~region:(0, 131072) ~batch_bytes:65536
            [ (0, 65536); (98304, 32768) ]);
  case "misses at most one per line"
    ~good:(Check.miss_bound ~words_per_line:16 ~accesses:1600 ~misses:100)
    ~bad:(Check.miss_bound ~words_per_line:16 ~accesses:1600 ~misses:101);
  (* trace: an unbalanced span, a span end without begin, bad JSON *)
  let balanced = trace [ ev "B" "1.000"; ev "E" "2.000" ] in
  case "trace: an unbalanced span"
    ~good:(problems balanced)
    ~bad:(problems (trace [ ev "B" "1.000"; ev "B" "1.500"; ev "E" "2.000" ]));
  case "trace: a span end without a begin"
    ~good:(problems balanced)
    ~bad:(problems (trace [ ev "E" "1.000"; ev "B" "1.500"; ev "E" "2.000" ]));
  case "trace: malformed JSON"
    ~good:(problems balanced)
    ~bad:(problems (String.sub balanced 0 (String.length balanced - 3)));
  case "trace: a leading zero is not JSON"
    ~good:(problems balanced)
    ~bad:(problems (trace [ ev "B" "01.000"; ev "E" "2.000" ]));
  let order known s = fst (Check.track_order ~known (scan s).Jscan.backwards) in
  case "trace: time goes back on a track"
    ~good:(order [] (trace [ ev "i" "1.000"; ev ~tid:11 "i" "0.500"; ev "i" "1.000" ]))
    ~bad:(order [] (trace [ ev "i" "1.000"; ev "i" "0.500" ]));
  case "trace: a known backwards event does not hide a new one"
    ~good:
      (order [ "queue.pop" ]
         (trace [ ev "i" "1.000"; ev ~name:"queue.pop" "i" "0.500" ]))
    ~bad:
      (order [ "queue.pop" ]
         (trace
            [ ev "i" "1.000"; ev ~name:"queue.pop" "i" "0.500"; ev "i" "0.700" ]));
  let s = scan (trace [ ev ~name:"switch.park" "B" "1.000"; ev "E" "1.200"; ev ~name:"preempt" "i" "1.300" ]) in
  case "trace vs metrics: one switch missing"
    ~good:
      (Check.trace_vs_metrics ~switch_spans:s.Jscan.switch_spans
         ~preempt_instants:s.Jscan.preempt_instants ~switches:1 ~preempts:1)
    ~bad:
      (Check.trace_vs_metrics ~switch_spans:s.Jscan.switch_spans
         ~preempt_instants:s.Jscan.preempt_instants ~switches:2 ~preempts:1);
  (* colo: a shifted Poisson count *)
  let rate_rps = 7.2e6 and window_ns = 100_000_000 in
  case "offered: a shifted Poisson count"
    ~good:(Check.poisson_count ~rate_rps ~window_ns ~count:720_900)
    ~bad:(Check.poisson_count ~rate_rps ~window_ns ~count:(720_000 + 4_300));
  case "served: more than offered"
    ~good:(Check.served ~offered:1000 ~served:995 ~min_share:0.99)
    ~bad:(Check.served ~offered:1000 ~served:1001 ~min_share:0.99);
  case "latency: below the service floor"
    ~good:(Check.latency ~floor_ns:300 ~p50:1200 ~p99:5000 ~p999:9000)
    ~bad:(Check.latency ~floor_ns:300 ~p50:299 ~p99:5000 ~p999:9000);
  case "cycle accounts: an uncharged core"
    ~good:
      (Check.cycle_accounts ~cores:8 ~window_ns:100_000_000
         ~charged_ns:800_004_000 ~max_segment_ns:20_000)
    ~bad:
      (Check.cycle_accounts ~cores:8 ~window_ns:100_000_000
         ~charged_ns:700_000_000 ~max_segment_ns:20_000);
  case "tail order at the top load"
    ~good:(Check.tail_order ~vessel_p999:11_900 ~caladan_p999:18_900)
    ~bad:(Check.tail_order ~vessel_p999:18_900 ~caladan_p999:18_900);
  (* fleet: a missing dispatch *)
  let dispatched = [| 10; 11; 10 |] in
  case "fleet: a missing dispatch"
    ~good:(Check.routed ~offered:33 ~dropped:2 ~dispatched)
    ~bad:(Check.routed ~offered:33 ~dropped:2 ~dispatched:[| 10; 10; 10 |]);
  case "fleet: served split"
    ~good:(Check.served_split ~served:30 ~served_by:[| 10; 10; 10 |] ~histogram_count:30)
    ~bad:(Check.served_split ~served:30 ~served_by:[| 10; 10; 10 |] ~histogram_count:29);
  case "fleet: served beyond dispatched"
    ~good:(Check.backend_flow ~served_by:[| 9; 10 |] ~dispatched:[| 10; 10 |] ~inflight:[| 1; 0 |])
    ~bad:(Check.backend_flow ~served_by:[| 11; 10 |] ~dispatched:[| 10; 10 |] ~inflight:[| 1; 0 |]);
  case "fleet: uneven round robin"
    ~good:(Check.round_robin_even ~dispatched)
    ~bad:(Check.round_robin_even ~dispatched:[| 10; 12; 10 |]);
  (* trace_export: a phase sum off by one, a recorded field that moved *)
  case "attribution: a phase sum off by one"
    ~good:(Check.attribution [ attrib_unit () ])
    ~bad:(Check.attribution [ attrib_unit ~phase_sums:[ 100; 251; 650 ] () ]);
  case "recording changed the simulation"
    ~good:(Check.same_fields ~recorded:[ ("events", 5); ("served", 3) ]
             ~plain:[ ("events", 5); ("served", 3) ])
    ~bad:(Check.same_fields ~recorded:[ ("events", 5); ("served", 3) ]
            ~plain:[ ("events", 6); ("served", 3) ]);
  (* the reader agrees with a hand-made value *)
  let v = Jscan.parse_string "{\"a\": [1, -2.5e3, \"x\\u0041\"], \"b\": {\"c\": true}}" in
  case "json: nested value"
    ~good:
      (if Jscan.to_str (List.nth (Jscan.to_list (Jscan.field "a" v)) 2) = Some "xA"
          && Jscan.path [ "b"; "c" ] v = Jscan.Bool true
       then []
       else [ "wrong value" ])
    ~bad:
      (match Jscan.parse_string "{\"a\": 1} x" with
      | _ -> []
      | exception Jscan.Malformed m -> [ m ]);
  if !failures > 0 then begin
    Printf.printf "%d check test(s) failed\n" !failures;
    exit 1
  end
