(* Tests for the Vessel_obs observability subsystem: probe scopes, the
   metrics registry's histogram-merge algebra, the Perfetto trace_event
   exporter, and the -j N determinism of the collector's merged output. *)

module Obs = Vessel_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let instant ?(track = Obs.Track.Engine) ~ts name =
  Obs.Event.Instant { ts; track; name; args = [] }

(* ------------------------------------------------------------------ *)
(* Probe scopes *)

(* with_sink scopes: probes fire only inside the scope, and the scope
   restores the ambient sink afterwards. *)
let test_with_sink_scope () =
  let j = Obs.Journal.create () in
  check_bool "probes off outside" false !Obs.Probe.on;
  Obs.Probe.with_sink (Obs.Journal.sink j) (fun () ->
      check_bool "probes on inside" true !Obs.Probe.on;
      Obs.Probe.instant ~ts:7 ~track:Obs.Track.Engine ~name:"inside" ());
  check_bool "probes off after" false !Obs.Probe.on;
  Obs.Probe.instant ~ts:8 ~track:Obs.Track.Engine ~name:"outside" ();
  check_int "only scoped event captured" 1 (Obs.Journal.length j);
  check_int "scoped ts" 7 (Obs.Event.ts (List.hd (Obs.Journal.to_list j)))

(* Scopes entered and left on several domains at once must never switch
   probes off under a live scope: every guarded instant reaches its
   scope's sink. One [Pool.map] per round makes the domains enter and
   leave together, which is where an unserialised flag update could
   publish a stale [false]; unsynchronised loops almost never hit it. *)
let test_with_sink_scopes_across_domains () =
  let dropped = Atomic.make 0 in
  let job _ =
    let got = ref 0 in
    Obs.Probe.with_sink (Obs.Sink.of_fn (fun _ -> incr got)) (fun () ->
        if !Obs.Probe.on then
          Obs.Probe.instant ~ts:0 ~track:Obs.Track.Engine ~name:"stress" ());
    if !got <> 1 then Atomic.incr dropped
  in
  let jobs = List.init 8 Fun.id in
  for _ = 1 to 300_000 do
    ignore (Vessel_engine.Pool.map ~domains:4 job jobs)
  done;
  check_int "scopes that lost their event" 0 (Atomic.get dropped)

(* ------------------------------------------------------------------ *)
(* Metrics: registry basics and the histogram-merge algebra. *)

let test_metrics_registry () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "c";
  Obs.Metrics.incr ~by:4 m "c";
  check_int "counter" 5 (Obs.Metrics.counter_value m "c");
  Obs.Metrics.set_gauge m "g" 17;
  Alcotest.(check (option int)) "gauge" (Some 17) (Obs.Metrics.gauge_value m "g");
  Obs.Metrics.observe m "h" 100;
  Obs.Metrics.observe m "h" 3_000;
  check_int "hist count" 2 (Obs.Metrics.Hist.count (Obs.Metrics.hist m "h"));
  (* The snapshot is valid JSON with the documented schema tag. *)
  (match Obs.Json.parse (Obs.Metrics.to_string m) with
  | Error e -> Alcotest.failf "metrics JSON invalid: %s" e
  | Ok j ->
      Alcotest.(check (option string))
        "schema" (Some "vessel-metrics-1")
        (Option.bind (Obs.Json.member "schema" j) Obs.Json.to_string));
  Obs.Metrics.clear m;
  check_int "cleared" 0 (Obs.Metrics.counter_value m "c")

let hist_of values =
  let h = Obs.Metrics.Hist.create () in
  List.iter (Obs.Metrics.Hist.observe h) values;
  h

let merged a b =
  let m = Obs.Metrics.Hist.copy a in
  Obs.Metrics.Hist.merge ~into:m b;
  m

(* merge is commutative and associative, and preserves count/sum/min/max
   — the invariant that makes the collector's sorted-unit fold
   independent of how a sweep was split across domains. *)
let hist_merge_properties =
  let open QCheck in
  let values = list_of_size Gen.(0 -- 40) (int_range 0 100_000) in
  Test.make ~count:200 ~name:"hist merge assoc/comm/total-preserving"
    (triple values values values)
    (fun (xs, ys, zs) ->
      let ha = hist_of xs and hb = hist_of ys and hc = hist_of zs in
      let ab = merged ha hb in
      let comm = Obs.Metrics.Hist.equal ab (merged hb ha) in
      let assoc =
        Obs.Metrics.Hist.equal (merged ab hc) (merged ha (merged hb hc))
      in
      let all = merged ab hc in
      let everything = xs @ ys @ zs in
      let totals =
        Obs.Metrics.Hist.count all = List.length everything
        && Obs.Metrics.Hist.sum all = List.fold_left ( + ) 0 everything
        && (everything = []
           || Obs.Metrics.Hist.min all = List.fold_left min max_int everything
              && Obs.Metrics.Hist.max all = List.fold_left max 0 everything)
      in
      comm && assoc && totals)

(* ------------------------------------------------------------------ *)
(* Perfetto export: the golden checks. *)

let journal_of events =
  let j = Obs.Journal.create () in
  List.iter (Obs.Journal.record j) events;
  j

let export units =
  let b = Buffer.create 4096 in
  Obs.Perfetto.write (Buffer.add_string b) ~units:(List.map journal_of units);
  Buffer.contents b

(* Every event kind, in two units: the second opens without a process
   marker (so it gets a "sim" process) and then starts another, so the
   pid numbering runs 1, 2, 3 and each pid re-emits its thread names.
   One name and one string argument need escaping. *)
let every_kind =
  let open Obs.Event in
  let core0 = Obs.Track.Core 0 in
  [
    [
      Process { name = "sim seed=1" };
      Span_begin { ts = 0; track = core0; name = "runtime"; args = [] };
      Span_begin
        {
          ts = 100;
          track = core0;
          name = "compute";
          args = [ ("tid", Int 1); ("kind", Str "idle") ];
        };
      Instant
        {
          ts = 150;
          track = core0;
          name = "ipi \"send\"\t\\";
          args = [ ("to", Int (-12)); ("why", Str "a\nb\001") ];
        };
      Instant
        { ts = 1_234_567; track = Obs.Track.Sched; name = "vessel.wake"; args = [] };
      Counter
        { ts = 2_000; track = Obs.Track.Engine; name = "engine.events"; value = 3 };
      Flow { ts = 2_001; track = Obs.Track.Sched; name = "req"; id = 7; dir = Flow_start };
      Flow { ts = 2_002; track = Obs.Track.Core 1; name = "req"; id = 7; dir = Flow_step };
      Flow { ts = 2_003; track = Obs.Track.Engine; name = "req"; id = 7; dir = Flow_end };
      Span_end { ts = 4_000; track = core0 };
      Span_end { ts = 5_000; track = core0 };
    ];
    [
      Instant { ts = 9; track = Obs.Track.Uproc 2; name = "uproc.enter"; args = [] };
      Process { name = "sim seed=2" };
      Instant { ts = 10; track = core0; name = "ipi.send"; args = [] };
    ];
  ]

let every_kind_json =
  {|{"displayTimeUnit": "ns", "traceEvents": [
{"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "sim seed=1"}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 10, "args": {"name": "core 0"}},
{"name": "runtime", "ph": "B", "ts": 0.000, "pid": 1, "tid": 10},
{"name": "compute", "ph": "B", "ts": 0.100, "pid": 1, "tid": 10, "args": {"tid": 1, "kind": "idle"}},
{"name": "ipi \"send\"\t\\", "ph": "i", "s": "t", "ts": 0.150, "pid": 1, "tid": 10, "args": {"to": -12, "why": "a\nb\u0001"}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "scheduler"}},
{"name": "vessel.wake", "ph": "i", "s": "t", "ts": 1234.567, "pid": 1, "tid": 1},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "engine"}},
{"name": "engine.events", "ph": "C", "ts": 2.000, "pid": 1, "tid": 0, "args": {"value": 3}},
{"name": "req", "cat": "req", "ph": "s", "id": 7, "ts": 2.001, "pid": 1, "tid": 1},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 11, "args": {"name": "core 1"}},
{"name": "req", "cat": "req", "ph": "t", "id": 7, "ts": 2.002, "pid": 1, "tid": 11},
{"name": "req", "cat": "req", "ph": "f", "id": 7, "ts": 2.003, "pid": 1, "tid": 0, "bp": "e"},
{"ph": "E", "ts": 4.000, "pid": 1, "tid": 10},
{"ph": "E", "ts": 5.000, "pid": 1, "tid": 10},
{"name": "process_name", "ph": "M", "pid": 2, "tid": 0, "args": {"name": "sim"}},
{"name": "thread_name", "ph": "M", "pid": 2, "tid": 1002, "args": {"name": "uproc 2"}},
{"name": "uproc.enter", "ph": "i", "s": "t", "ts": 0.009, "pid": 2, "tid": 1002},
{"name": "process_name", "ph": "M", "pid": 3, "tid": 0, "args": {"name": "sim seed=2"}},
{"name": "thread_name", "ph": "M", "pid": 3, "tid": 10, "args": {"name": "core 0"}},
{"name": "ipi.send", "ph": "i", "s": "t", "ts": 0.010, "pid": 3, "tid": 10}
]}
|}

let test_perfetto_bytes () =
  Alcotest.(check string) "exported bytes" every_kind_json (export every_kind)

(* The integer [ts] digits equal [%.3f] of the float quotient: across
   +-2^50, where they are computed, and beyond, where the float path
   takes over. In [2^52, 2^53) integer digits would differ for ~2% of
   values, and 18527190780329042 is one such value above. *)
let ts_matches_printf =
  let limit = 1 lsl 50 in
  let signed g = QCheck.Gen.(map2 (fun neg x -> if neg then -x else x) bool g) in
  let gen =
    QCheck.Gen.(
      oneof
        [
          signed (int_bound (limit - 1));
          int_range (-100_000) 100_000;
          signed (map (fun d -> limit + d) (int_range (-1000) 1000));
          signed (int_range (4 * limit) ((8 * limit) - 1));
          oneofl [ 18527190780329042; max_int; min_int ];
          int;
        ])
  in
  QCheck.Test.make ~count:20_000 ~name:"ts digits = %.3f of ns/1000"
    (QCheck.make ~print:string_of_int gen)
    (fun ns ->
      let b = Buffer.create 32 in
      Obs.Perfetto.add_ts b ns;
      String.equal (Buffer.contents b)
        (Printf.sprintf "%.3f" (float_of_int ns /. 1000.)))

let golden_unit =
  let open Obs.Event in
  let core0 = Obs.Track.Core 0 in
  [
    Process { name = "sim seed=1" };
    Span_begin { ts = 0; track = core0; name = "runtime"; args = [] };
    Span_begin
      { ts = 100; track = core0; name = "compute"; args = [ ("tid", Int 1) ] };
    Instant
      { ts = 150; track = core0; name = "ipi.send"; args = [ ("to", Int 1) ] };
    Counter { ts = 200; track = Obs.Track.Engine; name = "engine.events"; value = 3 };
    Span_end { ts = 400; track = core0 };
    Span_end { ts = 500; track = core0 };
    Instant
      { ts = 600; track = Obs.Track.Sched; name = "vessel.wake";
        args = [ ("kind", Str "idle") ] };
  ]

let event_objects json =
  match Option.bind (Obs.Json.member "traceEvents" json) Obs.Json.to_list with
  | Some l -> l
  | None -> Alcotest.fail "no traceEvents array"

let field name conv ev =
  match Option.bind (Obs.Json.member name ev) conv with
  | Some v -> v
  | None -> Alcotest.failf "event missing %S" name

(* [s] parses as trace_event JSON whose spans nest properly and whose
   timestamps are monotone per (pid, tid) track; returns the number of
   pids. *)
let trace_structure s =
  let json =
    match Obs.Json.parse s with
    | Ok j -> j
    | Error e -> Alcotest.failf "trace JSON invalid: %s" e
  in
  let events = event_objects json in
  check_bool "has events" true (List.length events > 10);
  (* Walk B/E nesting and ts order per (pid, tid). *)
  let depth : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (int * int, float) Hashtbl.t = Hashtbl.create 8 in
  let pids = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      let ph = field "ph" Obs.Json.to_string ev in
      if ph <> "M" then begin
        let pid = int_of_float (field "pid" Obs.Json.to_number ev) in
        let tid = int_of_float (field "tid" Obs.Json.to_number ev) in
        let ts = field "ts" Obs.Json.to_number ev in
        Hashtbl.replace pids pid ();
        let k = (pid, tid) in
        let prev = Option.value (Hashtbl.find_opt last_ts k) ~default:0. in
        check_bool "ts monotone per track" true (ts >= prev);
        Hashtbl.replace last_ts k ts;
        let d = Option.value (Hashtbl.find_opt depth k) ~default:0 in
        match ph with
        | "B" -> Hashtbl.replace depth k (d + 1)
        | "E" ->
            check_bool "E has matching B" true (d > 0);
            Hashtbl.replace depth k (d - 1)
        | "i" | "C" | "s" | "t" | "f" -> ()
        | other -> Alcotest.failf "unexpected phase %S" other
      end)
    events;
  Hashtbl.iter (fun _ d -> check_int "spans balanced" 0 d) depth;
  Hashtbl.length pids

let test_perfetto_golden () =
  (* Two units: the exporter must give the second one a fresh pid so its
     t=0 events cannot break the first unit's monotonicity. *)
  check_int "one pid per process marker" 2
    (trace_structure (export [ golden_unit; golden_unit ]))

(* ------------------------------------------------------------------ *)
(* Collector determinism: with tracing and metrics enabled, a parallel
   sweep must export byte-identical files at -j 1 and -j 4. *)

(* The MD5 of a stream written in pieces, kept as the digests of its
   64 KiB blocks rather than as one string (a traced fig1 writes ~285
   MB), with the stream's length. *)
let streamed_digest write =
  let block = Bytes.create 65536 and fill = ref 0 and total = ref 0 in
  let digests = Buffer.create 4096 in
  let flush () =
    Buffer.add_string digests (Digest.subbytes block 0 !fill);
    fill := 0
  in
  write (fun s ->
      let pos = ref 0 in
      while !pos < String.length s do
        let k = min (String.length s - !pos) (Bytes.length block - !fill) in
        Bytes.blit_string s !pos block !fill k;
        fill := !fill + k;
        pos := !pos + k;
        if !fill = Bytes.length block then flush ()
      done;
      total := !total + String.length s);
  flush ();
  (Digest.to_hex (Digest.string (Buffer.contents digests)), !total)

let with_collector f =
  let open Vessel_experiments in
  let saved = Runner.domains () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Collector.reset ();
      Runner.set_domains saved)
    f

let test_collector_identical_across_jobs () =
  let open Vessel_experiments in
  with_collector (fun () ->
      let run j =
        Obs.Collector.reset ();
        Obs.Collector.configure ~trace:true ~metrics:true ();
        Runner.set_domains j;
        ignore (Exp_fig1.run ~seed:42 ~cores:2 ~fractions:[ 0.25; 0.5 ] ());
        ( streamed_digest Obs.Collector.write_trace,
          streamed_digest Obs.Collector.write_metrics )
      in
      let (t1, trace_bytes), (m1, metrics_bytes) = run 1 in
      let (t4, _), (m4, _) = run 4 in
      Alcotest.(check string) "trace digest at -j 1 and -j 4" t1 t4;
      Alcotest.(check string) "metrics digest at -j 1 and -j 4" m1 m4;
      check_bool "trace non-trivial" true (trace_bytes > 1_000_000);
      check_bool "metrics non-trivial" true (metrics_bytes > 100))

(* A real traced sweep of two points parses whole, and its structure
   holds: one process per point, spans nested, ts monotone per track. *)
let test_collector_trace_parses () =
  let open Vessel_experiments in
  with_collector (fun () ->
      Obs.Collector.reset ();
      Obs.Collector.configure ~trace:true ~metrics:true ();
      Runner.set_domains 2;
      ignore
        (Runner.sweep
           (fun krps ->
             Runner.run_colocation ~seed:42 ~cores:2 ~warmup:500_000
               ~duration:2_500_000 ~sched:Runner.Vessel ~l_app:Runner.Memcached
               ~rate_rps:(float_of_int krps *. 1_000.)
               ())
           [ 100; 300 ]);
      let bt = Buffer.create 65536 and bm = Buffer.create 4096 in
      Obs.Collector.write_trace (Buffer.add_string bt);
      Obs.Collector.write_metrics (Buffer.add_string bm);
      let trace = Buffer.contents bt in
      check_bool "trace is megabytes" true (String.length trace > 2_000_000);
      check_bool "one pid per point" true (trace_structure trace >= 2);
      check_bool "metrics parses" true
        (Result.is_ok (Obs.Json.parse (Buffer.contents bm))))

let suite =
  [
    ( "obs.probe",
      [
        Alcotest.test_case "with_sink scope" `Quick test_with_sink_scope;
        Alcotest.test_case "scopes across domains lose no event" `Slow
          test_with_sink_scopes_across_domains;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "registry basics" `Quick test_metrics_registry;
        QCheck_alcotest.to_alcotest hist_merge_properties;
      ] );
    ( "obs.perfetto",
      [
        Alcotest.test_case "golden export" `Quick test_perfetto_golden;
        Alcotest.test_case "every event kind, byte-exact" `Quick
          test_perfetto_bytes;
        QCheck_alcotest.to_alcotest ts_matches_printf;
      ] );
    ( "obs.collector",
      [
        Alcotest.test_case "trace+metrics identical at -j 1 and -j 4" `Slow
          test_collector_identical_across_jobs;
        Alcotest.test_case "traced sweep parses" `Slow
          test_collector_trace_parses;
      ] );
  ]
