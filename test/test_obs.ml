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
(* Perfetto export: the golden check. A hand-built event stream exports
   to parseable trace_event JSON whose spans nest properly and whose
   timestamps are monotone per (pid, tid) track. *)

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

let test_perfetto_golden () =
  (* Two units: the exporter must give the second one a fresh pid so its
     t=0 events cannot break the first unit's monotonicity. *)
  let s = Obs.Perfetto.to_string ~units:[ golden_unit; golden_unit ] in
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
        | "i" | "C" -> ()
        | other -> Alcotest.failf "unexpected phase %S" other
      end)
    events;
  Hashtbl.iter (fun _ d -> check_int "spans balanced" 0 d) depth;
  check_int "one pid per process marker" 2 (Hashtbl.length pids)

(* ------------------------------------------------------------------ *)
(* Collector determinism: with tracing and metrics enabled, a parallel
   sweep must export byte-identical files at -j 1 and -j 4. *)

let test_collector_identical_across_jobs () =
  let open Vessel_experiments in
  let saved = Runner.domains () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Collector.reset ();
      Runner.set_domains saved)
    (fun () ->
      let run j =
        Obs.Collector.reset ();
        Obs.Collector.configure ~trace:true ~metrics:true ();
        Runner.set_domains j;
        ignore (Exp_fig1.run ~seed:42 ~cores:2 ~fractions:[ 0.25; 0.5 ] ());
        let bt = Buffer.create 65536 and bm = Buffer.create 4096 in
        Obs.Collector.write_trace (Buffer.add_string bt);
        Obs.Collector.write_metrics (Buffer.add_string bm);
        (Buffer.contents bt, Buffer.contents bm)
      in
      let t1, m1 = run 1 in
      let t4, m4 = run 4 in
      check_bool "trace byte-identical at -j 1 and -j 4" true
        (String.equal t1 t4);
      check_bool "metrics byte-identical at -j 1 and -j 4" true
        (String.equal m1 m4);
      (* Keep the comparison honest: both files parse and are non-trivial. *)
      check_bool "trace parses" true (Result.is_ok (Obs.Json.parse t1));
      check_bool "metrics parses" true (Result.is_ok (Obs.Json.parse m1));
      check_bool "trace non-trivial" true (String.length t1 > 1_000))

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
      [ Alcotest.test_case "golden export" `Quick test_perfetto_golden ] );
    ( "obs.collector",
      [
        Alcotest.test_case "trace+metrics identical at -j 1 and -j 4" `Slow
          test_collector_identical_across_jobs;
      ] );
  ]
