(* The probe layer instrumented code calls into. Call sites guard on
   [!on] / [!metrics_on] themselves, so a disabled probe costs one load
   and one branch — the compiled-down "single branch" the Null sink
   promises. *)

type state = { mutable sink : Sink.t; mutable reg : Metrics.t option }

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { sink = Sink.null; reg = None })

let state () = Domain.DLS.get state_key
let on = ref false
let metrics_on = ref false

(* Request-attribution gate (--attrib). Independent of [on]: attribution
   stamps bypass the sink and go straight to the per-lane recorder, so
   enabling it must not drag full tracing in. *)
let attrib_on = ref false

(* [!on || !attrib_on], pre-combined so request-mark call sites pay one
   load and one branch — a cross-module [Request.live ()] call would not
   inline without flambda. Updated wherever either input flips. *)
let req_on = ref false

(* [on] is true when a trace file is configured globally or any domain is
   inside a [with_sink] scope. Every change to these inputs republishes
   the flags under one lock, so a domain leaving its scope cannot write a
   stale [false] over the scope another domain has just entered. *)
let trace_configured = ref false
let metrics_configured = ref false
let local_scopes = ref 0
let lock = Mutex.create ()

let update change =
  Mutex.protect lock (fun () ->
      change ();
      on := !trace_configured || !local_scopes > 0;
      metrics_on := !metrics_configured || !local_scopes > 0;
      req_on := !on || !attrib_on)

let set_trace_configured v = update (fun () -> trace_configured := v)
let set_metrics_configured v = update (fun () -> metrics_configured := v)
let set_attrib_configured v = update (fun () -> attrib_on := v)

let install ~sink ~reg =
  let st = state () in
  st.sink <- sink;
  st.reg <- reg

let current_sink () = (state ()).sink
let current_reg () = (state ()).reg
let emit ev = Sink.emit (state ()).sink ev

let span_begin ~ts ~track ~name ?(args = []) () =
  emit (Event.Span_begin { ts; track; name; args })

let span_end ~ts ~track = emit (Event.Span_end { ts; track })

let instant ~ts ~track ~name ?(args = []) () =
  emit (Event.Instant { ts; track; name; args })

let counter ~ts ~track ~name ~value =
  emit (Event.Counter { ts; track; name; value })

let flow ~ts ~track ~name ~id ~dir = emit (Event.Flow { ts; track; name; id; dir })

let process ~name = emit (Event.Process { name })

let incr ?by name =
  match (state ()).reg with Some reg -> Metrics.incr ?by reg name | None -> ()

let observe name v =
  match (state ()).reg with Some reg -> Metrics.observe reg name v | None -> ()

let set_gauge name v =
  match (state ()).reg with Some reg -> Metrics.set_gauge reg name v | None -> ()

let with_sink ?reg sink f =
  let st = state () in
  let saved_sink = st.sink in
  let saved_reg = st.reg in
  st.sink <- Sink.tee sink saved_sink;
  (match reg with Some _ -> st.reg <- reg | None -> ());
  update (fun () -> Stdlib.incr local_scopes);
  Fun.protect
    ~finally:(fun () ->
      st.sink <- saved_sink;
      st.reg <- saved_reg;
      update (fun () -> Stdlib.decr local_scopes))
    f
