module Event = Vessel_obs.Event
module Track = Vessel_obs.Track
module Tag = Vessel_obs.Tag
module Sink = Vessel_obs.Sink
module Stats = Vessel_stats
module Hw = Vessel_hw

type config = {
  wakeup_bound : int;
  gap_bound : int;
  conservation_tol : float;
  max_violations : int;
}

let default_config =
  {
    (* uintr_delivery is 380 ns and the worst injected drop-retry is
       ~9.5 us; 50 us of slack separates "slow under chaos" from "lost". *)
    wakeup_bound = 50_000;
    (* Execution-gap bound, measured enqueue -> dispatch: LC threads must
       be dispatched eventually even with best-effort work monopolizing
       cores, and a popped-but-never-run thread still counts. The literal
       overload_delay (2 us) only bounds the scheduler's *reaction*, not
       end-to-end queueing under load, so the liveness bound is generous:
       an LC thread runnable but unscheduled for 5 ms means the
       preemption path is broken, not slow. *)
    gap_bound = 5_000_000;
    conservation_tol = 0.02;
    max_violations = 16;
  }

type violation = { at : int; invariant : string; detail : string }

(* Mirror of Task_queue's discipline, reconstructed from probe events:
   FIFO arrivals in front of which push_front stacks its entries. *)
type qmodel = {
  order : int Queue.t;
  mutable front : int list; (* newest first *)
}

type t = {
  config : config;
  scan_every : int;
  mutable now : int;
  mutable events : int;
  mutable total : int;
  mutable violations : violation list; (* newest first *)
  pending_sends : (int, int) Hashtbl.t; (* core -> first unmatched send ts *)
  (* Cleared only by a dispatch stamp (queue_pop does not clear it): the
     execution-gap invariant measures the full enqueue -> on-CPU window,
     so the scheduler does not get credit for popping a thread it never
     actually ran. *)
  gap_ready : (int, int) Hashtbl.t; (* tid -> ready-since ts *)
  queues : (int, qmodel) Hashtbl.t;
  core_pkru : (int, int) Hashtbl.t; (* core -> pkru of last dispatch *)
  mutable last_scan : int;
  (* Cross-machine causality (cluster runs): the horizon this machine
     has executed to, and the cluster lookahead it advertised. One
     checker per machine — the harness installs one sink per cluster
     scope — so these never mix across machines. *)
  mutable cl_horizon : int;
  mutable cl_lookahead : int;
}

let create ?(config = default_config) () =
  {
    config;
    scan_every = max 1_000 (min config.wakeup_bound config.gap_bound / 2);
    now = 0;
    events = 0;
    total = 0;
    violations = [];
    pending_sends = Hashtbl.create 8;
    gap_ready = Hashtbl.create 64;
    queues = Hashtbl.create 8;
    core_pkru = Hashtbl.create 8;
    last_scan = 0;
    cl_horizon = 0;
    cl_lookahead = 0;
  }

let violations t = List.rev t.violations
let total_violations t = t.total
let events_seen t = t.events
let clean t = t.total = 0

let violate t ~at ~invariant detail =
  t.total <- t.total + 1;
  if t.total <= t.config.max_violations then
    t.violations <- { at; invariant; detail } :: t.violations

let arg_int args key =
  match List.assoc_opt key args with
  | Some (Event.Int i) -> Some i
  | _ -> None

let qmodel t q =
  match Hashtbl.find_opt t.queues q with
  | Some m -> m
  | None ->
      let m = { order = Queue.create (); front = [] } in
      Hashtbl.add t.queues q m;
      m

let model_pop m =
  match m.front with
  | tid :: rest ->
      m.front <- rest;
      Some tid
  | [] -> Queue.take_opt m.order

(* Sorted snapshot of a (key -> ts) table: scan output must not depend on
   hash-bucket order, or verdicts could differ between environments. *)
let aged tbl ~now ~bound =
  Hashtbl.fold
    (fun k ts acc -> if now - ts > bound then (k, ts) :: acc else acc)
    tbl []
  |> List.sort compare

let scan t =
  List.iter
    (fun (core, ts) ->
      Hashtbl.remove t.pending_sends core;
      violate t ~at:t.now ~invariant:"lost-wakeup"
        (Printf.sprintf
           "core %d: uintr.send at %d unmatched by handle/ack for %d ns \
            (bound %d)"
           core ts (t.now - ts) t.config.wakeup_bound))
    (aged t.pending_sends ~now:t.now ~bound:t.config.wakeup_bound);
  List.iter
    (fun (tid, ts) ->
      Hashtbl.remove t.gap_ready tid;
      violate t ~at:t.now ~invariant:"gap"
        (Printf.sprintf
           "tid %d: latency-critical, runnable since %d, unscheduled for %d \
            ns (bound %d)"
           tid ts (t.now - ts) t.config.gap_bound))
    (aged t.gap_ready ~now:t.now ~bound:t.config.gap_bound)

let core_of = function Track.Core c -> Some c | _ -> None

let on_instant t ~ts ~track ~name ~args =
  if String.equal name Tag.uintr_send then (
    match core_of track with
    | Some core ->
        if not (Hashtbl.mem t.pending_sends core) then
          Hashtbl.add t.pending_sends core ts
    | None -> ())
  else if String.equal name Tag.uintr_handle || String.equal name Tag.uintr_ack
  then (
    match core_of track with
    | Some core -> Hashtbl.remove t.pending_sends core
    | None -> ())
  else if String.equal name Tag.dispatch then begin
    (match arg_int args "tid" with
    | Some tid -> (
        match Hashtbl.find_opt t.gap_ready tid with
        | Some ready ->
            Hashtbl.remove t.gap_ready tid;
            (* The exact gap, measured at the dispatch that closes it. *)
            if ts - ready > t.config.gap_bound then
              violate t ~at:ts ~invariant:"gap"
                (Printf.sprintf
                   "tid %d: latency-critical, runnable since %d, dispatched \
                    only after %d ns (bound %d)"
                   tid ready (ts - ready) t.config.gap_bound)
        | None -> ())
    | None -> ());
    match (core_of track, arg_int args "pkru") with
    | Some core, Some pkru -> Hashtbl.replace t.core_pkru core pkru
    | _ -> ()
  end
  else if
    String.equal name Tag.queue_push || String.equal name Tag.queue_push_front
  then (
    match (arg_int args "q", arg_int args "tid") with
    | Some q, Some tid ->
        let m = qmodel t q in
        if String.equal name Tag.queue_push then Queue.push tid m.order
        else m.front <- tid :: m.front;
        if arg_int args "lc" = Some 1 && not (Hashtbl.mem t.gap_ready tid)
        then
          Hashtbl.add t.gap_ready tid
            (match arg_int args "at" with Some at -> at | None -> ts)
    | _ -> ())
  else if String.equal name Tag.queue_pop then (
    match (arg_int args "q", arg_int args "tid") with
    | Some q, Some tid -> (
        match model_pop (qmodel t q) with
        | Some tid' when tid' = tid -> ()
        | Some tid' ->
            violate t ~at:t.now ~invariant:"fifo"
              (Printf.sprintf "queue %d: popped tid %d, FIFO head was tid %d"
                 q tid tid')
        | None ->
            violate t ~at:t.now ~invariant:"fifo"
              (Printf.sprintf "queue %d: popped tid %d from an empty queue" q
                 tid))
    | _ -> ())
  else if String.equal name Tag.cluster_epoch then (
    (* Conservative-sync stride rule: an epoch may advance this machine
       at most [lookahead] past the last barrier. *)
    match (arg_int args "until", arg_int args "lookahead") with
    | Some until, Some lookahead ->
        if t.cl_lookahead > 0 && lookahead <> t.cl_lookahead then
          violate t ~at:ts ~invariant:"causality"
            (Printf.sprintf "cluster lookahead changed mid-run: %d -> %d"
               t.cl_lookahead lookahead);
        t.cl_lookahead <- lookahead;
        if until > t.cl_horizon + lookahead then
          violate t ~at:ts ~invariant:"causality"
            (Printf.sprintf
               "epoch to %d overruns barrier %d + lookahead %d" until
               t.cl_horizon lookahead);
        if until > t.cl_horizon then t.cl_horizon <- until
    | _ -> ())
  else if String.equal name Tag.cluster_deliver then (
    (* A cross-machine message flushed at the barrier must land strictly
       after everything this machine already executed, and its link must
       honor the lookahead bound. *)
    match (arg_int args "sent", arg_int args "arrival") with
    | Some sent, Some arrival ->
        if arrival <= t.cl_horizon then
          violate t ~at:ts ~invariant:"causality"
            (Printf.sprintf
               "message (sent %d) delivered at %d, inside the executed \
                horizon %d"
               sent arrival t.cl_horizon);
        if t.cl_lookahead > 0 && arrival - sent < t.cl_lookahead then
          violate t ~at:ts ~invariant:"causality"
            (Printf.sprintf
               "message latency %d below cluster lookahead %d"
               (arrival - sent) t.cl_lookahead)
    | _ -> ())
  else if String.equal name Tag.gate_enter || String.equal name Tag.gate_leave
  then
    match (arg_int args "pkru", arg_int args "expected") with
    | Some pkru, Some expected ->
        if pkru <> expected then
          violate t ~at:ts ~invariant:"pkru"
            (Printf.sprintf
               "%s: core PKRU %#x differs from the image the crossing \
                installed (%#x)"
               name pkru expected);
        if String.equal name Tag.gate_leave then (
          (* The image restored on the way out must be the one the last
             dispatch published for this core. *)
          match core_of track with
          | Some core -> (
              match Hashtbl.find_opt t.core_pkru core with
              | Some published when published <> expected ->
                  violate t ~at:ts ~invariant:"pkru"
                    (Printf.sprintf
                       "gate.leave: core %d restored %#x but the last \
                        dispatch published %#x"
                       core expected published)
              | _ -> ())
          | None -> ())
    | _ -> ()

let handle t ev =
  t.events <- t.events + 1;
  (* The running clock is the max event time seen, never wound back by
     an event stamped earlier (a Process marker carries ts 0). *)
  let ts = Event.ts ev in
  if ts > t.now then t.now <- ts;
  (match ev with
  | Event.Instant { ts; track; name; args } -> on_instant t ~ts ~track ~name ~args
  | Event.Process _ | Event.Span_begin _ | Event.Span_end _ | Event.Counter _
  | Event.Flow _ ->
      ());
  if t.now - t.last_scan >= t.scan_every then begin
    t.last_scan <- t.now;
    scan t
  end

let sink t = Sink.of_fn (handle t)

let finalize ?machine ~elapsed t =
  if elapsed > t.now then t.now <- elapsed;
  scan t;
  match machine with
  | None -> ()
  | Some machine ->
      (* Cycle conservation: every core's busy + idle + switch time must
         add up to the wall clock. Injected stalls and jitters are all
         charged as overhead, so the identity survives chaos; the caller
         must have stopped the system (partial segments are charged at
         stop). *)
      Array.iteri
        (fun i core ->
          let total =
            Stats.Cycle_account.grand_total (Hw.Core.account core)
          in
          let drift = abs (total - elapsed) in
          if float_of_int drift > t.config.conservation_tol *. float_of_int elapsed
          then
            violate t ~at:t.now ~invariant:"conservation"
              (Printf.sprintf
                 "core %d: accounted %d ns of %d ns elapsed (drift %d, tol \
                  %.1f%%)"
                 i total elapsed drift
                 (100. *. t.config.conservation_tol)))
        (Hw.Machine.cores machine)

let pp_violation ppf v =
  Format.fprintf ppf "[%s] at=%d %s" v.invariant v.at v.detail
