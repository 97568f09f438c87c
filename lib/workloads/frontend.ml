(* The fleet's request router: Zipf-keyed open-loop clients in, one
   load-balancing decision per request, cross-machine links out to the
   backends and back. See frontend.mli for the measurement and
   determinism contracts. *)

module Sim = Vessel_engine.Sim
module Dist = Vessel_engine.Dist
module Rng = Vessel_engine.Rng
module Cluster = Vessel_cluster.Cluster
module Net = Vessel_cluster.Net
module U = Vessel_uprocess
module S = Vessel_sched
module Stats = Vessel_stats
module Obs = Vessel_obs
module Request = Vessel_obs.Request

type policy = Round_robin | Least_loaded | Consistent_hash

let policy_name = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Consistent_hash -> "consistent-hash"

let policy_of_string = function
  | "round-robin" | "rr" -> Some Round_robin
  | "least-loaded" | "ll" -> Some Least_loaded
  | "consistent-hash" | "ch" -> Some Consistent_hash
  | _ -> None

let all_policies = [ Round_robin; Least_loaded; Consistent_hash ]

type req = { key : int; t0 : int; rid : int }
type resp = { r_t0 : int; r_ix : int; r_rid : int }

(* Backend queue entries pack (request id, dispatch stamp) into one int,
   same layout as Openloop's request queue: stamp in the low 38 bits
   (the engine's timestamp width), rid above. *)
let mask38 = (1 lsl 38) - 1

type backend = {
  b_machine : int; (* cluster machine id *)
  b_sys : S.Sched_intf.system;
  b_rng : Rng.t; (* service draws, split off the backend's own sim *)
  b_queue : int Queue.t; (* packed (rid, t0 stamp) awaiting a worker *)
  served_metric : string;
}

type t = {
  cluster : Cluster.t;
  fe : int; (* frontend's cluster machine id *)
  fe_sim : Sim.t;
  policy : policy;
  service : Dist.t;
  lb_rng : Rng.t; (* key draws, split off the frontend's sim *)
  key_dist : Dist.t;
  backends : backend array;
  req_link : req Net.t;
  resp_link : resp Net.t;
  mutable arrivals : Openloop.Arrivals.t option;
  (* ring: (hash, backend index) sorted by hash — consistent hashing *)
  ring : (int * int) array;
  mutable rr_next : int;
  n_inflight : int array;
  up : bool array;
  (* window-scoped measurement; all touched only by frontend events *)
  agg : Stats.Histogram.t;
  per : Stats.Histogram.t array;
  mutable window_start : int;
  mutable n_offered : int;
  mutable n_served : int;
  mutable n_dropped : int;
  n_dispatched : int array;
  n_served_by : int array;
  mutable next_rid : int; (* minted per arrival, flag-independent *)
  (* Distinct high bits per frontend instance: several experiment points
     share one trace file and restart rids at 1, so raw rids would
     cross-connect flow arrows between unrelated points. *)
  flow_base : int;
}

(* A deterministic 62-bit integer mixer (splitmix-style finalizer with
   63-bit-safe constants) for key and virtual-node placement. *)
let mix z =
  let z = z lxor (z lsr 33) in
  let z = z * 0x2545F4914F6CDD1D in
  let z = z lxor (z lsr 29) in
  let z = z * 0x1B873593 in
  let z = z lxor (z lsr 32) in
  z land max_int

let in_window t at = at >= t.window_start

(* ---- routing ----------------------------------------------------- *)

let pick_round_robin t =
  let n = Array.length t.backends in
  let rec scan tried i =
    if tried = n then None
    else if t.up.(i) then begin
      t.rr_next <- (i + 1) mod n;
      Some i
    end
    else scan (tried + 1) ((i + 1) mod n)
  in
  scan 0 t.rr_next

let pick_least_loaded t =
  let best = ref (-1) in
  Array.iteri
    (fun i up ->
      if up && (!best < 0 || t.n_inflight.(i) < t.n_inflight.(!best)) then
        best := i)
    t.up;
  if !best < 0 then None else Some !best

let pick_consistent t key =
  let ring = t.ring in
  let len = Array.length ring in
  let h = mix key in
  (* First ring entry with hash >= h (wrapping). *)
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst ring.(mid) < h then lo := mid + 1 else hi := mid
  done;
  let start = if !lo = len then 0 else !lo in
  (* Walk clockwise past down backends. *)
  let rec walk tried i =
    if tried = len then None
    else
      let ix = snd ring.(i) in
      if t.up.(ix) then Some ix else walk (tried + 1) ((i + 1) mod len)
  in
  walk 0 start

let pick t key =
  match t.policy with
  | Round_robin -> pick_round_robin t
  | Least_loaded -> pick_least_loaded t
  | Consistent_hash -> pick_consistent t key

(* ---- datapath ---------------------------------------------------- *)

let on_arrival t ~now =
  if in_window t now then t.n_offered <- t.n_offered + 1;
  let key = int_of_float (Dist.sample t.key_dist t.lb_rng) in
  (* The id is minted unconditionally so the counter — and thus any
     output derived from it — never depends on probe flags. *)
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  let live = !Obs.Probe.req_on in
  if live then
    Request.mark (Request.v ~rid Request.Arrive) ~ts:now ~track:Obs.Track.Engine;
  match pick t key with
  | None ->
      if in_window t now then t.n_dropped <- t.n_dropped + 1;
      if !Obs.Probe.metrics_on then Obs.Probe.incr "fleet.dropped"
  | Some ix ->
      t.n_inflight.(ix) <- t.n_inflight.(ix) + 1;
      if in_window t now then t.n_dispatched.(ix) <- t.n_dispatched.(ix) + 1;
      if live then begin
        Request.mark (Request.v ~rid Request.Lb) ~ts:now ~track:Obs.Track.Engine;
        if !Obs.Probe.on then
          Obs.Probe.flow ~ts:now ~track:Obs.Track.Engine ~name:Obs.Tag.req_flow
            ~id:(t.flow_base lor rid) ~dir:Obs.Event.Flow_start
      end;
      Net.send t.req_link ~src:t.fe ~dst:t.backends.(ix).b_machine
        { key; t0 = now; rid = (if live then rid else 0) }

let on_response t ~now (r : resp) =
  let ix = r.r_ix in
  t.n_inflight.(ix) <- t.n_inflight.(ix) - 1;
  if r.r_t0 >= t.window_start then begin
    t.n_served <- t.n_served + 1;
    t.n_served_by.(ix) <- t.n_served_by.(ix) + 1;
    let sojourn = max 0 (now - r.r_t0) in
    Stats.Histogram.record t.agg sojourn;
    Stats.Histogram.record t.per.(ix) sojourn;
    if !Obs.Probe.metrics_on then Obs.Probe.incr t.backends.(ix).served_metric
  end;
  if r.r_rid > 0 && !Obs.Probe.req_on then begin
    Request.mark
      (Request.v ~rid:r.r_rid Request.Done)
      ~ts:now ~track:Obs.Track.Engine;
    if !Obs.Probe.on then
      Obs.Probe.flow ~ts:now ~track:Obs.Track.Engine ~name:Obs.Tag.req_flow
        ~id:(t.flow_base lor r.r_rid) ~dir:Obs.Event.Flow_end
  end

let sample_service t bk =
  max 1 (int_of_float (Float.round (Dist.sample t.service bk.b_rng)))

let worker_step t ix bk ~now:_ =
  match Queue.take_opt bk.b_queue with
  | None -> U.Uthread.Park
  | Some packed ->
      let t0 = packed land mask38 and rid = packed lsr 38 in
      (* Hand the popped request's context to the uthread about to
         serve it. *)
      if rid > 0 && !Obs.Probe.req_on then
        Request.stash (Request.v ~rid Request.Enqueue);
      U.Uthread.Compute
        {
          ns = sample_service t bk;
          on_complete =
            Some
              (fun finished ->
                if rid > 0 && !Obs.Probe.req_on then
                  Request.mark
                    (Request.v ~rid Request.Complete)
                    ~ts:finished ~track:Obs.Track.Engine;
                Net.send t.resp_link ~src:bk.b_machine ~dst:t.fe
                  { r_t0 = t0; r_ix = ix; r_rid = rid });
        }

(* ---- setup ------------------------------------------------------- *)

(* Per-instance flow-id salt, derived from the collector's fork-
   structure key: stable under -j (a creation-order counter would shift
   with worker-domain interleaving and across repeated runs in one
   process) and distinct across experiment points sharing a trace
   file. *)
let flow_salt () =
  let key = Obs.Collector.current_key () in
  let h = List.fold_left (fun acc k -> mix (acc lxor (k + 0x9E37))) 1 key in
  (h land 0x7FFFFF) lsl 40

let build_ring ~backends ~vnodes =
  let entries =
    Array.init (backends * vnodes) (fun k ->
        let ix = k / vnodes and v = k mod vnodes in
        (mix ((ix * 1_000_003) + v), ix))
  in
  Array.sort compare entries;
  entries

let create ~cluster ~frontend ~policy ?(keys = 1_000_000) ?(zipf_s = 1.1)
    ?(vnodes = 64) ~service ~workers ~backends () =
  if backends = [] then invalid_arg "Frontend.create: no backends";
  let fe_sim = Cluster.sim cluster frontend in
  let n = List.length backends in
  let flow_base = flow_salt () in
  let req_link =
    Net.link ~name:"fleet.req"
      ~flow_of:(fun (r : req) -> if r.rid > 0 then flow_base lor r.rid else 0)
      cluster
  in
  let resp_link =
    Net.link ~name:"fleet.resp"
      ~flow_of:(fun (r : resp) ->
        if r.r_rid > 0 then flow_base lor r.r_rid else 0)
      cluster
  in
  let bks =
    Array.of_list
      (List.map
         (fun (machine, sys) ->
           if machine = frontend then
             invalid_arg "Frontend.create: backend on the frontend machine";
           {
             b_machine = machine;
             b_sys = sys;
             b_rng = Rng.split (Sim.rng (Cluster.sim cluster machine));
             b_queue = Queue.create ();
             served_metric = Printf.sprintf "fleet.b%d.served" machine;
           })
         backends)
  in
  let t =
    {
      cluster;
      fe = frontend;
      fe_sim;
      policy;
      service;
      lb_rng = Rng.split (Sim.rng fe_sim);
      key_dist = Dist.zipf ~s:zipf_s ~n:keys;
      backends = bks;
      req_link;
      resp_link;
      arrivals = None;
      ring = build_ring ~backends:n ~vnodes;
      rr_next = 0;
      n_inflight = Array.make n 0;
      up = Array.make n true;
      agg = Stats.Histogram.create ();
      per = Array.init n (fun _ -> Stats.Histogram.create ());
      window_start = 0;
      n_offered = 0;
      n_served = 0;
      n_dropped = 0;
      n_dispatched = Array.make n 0;
      n_served_by = Array.make n 0;
      next_rid = 1;
      flow_base;
    }
  in
  (* Backend side: one LC app + server workers per machine; requests
     arrive over the link and nudge that machine's scheduler. *)
  Array.iteri
    (fun ix bk ->
      bk.b_sys.S.Sched_intf.add_app
        {
          S.Sched_intf.id = 1;
          name = "fleet-srv";
          class_ = S.Sched_intf.Latency_critical;
        };
      for w = 0 to workers - 1 do
        ignore
          (bk.b_sys.S.Sched_intf.add_worker ~app_id:1
             ~name:(Printf.sprintf "fs%d-w%d" ix w)
             ~step:(worker_step t ix bk))
      done;
      Net.on_receive req_link ~machine:bk.b_machine (fun ~now ~src:_ r ->
          Queue.push ((r.rid lsl 38) lor (r.t0 land mask38)) bk.b_queue;
          if r.rid > 0 && !Obs.Probe.req_on then
            Request.mark
              (Request.v ~rid:r.rid Request.Enqueue)
              ~ts:now ~track:Obs.Track.Engine;
          bk.b_sys.S.Sched_intf.notify_app ~app_id:1))
    bks;
  (* Frontend side: responses land here; arrivals drive the router. *)
  Net.on_receive resp_link ~machine:frontend (fun ~now ~src:_ r ->
      on_response t ~now r);
  t.arrivals <-
    Some
      (Openloop.Arrivals.create ~sim:fe_sim ~rng:t.lb_rng ~fire:(fun ~now ->
           on_arrival t ~now));
  t

let arrivals t =
  match t.arrivals with Some a -> a | None -> assert false

let start t ~rate_rps ~until =
  if rate_rps <= 0. then invalid_arg "Frontend.start: rate must be positive";
  Openloop.Arrivals.start (arrivals t) ~rate_rps ~until

let open_window t ~at =
  t.window_start <- at;
  t.n_offered <- 0;
  t.n_served <- 0;
  t.n_dropped <- 0;
  Stats.Histogram.clear t.agg;
  Array.iter Stats.Histogram.clear t.per;
  Array.fill t.n_dispatched 0 (Array.length t.n_dispatched) 0;
  Array.fill t.n_served_by 0 (Array.length t.n_served_by) 0

let set_backend_up t ix up = t.up.(ix) <- up

let schedule_rolling_restart t ~start ~gap ~down_for =
  Array.iteri
    (fun i _ ->
      let down_at = start + (i * gap) in
      ignore
        (Sim.schedule t.fe_sim ~at:down_at (fun _ -> t.up.(i) <- false));
      ignore
        (Sim.schedule t.fe_sim ~at:(down_at + down_for) (fun _ ->
             t.up.(i) <- true)))
    t.backends

let offered t = t.n_offered
let served t = t.n_served
let dropped t = t.n_dropped
let latencies t = t.agg
let backend_latencies t ix = t.per.(ix)
let dispatched t ix = t.n_dispatched.(ix)
let served_by t ix = t.n_served_by.(ix)
let inflight t ix = t.n_inflight.(ix)
