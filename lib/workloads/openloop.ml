module Sim = Vessel_engine.Sim
module Dist = Vessel_engine.Dist
module Rng = Vessel_engine.Rng
module U = Vessel_uprocess
module S = Vessel_sched
module Stats = Vessel_stats
module Request = Vessel_obs.Request

(* The Poisson arrival chain, on its own so other client models (the
   fleet load balancer) can reuse it against any sink. The chain borrows
   the caller's RNG stream rather than splitting its own: the classic
   open-loop generator interleaves gap draws and service draws on one
   stream, and that interleaving is part of the repo's locked-down
   deterministic output. *)
module Arrivals = struct
  type t = {
    sim : Sim.t;
    rng : Rng.t; (* borrowed; gap draws interleave with the owner's draws *)
    fire : now:int -> unit;
    mutable until : int;
    mutable gap_dist : Dist.t;
        (* exponential with mean [1e9 /. rate_rps], rebuilt in [start] so
           the per-arrival path allocates no distribution *)
    mutable epoch : int; (* invalidates stale chains on rate change *)
    mutable tag : int;
  }

  let rec chain t ~epoch =
    if epoch = t.epoch && Sim.now t.sim < t.until then begin
      t.fire ~now:(Sim.now t.sim);
      schedule_next t ~epoch
    end

  and schedule_next t ~epoch =
    let gap =
      max 1 (int_of_float (Float.round (Dist.sample t.gap_dist t.rng)))
    in
    if Sim.now t.sim + gap < t.until then
      ignore
        (Sim.schedule_tagged_after t.sim ~delay:gap ~tag:t.tag ~a:epoch ~b:0)

  let create ~sim ~rng ~fire =
    let t =
      {
        sim;
        rng;
        fire;
        until = 0;
        gap_dist = Dist.constant 0.;
        epoch = 0;
        tag = -1;
      }
    in
    t.tag <- Sim.register_handler sim (fun epoch _ -> chain t ~epoch);
    t

  let start t ~rate_rps ~until =
    if rate_rps <= 0. then
      invalid_arg "Openloop.Arrivals.start: rate must be positive";
    t.epoch <- t.epoch + 1;
    t.gap_dist <- Dist.exponential ~mean:(1e9 /. rate_rps);
    t.until <- until;
    schedule_next t ~epoch:t.epoch
end

(* Queued requests pack (request id, arrival stamp) into one int:
   arrival in the low 38 bits (the engine's timestamp width), rid above.
   With attribution and tracing off the rid half is 0, so the queue
   contents — and everything downstream — are bit-identical to a build
   without request tracing. *)
let mask38 = (1 lsl 38) - 1

type t = {
  sim : Sim.t;
  sys : S.Sched_intf.system;
  app_id : int;
  service : Dist.t;
  rng : Rng.t; (* shared with [arrivals]: one stream, interleaved draws *)
  arrivals : Arrivals.t;
  requests : int Queue.t; (* packed (rid, arrival timestamp) *)
  latencies : Stats.Histogram.t;
  mutable window_start : int;
  mutable offered : int;
  mutable served : int;
  mutable ingress : (now:int -> int) option;
  (* Sim dispatch tag for ingress-delayed delivery, registered in
     [create]; the steady-state arrival path is closure-free. *)
  mutable deliver_tag : int;
  mutable next_rid : int; (* minted per arrival, flag-independent *)
}

let in_window t at = at >= t.window_start

let completion t packed =
  Some
    (fun finished ->
      let arrived = packed land mask38 in
      if in_window t arrived then begin
        t.served <- t.served + 1;
        Stats.Histogram.record t.latencies (max 0 (finished - arrived))
      end;
      let rid = packed lsr 38 in
      if rid > 0 && !Vessel_obs.Probe.req_on then
        Request.mark (Request.v ~rid Request.Done) ~ts:finished
          ~track:Vessel_obs.Track.Engine)

let sample_service t =
  max 1 (int_of_float (Float.round (Dist.sample t.service t.rng)))

let claim packed =
  (* Hand the popped request's context to the uthread about to serve it. *)
  if packed lsr 38 > 0 && !Vessel_obs.Probe.req_on then
    Request.stash (Request.v ~rid:(packed lsr 38) Request.Enqueue)

let worker_step t ~now:_ =
  match Queue.take_opt t.requests with
  | None -> U.Uthread.Park
  | Some packed ->
      claim packed;
      U.Uthread.Compute
        { ns = sample_service t; on_complete = completion t packed }

let worker_step_mem t ~bytes_per_req ~now:_ =
  match Queue.take_opt t.requests with
  | None -> U.Uthread.Park
  | Some packed ->
      claim packed;
      U.Uthread.Mem_work
        {
          ns = sample_service t;
          bytes = bytes_per_req;
          footprint = None;
          on_complete = completion t packed;
        }

let deliver t ~rid ~arrived =
  Queue.push ((rid lsl 38) lor (arrived land mask38)) t.requests;
  if rid > 0 && !Vessel_obs.Probe.req_on then
    Request.mark
      (Request.v ~rid Request.Enqueue)
      ~ts:(Sim.now t.sim) ~track:Vessel_obs.Track.Engine;
  t.sys.S.Sched_intf.notify_app ~app_id:t.app_id

let inject t =
  let at = Sim.now t.sim in
  if in_window t at then t.offered <- t.offered + 1;
  (* The id is minted unconditionally so the counter — and thus any
     output derived from it — never depends on probe flags. *)
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  let live = !Vessel_obs.Probe.req_on in
  if live then
    Request.mark (Request.v ~rid Request.Arrive) ~ts:at
      ~track:Vessel_obs.Track.Engine;
  let rid = if live then rid else 0 in
  match t.ingress with
  | None -> deliver t ~rid ~arrived:at
  | Some f -> (
      match f ~now:at with
      | d when d <= 0 -> deliver t ~rid ~arrived:at
      | d ->
          if rid > 0 then
            (* The tagged payload's [b] word (38 bits) only fits the
               arrival stamp; rare ingress-delayed deliveries fall back
               to a closure when request tracing is live. Same schedule
               call either way, so event order is unchanged. *)
            ignore
              (Sim.schedule_after t.sim ~delay:d (fun _ ->
                   deliver t ~rid ~arrived:at))
          else
            ignore
              (Sim.schedule_tagged_after t.sim ~delay:d ~tag:t.deliver_tag
                 ~a:0 ~b:at))

let set_ingress t f = t.ingress <- Some f

let create ~sim ~sys ~app_id ~service =
  let rng = Rng.split (Sim.rng sim) in
  (* Tie the knot: the arrival chain registers its dispatch tag first
     (before deliver_tag) to keep tag assignment — and with it every
     locked-down experiment output — identical to the pre-Arrivals
     layout. *)
  let fire_ref = ref (fun ~now:_ -> ()) in
  let arrivals =
    Arrivals.create ~sim ~rng ~fire:(fun ~now -> !fire_ref ~now)
  in
  let t =
    {
      sim;
      sys;
      app_id;
      service;
      rng;
      arrivals;
      requests = Queue.create ();
      latencies = Stats.Histogram.create ();
      window_start = 0;
      offered = 0;
      served = 0;
      ingress = None;
      deliver_tag = -1;
      next_rid = 1;
    }
  in
  fire_ref := (fun ~now:_ -> inject t);
  t.deliver_tag <-
    (* The arrival stamp rides the wide [b] word: it is a timestamp,
       far past the 16-bit [a] range. *)
    Sim.register_handler sim (fun _ arrived -> deliver t ~rid:0 ~arrived);
  t

let start t ~rate_rps ~until =
  if rate_rps <= 0. then invalid_arg "Openloop.start: rate must be positive";
  Arrivals.start t.arrivals ~rate_rps ~until

let start_bursty t ~base_rps ~burst_rps ~burst_len ~period ~until =
  if base_rps <= 0. || burst_rps <= 0. then
    invalid_arg "Openloop.start_bursty: rates must be positive";
  if burst_len <= 0 || period <= burst_len then
    invalid_arg "Openloop.start_bursty: need 0 < burst_len < period";
  let rec phase sim =
    if Sim.now sim < until then begin
      start t ~rate_rps:burst_rps ~until:(min until (Sim.now sim + burst_len));
      ignore
        (Sim.schedule_after sim ~delay:burst_len (fun sim ->
             if Sim.now sim < until then begin
               start t ~rate_rps:base_rps
                 ~until:(min until (Sim.now sim + period - burst_len));
               ignore
                 (Sim.schedule_after sim ~delay:(period - burst_len) phase)
             end))
    end
  in
  ignore (Sim.schedule_after t.sim ~delay:0 phase)

let open_window t ~at =
  t.window_start <- at;
  t.offered <- 0;
  t.served <- 0;
  Stats.Histogram.clear t.latencies

let offered t = t.offered
let served t = t.served
let latencies t = t.latencies

let throughput_rps t ~now =
  let span = now - t.window_start in
  if span <= 0 then 0. else float_of_int t.served /. (float_of_int span /. 1e9)
