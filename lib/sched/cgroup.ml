module Sim = Vessel_engine.Sim
module U = Vessel_uprocess

let shares_achieved_fraction ~setting ~contention =
  if setting < 0. || setting > 1. then
    invalid_arg "Cgroup.shares_achieved_fraction: setting must be in [0,1]";
  if contention < 0. || contention > 1. then
    invalid_arg "Cgroup.shares_achieved_fraction: contention must be in [0,1]";
  (* Work-conserving fair sharing: the app gets its weighted share of the
     contended part plus all of the idle part. *)
  let contended_share = setting /. (setting +. contention) in
  Float.min 1. ((contention *. contended_share) +. (1. -. contention))

type quota = {
  sim : Sim.t;
  period : int;
  mutable budget : int; (* per period, ns *)
  on_refill : unit -> unit;
  mutable period_start : int;
  mutable consumed : int;
  mutable throttled : bool;
}

let quota ~sim ~period ~fraction ~on_refill =
  if period <= 0 then invalid_arg "Cgroup.quota: period must be positive";
  if fraction < 0. || fraction > 1. then
    invalid_arg "Cgroup.quota: fraction must be in [0,1]";
  {
    sim;
    period;
    budget = int_of_float (Float.round (fraction *. float_of_int period));
    on_refill;
    period_start = Sim.now sim;
    consumed = 0;
    throttled = false;
  }

let roll q ~now =
  while now >= q.period_start + q.period do
    q.period_start <- q.period_start + q.period;
    q.consumed <- 0;
    q.throttled <- false
  done

let clip q ns = min ns (max 0 (q.budget - q.consumed))

let wrap q inner ~now =
  roll q ~now;
  if q.budget >= q.period then (* an uncapped quota never throttles *)
    inner ~now
  else if q.consumed >= q.budget then begin
    if not q.throttled then begin
      q.throttled <- true;
      let refill_at = q.period_start + q.period in
      ignore
        (Sim.schedule q.sim ~at:refill_at (fun _ -> q.on_refill ()))
    end;
    U.Uthread.Park
  end
  else
    match inner ~now with
    | U.Uthread.Compute { ns; on_complete } ->
        let ns = clip q ns in
        q.consumed <- q.consumed + ns;
        U.Uthread.Compute { ns; on_complete }
    | U.Uthread.Mem_work { ns; bytes; footprint; on_complete } ->
        let clipped = clip q ns in
        let bytes = if ns = 0 then 0 else bytes * clipped / ns in
        q.consumed <- q.consumed + clipped;
        U.Uthread.Mem_work { ns = clipped; bytes; footprint; on_complete }
    | U.Uthread.Syscall { ns; on_complete } ->
        let ns = clip q ns in
        q.consumed <- q.consumed + ns;
        U.Uthread.Syscall { ns; on_complete }
    | U.Uthread.Runtime_work { ns; on_complete } ->
        let ns = clip q ns in
        q.consumed <- q.consumed + ns;
        U.Uthread.Runtime_work { ns; on_complete }
    | (U.Uthread.Park | U.Uthread.Exit) as a -> a

let set_fraction q fraction =
  if fraction < 0. || fraction > 1. then
    invalid_arg "Cgroup.set_fraction: fraction must be in [0,1]";
  q.budget <- int_of_float (Float.round (fraction *. float_of_int q.period))

let throttled q = q.throttled
