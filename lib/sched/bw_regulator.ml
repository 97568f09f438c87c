module Sim = Vessel_engine.Sim
module Hw = Vessel_hw

type t = {
  membw : Hw.Membw.t;
  app : int;
  target_fraction : float;
  full_rate : float;
  quota : Cgroup.quota;
  mutable fraction : float;
  mutable last_bytes : int;
  mutable last_at : int;
}

let create ~sim ~membw ~app ~target_fraction ~full_rate ?(period = 50_000)
    ~on_refill () =
  if target_fraction < 0. || target_fraction > 1. then
    invalid_arg "Bw_regulator.create: target_fraction must be in [0,1]";
  if full_rate <= 0. then
    invalid_arg "Bw_regulator.create: full_rate must be positive";
  {
    membw;
    app;
    target_fraction;
    full_rate;
    quota =
      Cgroup.quota ~sim ~period ~fraction:target_fraction ~on_refill;
    fraction = target_fraction;
    last_bytes = 0;
    last_at = Sim.now sim;
  }

let wrap t inner ~now = Cgroup.wrap t.quota inner ~now

let adjust t ~now =
  let bytes = Hw.Membw.total_bytes t.membw ~app:t.app in
  let span = now - t.last_at in
  if span > 0 then begin
    let achieved = float_of_int (bytes - t.last_bytes) /. float_of_int span in
    let achieved_fraction = achieved /. t.full_rate in
    let error = t.target_fraction -. achieved_fraction in
    (* Proportional feedback with a conservative gain; clamped. *)
    t.fraction <- Float.max 0. (Float.min 1. (t.fraction +. (0.5 *. error)));
    Cgroup.set_fraction t.quota t.fraction;
    t.last_bytes <- bytes;
    t.last_at <- now
  end
