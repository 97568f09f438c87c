type t = {
  id : int;
  mutable pkru : Pkru.t;
  account : Vessel_stats.Cycle_account.t;
  umwait : Umwait.t;
  rng : Vessel_engine.Rng.t;
}

let create ~id ~rng =
  {
    id;
    pkru = Pkru.all_denied;
    account = Vessel_stats.Cycle_account.create ();
    umwait = Umwait.create ();
    rng;
  }

let id t = t.id
let pkru t = t.pkru
let set_pkru t v =
  if !Vessel_obs.Probe.metrics_on then Vessel_obs.Probe.incr "hw.pkru.writes";
  t.pkru <- v
let account t = t.account
let charge t cat d = Vessel_stats.Cycle_account.charge t.account cat d
let umwait t = t.umwait
let rng t = t.rng
