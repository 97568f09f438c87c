module Sim = Vessel_engine.Sim
module Probe = Vessel_obs.Probe
module Tag = Vessel_obs.Tag

type t = {
  sim : Sim.t;
  cost : Cost_model.t;
  inject : Inject.t option;
  mutable sent : int;
}

let create ?inject sim cost = { sim; cost; inject; sent = 0 }

let send t ~to_core ~on_deliver =
  t.sent <- t.sent + 1;
  if !Probe.metrics_on then Probe.incr "hw.ipi.sent";
  let base = t.cost.Cost_model.ioctl + t.cost.Cost_model.ipi_flight in
  let extra, spurious =
    match t.inject with
    | Some inj when inj.Inject.enabled ->
        (inj.Inject.ipi_extra (), inj.Inject.ipi_spurious ())
    | _ -> (0, 0)
  in
  let delay = base + extra in
  let track = Vessel_obs.Track.Core to_core in
  if !Probe.on then begin
    Probe.instant ~ts:(Sim.now t.sim) ~track ~name:Tag.ipi_send ();
    ignore
      (Sim.schedule_after t.sim ~delay (fun sim ->
           Probe.instant ~ts:(Sim.now sim) ~track ~name:Tag.ipi_deliver ();
           on_deliver sim))
  end
  else ignore (Sim.schedule_after t.sim ~delay on_deliver);
  if spurious > 0 then begin
    (* A duplicate delivery of the same interrupt: the victim's kernel
       preemption path runs twice. Receivers must be idempotent. *)
    if !Probe.on then
      Probe.instant ~ts:(Sim.now t.sim) ~track ~name:Tag.inject_ipi_spurious ();
    if !Probe.metrics_on then Probe.incr "inject.ipi.spurious";
    ignore (Sim.schedule_after t.sim ~delay:(delay + spurious) on_deliver)
  end

let send_tagged t ~to_core ~tag ~a ~b =
  t.sent <- t.sent + 1;
  if !Probe.metrics_on then Probe.incr "hw.ipi.sent";
  let base = t.cost.Cost_model.ioctl + t.cost.Cost_model.ipi_flight in
  let extra, spurious =
    match t.inject with
    | Some inj when inj.Inject.enabled ->
        (inj.Inject.ipi_extra (), inj.Inject.ipi_spurious ())
    | _ -> (0, 0)
  in
  let delay = base + extra in
  if !Probe.on then begin
    (* Probes cost allocations anyway; route through a closure so the
       deliver instant lands on the trace, then reuse the registered
       handler via [dispatch_tag] so both paths run identical code. *)
    let track = Vessel_obs.Track.Core to_core in
    Probe.instant ~ts:(Sim.now t.sim) ~track ~name:Tag.ipi_send ();
    ignore
      (Sim.schedule_after t.sim ~delay (fun sim ->
           Probe.instant ~ts:(Sim.now sim) ~track ~name:Tag.ipi_deliver ();
           Sim.dispatch_tag sim ~tag ~a ~b))
  end
  else ignore (Sim.schedule_tagged_after t.sim ~delay ~tag ~a ~b);
  if spurious > 0 then begin
    (* A duplicate delivery of the same interrupt: the victim's kernel
       preemption path runs twice. Receivers must be idempotent. The
       duplicate never carried a deliver instant, so it is tagged even
       when probes are on. *)
    if !Probe.on then
      Probe.instant ~ts:(Sim.now t.sim)
        ~track:(Vessel_obs.Track.Core to_core)
        ~name:Tag.inject_ipi_spurious ();
    if !Probe.metrics_on then Probe.incr "inject.ipi.spurious";
    ignore (Sim.schedule_tagged_after t.sim ~delay:(delay + spurious) ~tag ~a ~b)
  end

let sent t = t.sent
