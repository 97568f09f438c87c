(** VESSEL's fine-grained bandwidth regulation (section 6.3.4).

    Because a uProcess core switch costs ~161 ns, VESSEL can enforce a CPU
    quota with quanta three orders of magnitude shorter than cgroup's
    100 ms periods — short enough that the duty cycle tracks the target
    bandwidth fraction almost exactly (Figure 13b). The regulator is the
    same duty-cycling mechanism as {!Cgroup.quota}, instantiated with a
    50 us period, plus a feedback term that measures achieved bandwidth
    from the memory controller and nudges the duty cycle. *)

type t

val create :
  sim:Vessel_engine.Sim.t ->
  membw:Vessel_hw.Membw.t ->
  app:int ->
  target_fraction:float ->
  full_rate:float ->
  ?period:int ->
  on_refill:(unit -> unit) ->
  unit ->
  t
(** [full_rate] is the app's unthrottled bandwidth (bytes/ns), measured by
    a calibration run. [period] defaults to 50 us. *)

val wrap :
  t ->
  (now:Vessel_engine.Time.t -> Vessel_uprocess.Uthread.action) ->
  now:Vessel_engine.Time.t ->
  Vessel_uprocess.Uthread.action

val adjust : t -> now:Vessel_engine.Time.t -> unit
(** Feedback pass: compare achieved bandwidth with the target and adapt
    the duty cycle. Call periodically (e.g. every ms). *)
