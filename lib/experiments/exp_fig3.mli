(** Figure 3 — the timeline of a core reallocation with Caladan.

    Two views: the calibrated stage-by-stage cost breakdown (ioctl, IPI
    flight, kernel trap + SIGUSR, state save, kernel switch, page-table
    switch, restore — summing to ~5.3 us), and an operational measurement:
    a best-effort hog holds the only core, a latency-critical request
    arrives, and we time how long until its service completes, i.e. the
    full preemption path end to end. *)

type t = {
  stages : (string * int) list;  (** label, ns — cumulative order *)
  stage_total_ns : int;
  measured_preemption_us : float;
      (** wake-to-completion of the single LC request minus its service
          time *)
  observed_ipi_flight_ns : int;
      (** [ipi.send] to [ipi.deliver] distance in the probe stream — the
          run is captured into a {!Vessel_obs.Journal} unconditionally,
          so the report never depends on [--trace] *)
  observed_send_to_dispatch_ns : int;
      (** [ipi.send] to the LC worker's first compute span *)
}

val run : ?seed:int -> unit -> t
val print : t -> unit
