(** Table 1 — the latency of core reallocation.

    Two single-threaded applications bound to the same core park()
    themselves repeatedly; each handoff is one cross-application context
    switch. The paper measures VESSEL at 0.161 us average / 0.706 us p999
    and Caladan at 2.103 / 5.461. *)

type row = {
  system : string;
  avg_us : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  p999_us : float;
  switches : int;
}

val run : ?seed:int -> ?duration:int -> unit -> row list
(** One row per system (VESSEL, Caladan). Default duration 50 ms. *)

val print : row list -> unit
(** Includes the signal-path comparison. *)
