(** A request router in front of a fleet of backend machines.

    The frontend occupies one machine of a {!Vessel_cluster.Cluster.t}
    and models the aggregate of millions of users as an open-loop
    Poisson stream (reusing {!Openloop.Arrivals}) whose requests carry
    keys drawn from a Zipf popularity distribution. Each arrival is
    routed to a backend machine by the configured load-balancing policy
    and crosses a {!Vessel_cluster.Net} link (latency >= the cluster
    lookahead); the backend serves it on its own scheduler system —
    VESSEL or any baseline — and the response crosses back. Latency is
    measured frontend-to-frontend, so it includes both network hops,
    backend queueing and scheduling.

    "Down" backends (rolling restarts, {!set_backend_up}) stop receiving
    new requests but drain what they already queued — a graceful
    restart. If every backend is down, arrivals are counted as dropped.

    Determinism: the router draws keys from its own stream split off the
    frontend machine's simulation; each backend samples service times
    from a stream split off its own machine's simulation. Nothing
    depends on domain scheduling, so fleet runs are byte-identical at
    any [-j]. *)

type t

type policy = Round_robin | Least_loaded | Consistent_hash

val policy_name : policy -> string
val policy_of_string : string -> policy option
(** Accepts canonical names and the short forms [rr]/[ll]/[ch]. *)

val all_policies : policy list

val create :
  cluster:Vessel_cluster.Cluster.t ->
  frontend:int ->
  policy:policy ->
  ?keys:int ->
  ?zipf_s:float ->
  ?vnodes:int ->
  service:Vessel_engine.Dist.t ->
  workers:int ->
  backends:(int * Vessel_sched.Sched_intf.system) list ->
  unit ->
  t
(** Wire the router on machine [frontend] to the given backend machines
    (cluster machine id paired with that machine's scheduler system;
    list order defines backend indices 0..n-1). On each backend this
    registers one latency-critical app with [workers] server threads
    drawing from [service]. [keys] (default 1_000_000) and [zipf_s]
    (default 1.1) shape key popularity; [vnodes] (default 64) is the
    consistent-hash ring's virtual nodes per backend. Call at setup
    time, before the systems start. *)

val start : t -> rate_rps:float -> until:Vessel_engine.Time.t -> unit
(** Aggregate client arrival rate across the whole fleet. *)

val open_window : t -> at:Vessel_engine.Time.t -> unit
(** Reset all measurements; record only requests arriving at/after
    [at]. *)

val set_backend_up : t -> int -> bool -> unit
(** Mark backend index up/down for routing (graceful drain). Only call
    from frontend-machine events or between runs. *)

val schedule_rolling_restart :
  t ->
  start:Vessel_engine.Time.t ->
  gap:Vessel_engine.Time.t ->
  down_for:Vessel_engine.Time.t ->
  unit
(** Take each backend down in index order — backend i from
    [start + i*gap] for [down_for] ns — like a fleet-wide binary roll. *)

(** {2 Measurements} (window-scoped unless noted) *)

val offered : t -> int
val served : t -> int
val dropped : t -> int

val latencies : t -> Vessel_stats.Histogram.t
(** Aggregate frontend-to-frontend sojourn times. *)

val backend_latencies : t -> int -> Vessel_stats.Histogram.t
val dispatched : t -> int -> int
(** Requests routed to backend i inside the window. *)

val served_by : t -> int -> int
val inflight : t -> int -> int
(** Outstanding requests at backend i right now (not windowed). *)
