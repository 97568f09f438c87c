(** The hwlat-tracer / schedgaps execution-gap workload.

    Each tracer thread busy-spins through a window of [chunks] compute
    chunks of [chunk_ns] each, parks for [sleep_ns], and repeats until
    [until]. Every chunk completion reads the simulated clock and books
    the delay beyond the chunk length as a scheduling gap:

    - the window's {e first} chunk books an {b outer} gap — time between
      the wake instant and first-chunk completion, minus the chunk —
      i.e. wakeup latency plus runnable-but-unscheduled time;
    - every later chunk books an {b inner} gap — delay between
      consecutive completions beyond the chunk length, i.e. mid-window
      preemption.

    The sleep-then-heavy-burst shape is exactly the pattern schedgaps
    found co-scheduling designs silently starve; see ROADMAP item 3.

    Each tracer thread registers as its {e own} latency-critical app
    (ids [app_id], [app_id+1], ...) so the wake timer's [notify_app]
    deterministically targets that one thread.

    [sleep_ns] must comfortably exceed the scheduler's park latency
    (default 50 us vs sub-us switches): the wake fires as a plain timer,
    so a thread that has not finished parking when its wake arrives
    would miss it. *)

type t

val make :
  sim:Vessel_engine.Sim.t ->
  sys:Vessel_sched.Sched_intf.system ->
  app_id:int ->
  threads:int ->
  ?chunk_ns:int ->
  ?chunks:int ->
  ?sleep_ns:int ->
  ?keep_stamps:bool ->
  until:int ->
  unit ->
  t
(** Registers [threads] single-worker LC apps with ids
    [app_id .. app_id + threads - 1]. Defaults: [chunk_ns = 1_000],
    [chunks = 50] (a 50 us spin window), [sleep_ns = 50_000].
    [keep_stamps] retains the raw per-window stamp streams for the
    differential tests (off by default — it allocates per chunk). *)

val stats : t -> Vessel_stats.Gap_stats.t
(** Per-thread gap ledgers and cross-thread aggregates. *)

val stamps : t -> (int * int list) list array
(** Per thread (in slot order): completed windows oldest-first, each as
    [(wake instant, chunk completion stamps oldest-first)]. Empty unless
    [make] was passed [~keep_stamps:true]. *)
