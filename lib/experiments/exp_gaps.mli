(** Execution gaps & fairness: the schedgaps / hwlat-tracer experiment
    (ROADMAP item 3, not a paper figure).

    {!Vessel_workloads.Gaptracer} threads sleep-then-spin while a bursty
    memcached and a never-parking linpack compete for the same cores,
    for every scheduler in [lib/sched] at several burst duty cycles
    ([burst_len / period]). Reports, per (scheduler, duty) point: spin
    windows completed, p99 gap over the pooled inner/outer histograms,
    max outer gap (wake-to-first-run), max inner gap (mid-window
    preemption), and Jain's fairness index over per-tracer CPU time.

    The final stdout line — [gaps: N points, G gated, worst gated gap X
    us, ok|FAIL (bound B ms)] — is the regression verdict the cram test
    and the bench row stand on. Only schedulers that promise the bound
    are gated; [linux-cfs] timeshares on a 6 ms sched_period,
    so its multi-ms outer gaps are correct behaviour and ride along as
    the informational contrast baseline. *)

type row = {
  system : Runner.sched_kind;
  duty : float;
  windows : int;
  p99_ns : int;
  max_outer_ns : int;
  max_inner_ns : int;
  fairness : float;
}

val run :
  ?seed:int ->
  ?cores:int ->
  ?systems:Runner.sched_kind list ->
  ?duties:float list ->
  ?period:int ->
  ?duration:int ->
  unit ->
  row list
(** Sweeps [systems x duties] (defaults: vessel/caladan/cfs at duty
    0.1/0.3/0.5, 300 us burst period, 50 ms per point) via
    {!Runner.sweep} — byte-identical at any [-j]. *)

val worst_gap : row list -> int

val print : ?bound:int -> row list -> unit
(** [bound] defaults to 5 ms, the checker's [gap_bound] default. *)
