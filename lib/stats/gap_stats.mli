(** Execution-gap accounting (schedgaps / hwlat-tracer style).

    A tracer thread busy-spins in fixed-size compute chunks, sleeps, and
    repeats. Two gap kinds are recorded, per thread:

    - {b outer} gap: delay between the wake instant and the completion of
      the window's first chunk, beyond the chunk length itself — wakeup
      latency plus any time spent runnable-but-unscheduled before the
      first dispatch.
    - {b inner} gap: delay between consecutive chunk completions beyond
      the chunk length — preemption / involuntary off-CPU time in the
      middle of a spin window.

    Per spin window that woke at [w] with chunks completing at
    [t_1 < ... < t_n]:
    {v t_n - w = n * chunk + outer + sum of inner gaps v}
    (exact in the simulator) — the conservation identity the qcheck
    differential test replays.

    Aggregates across threads: max gap, p99 of the merged gap
    histograms, and Jain's fairness index over per-thread CPU time. *)

type t
(** Mutable collection of tracer threads. *)

type thread
(** Per-thread gap ledger. *)

val create : unit -> t

val add_thread : t -> thread
(** Register a thread; returned handle receives the samples below. *)

val threads : t -> thread list
(** Threads in registration order. *)

(** {1 Per-thread ingestion} *)

val record_inner : thread -> int -> unit
val record_outer : thread -> int -> unit

val add_run : thread -> int -> unit
(** Account [ns] of on-CPU compute (chunk lengths). *)

val add_window : thread -> unit
(** Count one completed spin window. *)

(** {1 Per-thread readouts} *)

val max_inner : thread -> int
val max_outer : thread -> int
val run_ns : thread -> int
val gap_ns : thread -> int
(** Sum of all recorded gaps (inner + outer), exact. *)

val windows : thread -> int

(** {1 Aggregates} *)

val max_gap : t -> int
(** Largest gap (inner or outer) observed by any thread. Exact. *)

val p99_gap : t -> int
(** p99 of all gaps pooled across threads (inner and outer merged).
    0 when no gaps were recorded. *)

val total_windows : t -> int

val fairness : t -> float
(** Jain's fairness index over per-thread [run_ns]:
    [(sum x)^2 / (n * sum x^2)]. 1.0 is perfectly fair, [1/n] means one
    thread received all the CPU. 1.0 for an empty collection. *)
