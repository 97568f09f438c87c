(** Linux CFS, approximated at the fidelity the paper's comparison needs.

    Threads carry nice-derived weights and accumulate weighted virtual
    runtime; each core runs its minimum-vruntime runnable thread for a
    weight-proportional timeslice (millisecond scale), then switches
    through the kernel. Woken threads are placed on the least-loaded core
    and wait for the incumbent's timeslice to end — the paper's
    observation that CFS "always grants cores to execute B-app despite
    that L-app has a higher priority ... because Memcached's worker
    threads suspend CPU cores frequently" is exactly this effect, and it
    is what produces the >10 ms tail latencies of Figure 9. *)

type params = {
  sched_period : int;  (** target latency over which all weights share, ns *)
  min_granularity : int;  (** minimum timeslice, ns *)
  lc_nice : int;  (** nice of latency-critical apps (paper: -19) *)
  be_nice : int;  (** nice of best-effort apps (paper: 20, clamped to 19) *)
}

val default_params : params

val weight_of_nice : int -> int
(** The kernel's sched_prio_to_weight table (1024 at nice 0, x1.25 per
    step). Input clamped to [-20, 19]. *)

type t

val make : ?params:params -> machine:Vessel_hw.Machine.t -> unit -> t

val system : t -> Sched_intf.system
