(** Probability distributions used by the workload generators.

    Every sampler takes the {!Rng.t} explicitly so the caller controls
    which stream the draw comes from. Samplers that produce durations
    return floats in the caller's unit (the workloads use nanoseconds). *)

type t
(** A sampleable distribution over non-negative floats. *)

val constant : float -> t

val uniform : lo:float -> hi:float -> t

val exponential : mean:float -> t
(** Exponential with the given mean; inter-arrival times of a Poisson
    process with rate [1/mean]. *)

val lognormal_of_quantiles : p50:float -> p999:float -> t
(** The lognormal whose median is [p50] and whose 99.9th percentile is
    [p999]. Used to fit Silo's TPC-C service times (20 us median,
    280 us p999) from the two quantiles the paper reports. *)

val bimodal : p:float -> lo:float -> hi:float -> t
(** Value [hi] with probability [p], else [lo]. *)

val pareto : shape:float -> scale:float -> t
(** Heavy-tailed; [shape] > 0, [scale] > 0. *)

val mixture : (float * t) list -> t
(** Weighted mixture; weights need not be normalized. *)

val shifted : float -> t -> t
(** Adds a constant offset to each sample (e.g. a fixed protocol cost). *)

val zipf : s:float -> n:int -> t
(** Zipf popularity over ranks [0 .. n-1]: rank [r] is drawn with
    probability proportional to [(r+1)^-s]. Samples are integral ranks
    returned as floats; [s = 0] is uniform, [s ~ 1] the classic skew of
    cache/key-popularity traces. Construction is O(n) (a cumulative
    table), sampling O(log n). The table is built once per [(s, n)] and
    shared by every later call, from any domain. *)

val sample : t -> Rng.t -> float

val mean : t -> float
(** Analytic mean where it exists; for mixtures, the weighted mean. For
    Pareto with shape <= 1 the mean diverges and this returns [infinity]. *)
