(** Intel Memory Bandwidth Allocation (Figure 13b's hardware baseline).

    MBA throttles a core's memory requests by inserting delays between
    them. Its control is coarse and indirect: the programmed percentage
    maps very non-linearly onto delivered bandwidth, with a floor around
    a third of peak — a throttle setting of 10% still lets ~30-40% of the
    bandwidth through (Intel documents MBA as "approximate"; the paper
    plots exactly this over-delivery). The curve here is calibrated to
    that qualitative behaviour and is the documented substitution for the
    real MSR interface. *)

val achieved_fraction : setting:float -> float
(** [setting] in [0, 1] (the programmed throttle). Result in [0, 1]: the
    fraction of unthrottled bandwidth actually delivered. Monotone,
    floored near 0.3, exact only at 1.0. *)
