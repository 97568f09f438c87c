let achieved_fraction ~setting =
  if setting < 0. || setting > 1. then
    invalid_arg "Mba.achieved_fraction: setting must be in [0,1]";
  if setting >= 1. then 1.
  else
    (* Floor near 0.30 of peak, sub-linear approach to 1: the programmed
       delay values cannot slow the prefetch/MLP machinery proportionally. *)
    Float.min 1. (0.30 +. (0.72 *. setting))
