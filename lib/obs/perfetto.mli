(** Chrome [trace_event] JSON exporter, loadable in Perfetto and
    chrome://tracing.

    Simulated nanoseconds map to [ts] (defined by the format in
    microseconds) as [ns/1000] with three decimals, so nothing is lost.
    Each journal in [units] becomes at least one Perfetto process; every
    {!Event.Process} marker inside a unit starts a fresh process so that
    per-track timestamps stay monotone even when one unit runs several
    simulations whose clocks each start at 0. *)

val write : (string -> unit) -> units:Journal.t list -> unit
(** Streams the trace to [out] in pieces of about a kilobyte, reading
    each journal in place. *)

val add_ts : Buffer.t -> int -> unit
(** [add_ts b ns] appends [ns/1000] to three decimals: the digits
    [Printf.sprintf "%.3f" (float_of_int ns /. 1000.)] prints. *)
