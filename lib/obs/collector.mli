(** Owns the per-unit trace journals and metrics registries behind
    [--trace] / [--metrics], and merges them deterministically.

    A {e unit} is a stretch of sequential simulation work: the root unit
    is whatever runs on the main domain, and every sweep point becomes a
    child unit via {!fork_point}/{!with_child}. Units are keyed by
    int-list paths that depend only on program structure (fork sequence
    number + point index), never on domain scheduling, so the exported
    trace and metrics files are byte-identical at any [-j N]. *)

val configure : ?trace:bool -> ?metrics:bool -> ?attrib:bool -> unit -> unit
(** Enable collection for this process and install the root unit on the
    calling domain. Call once, before any simulation work. [attrib]
    enables request-level latency attribution ({!Request}/{!Attrib}). *)

val active : unit -> bool
(** True iff [configure] enabled tracing, metrics or attribution; sweeps
    skip the forking machinery entirely when false. *)

val current_key : unit -> int list
(** Structural key of the unit owning the calling domain ([[]] when the
    collector is inactive or outside any unit). {!Attrib} instances
    register under it so attribution output is byte-identical at any
    [-j N]. *)

type fork

val fork_point : unit -> fork
(** Reserve a fork id from the current domain's unit. Call once per
    sweep, on the domain that launches it. *)

val with_child : fork -> index:int -> (unit -> 'a) -> 'a
(** [with_child fork ~index f] runs [f] (typically on a worker domain)
    inside a fresh child unit keyed [fork @ [index]]; restores the
    domain's previous unit on exit. *)

type child
(** A persistent child unit: created once, re-entered many times. Used
    where one logical simulation instance (a cluster machine) is
    revisited across many stretches of work (lockstep epochs) and its
    events must accumulate in a single unit. *)

val child : fork -> index:int -> child
(** Create the unit keyed [fork @ [index]] eagerly (a no-op handle when
    the collector is inactive). *)

val with_unit : child -> (unit -> 'a) -> 'a
(** Run [f] inside the child's unit, restoring the domain's previous
    unit on exit. May be called repeatedly and from different domains
    over time, but never concurrently for the same child — the cluster's
    epoch barrier guarantees this. *)

val write_trace : (string -> unit) -> unit
(** Chrome [trace_event] JSON of everything collected (see {!Perfetto}). *)

val write_metrics : (string -> unit) -> unit
(** JSON snapshot of all unit registries merged (see {!Metrics.write}). *)

val reset : unit -> unit
(** Drop all units and disable collection — test isolation. *)
