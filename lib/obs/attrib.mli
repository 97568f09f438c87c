(** End-to-end latency attribution over {!Request} stamps ([--attrib]).

    An instance owns one append-only stamp buffer per {e lane} (cluster
    machine; lane 0 for a single [Sim]). Recording is two int stores
    behind {!Probe.attrib_on}; each lane has a single writer at a time
    (the cluster epoch barrier serializes machines). Finalization sorts
    each request's stamps, charges every inter-stamp gap to a phase
    determined by the earlier stamp, and — because the charges
    telescope — the per-phase sums equal end-to-end latency exactly.

    Instances register under (collector unit key, sequence), so
    {!write} and {!report} output is byte-identical at any [-j N]. *)

type t

val create :
  ?label:string -> ?lanes:int -> ?hop_ns:int -> ?sample_shift:int -> unit -> t
(** Register an instance under the calling domain's collector unit.
    [hop_ns] is the known one-way link latency (gaps above it count as
    epoch-barrier residue); [sample_shift] records only request ids
    that are multiples of [2^sample_shift] (deterministic sampling for
    very large runs). *)

val with_lane : t -> lane:int -> (unit -> 'a) -> 'a
(** Run [f] with this instance's lane recorder installed on the calling
    domain (scoped; restores the previous recorder). *)

val record : t -> lane:int -> int -> int -> unit
(** [record t ~lane context ts] — the raw recorder (exposed for bench). *)

val consume : t -> lane:int -> Event.t -> unit
(** Replay a [req.*] trace instant into a lane; non-request events are
    ignored. *)

val sink : t -> lane:int -> Sink.t
(** {!consume} as an [Obs.Sink] — drive attribution from a synthetic
    event stream, checker-style. *)

(** {2 Finalization} *)

val nbuckets : int
val bucket_names : string array
(** [ingress; net_req; queue; service; sched; net_resp; barrier]. *)

type ledger = {
  rid : int;
  e2e_ns : int;
  shard : int;
  by_bucket : int array;  (** length {!nbuckets}; sums to [e2e_ns] *)
}

type summary = {
  s_label : string;
  s_key : int list;
  s_seq : int;
  ledgers : ledger list;  (** completed requests, ascending rid *)
  inflight : int;
  malformed : int;
  violations : int;  (** conservation failures — expected 0 *)
}

val summarize : t -> summary

val sort_ints : int array -> unit
(** Sorts ascending in place, as [Array.sort Int.compare] does (exposed
    for tests). *)

val instances : unit -> t list
(** All registered instances, sorted by (key, seq). *)

val summaries : unit -> summary list
(** {!summarize} of every instance, in {!instances} order. *)

val write : (string -> unit) -> unit
(** The [vessel-attrib-1] JSON artifact for every instance. *)

val write_summaries : (string -> unit) -> summary list -> unit
(** {!write} from summaries already made. *)

val report : (string -> unit) -> summary list -> unit
(** Human-readable p99 blame report, per summary and per shard. *)

val reset : unit -> unit
(** Drop all instances — test isolation. *)
