(** Per-request causal context for end-to-end latency attribution.

    A context is one immediate int packing a request id (bits 3..62,
    ids start at 1) and the request's current pipeline {!phase} (bits
    0..2). It is minted at open-loop arrival, carried across the
    frontend LB and [Net] links, bound to the serving uthread, and
    [mark]ed at every transition. Marks fan out to the ambient trace
    sink (as [req.*] instants, when {!Probe.on}) and to the per-domain
    attribution recorder installed by {!Attrib} (when
    {!Probe.attrib_on}); with both off a call site costs two loads and
    a branch and allocates nothing. *)

type phase =
  | Arrive  (** born at open-loop arrival *)
  | Lb  (** frontend picked a backend *)
  | Enqueue  (** entered a run/request queue *)
  | Wake  (** a thread carrying this request was made runnable *)
  | Dispatch  (** started (or resumed) executing on a core *)
  | Preempt  (** preempted mid-service *)
  | Complete  (** service finished on the backend *)
  | Done  (** response observed end-to-end *)

val phase_index : phase -> int

val tags : string array
(** Trace-instant names ([req.arrive] .. [req.done]), indexed by
    {!phase_index}. *)

type t = int
(** A packed context. [none] = 0 means "no request bound". *)

val none : t
val v : rid:int -> phase -> t
val rid : t -> int
val with_phase : t -> phase -> t

val active : unit -> bool
(** [!Probe.attrib_on] — attribution recording is live. *)

(** {2 Thread binding} *)

val stash : t -> unit
(** Called by a workload step when it pops a request: parks the context
    in a per-domain slot for the uthread layer to claim. *)

val take : unit -> t
(** Claim and clear the stashed context ([none] if empty). *)

(** {2 Recording} *)

val with_recorder : (int -> int -> unit) option -> (unit -> 'a) -> 'a
(** [with_recorder r f] installs [r] (called as [r context ts]) as this
    domain's attribution recorder while [f] runs, then restores the
    previous recorder. *)

val stamp : t -> ts:int -> unit
(** Record a transition with the current recorder (no trace output). *)

val mark : t -> ts:int -> track:Track.t -> unit
(** Emit the transition as a [req.*] trace instant (if tracing) and an
    attribution stamp (if attribution). Guard call sites with
    [live ()]. *)
