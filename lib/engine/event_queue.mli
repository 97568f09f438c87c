(** A priority queue of timestamped events, keyed on (time, sequence
    number) so events at the same simulated time pop in insertion order
    and the whole simulation stays deterministic.

    A 4-level x 256-slot hierarchical timing wheel of simulated-ns
    buckets fronts an overflow binary heap. Near-horizon events (the
    vast majority under the cost model's short timer distribution)
    schedule and expire in O(1); events further than 2^32 ns from the
    cursor — or scheduled in the past, which the simulation driver
    forbids but the raw queue permits — overflow to the heap.

    Entry records live in a per-queue free-list pool, so steady-state
    [add]/[cancel]/[drain_before] performs zero minor-heap allocation
    (the pool only grows when the pending-event high-water mark does).
    Handles are generation-stamped immediate ints: cancelling a handle
    whose event already popped — even after its pooled entry has been
    reused — is a checked no-op. *)

type 'a t

type handle
(** A token for a scheduled event, usable to cancel it. Immediate
    (unboxed) and generation-checked: stale handles are harmless. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Number of live (non-cancelled) events. *)

val add : 'a t -> time:Time.t -> 'a -> handle
(** Schedule an event at an absolute time. Allocation-free once the
    entry pool is warm. *)

val max_tag : int
(** Largest valid dispatch tag (the packed payload gives tags 8 bits). *)

val max_a : int
(** Largest valid [a] argument of {!add_tagged} (16 bits). *)

val max_b : int
(** Largest valid [b] argument of {!add_tagged} (38 bits). *)

val add_tagged : 'a t -> time:Time.t -> tag:int -> a:int -> b:int -> handle
(** Schedule an int-tagged event: instead of a boxed ['a] payload the
    entry carries [(tag, a, b)] packed into one immediate word, so the
    add allocates nothing, pays no write-barrier work, and leaves the
    pooled entry's size (hence the slab's cache footprint) untouched —
    the field it rides in was freed up by packing the entry's
    generation counter and active flag into one word. [tag] is the
    caller's
    dispatch-table index (8 bits); [a] is a small argument (16 bits,
    e.g. a core index); [b] is a wide argument (38 bits, e.g. a
    timestamp or an overhead in ns). Out-of-range values raise
    [Invalid_argument]. Tagged events are delivered by
    {!drain_batch}/{!pop_event}; consuming one through the untyped
    {!pop}/{!pop_if_before}/{!drain_before} returns an unspecified
    value — queues mixing both payload kinds must drain through the
    tag-aware entry points. *)

val cancel : 'a t -> handle -> unit
(** Cancel a previously scheduled event. Cancelling twice, or cancelling
    an already-popped event, is a no-op (the handle's generation stamp
    no longer matches the pooled entry's). *)

val peek_time : 'a t -> Time.t option
(** Time of the earliest live event. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live event. *)

val pop_if_before : 'a t -> horizon:Time.t -> (Time.t * 'a) option
(** Remove and return the earliest live event whose time is at or before
    [horizon]; [None] if the queue is empty or the earliest live event is
    strictly later. *)

val drain_before : 'a t -> horizon:Time.t -> (Time.t -> 'a -> unit) -> unit
(** [drain_before t ~horizon f] pops every live event at or before
    [horizon] in order and calls [f time value] on each, including events
    [f] itself adds at or before the horizon. Allocation-free per event —
    this is the simulation driver's hot loop. *)

val drain_batch :
  'a t ->
  horizon:Time.t ->
  start:(Time.t -> unit) ->
  handlers:(int -> int -> unit) array ->
  (Time.t -> 'a -> unit) ->
  int
(** [drain_batch t ~horizon ~start ~handlers f] pops every live event at
    or before [horizon] in exactly the order {!drain_before} would —
    (time, seq) FIFO — but groups consecutive same-timestamp events into
    batches: [start bt] fires once when the drain moves to a new batch
    timestamp [bt], then every event at [bt] is dispatched without
    re-checking the horizon or re-storing the clock. A tagged event
    calls [handlers.(tag) a b] directly — one indirect call, no
    trampoline — and a boxed one calls [f time value]. Events the
    callbacks add at the current batch time carry higher sequence
    numbers, so they join the tail of the running batch (identical to
    one-at-a-time semantics); cancels into the current batch are honored
    because entries are still consumed one at a time. Returns the number
    of events dispatched. Allocation-free per event. *)

val pop_event :
  'a t ->
  tagged:(Time.t -> int -> int -> int -> unit) ->
  closure:(Time.t -> 'a -> unit) ->
  bool
(** Remove the earliest live event and hand it to the matching callback
    ([tagged time tag a b] or [closure time value]); [false] if the
    queue is empty. The payload-kind-aware analogue of {!pop}, for
    single-step drivers over queues that may hold tagged entries. *)

(** {2 Pool occupancy}

    The same numbers are published as [Vessel_obs] metrics (gauge
    [engine.queue.pool.entries], counter [engine.queue.pool.grown]) when
    a metrics registry is live; growth events are probe-guarded so the
    hot path never pays for them. *)

val pool_allocated : 'a t -> int
(** Entry records ever allocated for this queue (the pool high-water
    mark, rounded up to the growth geometry). *)
