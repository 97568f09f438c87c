(** The discrete-event simulation driver.

    A simulation owns a clock and an event queue of thunks. Components
    schedule callbacks at absolute or relative times; [run_until] executes
    them in timestamp order (ties in insertion order), advancing the clock
    to each event's time before firing it. All model state lives in the
    components; the driver knows nothing about cores or schedulers. *)

type t

val create : ?seed:int -> unit -> t
(** A fresh simulation at time 0. [seed] (default 42) seeds the root RNG
    from which all component streams are split. *)

val now : t -> Time.t

val rng : t -> Rng.t
(** The root RNG. Components should [Rng.split] this at setup time rather
    than drawing from it during the run. *)

val schedule : t -> at:Time.t -> (t -> unit) -> Event_queue.handle
(** Run a callback at absolute time [at]. Scheduling in the past raises
    [Invalid_argument]. *)

val schedule_after : t -> delay:Time.t -> (t -> unit) -> Event_queue.handle
(** Run a callback [delay] ns from now. *)

(** {2 Tagged events}

    The closure-free fast path. A component registers a handler once at
    setup time and gets back a small int tag; scheduling then stores
    [(tag, a, b)] immediates in the pooled queue entry instead of
    allocating a closure, and dispatch is one array index plus an
    indirect call. The boxed-closure path above stays as the fallback
    for cold callers. *)

val register_handler : t -> (int -> int -> unit) -> int
(** Register a dispatch handler and return its tag. Handlers are
    per-simulation and live for the simulation's lifetime; register at
    component-creation time, not during the run, so tag assignment stays
    deterministic. The handler receives the [a]/[b] payload words; read
    the clock with [now] if needed. *)

val schedule_tagged :
  t -> at:Time.t -> tag:int -> a:int -> b:int -> Event_queue.handle
(** Like [schedule], but allocation-free: fires [handler a b] at [at]
    where [handler] was registered under [tag]. Raises [Invalid_argument]
    on a past time or an unregistered tag. *)

val schedule_tagged_after :
  t -> delay:Time.t -> tag:int -> a:int -> b:int -> Event_queue.handle
(** [schedule_tagged] relative to the current time. *)

val dispatch_tag : t -> tag:int -> a:int -> b:int -> unit
(** Invoke the handler registered under [tag] immediately. Lets slow-path
    callers (e.g. probe-instrumented wrappers) reuse the exact handler
    code the fast path runs, so both paths stay observably identical. *)

val cancel : t -> Event_queue.handle -> unit
(** Cancel a previously scheduled event of this simulation. Stale
    handles (already fired or cancelled) are a checked no-op. *)

val run_until : t -> Time.t -> unit
(** Execute events in order until the queue is empty or the next event is
    strictly after the horizon, then set the clock to the horizon. *)

val step : t -> bool
(** Execute the single earliest event. Returns [false] when the queue is
    empty. Useful in unit tests. *)

val pending : t -> int
(** Number of scheduled, not-yet-fired, not-cancelled events. *)

val events_executed : t -> int
(** Events this simulation has fired since [create]. *)

val total_events_executed : unit -> int
(** Events fired across every simulation in the process, all domains
    included — the bench harness's events/sec numerator. Updated with
    one atomic add per [run_until] (never per event); [step] batches
    its updates, flushing every 64 events and when the queue runs dry,
    so the count is exact after any [run_until] or after [step] returns
    [false], and at most 63 behind mid-stepping. *)
