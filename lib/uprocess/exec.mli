(** The core executor: CPU cores running thread segments under a pluggable
    scheduling policy.

    One executor drives all cores of a machine. The policy (VESSEL's
    runtime, or a baseline scheduler) supplies hooks: where the next
    thread comes from, what a switch costs, and what happens to parked /
    preempted / exited threads. The executor owns the mechanics every
    policy shares — running segments as simulation events, splitting a
    segment on preemption, charging cycle accounts, cache and memory-
    bandwidth effects, and idle (UMWAIT) episodes.

    Time accounting contract: thread segment time is charged to
    [App (Uthread.app th)]; switch overhead to [overhead_category]
    (Runtime for VESSEL, Kernel for kernel-mediated baselines); syscalls
    to [syscall_category]; idleness to [Idle]. *)

type switch_kind =
  | Initial  (** first dispatch onto a free core *)
  | Park_switch  (** previous thread parked voluntarily *)
  | Preempt_switch  (** previous thread was preempted *)
  | Exit_switch  (** previous thread exited *)
  | Idle_wake  (** core was idle and is being woken *)

type hooks = {
  pick_next : core:int -> Uthread.t option;
      (** Next thread for a core that just became free. *)
  on_park : core:int -> Uthread.t -> unit;
      (** The thread parked itself; the policy records it for later
          {!ready}-ing. State is already [Parked]. *)
  on_preempted : core:int -> Uthread.t -> unit;
      (** The thread was preempted; policy requeues it. State is
          [Ready]. *)
  on_exit : core:int -> Uthread.t -> unit;
  switch_overhead :
    core:Vessel_hw.Core.t -> kind:switch_kind -> next:Uthread.t option -> int;
      (** ns of overhead for this transition (jitter included by the
          policy if desired). *)
  overhead_category : Vessel_stats.Cycle_account.category;
  syscall_category : Vessel_stats.Cycle_account.category;
  on_run : core:int -> Uthread.t -> unit;
      (** The thread is now live on the core (Uintr receivers flip to
          running here). *)
  on_descheduled : core:int -> Uthread.t -> unit;
      (** The thread left the core for any reason. *)
}

val default_hooks : unit -> hooks
(** No-op policy: never finds work, charges nothing for switches, accounts
    overhead to Runtime. Useful as a base record to override. *)

type t

val create : ?index:Core_index.t -> Vessel_hw.Machine.t -> hooks -> t
(** [?index]: an incremental core-state index whose idle/BE occupancy
    bits the executor maintains at every core-state transition. *)

val machine : t -> Vessel_hw.Machine.t

val start : t -> core:int -> unit
(** Begin the pick-execute loop on a core (usually at time 0). *)

val start_all : t -> unit

val current : t -> core:int -> Uthread.t option
(** The thread executing (or being switched in) on the core. *)

val is_idle : t -> core:int -> bool

val preempt : t -> core:int -> overhead:int -> unit
(** Interrupt the core now: the in-flight segment is split (executed part
    charged, remainder saved in the thread), the thread becomes [Ready]
    and is handed to [on_preempted], [overhead] ns of [Preempt_switch]
    cost is charged on top of the policy's [switch_overhead], and the core
    re-enters [pick_next]. Preempting an idle core is equivalent to
    {!notify}; preempting mid-switch defers until the switch lands. *)

val notify : t -> core:int -> unit
(** Work became available: wake the core if idle (UMWAIT wake cost), else
    no-op. *)

val stop : t -> core:int -> unit
(** Halt the core's loop after the current event (used at experiment
    teardown). *)
