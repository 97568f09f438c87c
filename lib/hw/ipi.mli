(** Kernel-mediated inter-processor interrupts.

    The baseline schedulers (Caladan, CFS) preempt via the kernel: the
    sender pays a syscall (ioctl), the interrupt flies for
    [Cost_model.ipi_flight], and the victim then executes its kernel
    preemption path. This module models only send-and-deliver; the victim's
    kernel path is charged by the scheduler that requested the IPI. *)

type t

val create : ?inject:Inject.t -> Vessel_engine.Sim.t -> Cost_model.t -> t
(** [inject] (armed by a fault profile) adds extra flight time and
    spurious duplicate deliveries; absent or disabled, behaviour is
    exactly the base cost model. *)

val send :
  t -> to_core:int -> on_deliver:(Vessel_engine.Sim.t -> unit) -> unit
(** Schedule [on_deliver] after [ioctl + ipi_flight]. The sender-side cost
    (ioctl) is also returned to the caller via {!send_cost} so it can be
    charged to the scheduler core. *)

val send_tagged : t -> to_core:int -> tag:int -> a:int -> b:int -> unit
(** Like {!send}, but delivery fires the {!Vessel_engine.Sim} handler
    registered under [tag] with payload [(a, b)] — closure-free when
    probes are off, and observably identical to {!send} when they are on
    (the deliver instant is emitted, then the same handler runs via
    [Sim.dispatch_tag]). Spurious duplicate deliveries are always
    tagged, matching {!send}'s unwrapped duplicates. *)

val sent : t -> int
(** Number of IPIs sent so far (observability for tests/experiments). *)
