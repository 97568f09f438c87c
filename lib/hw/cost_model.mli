(** Latency constants of the simulated machine.

    Every cost in the simulation flows through this record, so experiments
    can override individual constants (the ablation benches do) and the
    whole model stays auditable in one place. Values are nanoseconds on the
    paper's platform (2.1 GHz 4th-gen Xeon, CPU mitigations disabled) and
    are calibrated so the composite paths reproduce the paper's own
    measurements:

    - VESSEL park-to-park context switch ~ 0.161 us avg (Table 1);
    - Caladan park-based reallocation ~ 2.103 us avg (Table 1);
    - Caladan preemption-based reallocation ~ 5.3 us (Figure 3);
    - WRPKRU 11-260 cycles (ERIM, cited in section 2.3);
    - Uintr delivery ~ 15x cheaper than IPI-based signals (section 2.2). *)

type t = {
  ghz : float;  (** core frequency, used only for cycle conversion *)
  (* --- MPK --- *)
  wrpkru : int;  (** write PKRU register *)
  rdpkru : int;  (** read PKRU register *)
  pkey_mprotect_syscall : int;  (** kernel pkey_mprotect() *)
  (* --- call gate (on top of two WRPKRUs) --- *)
  gate_stack_switch : int;  (** swap RSP to/from runtime stack *)
  gate_dispatch : int;  (** function-pointer vector indirection + checks *)
  (* --- userspace interrupts --- *)
  senduipi : int;  (** sender-side cost of senduipi *)
  uintr_delivery : int;  (** wire + microcode until handler entry *)
  uintr_handler_entry : int;  (** hardware push of vector/frame *)
  uiret : int;  (** return from user-interrupt handler *)
  (* --- context bookkeeping in userspace --- *)
  context_save : int;
  context_restore : int;
  queue_op : int;  (** one FIFO push or pop *)
  (* --- kernel paths (baselines) --- *)
  syscall : int;  (** bare user->kernel->user round trip *)
  ioctl : int;  (** ioctl() syscall used by Caladan's scheduler *)
  ipi_flight : int;  (** IPI from send to receipt on victim *)
  kernel_signal : int;  (** kernel posts SIGUSR to the runtime *)
  user_save_state : int;  (** runtime saves task state on signal *)
  kernel_switch : int;  (** kernel data structures + task switch *)
  page_table_switch : int;  (** CR3 write + TLB refill effects *)
  kernel_restore : int;  (** return-to-user of the new task *)
  (* --- misc --- *)
  umwait_wake : int;  (** leave the UMWAIT light sleep state *)
  cache_hit : int;  (** L1/L2 amortized hit *)
  cache_miss : int;  (** LLC miss to DRAM, latency-bound *)
  cache_miss_stall : int;
      (** extra stall per missed line in a streaming copy (misses overlap
          under the prefetchers, so this is far below the raw latency) *)
  timeslice_cfs : int;  (** CFS-style timeslice, ~ milliseconds *)
}

val default : t

val v : ?f:(t -> t) -> unit -> t
(** [v ()] is [default]; [v ~f ()] is [f default]. Convenience for
    overriding a few fields. *)

(* Composite paths. Each returns the deterministic base latency; callers
   add jitter via {!jittered}. *)

val vessel_park_switch : t -> int
(** Park-initiated uProcess switch: enter call gate, save context, pop the
    next thread, restore, leave gate. Calibrated to ~161 ns. *)

val caladan_park_switch : t -> int
(** Caladan core reallocation when the victim parked voluntarily:
    kernel-mediated; calibrated to ~2.1 us. *)

val caladan_preempt_stages : t -> (string * int) list
(** The Figure-3 timeline of a preemption-based Caladan reallocation:
    labelled stages in order; the sum is ~5.3 us. *)

val caladan_preempt_switch : t -> int
(** Sum of {!caladan_preempt_stages}. *)

val cfs_switch : t -> int
(** A Linux CFS process context switch (kernel path + page table). *)

val jittered : t -> Vessel_engine.Rng.t -> int -> int
(** [jittered t rng base] perturbs a composite latency with the long-tailed
    noise observed on real hardware: usually within a few percent of
    [base], with a ~0.4% chance of a multi-x spike (interrupts, TLB
    shootdowns). This reproduces the avg-vs-p999 gap in Table 1. *)
