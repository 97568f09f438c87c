(** The kernel-mediated two-level scheduler engine (section 2).

    Models the structure shared by Caladan, its Delay-Range variants and
    Arachne: applications are ordinary kProcesses with dedicated cores; a
    scheduler entity (IOKernel / core arbiter) reallocates cores between
    applications; within an application, an idle core keeps spinning in
    the steal loop for [steal_spin] before parking; reallocating a core to
    another application goes through the kernel (the Figure-3 path when
    preemption is involved, the 2.1 us park path otherwise), while
    switching threads of the {e same} application is a cheap user-level
    green switch.

    The profile record captures everything that differs between the
    systems the paper evaluates, so the experiment harness can run each by
    name. *)

type grant_policy =
  | Delay_based of { hi : int; lo : int }
      (** grant a core when queueing delay exceeds [hi]; the Delay-Range
          knob of Caladan (McClure et al.) *)
  | Utilization_based of { grow_above : float; shrink_below : float }
      (** Arachne's estimator: measure utilization over each pass and
          grow/shrink the core count on thresholds *)

type profile = {
  prof_name : string;
  realloc_interval : int;  (** scheduler pass period (10 us for Caladan) *)
  steal_spin : int;  (** spin-before-park inside an app (2 us) *)
  green_switch : int;  (** same-app user-level thread switch (~150 ns) *)
  policy : grant_policy;
  preempt_be : bool;  (** may the scheduler IPI-preempt best-effort cores *)
  grant_on_notify : bool;
      (** does the busy-polling scheduler react to wakeups between passes
          (Caladan's IOKernel does; Arachne's arbiter does not) *)
}

val caladan : profile
val caladan_dr_l : profile
(** Delay Range 0.5-1 us. *)

val caladan_dr_h : profile
(** Delay Range 1-4 us. *)

val arachne : profile

type t

val make : profile -> machine:Vessel_hw.Machine.t -> t

val system : t -> Sched_intf.system

val exec : t -> Vessel_uprocess.Exec.t

val reallocations : t -> int
(** Cross-application core reallocations performed. *)

val preempt_stages : t -> (string * int) list
(** The Figure-3 stage breakdown this instance charges per preemption. *)
