(** The VESSEL manager (section 5.1): the auxiliary control program that
    owns a scheduling domain.

    Creates the SMAS (and with it the page table and privileged regions),
    the runtime, and processes create/destroy commands: a create forks a
    booting kProcess, carves a uProcess slot (pkey + regions), runs the
    loader and registers the uProcess with the runtime; a destroy sends
    kill commands that the cores act on at their next privileged entry. *)

type t

type create_error =
  | Domain_full
      (** all 13 slots in use — start another scheduling domain *)
  | Load_failed of Vessel_mem.Loader.error

val pp_create_error : Format.formatter -> create_error -> unit

val create :
  ?slots:int ->
  machine:Vessel_hw.Machine.t ->
  unit ->
  t
(** Builds the domain: layout with [slots] capacity (default the maximum,
    13), SMAS, runtime. Call {!Runtime.start} via {!runtime} (or
    {!start}). *)

val runtime : t -> Runtime.t
val machine : t -> Vessel_hw.Machine.t
val smas : t -> Vessel_mem.Smas.t

val start : t -> unit
val stop : t -> unit

val create_uprocess :
  t ->
  name:string ->
  image:Vessel_mem.Image.t ->
  ?libraries:Vessel_mem.Image.t list ->
  ?args:string list ->
  unit ->
  (Uprocess.t, create_error) result

val destroy_uprocess : t -> Uprocess.t -> unit

val reclaim_uprocess : t -> Uprocess.t -> (unit, [ `Still_running ]) result
(** Return a destroyed uProcess's resources to the manager (section 5.1):
    once the kill has settled (state Killed, every thread reaped), the
    slot's text and data regions are scrubbed and unmapped and the slot —
    with its protection key — goes back on the free list for the next
    {!create_uprocess}. [`Still_running] until then. *)

val fork_uprocess : t -> Uprocess.t -> (Uprocess.t, [ `Address_conflict ]) result
(** POSIX fork inside a scheduling domain is impossible: the child would
    need the parent's addresses, which are occupied in the shared SMAS
    (section 5.3). Always [`Address_conflict]; the API exists to enforce
    and document the semantics. Use {!clone_uprocess}. *)

val clone_uprocess :
  t -> Uprocess.t -> dst:t -> (Uprocess.t, create_error) result
(** The section-5.3 clone: recreate the uProcess in another domain's SMAS
    at the identical addresses (same slot, same ASLR slide, same image
    and libraries) and synchronize the data region, so the child owns an
    address space identical to the parent's. Fails with [Domain_full] if
    the destination cannot host the same slot index. *)

val uprocesses : t -> Uprocess.t list
(** Live (non-killed) uProcesses. *)

val slots_used : t -> int
val slots_available : t -> int

val spawn_thread :
  t ->
  uproc:Uprocess.t ->
  app:int ->
  priority:Uthread.priority ->
  name:string ->
  step:(now:Vessel_engine.Time.t -> Uthread.action) ->
  core:int ->
  Uthread.t
(** Allocates a 64 KiB stack from the uProcess's heap region and hands the
    thread to the runtime on [core]'s FIFO. *)

val loader : t -> slot:int -> Vessel_mem.Loader.t option
