(** The message-pipe region (sections 4.1-4.2).

    A unidirectional channel through which the runtime exposes state to
    uProcesses: the CPUID_TO_TASK_MAP (core -> running task + its PKRU
    image), the CPUID_TO_RUNTIME_MAP (core -> privileged stack), and the
    static function-pointer vector the call gate dispatches through
    instead of the forgeable PLT. All the data genuinely lives in SMAS's
    pipe region: writes go through the runtime PKRU, reads through the
    caller's, so the read-only-to-uProcesses property is enforced by the
    page table + MPK rather than by convention. *)

type t

val create : Vessel_mem.Smas.t -> ncores:int -> t
(** Lays the three structures out in the pipe region; raises if the region
    is too small. *)

val ncores : t -> int

(* --- CPUID_TO_TASK_MAP --- *)

val set_task :
  t -> core:int -> tid:int -> pkru:Vessel_hw.Pkru.t -> unit
(** Runtime-side write. [tid = -1] means "no task". *)

val task :
  t ->
  reader_pkru:Vessel_hw.Pkru.t ->
  core:int ->
  (int * Vessel_hw.Pkru.t, Vessel_hw.Page.fault) result
(** Read with the caller's credentials (uProcess PKRUs may read). *)

(* --- CPUID_TO_RUNTIME_MAP --- *)

val set_runtime_stack : t -> core:int -> Vessel_mem.Addr.t -> unit

val runtime_stack :
  t ->
  reader_pkru:Vessel_hw.Pkru.t ->
  core:int ->
  (Vessel_mem.Addr.t, Vessel_hw.Page.fault) result

(* --- function-pointer vector --- *)

val register_function : t -> index:int -> fn_id:int -> unit
(** Runtime-side registration. Indices in [0, 255]. *)

val function_id :
  t ->
  reader_pkru:Vessel_hw.Pkru.t ->
  index:int ->
  (int option, Vessel_hw.Page.fault) result
(** [None] for an unregistered index (the gate rejects the call). *)

val vector_addr : t -> Vessel_mem.Addr.t
(** Base address of the vector — exposed so tests can attempt (and fail)
    direct writes with a uProcess PKRU. *)
