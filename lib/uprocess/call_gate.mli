(** The call gate (section 4.2, Listing 1).

    The only legal way for a uProcess to enter the privileged runtime.
    Modeled operationally, stage by stage:

    + Stage 1 — WRPKRU loads the runtime's PKRU into the core.
    + Stage 2 — the stack switches to the per-core runtime stack recorded
      in CPUID_TO_RUNTIME_MAP, and the requested function is resolved
      through the static function-pointer vector in the message pipe (a
      direct control transfer: the forgeable PLT is never consulted).
    + (the privileged function runs — the caller's job)
    + Stage 3 — WRPKRU restores the PKRU image recorded for this core in
      CPUID_TO_TASK_MAP.
    + Stage 4 — RDPKRU re-checks the restore; a mismatch (control-flow
      hijack with a forged eax) loops back to the reset.

    The model stores a per-entry return token on the runtime stack (in
    SMAS, under the runtime key), so the "other thread rewrites the
    return address" attack is testable: with the stack switch enabled the
    token is out of the attacker's reach; with [~switch_stack:false]
    (an intentionally weakened gate for the security evaluation) the token
    sits on the user stack and the attack lands. *)

type t

type error =
  | Unknown_function of int
      (** fn index not in the vector — the gate refuses and restores the
          caller's PKRU. *)
  | Gate_fault of Vessel_hw.Page.fault
      (** the gate's own accesses faulted (misconfigured domain). *)

type session = {
  fn_id : int;  (** resolved runtime function *)
  token : int;  (** return token stored on the privileged stack *)
  enter_ns : int;  (** cost to charge for the entry path *)
}

val create :
  ?switch_stack:bool ->
  ?check_pkru:bool ->
  ?inject:Vessel_hw.Inject.t ->
  ?clock:(unit -> int) ->
  smas:Vessel_mem.Smas.t ->
  pipe:Message_pipe.t ->
  cost:Vessel_hw.Cost_model.t ->
  unit ->
  t
(** [switch_stack] (default true) and [check_pkru] (default true) exist
    only to demonstrate the attacks that each mechanism defeats.
    [inject] jitters the gate's WRPKRUs under a fault profile; [clock]
    (default [fun () -> 0]) timestamps the gate-crossing probe instants
    the invariant checker consumes. *)

val enter :
  t -> core:Vessel_hw.Core.t -> fn_index:int -> user_stack:Vessel_mem.Addr.t ->
  (session, error) result
(** Runs stages 1-2 on [core] (its PKRU register is really switched).
    On [Error (Unknown_function _)] the core's PKRU is already restored to
    the task image. *)

val leave : t -> core:Vessel_hw.Core.t -> session -> (int, error) result
(** Stages 3-4. Returns the cost to charge. Verifies the return token; a
    smashed token raises [Failure] (control-flow integrity lost — only
    reachable with [~switch_stack:false]). The PKRU restored is whatever
    CPUID_TO_TASK_MAP holds {e now}, which is how a context switch inside
    the gate resumes as the next uProcess (Figure 6). *)

(* --- attack surface, used by the security tests and the attack demo --- *)

val attack_hijack_wrpkru :
  t -> core:Vessel_hw.Core.t -> forged_eax:Vessel_hw.Pkru.t ->
  [ `Defeated of int | `Succeeded ]
(** Jump straight to the stage-3 WRPKRU with a forged eax. With the
    stage-4 check the gate detects the mismatch and resets ([`Defeated
    iterations]); with [~check_pkru:false] the forged PKRU sticks
    ([`Succeeded] — the core is left with the forged image, which the
    caller should treat as a compromise). *)

val attack_smash_return :
  t ->
  core:Vessel_hw.Core.t ->
  session ->
  user_stack:Vessel_mem.Addr.t ->
  attacker_pkru:Vessel_hw.Pkru.t ->
  [ `Token_safe | `Token_smashed | `Write_faulted ]
(** A sibling thread overwrites the word at [user_stack] (where a naive
    gate would keep the return address). Reports whether the gate's
    return token survived. *)
