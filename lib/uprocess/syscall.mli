(** Syscall interception and per-uProcess access control (section 5.2.4).

    uProcesses migrate freely between kProcesses, so raw kernel file
    descriptors would leak across uProcesses sharing a kProcess (security)
    and vanish when a uProcess lands in a different kProcess (correctness).
    The runtime therefore proxies every syscall: it owns a descriptor
    table mapping each fd to its owning uProcess slot and rejects use of a
    descriptor by any other slot. Memory-configuration syscalls that
    would make pages executable are prohibited outright (section 4.2);
    on-demand loading must go through the runtime's inspected
    [dlopen] path instead. *)

type t

type error = [ `EBADF | `EACCES | `Exec_mapping_prohibited ]

val create : unit -> t

val openf : t -> slot:int -> path:string -> int
(** Returns a new fd owned by [slot]. *)

val read : t -> slot:int -> fd:int -> (unit, error) result

val close : t -> slot:int -> fd:int -> (unit, error) result
(** Only the owner may close. *)

val mmap :
  t -> slot:int -> exec:bool -> (unit, error) result
(** [exec:true] is always [`Exec_mapping_prohibited]. *)

val mprotect :
  t -> slot:int -> exec:bool -> (unit, error) result

val close_all : t -> slot:int -> int
(** Close every descriptor of a dying uProcess; returns how many. *)

val calls : t -> int
(** Total syscalls proxied (observability / cycle accounting hooks). *)
