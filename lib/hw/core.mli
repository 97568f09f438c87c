(** One simulated CPU core.

    A core is mostly passive state — its PKRU register, its cycle
    accounting, its idle tracker and an RNG stream for latency jitter —
    mutated by whichever scheduler currently drives it. The execution loop
    itself lives in the scheduler libraries so that VESSEL and the
    baselines can share the same silicon. *)

type t

val create : id:int -> rng:Vessel_engine.Rng.t -> t

val id : t -> int

val pkru : t -> Pkru.t
val set_pkru : t -> Pkru.t -> unit
(** The WRPKRU instruction. The time cost is charged by the caller. *)

val account : t -> Vessel_stats.Cycle_account.t
val charge : t -> Vessel_stats.Cycle_account.category -> int -> unit

val umwait : t -> Umwait.t

val rng : t -> Vessel_engine.Rng.t
(** The core's private jitter stream. *)
