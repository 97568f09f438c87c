(** Simulated program images.

    A stand-in for a PIE ELF binary: named text bytes (in which WRPKRU
    opcode sequences can genuinely occur and be found by {!Inspect}), data
    and BSS sizes, an entry offset and a list of needed shared libraries.
    The generator fills text with bytes that avoid accidental WRPKRU
    sequences so that tests control exactly where the opcode appears. *)

type t = {
  name : string;
  pie : bool;
  text : bytes;
  data_size : int;
  bss_size : int;
  entry : int;  (** offset into text *)
  needed : string list;  (** shared libraries to load alongside *)
}

val wrpkru_opcode : string
(** The x86 encoding "\x0f\x01\xef". *)

val make :
  ?pie:bool ->
  ?data_size:int ->
  ?bss_size:int ->
  ?entry:int ->
  ?needed:string list ->
  ?embed_wrpkru_at:int list ->
  name:string ->
  text_size:int ->
  Vessel_engine.Rng.t ->
  t
(** Random text of [text_size] bytes free of WRPKRU, then the opcode
    embedded at each requested offset. Raises if an offset does not leave
    room for the 3-byte sequence. Defaults: pie, 64 KiB data, 16 KiB bss,
    entry 0, no libraries. *)

val text_size : t -> int

val library : name:string -> text_size:int -> Vessel_engine.Rng.t -> t
(** A clean PIE shared library (no data segment to speak of). *)
