(** The uProcess program loader (section 5.2.1).

    Replaces the booting program of a freshly forked kProcess with the
    real application: validates the image (PIE only, WRPKRU-free text),
    picks an ASLR slide inside the slot's regions, installs text as
    executable-only pages tagged with the slot's key, maps data/BSS
    read-write, copies the command line, and resolves needed libraries
    through the same inspection path. Also provides the dlopen-style
    on-demand loading of section 5.3, including the
    non-writable/non-executable -> inspect -> executable transition. *)

type t
(** Per-slot loader state (text/data cursors inside the slot regions). *)

type loaded = {
  slot : int;
  image : Image.t;
  text_base : Addr.t;
  data_base : Addr.t;
  bss_base : Addr.t;
  entry_addr : Addr.t;
  libraries : (string * Addr.t) list;
  aslr_slide : int;
  argv_addr : Addr.t;
}

type error =
  | Rejected of string  (** non-PIE or WRPKRU-bearing code *)
  | No_text_space
  | No_data_space

val pp_error : Format.formatter -> error -> unit

val create :
  Smas.t -> slot:int -> ?aslr:bool -> ?slide:int -> Vessel_engine.Rng.t -> t
(** [aslr] (default true) randomizes the load slide (section 4.1 lists
    ASLR as the mitigation for cross-text code reuse). [slide] forces an
    exact page-aligned slide instead — cloning a uProcess into another
    SMAS requires the identical address-space layout (section 5.3). *)

val slide : t -> int

val data_used : t -> int
(** Bytes of the data region consumed by the image + argv (the prefix a
    clone must copy). *)

val load_program :
  t -> ?args:string list -> ?libraries:Image.t list -> Image.t -> (loaded, error) result
(** At most one program per slot; a second call raises. *)

val dlopen : t -> Image.t -> (Addr.t, error) result
(** On-demand library load: stage pages read-only (not executable), run
    inspection, then flip to executable-only. Rejected code never becomes
    executable. *)

val allocator : t -> Allocator.t
(** The slot's heap allocator (jemalloc replacement), carved from the data
    region above the program's data/BSS. *)

val text_used : t -> int
