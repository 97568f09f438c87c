(** Typed trace events.

    [Process] opens a fresh process scope inside a buffer: every
    simulation instance emits one at creation so its tracks restart at
    time zero under their own Perfetto process, keeping per-track
    timestamps monotone. The remaining constructors mirror the Chrome
    [trace_event] phases B/E/i/C, plus flow events (phases s/t/f) that
    render as arrows between tracks — used for cross-machine request
    causality. Timestamps are simulated nanoseconds. *)

type arg = Int of int | Str of string

type flow_dir = Flow_start | Flow_step | Flow_end
(** Flow phases: start ("s"), step ("t"), end ("f"). Chrome binds flow
    events sharing the same [name]/[id] into one arrow chain. *)

type t =
  | Process of { name : string }
  | Span_begin of {
      ts : int;
      track : Track.t;
      name : string;
      args : (string * arg) list;
    }
  | Span_end of { ts : int; track : Track.t }
  | Instant of {
      ts : int;
      track : Track.t;
      name : string;
      args : (string * arg) list;
    }
  | Counter of { ts : int; track : Track.t; name : string; value : int }
  | Flow of {
      ts : int;
      track : Track.t;
      name : string;
      id : int;
      dir : flow_dir;
    }

val ts : t -> int
(** 0 for [Process]. *)

val track : t -> Track.t option
val name : t -> string option
val pp : Format.formatter -> t -> unit
