type arg = Int of int | Str of string
type flow_dir = Flow_start | Flow_step | Flow_end

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

let ts = function
  | Process _ -> 0
  | Span_begin { ts; _ } | Span_end { ts; _ } | Instant { ts; _ }
  | Counter { ts; _ } | Flow { ts; _ } ->
      ts

let track = function
  | Process _ -> None
  | Span_begin { track; _ } | Span_end { track; _ } | Instant { track; _ }
  | Counter { track; _ } | Flow { track; _ } ->
      Some track

let name = function
  | Process { name } -> Some name
  | Span_begin { name; _ } | Instant { name; _ } | Counter { name; _ }
  | Flow { name; _ } ->
      Some name
  | Span_end _ -> None

let pp fmt = function
  | Process { name } -> Format.fprintf fmt "process %s" name
  | Span_begin { ts; track; name; _ } ->
      Format.fprintf fmt "[%d] %a B %s" ts Track.pp track name
  | Span_end { ts; track } -> Format.fprintf fmt "[%d] %a E" ts Track.pp track
  | Instant { ts; track; name; _ } ->
      Format.fprintf fmt "[%d] %a i %s" ts Track.pp track name
  | Counter { ts; track; name; value } ->
      Format.fprintf fmt "[%d] %a C %s=%d" ts Track.pp track name value
  | Flow { ts; track; name; id; dir } ->
      let d =
        match dir with Flow_start -> "s" | Flow_step -> "t" | Flow_end -> "f"
      in
      Format.fprintf fmt "[%d] %a %s %s#%d" ts Track.pp track d name id
