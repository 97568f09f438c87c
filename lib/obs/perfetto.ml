(* Chrome trace_event JSON writer (the "JSON Array Format" with a
   traceEvents wrapper), loadable in Perfetto / chrome://tracing.

   Simulated nanoseconds map to the `ts` field, which trace_event defines
   in microseconds — we emit ns/1000 with three decimals so nothing is
   lost. Each unit gets at least one `pid`; every Event.Process marker
   inside a unit bumps to a fresh pid, because a unit may run several
   simulations whose clocks all start at 0 and per-track timestamps must
   stay monotone within one pid/tid pair. Track metadata (thread_name) is
   re-emitted per pid on first use.

   The writer streams. It reads each journal in place and appends every
   event to one buffer: integers digit by digit, names raw unless they
   need escaping. The buffer goes to [out] each time it passes
   [flush_at] bytes, so the strings handed out stay under the minor
   heap's 2 KB allocation limit and an export of any size leaves none of
   them on the major heap. *)

let flush_at = 1024

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(* [n] as [string_of_int] prints it. *)
let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

(* [ns / 1000] to three decimals, as [Printf "%.3f"] prints the float
   quotient. Below 2^50 the quotient is within 2^-13 of the exact value,
   so rounding it to thousandths gives the exact digits; from 2^50 on it
   may not, and the float path is kept. *)
let ts_exact = 1 lsl 50

let add_ts b ns =
  if ns > -ts_exact && ns < ts_exact then begin
    if ns < 0 then Buffer.add_char b '-';
    let a = abs ns in
    add_digits b (a / 1000);
    Buffer.add_char b '.';
    let f = a mod 1000 in
    Buffer.add_char b (Char.unsafe_chr (48 + (f / 100)));
    Buffer.add_char b (Char.unsafe_chr (48 + (f / 10 mod 10)));
    Buffer.add_char b (Char.unsafe_chr (48 + (f mod 10)))
  end
  else Buffer.add_string b (Printf.sprintf "%.3f" (float_of_int ns /. 1000.))

let add_arg b (k, v) =
  Json.add_quoted b k;
  Buffer.add_string b ": ";
  match v with
  | Event.Int n -> add_int b n
  | Event.Str s -> Json.add_quoted b s

let add_args b = function
  | [] -> ()
  | arg :: rest ->
      Buffer.add_string b ", \"args\": {";
      add_arg b arg;
      List.iter
        (fun arg ->
          Buffer.add_string b ", ";
          add_arg b arg)
        rest;
      Buffer.add_char b '}'

let write out ~units =
  let b = Buffer.create (2 * flush_at) in
  Buffer.add_string b "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  let first = ref true in
  (* Every event line opens with [start] and closes with [finish]. *)
  let start () = if !first then first := false else Buffer.add_string b ",\n" in
  let finish () =
    Buffer.add_char b '}';
    if Buffer.length b >= flush_at then begin
      out (Buffer.contents b);
      Buffer.clear b
    end
  in
  let next_pid = ref 0 in
  let pid = ref 0 in
  (* A line's [, "pid": P, "tid": T] fields, built once per track of the
     current pid; a track's first use also writes its thread_name line. *)
  let tracks = Hashtbl.create 8 in
  let ids tid = Printf.sprintf ", \"pid\": %d, \"tid\": %d" !pid tid in
  let metadata kind ids name =
    start ();
    Buffer.add_string b "{\"name\": \"";
    Buffer.add_string b kind;
    Buffer.add_string b "\", \"ph\": \"M\"";
    Buffer.add_string b ids;
    Buffer.add_string b ", \"args\": {\"name\": ";
    Json.add_quoted b name;
    Buffer.add_char b '}';
    finish ()
  in
  let fresh_pid name =
    incr next_pid;
    pid := !next_pid;
    Hashtbl.reset tracks;
    metadata "process_name" (ids 0) name
  in
  let track_ids tr =
    if !pid = 0 then fresh_pid "sim";
    let tid = Track.tid tr in
    match Hashtbl.find tracks tid with
    | ids -> ids
    | exception Not_found ->
        let ids = ids tid in
        metadata "thread_name" ids (Track.name tr);
        Hashtbl.add tracks tid ids;
        ids
  in
  (* The track's metadata goes out before the line that opens here. *)
  let named ~name track =
    let ids = track_ids track in
    start ();
    Buffer.add_string b "{\"name\": ";
    Json.add_quoted b name;
    ids
  in
  let ts_ids ts ids =
    Buffer.add_string b ", \"ts\": ";
    add_ts b ts;
    Buffer.add_string b ids
  in
  let event (ev : Event.t) =
    match ev with
    | Process { name } -> fresh_pid name
    | Span_begin { ts; track; name; args } ->
        let ids = named ~name track in
        Buffer.add_string b ", \"ph\": \"B\"";
        ts_ids ts ids;
        add_args b args;
        finish ()
    | Span_end { ts; track } ->
        let ids = track_ids track in
        start ();
        Buffer.add_string b "{\"ph\": \"E\"";
        ts_ids ts ids;
        finish ()
    | Instant { ts; track; name; args } ->
        let ids = named ~name track in
        Buffer.add_string b ", \"ph\": \"i\", \"s\": \"t\"";
        ts_ids ts ids;
        add_args b args;
        finish ()
    | Counter { ts; track; name; value } ->
        let ids = named ~name track in
        Buffer.add_string b ", \"ph\": \"C\"";
        ts_ids ts ids;
        Buffer.add_string b ", \"args\": {\"value\": ";
        add_int b value;
        Buffer.add_char b '}';
        finish ()
    | Flow { ts; track; name; id; dir } ->
        (* Chrome joins flow events sharing (cat, name, id) into an arrow
           chain; the terminating "f" carries bp:e so the arrow binds to
           the enclosing slice's end. *)
        let ids = named ~name track in
        Buffer.add_string b ", \"cat\": ";
        Json.add_quoted b name;
        Buffer.add_string b
          (match dir with
          | Event.Flow_start -> ", \"ph\": \"s\""
          | Event.Flow_step -> ", \"ph\": \"t\""
          | Event.Flow_end -> ", \"ph\": \"f\"");
        Buffer.add_string b ", \"id\": ";
        add_int b id;
        ts_ids ts ids;
        if dir = Event.Flow_end then Buffer.add_string b ", \"bp\": \"e\"";
        finish ()
  in
  List.iter
    (fun journal ->
      pid := 0;
      Journal.iter event journal)
    units;
  Buffer.add_string b "\n]}\n";
  out (Buffer.contents b)
