(* A JSON reader written for the benchmark, independent of the
   simulator's own JSON code: a strict recursive-descent parser over a
   chunked input, plus a streaming scan of a Chrome trace_event file that
   never holds more than one event in memory. *)

type value =
  | Null
  | Bool of bool
  | Num of string  (** the lexeme, validated against the JSON grammar *)
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

exception Malformed of string

type src = {
  refill : bytes -> int;  (** fills the buffer, 0 at end of input *)
  buf : bytes;
  mutable pos : int;
  mutable len : int;
  mutable offset : int;  (** bytes consumed before [buf] *)
}

let of_channel ic =
  let buf = Bytes.create 65536 in
  { refill = (fun b -> input ic b 0 (Bytes.length b)); buf; pos = 0; len = 0; offset = 0 }

let of_string s =
  let used = ref false in
  {
    refill =
      (fun b ->
        if !used then 0
        else begin
          used := true;
          Bytes.blit_string s 0 b 0 (String.length s);
          String.length s
        end);
    buf = Bytes.create (max 1 (String.length s));
    pos = 0;
    len = 0;
    offset = 0;
  }

let malformed s fmt =
  Printf.ksprintf
    (fun m -> raise (Malformed (Printf.sprintf "byte %d: %s" (s.offset + s.pos) m)))
    fmt

(* The next byte, or '\000' at end of input (NUL is never valid JSON
   outside strings, and strings reject raw control bytes). *)
let peek s =
  if s.pos < s.len then Bytes.unsafe_get s.buf s.pos
  else begin
    s.offset <- s.offset + s.len;
    s.len <- s.refill s.buf;
    s.pos <- 0;
    if s.len = 0 then '\000' else Bytes.unsafe_get s.buf 0
  end

let advance s = s.pos <- s.pos + 1

let next s =
  let c = peek s in
  if s.len = 0 then malformed s "unexpected end of input";
  advance s;
  c

let rec skip_ws s =
  match peek s with
  | ' ' | '\t' | '\n' | '\r' ->
      advance s;
      skip_ws s
  | _ -> ()

let expect s c =
  skip_ws s;
  let d = next s in
  if d <> c then malformed s "expected '%c', found '%c'" c d

let literal s word v =
  String.iter (fun c -> if next s <> c then malformed s "bad literal") word;
  v

let hex s =
  match next s with
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> malformed s "bad \\u escape"

let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let string_body s =
  let b = Buffer.create 16 in
  let rec go () =
    match next s with
    | '"' -> Buffer.contents b
    | '\\' ->
        (match next s with
        | ('"' | '\\' | '/') as c -> Buffer.add_char b c
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
            let a = hex s in
            let b1 = hex s in
            let c = hex s in
            let d = hex s in
            add_utf8 b ((a lsl 12) lor (b1 lsl 8) lor (c lsl 4) lor d)
        | _ -> malformed s "bad escape");
        go ()
    | c when Char.code c < 0x20 -> malformed s "control byte in string"
    | c ->
        Buffer.add_char b c;
        go ()
  in
  go ()

(* JSON's number grammar: an optional minus, an integer part without
   leading zeros, an optional fraction and an optional exponent. *)
let number s =
  let b = Buffer.create 12 in
  let take () = Buffer.add_char b (next s) in
  let digits () =
    let n = ref 0 in
    while match peek s with '0' .. '9' -> true | _ -> false do
      take ();
      incr n
    done;
    if !n = 0 then malformed s "digit expected"
  in
  if peek s = '-' then take ();
  (match peek s with
  | '0' -> take ()
  | '1' .. '9' -> digits ()
  | _ -> malformed s "digit expected");
  if peek s = '.' then begin
    take ();
    digits ()
  end;
  (match peek s with
  | 'e' | 'E' ->
      take ();
      (match peek s with '+' | '-' -> take () | _ -> ());
      digits ()
  | _ -> ());
  Buffer.contents b

(* [items s close each] parses comma-separated items up to [close]. *)
let items s close each =
  skip_ws s;
  if peek s = close then advance s
  else begin
    each ();
    skip_ws s;
    while peek s = ',' do
      advance s;
      each ();
      skip_ws s
    done;
    expect s close
  end

let rec value s =
  skip_ws s;
  match next s with
  | '{' ->
      let fields = ref [] in
      items s '}' (fun () ->
          let k = key s in
          fields := (k, value s) :: !fields);
      Obj (List.rev !fields)
  | '[' ->
      let xs = ref [] in
      items s ']' (fun () -> xs := value s :: !xs);
      Arr (List.rev !xs)
  | '"' -> Str (string_body s)
  | 't' -> literal s "rue" (Bool true)
  | 'f' -> literal s "alse" (Bool false)
  | 'n' -> literal s "ull" Null
  | '-' | '0' .. '9' ->
      s.pos <- s.pos - 1;
      Num (number s)
  | c -> malformed s "unexpected '%c'" c

and key s =
  expect s '"';
  let k = string_body s in
  expect s ':';
  k

let finish s =
  skip_ws s;
  if peek s <> '\000' || s.len <> 0 then malformed s "trailing data"

let parse s =
  let v = value s in
  finish s;
  v

let parse_string str = parse (of_string str)

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> parse (of_channel ic))

(* ---- accessors -------------------------------------------------------- *)

let field k = function
  | Obj fs -> ( match List.assoc_opt k fs with Some v -> v | None -> Null)
  | _ -> Null

let rec path ks v = match ks with [] -> v | k :: rest -> path rest (field k v)
let to_int = function Num n -> int_of_string_opt n | _ -> None
let to_float = function Num n -> float_of_string_opt n | _ -> None
let to_str = function Str x -> Some x | _ -> None
let to_list = function Arr xs -> xs | _ -> []

(* ---- trace_event scan ------------------------------------------------- *)

type trace_stats = {
  events : int;
  switch_spans : int;  (** "B" events named switch.* *)
  preempt_instants : int;  (** "i" events named preempt *)
  tracks : int;  (** distinct (pid, tid) pairs *)
  backwards : (string * int) list;
      (** events stamped earlier than an event before them on their
          track, counted by event name *)
  problems : string list;  (** malformed JSON, unbalanced spans, missing fields *)
}

type track = { mutable depth : int; mutable last_ts : float }

(* Validates the whole file as JSON and, for every element of the
   top-level "traceEvents" array, checks that spans ("B"/"E") balance
   on their (pid, tid) track and counts the events whose timestamp is
   below the latest one seen before them on that track. *)
let scan_trace s =
  let tracks : (int * int, track) Hashtbl.t = Hashtbl.create 64 in
  let events = ref 0 and switch_spans = ref 0 and preempts = ref 0 in
  let backwards = Hashtbl.create 4 in
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf
      (fun m -> if List.length !problems < 8 then problems := m :: !problems)
      fmt
  in
  let event v =
    incr events;
    let str k = Option.value (to_str (field k v)) ~default:"" in
    let ph = str "ph" and name = str "name" in
    if ph = "" then problem "event %d has no phase" !events
    else if ph <> "M" then begin
      match (to_int (field "pid" v), to_int (field "tid" v), to_float (field "ts" v)) with
      | Some pid, Some tid, Some ts ->
          let tr =
            match Hashtbl.find_opt tracks (pid, tid) with
            | Some tr -> tr
            | None ->
                let tr = { depth = 0; last_ts = Float.neg_infinity } in
                Hashtbl.add tracks (pid, tid) tr;
                tr
          in
          if ts < tr.last_ts then
            Hashtbl.replace backwards name
              (1 + Option.value (Hashtbl.find_opt backwards name) ~default:0)
          else tr.last_ts <- ts;
          (match ph with
          | "B" ->
              tr.depth <- tr.depth + 1;
              if String.starts_with ~prefix:"switch." name then
                incr switch_spans
          | "E" ->
              if tr.depth = 0 then
                problem "track %d/%d: span end without a begin at ts %g" pid
                  tid ts
              else tr.depth <- tr.depth - 1
          | "i" -> if name = "preempt" then incr preempts
          | _ -> ())
      | _ -> problem "event %d lacks pid, tid or ts" !events
    end
  in
  (try
     expect s '{';
     let seen = ref false in
     items s '}' (fun () ->
         match key s with
         | "traceEvents" ->
             seen := true;
             expect s '[';
             items s ']' (fun () -> event (value s))
         | _ -> ignore (value s));
     finish s;
     if not !seen then problem "no traceEvents array"
   with Malformed m -> problem "malformed JSON: %s" m);
  Hashtbl.iter
    (fun (pid, tid) tr ->
      if tr.depth <> 0 then problem "track %d/%d: %d spans left open" pid tid tr.depth)
    tracks;
  {
    events = !events;
    switch_spans = !switch_spans;
    preempt_instants = !preempts;
    tracks = Hashtbl.length tracks;
    backwards =
      List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) backwards []);
    problems = List.rev !problems;
  }
