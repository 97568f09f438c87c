(* End-to-end latency attribution over Request stamps.

   An [Attrib.t] owns one int buffer per *lane* (a cluster machine, or
   lane 0 for a single Sim). The recorder appends (context, ts) pairs —
   two int stores — and every lane is written by at most one domain at a
   time (the cluster's epoch barrier serializes machine execution;
   Pool.map's join publishes the writes), so recording needs no locks.

   Finalization merges lanes in index order, groups stamps by request
   id, sorts each request's stamps by (ts, phase, lane) and walks the
   resulting ledger: the gap between consecutive stamps is charged to a
   phase determined by the *earlier* stamp's kind. The charges telescope,
   so the per-phase sums add up to end-to-end latency exactly — the
   conservation property the test suite checks. Network gaps are split
   against the link's known hop latency: the hop itself goes to
   net_req/net_resp, anything above it (epoch-barrier residue) to
   barrier.

   Instances register under (Collector unit key, per-key sequence), so
   the merged report and JSON artifact are byte-identical at any -j N —
   same discipline as the trace/metrics collector.

   Phase histograms here are exact sorted sample arrays, not
   Vessel_stats.Histogram: the stats library depends (through the
   engine) on vessel_obs, so obs cannot use it without a cycle — and
   exact samples make the conservation check and percentiles precise. *)

let nbuckets = 7

let bucket_names =
  [| "ingress"; "net_req"; "queue"; "service"; "sched"; "net_resp"; "barrier" |]

(* Charge target per Request phase index (Arrive..Done); net phases are
   split against hop_ns at walk time. *)
let bucket_of_phase = [| 0; 1; 2; 2; 3; 4; 5; -1 |]

type lane = { mutable buf : int array; mutable len : int }

type t = {
  label : string;
  key : int list;
  seq : int;
  hop_ns : int;
  sample_mask : int;
  lanes : lane array;
}

let registry : t list ref = ref []
let mu = Mutex.create ()
let seqs : (int list, int) Hashtbl.t = Hashtbl.create 8

let create ?(label = "") ?(lanes = 1) ?(hop_ns = 0) ?(sample_shift = 0) () =
  let key = Collector.current_key () in
  Mutex.lock mu;
  let seq = Option.value ~default:0 (Hashtbl.find_opt seqs key) in
  Hashtbl.replace seqs key (seq + 1);
  let t =
    {
      label;
      key;
      seq;
      hop_ns;
      sample_mask = (1 lsl sample_shift) - 1;
      lanes = Array.init (max 1 lanes) (fun _ -> { buf = [||]; len = 0 });
    }
  in
  registry := t :: !registry;
  Mutex.unlock mu;
  t

let reset () =
  Mutex.lock mu;
  registry := [];
  Hashtbl.reset seqs;
  Mutex.unlock mu

let instances () =
  Mutex.lock mu;
  let ts = !registry in
  Mutex.unlock mu;
  List.sort (fun a b -> compare (a.key, a.seq) (b.key, b.seq)) ts

let record t ~lane c ts =
  if (c lsr 3) land t.sample_mask = 0 then begin
    let l = t.lanes.(lane) in
    let cap = Array.length l.buf in
    if l.len + 2 > cap then begin
      let buf = Array.make (max 256 (2 * cap)) 0 in
      Array.blit l.buf 0 buf 0 l.len;
      l.buf <- buf
    end;
    l.buf.(l.len) <- c;
    l.buf.(l.len + 1) <- ts;
    l.len <- l.len + 2
  end

let with_lane t ~lane f = Request.with_recorder (Some (record t ~lane)) f

(* Sink adapter: replays req.* trace instants into a lane — lets tests
   drive attribution from a synthetic event stream, checker-style. The
   live path records directly and never goes through here. *)
let phase_of_tag name =
  let n = Array.length Request.tags in
  let rec find i = if i >= n then -1 else if String.equal Request.tags.(i) name then i else find (i + 1) in
  find 0

let consume t ~lane (ev : Event.t) =
  match ev with
  | Event.Instant { ts; name; args; _ } -> (
      match phase_of_tag name with
      | -1 -> ()
      | p -> (
          match List.assoc_opt "rid" args with
          | Some (Event.Int rid) when rid > 0 -> record t ~lane ((rid lsl 3) lor p) ts
          | _ -> ()))
  | _ -> ()

let sink t ~lane = Sink.of_fn (consume t ~lane)

(* ---- finalization ---- *)

type ledger = {
  rid : int;
  e2e_ns : int;
  shard : int;
  by_bucket : int array;  (** length {!nbuckets}, sums to [e2e_ns] *)
}

type summary = {
  s_label : string;
  s_key : int list;
  s_seq : int;
  ledgers : ledger list;  (** completed requests, ascending rid *)
  inflight : int;
  malformed : int;
  violations : int;
}

let summarize t =
  (* Every stamp, lanes in index order and each lane in recording order:
     stamp [k] is context [flat.(2k)] at [flat.(2k+1)], on the lane
     whose range of stamps holds [k]. A single lane is read in place. *)
  let first_of_lane = Array.make (Array.length t.lanes + 1) 0 in
  Array.iteri
    (fun li l -> first_of_lane.(li + 1) <- first_of_lane.(li) + (l.len / 2))
    t.lanes;
  let n = first_of_lane.(Array.length t.lanes) in
  let flat =
    match t.lanes with
    | [| l |] -> l.buf
    | lanes ->
        let flat = Array.make (2 * n) 0 in
        Array.iteri
          (fun li l -> Array.blit l.buf 0 flat (2 * first_of_lane.(li)) l.len)
          lanes;
        flat
  in
  let ctx k = flat.(2 * k) and ts k = flat.((2 * k) + 1) in
  let lane k =
    let rec find li = if k < first_of_lane.(li + 1) then li else find (li + 1) in
    find 0
  in
  (* One stable sort by (rid, ts, phase) makes each request's stamps one
     run; ties stay in lane order, then recording order. *)
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun i j ->
      let c = Int.compare (ctx i lsr 3) (ctx j lsr 3) in
      if c <> 0 then c
      else
        let c = Int.compare (ts i) (ts j) in
        if c <> 0 then c else Int.compare (ctx i land 7) (ctx j land 7))
    order;
  let inflight = ref 0 and malformed = ref 0 and violations = ref 0 in
  let ledgers = ref [] in
  (* Walks one request's run [first, stop) to Done, charging each gap to
     the earlier stamp's phase; stamps after Done (none are expected) are
     ignored. *)
  let walk first stop =
    let x0 = order.(first) in
    let t0 = ts x0 in
    let by_bucket = Array.make nbuckets 0 in
    let shard = ref 0 in
    let rec step prev_phase prev_ts k =
      if k = stop then incr inflight
      else begin
        let x = order.(k) in
        let now = ts x in
        let gap = now - prev_ts in
        (match prev_phase with
        | 1 | 6 ->
            (* network gap: hop to net_req/net_resp, barrier residue
               above the known link latency *)
            let hop = min gap t.hop_ns in
            let b = bucket_of_phase.(prev_phase) in
            by_bucket.(b) <- by_bucket.(b) + hop;
            by_bucket.(6) <- by_bucket.(6) + (gap - hop)
        | p ->
            let b = bucket_of_phase.(p) in
            by_bucket.(b) <- by_bucket.(b) + gap);
        let ph = ctx x land 7 in
        if ph = 6 || (ph = 4 && !shard = 0) then shard := lane x + 1;
        if ph = 7 then begin
          let e2e = now - t0 in
          if Array.fold_left ( + ) 0 by_bucket <> e2e then incr violations;
          ledgers :=
            {
              rid = ctx x0 lsr 3;
              e2e_ns = e2e;
              shard = max 0 (!shard - 1);
              by_bucket;
            }
            :: !ledgers
        end
        else step ph now (k + 1)
      end
    in
    if ctx x0 land 7 = 0 then step 0 t0 (first + 1) else incr malformed
  in
  let first = ref 0 in
  while !first < n do
    let rid = ctx order.(!first) lsr 3 in
    let stop = ref (!first + 1) in
    while !stop < n && ctx order.(!stop) lsr 3 = rid do
      incr stop
    done;
    walk !first !stop;
    first := !stop
  done;
  {
    s_label = t.label;
    s_key = t.key;
    s_seq = t.seq;
    ledgers = List.rev !ledgers;
    inflight = !inflight;
    malformed = !malformed;
    violations = !violations;
  }

let summaries () = List.map summarize (instances ())

(* ---- stats + artifact ---- *)

(* Exact percentile over a sorted sample array: the smallest sample with
   at least p% of the mass at or below it. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(max 0 (min (n - 1) (((p * n) + 99) / 100 - 1)))

(* Ascending in place, as [Array.sort Int.compare] but several times
   faster on these ~10^5-sample arrays: a least-significant-digit radix
   sort on the bytes of each value with its sign bit flipped, skipping
   every byte in which no two values differ. *)
let sort_ints a =
  let n = Array.length a in
  let varying = ref 0 in
  for i = 1 to n - 1 do
    varying := !varying lor (a.(i) lxor a.(0))
  done;
  let src = ref a and dst = ref (Array.make n 0) in
  let count = Array.make 256 0 in
  for d = 0 to 7 do
    if (!varying lsr (8 * d)) land 0xff <> 0 then begin
      let digit x = ((x lxor min_int) lsr (8 * d)) land 0xff in
      let s = !src and t = !dst in
      Array.fill count 0 256 0;
      Array.iter (fun x -> count.(digit x) <- count.(digit x) + 1) s;
      let start = ref 0 in
      for k = 0 to 255 do
        let c = count.(k) in
        count.(k) <- !start;
        start := !start + c
      done;
      Array.iter
        (fun x ->
          let k = digit x in
          t.(count.(k)) <- x;
          count.(k) <- count.(k) + 1)
        s;
      src := t;
      dst := s
    end
  done;
  if !src != a then Array.blit !src 0 a 0 n

let sorted_of ledgers f =
  let a = Array.map f ledgers in
  sort_ints a;
  a

let blame_counts ledgers threshold =
  let counts = Array.make nbuckets 0 in
  let above = ref 0 in
  Array.iter
    (fun l ->
      if l.e2e_ns >= threshold then begin
        incr above;
        let best = ref 0 in
        Array.iteri
          (fun i v -> if v > l.by_bucket.(!best) then best := i)
          l.by_bucket;
        counts.(!best) <- counts.(!best) + 1
      end)
    ledgers;
  (!above, counts)

let dist_json sorted =
  Printf.sprintf
    "{\"count\": %d, \"sum\": %d, \"p50\": %d, \"p90\": %d, \"p99\": %d, \
     \"max\": %d}"
    (Array.length sorted)
    (Array.fold_left ( + ) 0 sorted)
    (pct sorted 50) (pct sorted 90) (pct sorted 99)
    (if Array.length sorted = 0 then 0 else sorted.(Array.length sorted - 1))

let counts_json counts =
  String.concat ", "
    (List.init nbuckets (fun i ->
         Printf.sprintf "%s: %d" (Json.quote bucket_names.(i)) counts.(i)))

(* Each shard's ledgers, ascending shard. *)
let by_shard ledgers =
  List.map
    (fun sh -> (sh, Array.of_list (List.filter (fun l -> l.shard = sh) ledgers)))
    (List.sort_uniq Int.compare (List.map (fun l -> l.shard) ledgers))

let unit_json s =
  let ls = Array.of_list s.ledgers in
  let b = Buffer.create 1024 in
  let add = Buffer.add_string b in
  add
    (Printf.sprintf "    {\"label\": %s, \"key\": [%s], \"seq\": %d,\n"
       (Json.quote s.s_label)
       (String.concat ", " (List.map string_of_int s.s_key))
       s.s_seq);
  add
    (Printf.sprintf
       "     \"requests\": {\"completed\": %d, \"inflight\": %d, \
        \"malformed\": %d, \"conservation_violations\": %d},\n"
       (Array.length ls) s.inflight s.malformed s.violations);
  let e2e = sorted_of ls (fun l -> l.e2e_ns) in
  add (Printf.sprintf "     \"e2e_ns\": %s,\n" (dist_json e2e));
  add "     \"phases\": {";
  add
    (String.concat ", "
       (List.init nbuckets (fun i ->
            Printf.sprintf "%s: %s"
              (Json.quote bucket_names.(i))
              (dist_json (sorted_of ls (fun l -> l.by_bucket.(i)))))));
  add "},\n";
  let threshold = pct e2e 99 in
  let above, counts = blame_counts ls threshold in
  add
    (Printf.sprintf
       "     \"p99_blame\": {\"threshold_ns\": %d, \"above\": %d, \
        \"by_phase\": {%s}},\n"
       threshold above (counts_json counts));
  add "     \"shards\": [";
  add
    (String.concat ", "
       (List.map
          (fun (sh, mine) ->
            let e2e_s = sorted_of mine (fun l -> l.e2e_ns) in
            let above_s, counts_s = blame_counts mine threshold in
            Printf.sprintf
              "{\"shard\": %d, \"completed\": %d, \"p99_ns\": %d, \"above\": \
               %d, \"blame\": {%s}}"
              sh (Array.length mine) (pct e2e_s 99) above_s (counts_json counts_s))
          (by_shard s.ledgers)));
  add "]}";
  Buffer.contents b

let write_summaries out = function
  | [] -> out "{\"schema\": \"vessel-attrib-1\",\n  \"units\": []}\n"
  | ss ->
      out "{\"schema\": \"vessel-attrib-1\",\n  \"units\": [\n";
      List.iteri
        (fun i s ->
          if i > 0 then out ",\n";
          out (unit_json s))
        ss;
      out "\n]}\n"

let write out = write_summaries out (summaries ())

(* ---- human blame report ---- *)

let us ns = Printf.sprintf "%.1fus" (float_of_int ns /. 1000.)

let report out ss =
  List.iter
    (fun s ->
      let ls = Array.of_list s.ledgers in
      let n = Array.length ls in
      out
        (Printf.sprintf "--- attribution: %s (%d done, %d in flight%s) ---\n"
           (if s.s_label = "" then "root" else s.s_label)
           n s.inflight
           (if s.violations + s.malformed = 0 then ""
            else
              Printf.sprintf ", %d malformed, %d VIOLATIONS" s.malformed
                s.violations));
      if n > 0 then begin
        let e2e = sorted_of ls (fun l -> l.e2e_ns) in
        out
          (Printf.sprintf "e2e p50 %s  p90 %s  p99 %s  max %s\n" (us (pct e2e 50))
             (us (pct e2e 90)) (us (pct e2e 99))
             (us e2e.(Array.length e2e - 1)));
        let total = Array.fold_left ( + ) 0 e2e in
        let threshold = pct e2e 99 in
        let above, counts = blame_counts ls threshold in
        for i = 0 to nbuckets - 1 do
          let ph = sorted_of ls (fun l -> l.by_bucket.(i)) in
          let sum = Array.fold_left ( + ) 0 ph in
          if sum > 0 then
            out
              (Printf.sprintf
                 "  %-9s %5.1f%%  p50 %-9s p99 %-9s blame %d\n"
                 bucket_names.(i)
                 (100. *. float_of_int sum /. float_of_int (max 1 total))
                 (us (pct ph 50)) (us (pct ph 99)) counts.(i))
        done;
        out
          (Printf.sprintf "p99 blame: %d request(s) >= %s\n" above
             (us threshold));
        let shards = by_shard s.ledgers in
        if List.length shards > 1 then
          List.iter
            (fun (sh, mine) ->
              let e2e_s = sorted_of mine (fun l -> l.e2e_ns) in
              let _, counts_s = blame_counts mine threshold in
              let top = ref 0 in
              Array.iteri
                (fun i v -> if v > counts_s.(!top) then top := i)
                counts_s;
              out
                (Printf.sprintf
                   "  shard %-2d  %6d done  p99 %-9s top blame %s\n" sh
                   (Array.length mine) (us (pct e2e_s 99))
                   (if counts_s.(!top) = 0 then "-" else bucket_names.(!top))))
            shards
      end)
    ss
