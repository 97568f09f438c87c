type t = {
  precision : int;
  sub : int; (* 2^precision sub-buckets per magnitude *)
  buckets : int array; (* one row of [sub] buckets per magnitude 0..62 *)
  mutable count : int;
  mutable total : float;
  mutable min_v : int;
  mutable max_v : int;
}

let magnitudes = 63

let create ?(precision = 6) () =
  if precision < 1 || precision > 16 then
    invalid_arg "Histogram.create: precision must be in [1,16]";
  let sub = 1 lsl precision in
  {
    precision;
    sub;
    buckets = Array.make (magnitudes * sub) 0;
    count = 0;
    total = 0.;
    min_v = Stdlib.max_int;
    max_v = 0;
  }

(* Bucket index. Values in [0, sub) map linearly (exact). A larger value v
   with most-significant bit k keeps its top [precision] bits after the
   leading one: shift m = k - precision puts (v lsr m) in [sub, 2*sub).
   Row m's buckets start at offset sub + m*sub. *)
let index t v =
  if v < t.sub then v
  else begin
    (* Branch-free MSB via the shared de Bruijn kernel: [record] sits on
       every latency-sample path, and the old loop walked all the value's
       bits (up to 63 iterations for wide values). *)
    let m = Vessel_engine.Bits.msb v - t.precision in
    t.sub + (m * t.sub) + ((v lsr m) - t.sub)
  end

(* Lower bound of bucket [i] — the representative value we report. *)
let value_of_index t i =
  if i < t.sub then i
  else begin
    let j = i - t.sub in
    let row = j / t.sub and col = j mod t.sub in
    (t.sub + col) lsl row
  end

let record_n t v ~n =
  if v < 0 then invalid_arg "Histogram.record: negative value";
  if n < 0 then invalid_arg "Histogram.record_n: negative count";
  if n > 0 then begin
    let i = index t v in
    t.buckets.(i) <- t.buckets.(i) + n;
    t.count <- t.count + n;
    t.total <- t.total +. (float_of_int v *. float_of_int n);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let record t v = record_n t v ~n:1

let count t = t.count
let min t = if t.count = 0 then 0 else t.min_v
let max t = t.max_v
let mean t = if t.count = 0 then 0. else t.total /. float_of_int t.count

let percentile t p =
  if p <= 0. || p > 100. then
    invalid_arg "Histogram.percentile: p must be in (0, 100]";
  if t.count = 0 then 0
  else begin
    let target =
      let x = int_of_float (Float.round (p /. 100. *. float_of_int t.count)) in
      if x < 1 then 1 else if x > t.count then t.count else x
    in
    let n = Array.length t.buckets in
    let rec go i acc =
      if i >= n then t.max_v
      else begin
        let acc = acc + t.buckets.(i) in
        if acc >= target then Stdlib.min (value_of_index t i) t.max_v
        else go (i + 1) acc
      end
    in
    go 0 0
  end

let merge ~into src =
  if into.precision <> src.precision then
    invalid_arg "Histogram.merge: precision mismatch";
  Array.iteri
    (fun i c -> if c > 0 then into.buckets.(i) <- into.buckets.(i) + c)
    src.buckets;
  into.count <- into.count + src.count;
  into.total <- into.total +. src.total;
  if src.count > 0 then begin
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v
  end

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  t.count <- 0;
  t.total <- 0.;
  t.min_v <- Stdlib.max_int;
  t.max_v <- 0
