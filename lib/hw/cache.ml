type t = {
  line : int;
  assoc : int;
  nsets : int;
  tags : int array; (* nsets * assoc, -1 = invalid *)
  stamps : int array; (* LRU stamps parallel to tags *)
  mutable tick : int;
  mutable accesses : int;
  mutable misses : int;
}

let create ?(line = 64) ?(assoc = 16) ?(capacity = 2 * 1024 * 1024) () =
  if line <= 0 || assoc <= 0 || capacity <= 0 then
    invalid_arg "Cache.create: parameters must be positive";
  if capacity mod (line * assoc) <> 0 then
    invalid_arg "Cache.create: capacity must be a multiple of line*assoc";
  let nsets = capacity / (line * assoc) in
  {
    line;
    assoc;
    nsets;
    tags = Array.make (nsets * assoc) (-1);
    stamps = Array.make (nsets * assoc) 0;
    tick = 0;
    accesses = 0;
    misses = 0;
  }

(* The way in [\[w, stop)] that holds [tag], else [lnot] the first way
   with the smallest stamp, [lru] being the oldest seen so far and [lrus]
   its stamp. An invalid way keeps stamp 0 and every touch stamps a tick
   >= 1, so the first oldest way is the first invalid way if there is
   one, else the first least-recent way. Invalid tags are -1 and never
   match. *)
let rec scan (tags : int array) (stamps : int array) tag w stop lru lrus =
  if w = stop then lnot lru
  else if Array.unsafe_get tags w = tag then w
  else
    let s = Array.unsafe_get stamps w in
    if s < lrus then scan tags stamps tag (w + 1) stop w s
    else scan tags stamps tag (w + 1) stop lru lrus

(* The one per-line routine: touch [tag] in [set] at [tick]. Returns the
   way on a hit and [lnot way] on a miss, having filled or evicted that
   way. Counters are the caller's. A tag sits in at most one way of its
   set, so trying way [hint] first only short-cuts the scan; a run passes
   the previous line's way, which is usually right since neighbouring
   sets tend to be filled in the same order. *)
let touch t ~set ~tag ~tick ~hint =
  let tags = t.tags and stamps = t.stamps in
  let base = set * t.assoc in
  if Array.unsafe_get tags (base + hint) = tag then begin
    Array.unsafe_set stamps (base + hint) tick;
    hint
  end
  else
    let w = scan tags stamps tag base (base + t.assoc) base max_int in
    if w >= 0 then begin
      Array.unsafe_set stamps w tick;
      w - base
    end
    else begin
      let v = lnot w in
      Array.unsafe_set tags v tag;
      Array.unsafe_set stamps v tick;
      lnot (v - base)
    end

let access t addr =
  if addr < 0 then invalid_arg "Cache.access: negative address";
  let block = addr / t.line in
  let tick = t.tick + 1 in
  t.tick <- tick;
  t.accesses <- t.accesses + 1;
  if touch t ~set:(block mod t.nsets) ~tag:(block / t.nsets) ~tick ~hint:0 >= 0
  then `Hit
  else begin
    t.misses <- t.misses + 1;
    `Miss
  end

(* Consecutive lines fall in consecutive sets, so the run divides once:
   each step moves to the next set, wrapping to set 0 with the next tag.
   Each line ticks once for its touch and [word_accesses - 1] more for the
   words it stands for, exactly as that many [access] calls would. *)
let access_run t ?(word_accesses = 1) ~addr ~len () =
  if addr < 0 then invalid_arg "Cache.access_run: negative address";
  if len > 0 then begin
    let first = addr / t.line in
    let lines = ((addr + len - 1) / t.line) - first + 1 in
    let extra = if word_accesses > 1 then word_accesses - 1 else 0 in
    let set = ref (first mod t.nsets) and tag = ref (first / t.nsets) in
    let tick = ref t.tick and misses = ref t.misses and way = ref 0 in
    for _ = 1 to lines do
      let now = !tick + 1 in
      let w = touch t ~set:!set ~tag:!tag ~tick:now ~hint:!way in
      if w >= 0 then way := w
      else begin
        way := lnot w;
        incr misses
      end;
      tick := now + extra;
      if !set + 1 = t.nsets then begin
        set := 0;
        incr tag
      end
      else incr set
    done;
    t.tick <- !tick;
    t.misses <- !misses;
    t.accesses <- t.accesses + (lines * (1 + extra))
  end

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0

let accesses t = t.accesses
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0. else float_of_int t.misses /. float_of_int t.accesses

let reset_counters t =
  t.accesses <- 0;
  t.misses <- 0

let capacity t = t.nsets * t.assoc * t.line
