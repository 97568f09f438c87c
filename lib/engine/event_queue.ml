(* Pooled-entry event queue: a hierarchical timing wheel fronting an
   overflow binary heap. See the .mli for the contract; the invariants
   that make the wheel exact are spelled out inline. *)

(* One pooled entry. [next] threads the entry through either a wheel
   bucket or the free list; the generation half of [ga] bumps every time
   the entry returns to the free list, invalidating any handle still
   pointing at it.

   An entry carries either a boxed ['a] payload ([add]: [tagp = -1],
   the [value] field) or an int-tagged payload ([add_tagged]: [tagp]
   holds [(tag, a, b)] packed into one non-negative word). The tagged
   add never touches [value], so it pays no write barrier and pins no
   closure. To make room for [tagp] without growing the record — slab
   cache footprint measurably dominates everything else here — the old
   [gen]/[active] pair is packed into [ga] ([gen lsl 1 lor active]),
   keeping the entry at its original seven words. *)
type 'a entry = {
  mutable time : int;
  mutable seq : int;
  mutable value : 'a;
  mutable ga : int; (* generation lsl 1 lor active *)
  mutable next : int; (* slab index; -1 = nil *)
  mutable tagp : int; (* -1 = boxed [value]; >= 0 = packed (tag, a, b) *)
}

(* Packed tagged payload: [b lsl 24 lor a lsl 8 lor tag]. The field
   widths (8-bit tag, 16-bit [a], 38-bit [b]) keep the word a valid
   non-negative OCaml immediate; [add_tagged] validates the ranges. *)
let tag_bits = 8
let a_bits = 16
let max_tag = (1 lsl tag_bits) - 1
let max_a = (1 lsl a_bits) - 1
let max_b = (1 lsl 38) - 1

type handle = int

(* Wheel geometry: 4 levels of 256 slots. Level [k] buckets are
   [256^k] ns wide, so the wheel spans 2^32 simulated ns from the
   cursor; anything further (or in the past) overflows to the heap.
   Occupancy bitmaps use 32-bit words — 8 per level — because OCaml
   ints are 63-bit and [1 lsl 63] is unspecified. *)

let levels = 4
let slots_per_level = 256
let words_per_level = slots_per_level / 32

type 'a t = {
  mutable slab : 'a entry array;
  mutable free : int; (* free-list head *)
  mutable next_seq : int;
  mutable live : int;
  mutable front : int;
  (* Slab index of an entry held outside both structures, always the
     live global minimum (-1 = none). Short-circuits the dominant
     add-then-pop-soon pattern: the entry never touches a bucket.
     Invariant: [front] is (time, seq)-minimal among all live entries,
     and always active ([cancel] clears it eagerly). *)
  mutable cur : int;
  (* The cursor: every live wheel entry has [time >= cur] (entries that
     would violate this at [add] go to the heap), and the level-(k+1)
     slot covering [cur]'s level-k block holds no entries — every move
     of [cur] across a block boundary drains the covering slots on the
     spot ([advance_cur], and [wheel_scan]'s own cascades). [cur] only
     moves in [wheel_scan]/[advance_cur]. *)
  heads : int array; (* levels * slots: bucket head slab index *)
  tails : int array;
  bits : int array; (* levels * words_per_level 32-bit occupancy words *)
  mutable heap : int array; (* overflow heap of slab indexes *)
  mutable heap_size : int;
}

let create () =
  {
    slab = [||];
    free = -1;
    next_seq = 0;
    live = 0;
    front = -1;
    cur = 0;
    heads = Array.make (levels * slots_per_level) (-1);
    tails = Array.make (levels * slots_per_level) (-1);
    bits = Array.make (levels * words_per_level) 0;
    heap = [||];
    heap_size = 0;
  }

let is_empty t = t.live = 0
let length t = t.live
let pool_allocated t = Array.length t.slab

(* Hot-path array access. Every index below is structural — free-list
   links, bucket chains, heap slots and the front cache only ever hold
   valid slab indexes — so bounds checks are skipped. The one index that
   comes from outside ([cancel]'s handle) keeps its explicit check. *)
let aget = Array.unsafe_get
let aset = Array.unsafe_set

(* ------------------------------------------------------------------ *)
(* Entry pool *)

let grow t =
  let old = Array.length t.slab in
  let ncap = if old = 0 then 64 else 2 * old in
  let slab =
    Array.init ncap (fun i ->
        if i < old then t.slab.(i)
        else
          {
            time = 0;
            seq = 0;
            value = Obj.magic 0;
            ga = 0;
            next = (if i + 1 < ncap then i + 1 else -1);
            tagp = -1;
          })
  in
  t.slab <- slab;
  t.free <- old;
  if !Vessel_obs.Probe.metrics_on then begin
    Vessel_obs.Probe.incr ~by:(ncap - old) Vessel_obs.Tag.eq_pool_grown;
    Vessel_obs.Probe.set_gauge Vessel_obs.Tag.eq_pool_entries ncap
  end

(* [e] is [t.slab.(i)], already loaded by every caller. The stale
   [value] is deliberately NOT cleared here: the next [add] of this
   slot overwrites it, paying one write barrier instead of two. The
   cost is that a freed slot pins its last value until reuse — bounded
   by the pool (peak-pending) size, and those values were live moments
   ago anyway. *)
let free_entry t i e =
  (* Clear the active bit and bump the generation in one store. *)
  e.ga <- (e.ga lor 1) + 1;
  e.next <- t.free;
  t.free <- i

(* ------------------------------------------------------------------ *)
(* Occupancy bitmaps *)

(* ctz over 32-bit values via de Bruijn multiplication (shared scan
   kernel in Bits). *)
let ctz32 = Bits.ctz32

let set_bit t lvl slot =
  let w = (lvl lsl 3) + (slot lsr 5) in
  aset t.bits w (aget t.bits w lor (1 lsl (slot land 31)))

let clear_bit t lvl slot =
  let w = (lvl lsl 3) + (slot lsr 5) in
  aset t.bits w (aget t.bits w land lnot (1 lsl (slot land 31)))

(* First occupied slot at index >= start on this level, or -1. *)
let level_next t lvl start =
  if start > 255 then -1
  else begin
    let base = lvl lsl 3 in
    let w0 = start lsr 5 in
    let m = aget t.bits (base + w0) land ((-1) lsl (start land 31)) in
    if m <> 0 then (w0 lsl 5) lor ctz32 m
    else begin
      let found = ref (-1) in
      let w = ref (w0 + 1) in
      while !found < 0 && !w < words_per_level do
        let m = aget t.bits (base + !w) in
        if m <> 0 then found := (!w lsl 5) lor ctz32 m;
        incr w
      done;
      !found
    end
  end

(* ------------------------------------------------------------------ *)
(* Wheel buckets *)

let append t lvl slot i =
  let idx = (lvl lsl 8) lor slot in
  (aget t.slab i).next <- -1;
  let tail = aget t.tails idx in
  if tail = -1 then begin
    aset t.heads idx i;
    aset t.tails idx i;
    set_bit t lvl slot
  end
  else begin
    (aget t.slab tail).next <- i;
    aset t.tails idx i
  end

(* ------------------------------------------------------------------ *)
(* Overflow heap (indexes into the slab) *)

let entry_less t a b =
  let ea = aget t.slab a and eb = aget t.slab b in
  ea.time < eb.time || (ea.time = eb.time && ea.seq < eb.seq)

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_less t (aget t.heap i) (aget t.heap parent) then begin
      let tmp = aget t.heap i in
      aset t.heap i (aget t.heap parent);
      aset t.heap parent tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.heap_size && entry_less t (aget t.heap l) (aget t.heap !smallest)
  then smallest := l;
  if r < t.heap_size && entry_less t (aget t.heap r) (aget t.heap !smallest)
  then smallest := r;
  if !smallest <> i then begin
    let tmp = aget t.heap i in
    aset t.heap i (aget t.heap !smallest);
    aset t.heap !smallest tmp;
    sift_down t !smallest
  end

let heap_push t i =
  let cap = Array.length t.heap in
  if t.heap_size = cap then begin
    let ncap = max 16 (2 * cap) in
    let nheap = Array.make ncap 0 in
    Array.blit t.heap 0 nheap 0 t.heap_size;
    t.heap <- nheap
  end;
  aset t.heap t.heap_size i;
  t.heap_size <- t.heap_size + 1;
  sift_up t (t.heap_size - 1)

let heap_remove_root t =
  t.heap_size <- t.heap_size - 1;
  if t.heap_size > 0 then begin
    aset t.heap 0 (aget t.heap t.heap_size);
    sift_down t 0
  end

(* Lazy deletion: cancelled entries are dropped when they reach the
   root (heap) or the head of their bucket (wheel). *)
let rec heap_clean t =
  if t.heap_size > 0 then begin
    let i = aget t.heap 0 in
    let e = aget t.slab i in
    if e.ga land 1 = 0 then begin
      heap_remove_root t;
      free_entry t i e;
      heap_clean t
    end
  end

(* ------------------------------------------------------------------ *)
(* Wheel placement and min-finding *)

let place t i =
  let time = (aget t.slab i).time and cur = t.cur in
  if time < cur || time lsr 32 <> cur lsr 32 then heap_push t i
  else if time lsr 8 = cur lsr 8 then append t 0 (time land 255) i
  else if time lsr 16 = cur lsr 16 then append t 1 (time lsr 8 land 255) i
  else if time lsr 24 = cur lsr 24 then append t 2 (time lsr 16 land 255) i
  else append t 3 (time lsr 24 land 255) i

(* Placement for a demoted front-cache entry. The front is (time,
   seq)-minimal among all live entries, so any same-time entry already
   in its target bucket has a higher seq: the demoted entry must go to
   the bucket HEAD, not the tail, to keep the pop order exact. *)
let place_front t i =
  let time = (aget t.slab i).time and cur = t.cur in
  if time < cur || time lsr 32 <> cur lsr 32 then heap_push t i
  else begin
    let lvl, slot =
      if time lsr 8 = cur lsr 8 then (0, time land 255)
      else if time lsr 16 = cur lsr 16 then (1, (time lsr 8) land 255)
      else if time lsr 24 = cur lsr 24 then (2, (time lsr 16) land 255)
      else (3, (time lsr 24) land 255)
    in
    let idx = (lvl lsl 8) lor slot in
    let head = aget t.heads idx in
    (aget t.slab i).next <- head;
    aset t.heads idx i;
    if head = -1 then begin
      aset t.tails idx i;
      set_bit t lvl slot
    end
  end

(* Move every entry of (lvl, slot) one level down, dropping dead ones.
   List order is preserved, so same-time entries keep seq order. *)
let cascade t lvl slot =
  let idx = (lvl lsl 8) lor slot in
  let i = ref (aget t.heads idx) in
  aset t.heads idx (-1);
  aset t.tails idx (-1);
  clear_bit t lvl slot;
  let shift = 8 * (lvl - 1) in
  while !i >= 0 do
    let e = aget t.slab !i in
    let nxt = e.next in
    if e.ga land 1 <> 0 then append t (lvl - 1) (e.time lsr shift land 255) !i
    else free_entry t !i e;
    i := nxt
  done

(* Drop dead entries off the head of level-0 bucket [s]; head index or
   -1 (bucket emptied, bit cleared). *)
let rec bucket_head t s =
  let h = aget t.heads s in
  if h = -1 then begin
    aset t.tails s (-1);
    clear_bit t 0 s;
    -1
  end
  else begin
    let e = aget t.slab h in
    if e.ga land 1 <> 0 then h
    else begin
      aset t.heads s e.next;
      free_entry t h e;
      bucket_head t s
    end
  end

let occupied t lvl slot =
  let w = (lvl lsl 3) + (slot lsr 5) in
  aget t.bits w land (1 lsl (slot land 31)) <> 0

(* Earliest live wheel entry (slab index, or -1), committing cursor
   advances and cascades along the way. Scans start at the cursor's own
   slot on every level: the current slot being occupied at level k >= 1
   exactly means its cascade is still pending (either stale entries
   from a lap 256^(k+1) ago, all dead by the cursor invariant and freed
   here, or a fresh cascade from level k+1 that parked entries at the
   region's first block). *)
let rec wheel_scan t =
  let s = level_next t 0 (t.cur land 255) in
  if s >= 0 then begin
    let h = bucket_head t s in
    if h >= 0 then h else wheel_scan t
  end
  else begin
    let j = level_next t 1 (t.cur lsr 8 land 255) in
    if j >= 0 then begin
      t.cur <- t.cur land lnot 0xFFFF lor (j lsl 8);
      cascade t 1 j;
      wheel_scan t
    end
    else begin
      let k = level_next t 2 (t.cur lsr 16 land 255) in
      if k >= 0 then begin
        t.cur <- t.cur land lnot 0xFF_FFFF lor (k lsl 16);
        cascade t 2 k;
        wheel_scan t
      end
      else begin
        let m = level_next t 3 (t.cur lsr 24 land 255) in
        if m >= 0 then begin
          t.cur <- t.cur land lnot 0xFFFF_FFFF lor (m lsl 24);
          cascade t 3 m;
          wheel_scan t
        end
        else -1
      end
    end
  end

(* Advance the cursor to [time] (the time of the entry being consumed).
   A pop can jump [cur] across block boundaries, into regions whose
   entries are still parked in the covering higher-level slots. Those
   slots MUST be drained here, eagerly — not at the next scan — or a
   subsequent [add] of an equal-time event could be appended to the L0
   bucket before the earlier-seq parked entry cascades into it, breaking
   FIFO. Each test is one bitmap probe; a cascade only fires when the
   covering slot is actually occupied. *)
let drain_covering t time =
  let s3 = (time lsr 24) land 255 in
  if occupied t 3 s3 then cascade t 3 s3;
  let s2 = (time lsr 16) land 255 in
  if occupied t 2 s2 then cascade t 2 s2;
  let s1 = (time lsr 8) land 255 in
  if occupied t 1 s1 then cascade t 1 s1

let[@inline] advance_cur t time =
  let old = t.cur in
  if time > old then begin
    t.cur <- time;
    if time lsr 8 <> old lsr 8 then drain_covering t time
  end

(* Earliest live entry across both structures, or -1. Ties between the
   heap and the wheel break on seq: an entry that overflowed to the
   heap and one at the same time in the wheel were added in seq order. *)
let global_min t =
  if t.front >= 0 then t.front
  else begin
    let w = wheel_scan t in
    heap_clean t;
    if t.heap_size = 0 then w
    else begin
      let h = aget t.heap 0 in
      if w < 0 then h else if entry_less t h w then h else w
    end
  end

(* Remove the global minimum [i] (= slab entry [e]) from whichever
   structure holds it. [i] is the heap root iff it lives in the heap
   (slab indexes are in exactly one structure at a time). *)
let consume t i e =
  if i = t.front then t.front <- -1
  else if t.heap_size > 0 && aget t.heap 0 = i then heap_remove_root t
  else begin
    (* [wheel_scan] left [i] at the head of its level-0 bucket. *)
    let s = e.time land 255 in
    aset t.heads s e.next;
    if e.next = -1 then begin
      aset t.tails s (-1);
      clear_bit t 0 s
    end
  end;
  advance_cur t e.time;
  t.live <- t.live - 1

(* ------------------------------------------------------------------ *)
(* Public operations *)

(* Shared tail of [add]/[add_tagged]: stamp the seq, route the entry
   into a structure, hand back the generation-checked handle. *)
let[@inline] finish_add t i e time =
  e.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  e.ga <- e.ga lor 1;
  if t.live = 0 then t.front <- i
  else if t.front >= 0 && time < (aget t.slab t.front).time then begin
    (* The new entry undercuts the cached minimum: demote the old front
       into the wheel (it stays minimal among the rest). At equal times
       the front keeps its place — lower seq. *)
    let old = t.front in
    t.front <- i;
    place_front t old
  end
  else place t i;
  t.live <- t.live + 1;
  (i lsl 31) lor ((e.ga lsr 1) land 0x7FFF_FFFF)

let add t ~time value =
  if t.free = -1 then grow t;
  let i = t.free in
  let e = aget t.slab i in
  t.free <- e.next;
  e.time <- time;
  e.value <- value;
  e.tagp <- -1;
  finish_add t i e time

let add_tagged t ~time ~tag ~a ~b =
  if tag < 0 || tag > max_tag then
    invalid_arg "Event_queue.add_tagged: tag out of range";
  if a < 0 || a > max_a then
    invalid_arg "Event_queue.add_tagged: a out of range (16 bits)";
  if b < 0 || b > max_b then
    invalid_arg "Event_queue.add_tagged: b out of range (38 bits)";
  if t.free = -1 then grow t;
  let i = t.free in
  let e = aget t.slab i in
  t.free <- e.next;
  e.time <- time;
  (* [value] is left alone (whatever the slot last held): the tagged
     add is plain-int stores only, no write barrier. *)
  e.tagp <- (b lsl (tag_bits + a_bits)) lor (a lsl tag_bits) lor tag;
  finish_add t i e time

let cancel t h =
  let i = h lsr 31 in
  if i < Array.length t.slab then begin
    let e = t.slab.(i) in
    if e.ga land 1 <> 0 && (e.ga lsr 1) land 0x7FFF_FFFF = h land 0x7FFF_FFFF
    then begin
      e.ga <- e.ga land lnot 1;
      t.live <- t.live - 1;
      if i = t.front then begin
        (* Not in any structure, so nothing can lazily collect it. *)
        t.front <- -1;
        free_entry t i e
      end
    end
  end

let peek_time t =
  let i = global_min t in
  if i < 0 then None else Some (aget t.slab i).time

(* Consume the front-cache entry directly: it lives in no structure,
   so popping it is a handful of field writes. *)
let pop_front t i =
  let e = aget t.slab i in
  t.front <- -1;
  advance_cur t e.time;
  t.live <- t.live - 1;
  let time = e.time and v = e.value in
  free_entry t i e;
  Some (time, v)

let pop t =
  let i = t.front in
  if i >= 0 then pop_front t i
  else begin
    let i = global_min t in
    if i < 0 then None
    else begin
      let e = aget t.slab i in
      let time = e.time and v = e.value in
      consume t i e;
      free_entry t i e;
      Some (time, v)
    end
  end

let pop_if_before t ~horizon =
  let i = t.front in
  if i >= 0 then
    if (aget t.slab i).time > horizon then None else pop_front t i
  else begin
    let i = global_min t in
    if i < 0 then None
    else begin
      let e = aget t.slab i in
      if e.time > horizon then None
      else begin
        let time = e.time and v = e.value in
        consume t i e;
        free_entry t i e;
        Some (time, v)
      end
    end
  end

let drain_before t ~horizon f =
  let rec go () =
    let i = global_min t in
    if i >= 0 then begin
      let e = aget t.slab i in
      if e.time <= horizon then begin
        let time = e.time and v = e.value in
        consume t i e;
        free_entry t i e;
        f time v;
        go ()
      end
    end
  in
  go ()

(* Batched drain: events are consumed one at a time off the structures
   (so cancels aimed into the current batch still hit their target via
   the [active] flag), but [start] fires only when the timestamp
   changes. Reentrant adds at the batch time carry higher seqs than
   everything already pending at that time, so they join the tail of
   the current batch — callback order is exactly [drain_before]'s. *)
let drain_batch t ~horizon ~start ~handlers f =
  let total = ref 0 in
  let[@inline] dispatch i e =
    consume t i e;
    incr total;
    let time = e.time and v = e.value and p = e.tagp in
    free_entry t i e;
    if p >= 0 then
      (Array.get handlers (p land max_tag))
        ((p lsr tag_bits) land max_a)
        (p lsr (tag_bits + a_bits))
    else f time v
  in
  let rec run bt =
    let i = global_min t in
    if i >= 0 then begin
      let e = aget t.slab i in
      if e.time = bt then begin
        dispatch i e;
        run bt
      end
      else if e.time <= horizon then begin
        let bt = e.time in
        start bt;
        dispatch i e;
        run bt
      end
    end
  in
  let i = global_min t in
  (if i >= 0 then begin
     let e = aget t.slab i in
     if e.time <= horizon then begin
       let bt = e.time in
       start bt;
       dispatch i e;
       run bt
     end
   end);
  !total

let pop_event t ~tagged ~closure =
  let i = global_min t in
  if i < 0 then false
  else begin
    let e = aget t.slab i in
    let time = e.time and v = e.value and p = e.tagp in
    consume t i e;
    free_entry t i e;
    if p >= 0 then
      tagged time (p land max_tag)
        ((p lsr tag_bits) land max_a)
        (p lsr (tag_bits + a_bits))
    else closure time v;
    true
  end
