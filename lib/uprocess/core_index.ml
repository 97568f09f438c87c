(* Incremental core-state index (ROADMAP item 5).

   The paper's scheduler decisions — wake placement (idle -> preempt-BE
   -> shortest queue, section 4.5) and the periodic overload scan — were
   O(cores) walks recomputed per query. This module keeps the same facts
   as bitsets and counters maintained at the existing state transitions
   (Exec core-state writes, Runtime queue mutations), so each query is a
   de Bruijn bit scan — the same trick as the timing wheel's occupancy
   bitmaps.

   Tie-break contract (decision-identical to the replaced walks; the
   qcheck differential test in test_sched.ml enforces it):
   - first idle / first BE core = lowest core id, matching the
     [downto 0] loop's last assignment;
   - shortest queue = highest core id among the minimum-length cores,
     because the legacy loop updated on strict [<] while scanning from
     high ids to low;
   - queue lengths count present (live) entries, exactly
     [Task_queue.length].

   Words are 32-bit chunks (Bits.ctz32/msb32). One index instance
   belongs to one Exec/Runtime pair. *)

module Bits = Vessel_engine.Bits

(* Generic fixed-size bitset over 32-bit words, exposed for Baseline's
   ownership sets. *)
module Bitset = struct
  type t = int array

  let words n = (n + 31) lsr 5
  let create n = Array.make (max 1 (words n)) 0

  let set (b : t) i =
    let w = i lsr 5 in
    Array.unsafe_set b w (Array.unsafe_get b w lor (1 lsl (i land 31)))

  let clear (b : t) i =
    let w = i lsr 5 in
    Array.unsafe_set b w (Array.unsafe_get b w land lnot (1 lsl (i land 31)))

  (* Lowest set bit, or -1. *)
  let first (b : t) =
    let n = Array.length b in
    let rec go w =
      if w >= n then -1
      else
        let x = Array.unsafe_get b w in
        if x <> 0 then (w lsl 5) + Bits.ctz32 x else go (w + 1)
    in
    go 0

  (* Lowest bit set in both, or -1. *)
  let first_and (a : t) (b : t) =
    let n = Array.length a in
    let rec go w =
      if w >= n then -1
      else
        let x = Array.unsafe_get a w land Array.unsafe_get b w in
        if x <> 0 then (w lsl 5) + Bits.ctz32 x else go (w + 1)
    in
    go 0

  (* Lowest set bit >= [from], or -1. *)
  let next (b : t) ~from =
    let n = Array.length b in
    if from >= n lsl 5 then -1
    else begin
      let w0 = from lsr 5 in
      let x = Array.unsafe_get b w0 land (-1 lsl (from land 31)) in
      if x <> 0 then (w0 lsl 5) + Bits.ctz32 x
      else begin
        let rec go w =
          if w >= n then -1
          else
            let x = Array.unsafe_get b w in
            if x <> 0 then (w lsl 5) + Bits.ctz32 x else go (w + 1)
        in
        go (w0 + 1)
      end
    end

  (* Highest set bit, or -1. *)
  let last (b : t) =
    let rec go w =
      if w < 0 then -1
      else
        let x = Array.unsafe_get b w in
        if x <> 0 then (w lsl 5) + Bits.msb32 x else go (w - 1)
    in
    go (Array.length b - 1)
end

(* Queue lengths at or above [cap] share one overflow bucket; the exact
   argmin then falls back to a linear scan (never reached in the
   experiments — per-core queues stay far shorter). *)
let cap = 32

type t = {
  ncores : int;
  idle : Bitset.t; (* cores in Exec state Idle *)
  be : Bitset.t; (* cores whose current thread is best-effort *)
  len : int array; (* per-core live queue length *)
  nonempty : Bitset.t; (* cores with len > 0 *)
  buckets : int array; (* rows of [words] words; row b = cores at len b *)
  counts : int array; (* cores per clamped length *)
  mutable min_len : int; (* exact min len over all cores (clamped) *)
  words : int;
}

(* Every core starts at length 0, so bucket row 0 holds them all. *)
let create ~ncores =
  let words = Bitset.words (max 1 ncores) in
  let buckets = Array.make ((cap + 1) * words) 0 in
  for core = 0 to ncores - 1 do
    Bitset.set buckets core
  done;
  let counts = Array.make (cap + 1) 0 in
  counts.(0) <- ncores;
  {
    ncores;
    idle = Bitset.create ncores;
    be = Bitset.create ncores;
    len = Array.make (max 1 ncores) 0;
    nonempty = Bitset.create ncores;
    buckets;
    counts;
    min_len = 0;
    words;
  }

(* --- Exec-maintained occupancy bits --- *)

let set_idle t core on =
  if on then Bitset.set t.idle core else Bitset.clear t.idle core

let set_be t core on =
  if on then Bitset.set t.be core else Bitset.clear t.be core

let first_idle t = Bitset.first t.idle
let first_be t = Bitset.first t.be
let idle_bits t = t.idle

(* --- queue-length accounting --- *)

let bucket_set t row core =
  let w = (row * t.words) + (core lsr 5) in
  t.buckets.(w) <- t.buckets.(w) lor (1 lsl (core land 31))

let bucket_clear t row core =
  let w = (row * t.words) + (core lsr 5) in
  t.buckets.(w) <- t.buckets.(w) land lnot (1 lsl (core land 31))

(* Highest core id in bucket [row], or -1. *)
let bucket_last t row =
  let base = row * t.words in
  let rec go w =
    if w < 0 then -1
    else
      let x = Array.unsafe_get t.buckets (base + w) in
      if x <> 0 then (w lsl 5) + Bits.msb32 x else go (w - 1)
  in
  go (t.words - 1)

(* Record that [core]'s queue now holds [l] live entries. O(1): move the
   core between length buckets and nudge the maintained minimum. *)
let sync_len t core l =
  let old = Array.unsafe_get t.len core in
  if l <> old then begin
    Array.unsafe_set t.len core l;
    if l = 0 then Bitset.clear t.nonempty core
    else if old = 0 then Bitset.set t.nonempty core;
    let ob = if old > cap then cap else old in
    let nb = if l > cap then cap else l in
    if ob <> nb then begin
      bucket_clear t ob core;
      bucket_set t nb core;
      t.counts.(ob) <- t.counts.(ob) - 1;
      t.counts.(nb) <- t.counts.(nb) + 1;
      if nb < t.min_len then t.min_len <- nb
      else if ob = t.min_len && t.counts.(ob) = 0 then begin
        (* Every core always occupies a bucket, so this terminates at
           or before [cap]. *)
        let m = ref (ob + 1) in
        while t.counts.(!m) = 0 do
          incr m
        done;
        t.min_len <- !m
      end
    end
  end

(* Highest core id among the cores at minimum queue length — the legacy
   [downto 0] strict-< walk's winner. Above [cap] the clamped buckets
   can't distinguish lengths: replay the exact legacy walk. *)
let shortest t =
  if t.min_len < cap then bucket_last t t.min_len
  else begin
    let best = ref (-1) and best_len = ref max_int in
    for core = 0 to t.ncores - 1 do
      if t.len.(core) <= !best_len then begin
        best := core;
        best_len := t.len.(core)
      end
    done;
    !best
  end

(* Lowest core >= [from] with a nonempty queue, or -1: the scan tick's
   cursor. *)
let next_nonempty t ~from = Bitset.next t.nonempty ~from

(* --- per-app parked-worker set ---

   Replaces the [List.find_opt]/[List.filter] walks over [app_state]
   worker lists. Slots are spawn-ordered, so "highest parked slot" is
   exactly the first Parked thread of the newest-first cons list the
   legacy code walked. Bits flip inside [Uthread.set_state] (the single
   state chokepoint), so membership is precise for every scheduler. *)
module Pset = struct
  type t = { mutable bits : int array; mutable n : int }

  let create () = { bits = Array.make 1 0; n = 0 }

  (* New spawn-ordered slot. *)
  let register t =
    let slot = t.n in
    t.n <- slot + 1;
    let need = Bitset.words t.n in
    if need > Array.length t.bits then begin
      let bits = Array.make (max need (2 * Array.length t.bits)) 0 in
      Array.blit t.bits 0 bits 0 (Array.length t.bits);
      t.bits <- bits
    end;
    slot

  let set t slot on =
    if on then Bitset.set t.bits slot else Bitset.clear t.bits slot

  let highest t = Bitset.last t.bits
end
