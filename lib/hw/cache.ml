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

let access t addr =
  if addr < 0 then invalid_arg "Cache.access: negative address";
  t.accesses <- t.accesses + 1;
  t.tick <- t.tick + 1;
  let block = addr / t.line in
  let set = block mod t.nsets in
  let tag = block / t.nsets in
  let base = set * t.assoc in
  let rec find i = if i = t.assoc then None
    else if t.tags.(base + i) = tag then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i ->
      t.stamps.(base + i) <- t.tick;
      `Hit
  | None ->
      t.misses <- t.misses + 1;
      (* Victim: an invalid way if any, else the LRU way. *)
      let victim = ref 0 in
      (try
         for i = 0 to t.assoc - 1 do
           if t.tags.(base + i) = -1 then begin
             victim := i;
             raise Exit
           end;
           if t.stamps.(base + i) < t.stamps.(base + !victim) then victim := i
         done
       with Exit -> ());
      t.tags.(base + !victim) <- tag;
      t.stamps.(base + !victim) <- t.tick;
      `Miss

let access_run t ?(word_accesses = 1) ~addr ~len () =
  if len > 0 then begin
    let first = addr / t.line and last = (addr + len - 1) / t.line in
    for b = first to last do
      ignore (access t (b * t.line));
      if word_accesses > 1 then begin
        t.accesses <- t.accesses + (word_accesses - 1);
        t.tick <- t.tick + (word_accesses - 1)
      end
    done
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
