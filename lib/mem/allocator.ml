type t = {
  region : Region.t;
  reserve : int;
  mutable bump : Addr.t;
  free_lists : (int, Addr.t list ref) Hashtbl.t;
  live : (Addr.t, int) Hashtbl.t;
  mutable live_bytes : int;
}

(* jemalloc-style classes: exact multiples of the 16-byte quantum up to
   128, then four classes per power-of-two group (spacing = group/4),
   then page multiples beyond 16 KiB. *)
let size_class size =
  if size <= 0 then invalid_arg "Allocator: size must be positive";
  if size <= 128 then (size + 15) land lnot 15
  else if size <= 16384 then begin
    (* Group (g, 2g] has four classes spaced g/4 apart. *)
    let rec group g = if size <= 2 * g then g else group (2 * g) in
    let g = group 128 in
    let spacing = g / 4 in
    (size + spacing - 1) / spacing * spacing
  end
  else (size + Vessel_hw.Page.size - 1) land lnot (Vessel_hw.Page.size - 1)

let create ?(reserve = 0) region =
  if reserve < 0 || reserve >= region.Region.len then
    invalid_arg "Allocator.create: reserve out of range";
  {
    region;
    reserve;
    bump = region.Region.base + reserve;
    free_lists = Hashtbl.create 32;
    live = Hashtbl.create 256;
    live_bytes = 0;
  }

let free_list t cls =
  match Hashtbl.find_opt t.free_lists cls with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.add t.free_lists cls l;
      l

let commit t addr cls =
  Hashtbl.replace t.live addr cls;
  t.live_bytes <- t.live_bytes + cls;
  Ok addr

let malloc t size =
  let cls = size_class size in
  let list = free_list t cls in
  match !list with
  | addr :: rest ->
      list := rest;
      commit t addr cls
  | [] ->
      if t.bump + cls > Region.end_ t.region then Error `Out_of_memory
      else begin
        let addr = t.bump in
        t.bump <- t.bump + cls;
        commit t addr cls
      end

let malloc_aligned t size ~align =
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Allocator.malloc_aligned: align must be a power of two";
  let cls = size_class size in
  (* Aligned requests bypass free lists: bump to the next boundary. The
     skipped gap is returned to the free list of its own class when it is
     big enough to be useful. *)
  let aligned = Addr.align_up t.bump align in
  if aligned + cls > Region.end_ t.region then Error `Out_of_memory
  else begin
    let gap = aligned - t.bump in
    if gap >= 16 then begin
      (* Recycle the skipped gap as a free block of the largest class
         that fits in it. *)
      let rec largest c = if 2 * c <= gap && c < 16384 then largest (2 * c) else c in
      let l = free_list t (size_class (largest 16)) in
      l := t.bump :: !l
    end;
    t.bump <- aligned + cls;
    commit t aligned cls
  end

let free t addr =
  match Hashtbl.find_opt t.live addr with
  | None ->
      invalid_arg
        (Printf.sprintf "Allocator.free: 0x%x is not a live allocation" addr)
  | Some cls ->
      Hashtbl.remove t.live addr;
      t.live_bytes <- t.live_bytes - cls;
      let l = free_list t cls in
      l := addr :: !l

let usable_size t addr =
  match Hashtbl.find_opt t.live addr with
  | Some cls -> cls
  | None ->
      invalid_arg
        (Printf.sprintf "Allocator.usable_size: 0x%x is not live" addr)

let live_bytes t = t.live_bytes
let capacity t = t.region.Region.len - t.reserve
let high_water t = t.bump
let region t = t.region
