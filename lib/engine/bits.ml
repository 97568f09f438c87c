(* Branch-free bit scans shared by the hot paths: the timing wheel's
   occupancy bitmaps (Event_queue), the scheduler core-state index
   (Vessel_uprocess.Core_index) and Histogram.index.

   All routines work on 32-bit chunks so the classic de Bruijn
   multiply-and-lookup applies unchanged: in a 63-bit OCaml int the
   product of a 32-bit operand and a 27-bit constant cannot reach the
   sign bit, and extracting bits 27..31 after the multiply is identical
   to the C idiom's uint32 truncation followed by >> 27. *)

let debruijn32 = 0x077CB531

let ctz_table =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * debruijn32) lsr 27) land 31) <- i
  done;
  tbl

(* Index of the lowest set bit of [x]; x must be nonzero with no bits
   above 31. *)
let ctz32 x = Array.unsafe_get ctz_table ((((x land -x) * debruijn32) lsr 27) land 31)

(* De Bruijn msb after smearing the leading one downwards (Bit Twiddling
   Hacks); 0x07C4ACDD is the standard constant for the smeared form. *)
let msb_debruijn = 0x07C4ACDD

let msb_table =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    let smeared = (1 lsl (i + 1)) - 1 in
    tbl.(((smeared * msb_debruijn) lsr 27) land 31) <- i
  done;
  tbl

(* Index of the highest set bit of [x]; x must be in [1, 2^32). *)
let msb32 x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  Array.unsafe_get msb_table (((x * msb_debruijn) lsr 27) land 31)

(* Index of the highest set bit of any positive OCaml int (<= 62).
   Branchless half-select: [m] is all-ones when a bit above 31 is set,
   so exactly one of the two masked halves survives. *)
let msb x =
  let hi = x lsr 32 in
  let m = -(Bool.to_int (hi <> 0)) in
  let w = (hi land m) lor (x land 0xFFFFFFFF land lnot m) in
  (32 land m) + msb32 w
