type t = int

type perm = No_access | Read_only | Read_write

let mask32 = 0xFFFFFFFF

(* Per key: bit (2k) = AD, bit (2k+1) = WD, as on x86. *)
let all_denied = 0x55555555 (* AD set, WD clear, for all 16 keys *)
let all_allowed = 0

let bits_of_perm = function
  | No_access -> 0b01 (* AD *)
  | Read_only -> 0b10 (* WD *)
  | Read_write -> 0b00

let perm_of_bits = function
  | 0b00 -> Read_write
  | 0b10 -> Read_only
  | _ -> No_access (* AD set dominates regardless of WD *)

let set t key p =
  let k = Pkey.to_int key in
  let shift = 2 * k in
  t land lnot (0b11 lsl shift) lor (bits_of_perm p lsl shift) land mask32

let make grants = List.fold_left (fun t (k, p) -> set t k p) all_denied grants

let perm t key =
  let k = Pkey.to_int key in
  perm_of_bits ((t lsr (2 * k)) land 0b11)

let can_read t key = perm t key <> No_access
let can_write t key = perm t key = Read_write

let of_int i = i land mask32
let to_int t = t
let equal = Int.equal
