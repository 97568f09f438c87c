type t = { mutable state : int64 }

(* splitmix64 constants, Steele et al., "Fast splittable pseudorandom
   number generators" (OOPSLA'14). *)
let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = int64 t in
  { state = s }

let copy t = { state = t.state }

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec go () =
    let r = bits t in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then go () else v
  in
  go ()

let float t =
  (* 53 uniform bits into [0,1). *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int r /. 9007199254740992.0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
