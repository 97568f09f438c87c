type t = int

let zero = 0
let us x = int_of_float (Float.round (x *. 1_000.))
let ms x = int_of_float (Float.round (x *. 1_000_000.))
let s x = int_of_float (Float.round (x *. 1_000_000_000.))
let to_us t = float_of_int t /. 1_000.
let to_ms t = float_of_int t /. 1_000_000.
let to_s t = float_of_int t /. 1_000_000_000.

let of_cycles ~ghz c =
  if c <= 0 then 0
  else
    let f = float_of_int c /. ghz in
    max 1 (int_of_float (Float.round f))

let pp fmt t =
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.3fus" (to_us t)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.3fms" (to_ms t)
  else Format.fprintf fmt "%.3fs" (to_s t)

let to_string t = Format.asprintf "%a" pp t
