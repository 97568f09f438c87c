type t = int

let check_pow2 n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Addr: alignment must be a positive power of two"

let align_up a n =
  check_pow2 n;
  (a + n - 1) land lnot (n - 1)

let align_down a n =
  check_pow2 n;
  a land lnot (n - 1)

let is_aligned a n =
  check_pow2 n;
  a land (n - 1) = 0

let pp fmt a = Format.fprintf fmt "0x%x" a

let mib n = n * 1024 * 1024
