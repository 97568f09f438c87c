type t = int

let count = 16

let of_int i =
  if i < 0 || i >= count then
    invalid_arg (Printf.sprintf "Pkey.of_int: %d not in [0,15]" i);
  i

let to_int t = t
let default = 0
let runtime = 14
let message_pipe = 15
let first_uprocess = 1
let last_uprocess = 13
let max_uprocesses = last_uprocess - first_uprocess + 1

let uprocess_key i =
  if i < 0 || i >= max_uprocesses then
    invalid_arg
      (Printf.sprintf "Pkey.uprocess_key: slot %d exceeds the %d-uProcess \
                       limit of one scheduling domain" i max_uprocesses);
  first_uprocess + i

let pp fmt t = Format.fprintf fmt "pkey%d" t
