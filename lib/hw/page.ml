let size = 4096
let number_of_addr addr = addr / size
let base_of_number n = n * size

type prot = { read : bool; write : bool; exec : bool }

let prot_none = { read = false; write = false; exec = false }
let prot_r = { read = true; write = false; exec = false }
let prot_rw = { read = true; write = true; exec = false }
let prot_x = { read = false; write = false; exec = true }

type entry = { prot : prot; pkey : Pkey.t }

type access = Read | Write | Fetch

type fault =
  | Not_mapped
  | Page_protection of access
  | Mpk_violation of { key : Pkey.t; access : access }

let check entry ~pkru access =
  match access with
  | Fetch -> if entry.prot.exec then Ok () else Error (Page_protection Fetch)
  | Read ->
      if not entry.prot.read then Error (Page_protection Read)
      else if Pkru.can_read pkru entry.pkey then Ok ()
      else Error (Mpk_violation { key = entry.pkey; access = Read })
  | Write ->
      if not entry.prot.write then Error (Page_protection Write)
      else if Pkru.can_write pkru entry.pkey then Ok ()
      else Error (Mpk_violation { key = entry.pkey; access = Write })

let pp_access fmt = function
  | Read -> Format.fprintf fmt "read"
  | Write -> Format.fprintf fmt "write"
  | Fetch -> Format.fprintf fmt "fetch"

let pp_fault fmt = function
  | Not_mapped -> Format.fprintf fmt "page not mapped"
  | Page_protection a -> Format.fprintf fmt "page permission denies %a" pp_access a
  | Mpk_violation { key; access } ->
      Format.fprintf fmt "MPK %a denies %a" Pkey.pp key pp_access access

let fault_to_string f = Format.asprintf "%a" pp_fault f
