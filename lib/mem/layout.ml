module Pkey = Vessel_hw.Pkey

type t = {
  slots : int;
  slot_text : Region.t array;
  slot_data : Region.t array;
  pipe : Region.t;
  runtime_text : Region.t;
  runtime_data : Region.t;
}

let check_size name n =
  if n <= 0 then invalid_arg (Printf.sprintf "Layout.create: %s must be positive" name);
  if n mod Vessel_hw.Page.size <> 0 then
    invalid_arg (Printf.sprintf "Layout.create: %s must be page-aligned" name)

let create ?(base = 0x1000_0000) ?(slot_text = Addr.mib 16)
    ?(slot_data = Addr.mib 64) ?(pipe_size = Addr.mib 1)
    ?(runtime_text = Addr.mib 16) ?(runtime_data = Addr.mib 64) ~slots () =
  if slots < 1 || slots > Pkey.max_uprocesses then
    invalid_arg
      (Printf.sprintf
         "Layout.create: %d slots, but a scheduling domain supports 1..%d \
          uProcesses (16 pkeys minus runtime, pipe and key 0)"
         slots Pkey.max_uprocesses);
  check_size "slot_text" slot_text;
  check_size "slot_data" slot_data;
  check_size "pipe_size" pipe_size;
  check_size "runtime_text" runtime_text;
  check_size "runtime_data" runtime_data;
  if not (Addr.is_aligned base Vessel_hw.Page.size) then
    invalid_arg "Layout.create: base must be page-aligned";
  let cursor = ref base in
  let alloc name len kind pkey =
    let r = Region.make ~name ~base:!cursor ~len ~kind ~pkey in
    cursor := !cursor + len;
    r
  in
  let slot_text_regions =
    Array.init slots (fun i ->
        alloc
          (Printf.sprintf "uproc%d.text" i)
          slot_text Region.Uprocess_text (Pkey.uprocess_key i))
  and slot_data_regions =
    Array.init slots (fun i ->
        alloc
          (Printf.sprintf "uproc%d.data" i)
          slot_data Region.Uprocess_data (Pkey.uprocess_key i))
  in
  let pipe = alloc "message-pipe" pipe_size Region.Message_pipe Pkey.message_pipe in
  let rt_text = alloc "runtime.text" runtime_text Region.Runtime_text Pkey.runtime in
  let rt_data = alloc "runtime.data" runtime_data Region.Runtime_data Pkey.runtime in
  {
    slots;
    slot_text = slot_text_regions;
    slot_data = slot_data_regions;
    pipe;
    runtime_text = rt_text;
    runtime_data = rt_data;
  }

let slots t = t.slots

let check_slot t i =
  if i < 0 || i >= t.slots then
    invalid_arg (Printf.sprintf "Layout: slot %d out of range [0,%d)" i t.slots)

let slot_text t i =
  check_slot t i;
  t.slot_text.(i)

let slot_data t i =
  check_slot t i;
  t.slot_data.(i)

let slot_pkey t i =
  check_slot t i;
  Pkey.uprocess_key i

let message_pipe t = t.pipe
let runtime_text t = t.runtime_text
let runtime_data t = t.runtime_data

let all_regions t =
  Array.to_list t.slot_text @ Array.to_list t.slot_data
  @ [ t.pipe; t.runtime_text; t.runtime_data ]
  |> List.sort (fun a b -> compare a.Region.base b.Region.base)

let region_of_addr t a =
  List.find_opt (fun r -> Region.contains r a) (all_regions t)

let pp fmt t =
  List.iter (fun r -> Format.fprintf fmt "%a@." Region.pp r) (all_regions t)
