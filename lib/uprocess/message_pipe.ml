module Mem = Vessel_mem
module Hw = Vessel_hw

(* Pipe-region layout:
   - task map:      ncores entries of 16 bytes (tid int64, pkru int64)
   - runtime map:   ncores entries of 8 bytes (stack address)
   - function vec:  256 entries of 8 bytes (fn id + 1; 0 = unregistered)
   each structure starting on its own page. *)

let task_entry = 16
let stack_entry = 8
let vector_entries = 256
let vector_entry = 8

type t = {
  smas : Mem.Smas.t;
  ncores : int;
  task_map : Mem.Addr.t;
  runtime_map : Mem.Addr.t;
  vector : Mem.Addr.t;
  runtime_pkru : Hw.Pkru.t;
  (* Scratch for [set_task]'s 16-byte writes: [Smas.write] copies the
     bytes in before returning, so one reusable buffer serves the whole
     dispatch/deschedule path without per-switch allocation. *)
  task_scratch : Bytes.t;
}

let page_ceil n = Mem.Addr.align_up n Hw.Page.size

let create smas ~ncores =
  if ncores <= 0 then invalid_arg "Message_pipe.create: ncores must be positive";
  let region = Mem.Layout.message_pipe (Mem.Smas.layout smas) in
  let base = region.Mem.Region.base in
  let task_map = base in
  let runtime_map = page_ceil (task_map + (ncores * task_entry)) in
  let vector = page_ceil (runtime_map + (ncores * stack_entry)) in
  let end_ = vector + (vector_entries * vector_entry) in
  if end_ > Mem.Region.end_ region then
    invalid_arg "Message_pipe.create: pipe region too small";
  let t =
    {
      smas;
      ncores;
      task_map;
      runtime_map;
      vector;
      runtime_pkru = Mem.Smas.pkru_runtime smas;
      task_scratch = Bytes.create task_entry;
    }
  in
  (* Initialize: no tasks, no stacks, empty vector. *)
  for core = 0 to ncores - 1 do
    let b = Bytes.create task_entry in
    Bytes.set_int64_le b 0 (-1L);
    Bytes.set_int64_le b 8 0L;
    (match
       Mem.Smas.write smas ~pkru:t.runtime_pkru
         ~addr:(task_map + (core * task_entry))
         b
     with
    | Ok () -> ()
    | Error _ -> assert false)
  done;
  t

let ncores t = t.ncores

let check_core t core =
  if core < 0 || core >= t.ncores then
    invalid_arg (Printf.sprintf "Message_pipe: core %d out of range" core)

let write_exn t ~addr b =
  match Mem.Smas.write t.smas ~pkru:t.runtime_pkru ~addr b with
  | Ok () -> ()
  | Error (a, f) ->
      invalid_arg
        (Printf.sprintf "Message_pipe: runtime write faulted at 0x%x: %s" a
           (Hw.Page.fault_to_string f))

let set_task t ~core ~tid ~pkru =
  check_core t core;
  let b = t.task_scratch in
  Bytes.set_int64_le b 0 (Int64.of_int tid);
  Bytes.set_int64_le b 8 (Int64.of_int (Hw.Pkru.to_int pkru));
  write_exn t ~addr:(t.task_map + (core * task_entry)) b

let task t ~reader_pkru ~core =
  check_core t core;
  match
    Mem.Smas.read t.smas ~pkru:reader_pkru
      ~addr:(t.task_map + (core * task_entry))
      ~len:task_entry
  with
  | Error (_, f) -> Error f
  | Ok b ->
      let tid = Int64.to_int (Bytes.get_int64_le b 0) in
      let pkru = Hw.Pkru.of_int (Int64.to_int (Bytes.get_int64_le b 8)) in
      Ok (tid, pkru)

let set_runtime_stack t ~core addr =
  check_core t core;
  let b = Bytes.create stack_entry in
  Bytes.set_int64_le b 0 (Int64.of_int addr);
  write_exn t ~addr:(t.runtime_map + (core * stack_entry)) b

let runtime_stack t ~reader_pkru ~core =
  check_core t core;
  match
    Mem.Smas.read t.smas ~pkru:reader_pkru
      ~addr:(t.runtime_map + (core * stack_entry))
      ~len:stack_entry
  with
  | Error (_, f) -> Error f
  | Ok b -> Ok (Int64.to_int (Bytes.get_int64_le b 0))

let register_function t ~index ~fn_id =
  if index < 0 || index >= vector_entries then
    invalid_arg "Message_pipe.register_function: index out of range";
  if fn_id < 0 then invalid_arg "Message_pipe.register_function: negative id";
  let b = Bytes.create vector_entry in
  Bytes.set_int64_le b 0 (Int64.of_int (fn_id + 1));
  write_exn t ~addr:(t.vector + (index * vector_entry)) b

let function_id t ~reader_pkru ~index =
  if index < 0 || index >= vector_entries then Ok None
  else
    match
      Mem.Smas.read t.smas ~pkru:reader_pkru
        ~addr:(t.vector + (index * vector_entry))
        ~len:vector_entry
    with
    | Error (_, f) -> Error f
    | Ok b -> (
        match Int64.to_int (Bytes.get_int64_le b 0) with
        | 0 -> Ok None
        | n -> Ok (Some (n - 1)))

let vector_addr t = t.vector
