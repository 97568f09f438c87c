module Rng = Vessel_engine.Rng

type t = {
  ghz : float;
  wrpkru : int;
  rdpkru : int;
  pkey_mprotect_syscall : int;
  gate_stack_switch : int;
  gate_dispatch : int;
  senduipi : int;
  uintr_delivery : int;
  uintr_handler_entry : int;
  uiret : int;
  context_save : int;
  context_restore : int;
  queue_op : int;
  syscall : int;
  ioctl : int;
  ipi_flight : int;
  kernel_signal : int;
  user_save_state : int;
  kernel_switch : int;
  page_table_switch : int;
  kernel_restore : int;
  umwait_wake : int;
  cache_hit : int;
  cache_miss : int;
  cache_miss_stall : int;
  timeslice_cfs : int;
}

let default =
  {
    ghz = 2.1;
    wrpkru = 28;
    rdpkru = 5;
    pkey_mprotect_syscall = 1_200;
    gate_stack_switch = 10;
    gate_dispatch = 10;
    senduipi = 80;
    uintr_delivery = 380;
    uintr_handler_entry = 40;
    uiret = 40;
    context_save = 28;
    context_restore = 28;
    queue_op = 7;
    syscall = 250;
    ioctl = 700;
    ipi_flight = 1_100;
    kernel_signal = 900;
    user_save_state = 750;
    kernel_switch = 600;
    page_table_switch = 450;
    kernel_restore = 800;
    umwait_wake = 150;
    cache_hit = 2;
    cache_miss = 90;
    cache_miss_stall = 2;
    timeslice_cfs = 4_000_000;
  }

let v ?(f = Fun.id) () = f default

(* Enter gate (wrpkru + stack switch + dispatch), save old context, two
   queue operations (push old, pop new), restore new context, leave gate
   (stack switch back, restore-PKRU wrpkru, rdpkru re-check). *)
let vessel_park_switch t =
  (2 * t.wrpkru) + t.rdpkru
  + (2 * t.gate_stack_switch)
  + t.gate_dispatch + t.context_save + t.context_restore + (2 * t.queue_op)

let caladan_park_switch t =
  t.syscall + t.kernel_switch + t.page_table_switch + t.kernel_restore

let caladan_preempt_stages t =
  [
    ("ioctl(IPI) by scheduler", t.ioctl);
    ("IPI flight to victim core", t.ipi_flight);
    ("kernel trap + SIGUSR to runtime", t.kernel_signal);
    ("runtime saves task state", t.user_save_state);
    ("kernel task switch", t.kernel_switch);
    ("page table switch", t.page_table_switch);
    ("restore to new task", t.kernel_restore);
  ]

let caladan_preempt_switch t =
  List.fold_left (fun acc (_, d) -> acc + d) 0 (caladan_preempt_stages t)

let cfs_switch t =
  t.syscall + t.kernel_switch + t.page_table_switch + t.kernel_restore

(* Three-tier noise: ~98% of samples sit within a few percent of the base;
   ~2% see a modest (+5..25%) bump (p99 territory); ~0.3% hit a spike from
   interrupts / TLB shootdowns (p999 territory). Spikes are proportionally
   larger on short paths — a fixed-size disturbance is a multi-x event for
   a 161 ns switch but only a fraction of an already-microsecond kernel
   path (Table 1: VESSEL p999/avg = 4.4x, Caladan's = 2.6x). *)
let jittered _t rng base =
  if base <= 0 then base
  else begin
    let u = Rng.float rng in
    let m =
      if u < 0.98 then 0.97 +. (0.06 *. Rng.float rng)
      else if u < 0.997 then 1.05 +. (0.20 *. Rng.float rng)
      else if base < 1_000 then 2.5 +. (2.5 *. Rng.float rng)
      else 1.9 +. (1.0 *. Rng.float rng)
    in
    max 1 (int_of_float (Float.round (float_of_int base *. m)))
  end
