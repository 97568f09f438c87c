(* Tests for the uProcess core library: threads, task queues, the message
   pipe, the call gate (including the section-4.2 attacks), signals,
   syscall interception, the executor and the runtime/manager. *)

open Vessel_uprocess
module Hw = Vessel_hw
module Mem = Vessel_mem
module Sim = Vessel_engine.Sim
module Stats = Vessel_stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_thread ?(tid = 1) ?(app = 1) ?(uproc = 0)
    ?(priority = Uthread.Latency_critical) steps =
  (* [steps] is a mutable script of actions; after it runs dry the thread
     parks forever. *)
  let remaining = ref steps in
  Uthread.create ~tid ~app ~uproc ~priority
    ~step:(fun ~now:_ ->
      match !remaining with
      | [] -> Uthread.Park
      | a :: rest ->
          remaining := rest;
          a)
    ()

let compute ?on_complete ns = Uthread.Compute { ns; on_complete }

(* ------------------------------------------------------------------ *)
(* Uthread *)

let test_uthread_script () =
  let th = mk_thread [ compute 100; compute 50 ] in
  (match Uthread.next_action th ~now:0 with
  | Uthread.Compute { ns = 100; _ } -> ()
  | _ -> Alcotest.fail "expected first compute");
  (match Uthread.next_action th ~now:0 with
  | Uthread.Compute { ns = 50; _ } -> ()
  | _ -> Alcotest.fail "expected second compute");
  match Uthread.next_action th ~now:0 with
  | Uthread.Park -> ()
  | _ -> Alcotest.fail "expected park"

let test_uthread_remainder () =
  let th = mk_thread [ compute 100 ] in
  let a = Uthread.next_action th ~now:0 in
  Uthread.save_remainder th a ~executed:30;
  check_bool "has remainder" true (Uthread.has_remainder th);
  (match Uthread.next_action th ~now:0 with
  | Uthread.Compute { ns = 70; _ } -> ()
  | _ -> Alcotest.fail "expected 70ns remainder");
  check_bool "consumed" false (Uthread.has_remainder th)

let test_uthread_memwork_split_scales_bytes () =
  let th = mk_thread [] in
  let a =
    Uthread.Mem_work { ns = 100; bytes = 1000; footprint = None; on_complete = None }
  in
  Uthread.save_remainder th a ~executed:25;
  match Uthread.next_action th ~now:0 with
  | Uthread.Mem_work { ns = 75; bytes = 750; _ } -> ()
  | _ -> Alcotest.fail "bytes must scale with remaining ns"

let test_uthread_park_not_splittable () =
  let th = mk_thread [] in
  check_bool "raises" true
    (try Uthread.save_remainder th Uthread.Park ~executed:0; false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Task_queue *)

let test_tq_fifo () =
  let q = Task_queue.create () in
  let t1 = mk_thread ~tid:1 [] and t2 = mk_thread ~tid:2 [] in
  Task_queue.push q t1 ~now:10;
  Task_queue.push q t2 ~now:20;
  check_int "len" 2 (Task_queue.length q);
  (match Task_queue.pop q ~now:30 with
  | Some (th, 10) -> check_int "fifo" 1 (Uthread.tid th)
  | _ -> Alcotest.fail "expected t1@10");
  check_int "head delay" 30 (Task_queue.head_delay q ~now:50)

let test_tq_push_front () =
  let q = Task_queue.create () in
  let t1 = mk_thread ~tid:1 [] and t2 = mk_thread ~tid:2 [] in
  Task_queue.push q t1 ~now:0;
  Task_queue.push_front q t2 ~now:0;
  match Task_queue.pop q ~now:0 with
  | Some (th, _) -> check_int "front first" 2 (Uthread.tid th)
  | None -> Alcotest.fail "empty"

let test_tq_double_push_rejected () =
  let q = Task_queue.create () in
  let t1 = mk_thread ~tid:1 [] in
  Task_queue.push q t1 ~now:0;
  check_bool "raises" true
    (try Task_queue.push q t1 ~now:1; false with Invalid_argument _ -> true)

let prop_tq_fifo_order =
  QCheck.Test.make ~name:"task_queue preserves FIFO among live entries"
    ~count:100
    QCheck.(list (int_bound 1))
    (fun ops ->
      let q = Task_queue.create () in
      let next = ref 0 in
      let model = ref [] in
      List.iter
        (fun op ->
          if op = 0 || !model = [] then begin
            incr next;
            let th = mk_thread ~tid:!next [] in
            Task_queue.push q th ~now:0;
            model := !model @ [ !next ]
          end
          else begin
            match Task_queue.pop q ~now:0 with
            | Some (th, _) ->
                let expect = List.hd !model in
                model := List.tl !model;
                if Uthread.tid th <> expect then raise Exit
            | None -> raise Exit
          end)
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Message_pipe *)

let mk_domain ?(slots = 2) ?(cores = 2) () =
  let sim = Sim.create ~seed:7 () in
  let machine = Hw.Machine.create ~cores sim in
  let smas = Mem.Smas.create (Mem.Layout.create ~slots ()) in
  (sim, machine, smas)

let test_pipe_task_map () =
  let _, _, smas = mk_domain () in
  let pipe = Message_pipe.create smas ~ncores:2 in
  let pkru = Mem.Smas.pkru_for_slot smas 0 in
  Message_pipe.set_task pipe ~core:1 ~tid:42 ~pkru;
  (* Readable with a uProcess PKRU (the pipe is read-only to them). *)
  match Message_pipe.task pipe ~reader_pkru:pkru ~core:1 with
  | Ok (tid, read_pkru) ->
      check_int "tid" 42 tid;
      check_bool "pkru roundtrip" true (Hw.Pkru.equal pkru read_pkru)
  | Error f -> Alcotest.failf "read failed: %s" (Hw.Page.fault_to_string f)

let test_pipe_uproc_cannot_write_vector () =
  (* The PLT-rewrite defence: the function vector lives in the read-only
     pipe, so a malicious uProcess cannot repoint an entry. *)
  let _, _, smas = mk_domain () in
  let pipe = Message_pipe.create smas ~ncores:2 in
  Message_pipe.register_function pipe ~index:0 ~fn_id:7;
  let attacker = Mem.Smas.pkru_for_slot smas 0 in
  let payload = Bytes.make 8 '\xFF' in
  (match Mem.Smas.write smas ~pkru:attacker ~addr:(Message_pipe.vector_addr pipe) payload with
  | Error (_, Hw.Page.Mpk_violation _) -> ()
  | _ -> Alcotest.fail "vector write must MPK-fault");
  (* And the entry is intact. *)
  match Message_pipe.function_id pipe ~reader_pkru:attacker ~index:0 with
  | Ok (Some 7) -> ()
  | _ -> Alcotest.fail "entry should be intact"

let test_pipe_unregistered_function () =
  let _, _, smas = mk_domain () in
  let pipe = Message_pipe.create smas ~ncores:1 in
  match Message_pipe.function_id pipe ~reader_pkru:(Mem.Smas.pkru_runtime smas) ~index:9 with
  | Ok None -> ()
  | _ -> Alcotest.fail "expected unregistered"

let test_pipe_runtime_stack_map () =
  let _, _, smas = mk_domain () in
  let pipe = Message_pipe.create smas ~ncores:2 in
  Message_pipe.set_runtime_stack pipe ~core:0 0xdead000;
  match Message_pipe.runtime_stack pipe ~reader_pkru:(Mem.Smas.pkru_runtime smas) ~core:0 with
  | Ok a -> check_int "stack addr" 0xdead000 a
  | Error _ -> Alcotest.fail "read failed"

(* ------------------------------------------------------------------ *)
(* Call_gate *)

let mk_gate ?switch_stack ?check_pkru () =
  let _, machine, smas = mk_domain () in
  let pipe = Message_pipe.create smas ~ncores:2 in
  let gate =
    Call_gate.create ?switch_stack ?check_pkru ~smas ~pipe
      ~cost:Hw.Cost_model.default ()
  in
  Message_pipe.register_function pipe ~index:0 ~fn_id:100;
  (machine, smas, pipe, gate)

let user_stack smas = (Mem.Layout.slot_data (Mem.Smas.layout smas) 0).Mem.Region.base + 0x1000

let test_gate_enter_leave () =
  let machine, smas, pipe, gate = mk_gate () in
  Mem.Smas.attach_slot_data smas 0;
  let core = Hw.Machine.core machine 0 in
  let task_pkru = Mem.Smas.pkru_for_slot smas 0 in
  Message_pipe.set_task pipe ~core:0 ~tid:1 ~pkru:task_pkru;
  Hw.Core.set_pkru core task_pkru;
  match Call_gate.enter gate ~core ~fn_index:0 ~user_stack:(user_stack smas) with
  | Error _ -> Alcotest.fail "enter failed"
  | Ok session ->
      check_int "resolved fn" 100 session.Call_gate.fn_id;
      (* In privileged mode the core's PKRU is the runtime image. *)
      check_bool "privileged" true
        (Hw.Pkru.equal (Hw.Core.pkru core) (Mem.Smas.pkru_runtime smas));
      check_bool "enter cost positive" true (session.Call_gate.enter_ns > 0);
      (match Call_gate.leave gate ~core session with
      | Ok ns ->
          check_bool "leave cost positive" true (ns > 0);
          check_bool "back to task pkru" true
            (Hw.Pkru.equal (Hw.Core.pkru core) task_pkru)
      | Error _ -> Alcotest.fail "leave failed")

let test_gate_unknown_function_restores_pkru () =
  let machine, smas, pipe, gate = mk_gate () in
  let core = Hw.Machine.core machine 0 in
  let task_pkru = Mem.Smas.pkru_for_slot smas 0 in
  Message_pipe.set_task pipe ~core:0 ~tid:1 ~pkru:task_pkru;
  Hw.Core.set_pkru core task_pkru;
  match Call_gate.enter gate ~core ~fn_index:200 ~user_stack:(user_stack smas) with
  | Error (Call_gate.Unknown_function 200) ->
      check_bool "pkru restored" true
        (Hw.Pkru.equal (Hw.Core.pkru core) task_pkru)
  | _ -> Alcotest.fail "expected Unknown_function"

let test_gate_hijack_defeated () =
  (* Control-flow hijack: jump to the stage-3 WRPKRU with eax = all-allowed.
     The stage-4 re-check must reset the PKRU to the task image. *)
  let machine, smas, pipe, gate = mk_gate () in
  let core = Hw.Machine.core machine 0 in
  let task_pkru = Mem.Smas.pkru_for_slot smas 0 in
  Message_pipe.set_task pipe ~core:0 ~tid:1 ~pkru:task_pkru;
  (match Call_gate.attack_hijack_wrpkru gate ~core ~forged_eax:Hw.Pkru.all_allowed with
  | `Defeated _ -> ()
  | `Succeeded -> Alcotest.fail "hijack must be defeated");
  check_bool "pkru is task image" true
    (Hw.Pkru.equal (Hw.Core.pkru core) task_pkru)

let test_gate_hijack_succeeds_without_check () =
  (* ERIM/Hodor without the re-check: the forged PKRU sticks. This is the
     vulnerability the paper's gate closes. *)
  let machine, smas, pipe, gate = mk_gate ~check_pkru:false () in
  let core = Hw.Machine.core machine 0 in
  Message_pipe.set_task pipe ~core:0 ~tid:1 ~pkru:(Mem.Smas.pkru_for_slot smas 0);
  match Call_gate.attack_hijack_wrpkru gate ~core ~forged_eax:Hw.Pkru.all_allowed with
  | `Succeeded ->
      check_bool "forged pkru live" true
        (Hw.Pkru.equal (Hw.Core.pkru core) Hw.Pkru.all_allowed)
  | `Defeated _ -> Alcotest.fail "weakened gate should be vulnerable"

let test_gate_hijack_denying_pipe_terminates () =
  (* A forged eax that revokes pipe access makes the gate's own stage-4
     load MPK-fault: the thread dies, privilege never sticks. *)
  let machine, smas, pipe, gate = mk_gate () in
  let core = Hw.Machine.core machine 0 in
  Message_pipe.set_task pipe ~core:0 ~tid:1 ~pkru:(Mem.Smas.pkru_for_slot smas 0);
  match Call_gate.attack_hijack_wrpkru gate ~core ~forged_eax:Hw.Pkru.all_denied with
  | `Defeated 0 -> ()
  | `Defeated _ -> ()
  | `Succeeded -> Alcotest.fail "must not succeed"

let test_gate_stack_smash_defeated () =
  let machine, smas, pipe, gate = mk_gate () in
  Mem.Smas.attach_slot_data smas 0;
  let core = Hw.Machine.core machine 0 in
  let task_pkru = Mem.Smas.pkru_for_slot smas 0 in
  Message_pipe.set_task pipe ~core:0 ~tid:1 ~pkru:task_pkru;
  let us = user_stack smas in
  match Call_gate.enter gate ~core ~fn_index:0 ~user_stack:us with
  | Error _ -> Alcotest.fail "enter failed"
  | Ok session -> (
      (* A sibling thread (same uProcess, so the write succeeds) smashes
         the user-stack word. The hardened gate's token lives on the
         privileged stack and survives. *)
      match
        Call_gate.attack_smash_return gate ~core session ~user_stack:us
          ~attacker_pkru:task_pkru
      with
      | `Token_safe -> (
          match Call_gate.leave gate ~core session with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "leave should succeed")
      | `Token_smashed -> Alcotest.fail "hardened gate lost its token"
      | `Write_faulted -> Alcotest.fail "sibling write should succeed")

let test_gate_stack_smash_lands_without_switch () =
  (* The weakened gate keeps the return token on the user stack: the
     sibling write destroys it and [leave] detects the CFI loss. *)
  let machine, smas, pipe, gate = mk_gate ~switch_stack:false () in
  Mem.Smas.attach_slot_data smas 0;
  let core = Hw.Machine.core machine 0 in
  let task_pkru = Mem.Smas.pkru_for_slot smas 0 in
  Message_pipe.set_task pipe ~core:0 ~tid:1 ~pkru:task_pkru;
  let us = user_stack smas in
  match Call_gate.enter gate ~core ~fn_index:0 ~user_stack:us with
  | Error _ -> Alcotest.fail "enter failed"
  | Ok session -> (
      match
        Call_gate.attack_smash_return gate ~core session ~user_stack:us
          ~attacker_pkru:task_pkru
      with
      | `Token_smashed ->
          check_bool "leave detects" true
            (try ignore (Call_gate.leave gate ~core session); false
             with Failure _ -> true)
      | _ -> Alcotest.fail "weakened gate should lose its token")

let test_gate_foreign_attacker_cannot_even_write () =
  (* A thread of a DIFFERENT uProcess cannot touch the victim's stack at
     all — MPK stops the write before any CFI question arises. *)
  let machine, smas, pipe, gate = mk_gate () in
  Mem.Smas.attach_slot_data smas 0;
  let core = Hw.Machine.core machine 0 in
  let task_pkru = Mem.Smas.pkru_for_slot smas 0 in
  Message_pipe.set_task pipe ~core:0 ~tid:1 ~pkru:task_pkru;
  let us = user_stack smas in
  match Call_gate.enter gate ~core ~fn_index:0 ~user_stack:us with
  | Error _ -> Alcotest.fail "enter failed"
  | Ok session -> (
      match
        Call_gate.attack_smash_return gate ~core session ~user_stack:us
          ~attacker_pkru:(Mem.Smas.pkru_for_slot smas 1)
      with
      | `Write_faulted -> ()
      | _ -> Alcotest.fail "foreign write must fault")

(* ------------------------------------------------------------------ *)
(* Signal *)

let test_signal_fifo_per_core () =
  let s = Signal.create ~ncores:2 in
  Signal.push s ~core:0 (Signal.Run_thread 1);
  Signal.push s ~core:0 Signal.Preempt_to_be;
  Signal.push s ~core:1 (Signal.Kill_uprocess 3);
  check_int "pending core0" 2 (Signal.pending s ~core:0);
  (match Signal.drain s ~core:0 with
  | [ Signal.Run_thread 1; Signal.Preempt_to_be ] -> ()
  | _ -> Alcotest.fail "fifo order");
  check_int "drained" 0 (Signal.pending s ~core:0);
  check_int "core1 untouched" 1 (Signal.pending s ~core:1)

let test_signal_broadcast () =
  let s = Signal.create ~ncores:4 in
  Signal.broadcast_fault s ~cores:[ 1; 3 ] ~slot:2 ~reason:"segv";
  check_int "core1" 1 (Signal.pending s ~core:1);
  check_int "core2 skipped" 0 (Signal.pending s ~core:2);
  match Signal.drain s ~core:3 with
  | [ Signal.Fault { slot = 2; reason = "segv" } ] -> ()
  | _ -> Alcotest.fail "fault payload"

(* ------------------------------------------------------------------ *)
(* Syscall *)

let test_syscall_isolation () =
  (* The section-5.2.4 scenario: uProcess A opens a file; B, sharing the
     kProcess, brute-forces descriptors. The runtime's table rejects it. *)
  let s = Syscall.create () in
  let fd = Syscall.openf s ~slot:0 ~path:"/data/a" in
  check_bool "owner reads" true (Syscall.read s ~slot:0 ~fd = Ok ());
  check_bool "other uproc EACCES" true (Syscall.read s ~slot:1 ~fd = Error `EACCES);
  check_bool "bogus fd EBADF" true (Syscall.read s ~slot:1 ~fd:999 = Error `EBADF);
  check_bool "other cannot close" true (Syscall.close s ~slot:1 ~fd = Error `EACCES);
  check_bool "owner closes" true (Syscall.close s ~slot:0 ~fd = Ok ());
  check_bool "now EBADF" true (Syscall.read s ~slot:0 ~fd = Error `EBADF)

let test_syscall_exec_mappings_prohibited () =
  let s = Syscall.create () in
  check_bool "mmap exec" true
    (Syscall.mmap s ~slot:0 ~exec:true = Error `Exec_mapping_prohibited);
  check_bool "mprotect exec" true
    (Syscall.mprotect s ~slot:0 ~exec:true = Error `Exec_mapping_prohibited);
  check_bool "plain mmap fine" true (Syscall.mmap s ~slot:0 ~exec:false = Ok ())

let test_syscall_close_all () =
  let s = Syscall.create () in
  let _ = Syscall.openf s ~slot:0 ~path:"a" in
  let _ = Syscall.openf s ~slot:0 ~path:"b" in
  let fd_other = Syscall.openf s ~slot:1 ~path:"c" in
  check_int "closed two" 2 (Syscall.close_all s ~slot:0);
  check_bool "other survives" true (Syscall.read s ~slot:1 ~fd:fd_other = Ok ())

(* ------------------------------------------------------------------ *)
(* Exec engine (with a trivial inline policy) *)

let mk_exec ?(cores = 1) ?(overhead = 0) queue =
  let sim = Sim.create ~seed:3 () in
  let machine = Hw.Machine.create ~cores sim in
  let parked = ref [] in
  let hooks =
    {
      (Exec.default_hooks ()) with
      Exec.pick_next =
        (fun ~core:_ -> match !queue with [] -> None | th :: rest -> queue := rest; Some th);
      on_park = (fun ~core:_ th -> parked := th :: !parked);
      on_preempted = (fun ~core:_ th -> queue := !queue @ [ th ]);
      switch_overhead = (fun ~core:_ ~kind:_ ~next:_ -> overhead);
    }
  in
  let exec = Exec.create machine hooks in
  (sim, machine, exec, parked)

let test_exec_runs_and_charges () =
  let done_at = ref (-1) in
  let th = mk_thread [ compute ~on_complete:(fun t -> done_at := t) 500 ] in
  let queue = ref [ th ] in
  let sim, machine, exec, _ = mk_exec queue in
  Exec.start exec ~core:0;
  Sim.run_until sim 10_000;
  check_int "completion time" 500 !done_at;
  check_int "app charged" 500
    (Stats.Cycle_account.total (Hw.Core.account (Hw.Machine.core machine 0))
       (Stats.Cycle_account.App 1));
  check_int "thread counter" 500 (Uthread.total_app_ns th);
  check_bool "parked after script" true (Uthread.state th = Uthread.Parked)

let test_exec_switch_overhead_charged () =
  let th = mk_thread [ compute 100 ] in
  let queue = ref [ th ] in
  let sim, machine, exec, _ = mk_exec ~overhead:50 queue in
  Exec.start exec ~core:0;
  Sim.run_until sim 10_000;
  (* Initial switch (50) + park switch when the script dries up (50). *)
  check_int "runtime overhead" 100
    (Stats.Cycle_account.total (Hw.Core.account (Hw.Machine.core machine 0))
       Stats.Cycle_account.Runtime)

let test_exec_preempt_splits_segment () =
  let done_at = ref (-1) in
  let th = mk_thread [ compute ~on_complete:(fun t -> done_at := t) 1_000 ] in
  let queue = ref [ th ] in
  let sim, _, exec, _ = mk_exec queue in
  Exec.start exec ~core:0;
  (* Preempt at t=300; on_preempted requeues, so it resumes and finishes
     the remaining 700ns. *)
  ignore (Sim.schedule sim ~at:300 (fun _ -> Exec.preempt exec ~core:0 ~overhead:0));
  Sim.run_until sim 10_000;
  check_int "completed with remainder" 1_000 !done_at;
  check_int "charged in two pieces" 1_000 (Uthread.total_app_ns th)

let test_exec_preempt_overhead_charged () =
  let th = mk_thread [ compute 1_000 ] in
  let queue = ref [ th ] in
  let sim, machine, exec, _ = mk_exec queue in
  Exec.start exec ~core:0;
  ignore (Sim.schedule sim ~at:200 (fun _ -> Exec.preempt exec ~core:0 ~overhead:80));
  Sim.run_until sim 10_000;
  check_int "preempt overhead" 80
    (Stats.Cycle_account.total (Hw.Core.account (Hw.Machine.core machine 0))
       Stats.Cycle_account.Runtime)

let test_exec_idle_and_notify () =
  let sim, machine, exec, _ = mk_exec (ref []) in
  Exec.start exec ~core:0;
  Sim.run_until sim 1_000;
  check_bool "idle" true (Exec.is_idle exec ~core:0);
  (* Queue a thread and notify at t=1000; it runs 100ns. *)
  let th = mk_thread [ compute 100 ] in
  (match Exec.machine exec with _ -> ());
  ignore
    (Sim.schedule sim ~at:1_000 (fun _ ->
         (* inject into the pick_next closure's queue via preempt trick:
            not possible here, so use notify with a fresh queue *)
         ignore th));
  Sim.run_until sim 1_100;
  check_int "idle charged on stop" 0
    (Stats.Cycle_account.total (Hw.Core.account (Hw.Machine.core machine 0))
       Stats.Cycle_account.Idle);
  Exec.stop exec ~core:0;
  check_bool "idle time charged at stop" true
    (Stats.Cycle_account.total (Hw.Core.account (Hw.Machine.core machine 0))
       Stats.Cycle_account.Idle
    > 0)

let test_exec_notify_wakes () =
  let queue = ref [] in
  let sim, _, exec, _ = mk_exec queue in
  Exec.start exec ~core:0;
  let th = mk_thread [ compute 100 ] in
  ignore
    (Sim.schedule sim ~at:500 (fun _ ->
         queue := [ th ];
         Exec.notify exec ~core:0));
  Sim.run_until sim 10_000;
  check_int "ran after wake" 100 (Uthread.total_app_ns th);
  check_bool "idle again" true (Exec.is_idle exec ~core:0)

let test_exec_syscall_category () =
  let th = mk_thread [ Uthread.Syscall { ns = 250; on_complete = None } ] in
  let queue = ref [ th ] in
  let sim, machine, exec, _ = mk_exec queue in
  Exec.start exec ~core:0;
  Sim.run_until sim 10_000;
  check_int "kernel charged" 250
    (Stats.Cycle_account.total (Hw.Core.account (Hw.Machine.core machine 0))
       Stats.Cycle_account.Kernel);
  check_int "thread app time excludes syscalls" 0 (Uthread.total_app_ns th)

let test_exec_memwork_consumes_bandwidth () =
  let th =
    mk_thread
      [ Uthread.Mem_work { ns = 100; bytes = 4_000; footprint = None; on_complete = None } ]
  in
  let queue = ref [ th ] in
  let sim, machine, exec, _ = mk_exec queue in
  Exec.start exec ~core:0;
  Sim.run_until sim 10_000;
  check_int "bytes billed" 4_000
    (Hw.Membw.total_bytes (Hw.Machine.membw machine) ~app:1)

let test_exec_deterministic () =
  let run () =
    let th1 = mk_thread ~tid:1 [ compute 300; compute 200 ] in
    let th2 = mk_thread ~tid:2 [ compute 100 ] in
    let queue = ref [ th1; th2 ] in
    let sim, _, exec, _ = mk_exec ~cores:2 ~overhead:10 queue in
    Exec.start_all exec;
    ignore (Sim.schedule sim ~at:150 (fun _ -> Exec.preempt exec ~core:0 ~overhead:20));
    Sim.run_until sim 5_000;
    (Uthread.total_app_ns th1, Uthread.total_app_ns th2)
  in
  check_bool "replay identical" true (run () = run ())

(* Property: under arbitrary preemption storms, the executor never loses
   or duplicates work — every segment completes exactly once and the
   thread's charged time equals the sum of its segment lengths. *)
let prop_exec_preemption_storm =
  QCheck.Test.make ~name:"exec: random preemptions lose no work" ~count:60
    QCheck.(pair (int_range 1 97) (list_of_size (Gen.int_range 1 30) (int_range 1 5_000)))
    (fun (seed, preempt_gaps) ->
      let sim = Sim.create ~seed () in
      let machine = Hw.Machine.create ~cores:1 sim in
      let completions = ref 0 in
      let segments = [ 700; 1_300; 2_900; 450; 5_000 ] in
      let remaining = ref segments in
      let th =
        Uthread.create ~tid:1 ~app:1 ~uproc:0 ~priority:Uthread.Latency_critical
          ~step:(fun ~now:_ ->
            match !remaining with
            | [] -> Uthread.Park
            | ns :: rest ->
                remaining := rest;
                Uthread.Compute
                  { ns; on_complete = Some (fun _ -> incr completions) })
          ()
      in
      let queue = ref [ th ] in
      let hooks =
        {
          (Exec.default_hooks ()) with
          Exec.pick_next =
            (fun ~core:_ ->
              match !queue with [] -> None | x :: r -> queue := r; Some x);
          on_preempted = (fun ~core:_ t' -> queue := !queue @ [ t' ]);
        }
      in
      let exec = Exec.create machine hooks in
      Exec.start exec ~core:0;
      (* A storm of preemptions at arbitrary offsets. *)
      let at = ref 0 in
      List.iter
        (fun gap ->
          at := !at + gap;
          ignore
            (Sim.schedule sim ~at:!at (fun _ -> Exec.preempt exec ~core:0 ~overhead:0)))
        preempt_gaps;
      Sim.run_until sim 1_000_000;
      Exec.stop exec ~core:0;
      !completions = List.length segments
      && Uthread.total_app_ns th = List.fold_left ( + ) 0 segments)

(* Property: no forged eax value lets the control-flow hijack keep an
   elevated PKRU — stage 4 either resets it or the gate's own access
   faults (terminating the thread). *)
let prop_gate_hijack_never_sticks =
  QCheck.Test.make ~name:"call gate: hijack never sticks, any eax" ~count:200
    QCheck.(int_bound 0xFFFFFFFF)
    (fun forged ->
      let machine, smas, pipe, gate = mk_gate () in
      let core = Hw.Machine.core machine 0 in
      let task_pkru = Mem.Smas.pkru_for_slot smas 0 in
      Message_pipe.set_task pipe ~core:0 ~tid:1 ~pkru:task_pkru;
      Hw.Core.set_pkru core task_pkru;
      match
        Call_gate.attack_hijack_wrpkru gate ~core
          ~forged_eax:(Hw.Pkru.of_int forged)
      with
      | `Succeeded -> false
      | `Defeated _ ->
          (* Either fully reset to the task image, or the thread died with
             the forged image unable to read the pipe (no privilege
             gained either way). A surviving thread must hold exactly the
             task image. *)
          let final = Hw.Core.pkru core in
          Hw.Pkru.equal final task_pkru
          || not (Hw.Pkru.can_read final Hw.Pkey.message_pipe))

(* ------------------------------------------------------------------ *)
(* Runtime + Manager integration *)

let mk_managed ?(cores = 2) ?(slots = 4) () =
  let sim = Sim.create ~seed:11 () in
  let machine = Hw.Machine.create ~cores sim in
  let mgr = Manager.create ~slots ~machine () in
  (sim, machine, mgr)

let app_image name rng = Mem.Image.make ~name ~text_size:8192 rng

let test_manager_create_uprocess () =
  let sim, _, mgr = mk_managed () in
  let rng = Sim.rng sim in
  match Manager.create_uprocess mgr ~name:"memcached" ~image:(app_image "memcached" rng) () with
  | Error e -> Alcotest.failf "create failed: %a" Manager.pp_create_error e
  | Ok u ->
      check_int "slot 0" 0 (Uprocess.slot u);
      check_bool "running" true (Uprocess.state u = Uprocess.Running);
      check_int "used" 1 (Manager.slots_used mgr);
      check_bool "registered" true
        (Runtime.uprocess (Manager.runtime mgr) ~slot:0 <> None)

let test_manager_domain_full () =
  let sim, _, mgr = mk_managed ~slots:2 () in
  let rng = Sim.rng sim in
  let mk name = Manager.create_uprocess mgr ~name ~image:(app_image name rng) () in
  ignore (Result.get_ok (mk "a"));
  ignore (Result.get_ok (mk "b"));
  match mk "c" with
  | Error Manager.Domain_full -> ()
  | _ -> Alcotest.fail "expected Domain_full"

let test_manager_rejects_bad_image () =
  let sim, _, mgr = mk_managed () in
  let rng = Sim.rng sim in
  let evil = Mem.Image.make ~name:"evil" ~text_size:4096 ~embed_wrpkru_at:[ 5 ] rng in
  match Manager.create_uprocess mgr ~name:"evil" ~image:evil () with
  | Error (Manager.Load_failed (Mem.Loader.Rejected _)) -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_runtime_park_pingpong () =
  (* Two single-threaded uProcesses ping-pong on one core via park() —
     the Table 1 microbenchmark mechanics. *)
  let sim, machine, mgr = mk_managed ~cores:1 () in
  let rng = Sim.rng sim in
  let ua = Result.get_ok (Manager.create_uprocess mgr ~name:"A" ~image:(app_image "A" rng) ()) in
  let ub = Result.get_ok (Manager.create_uprocess mgr ~name:"B" ~image:(app_image "B" rng) ()) in
  let rt = Manager.runtime mgr in
  (* Each worker burns 100ns, wakes its peer, parks; the runtime's FIFO on
     core 0 then runs the peer — a pure park-switch ping-pong. *)
  let peer = ref None in
  let mk_worker u =
    let burned = ref false in
    Manager.spawn_thread mgr ~uproc:u ~app:(Uprocess.slot u) ~priority:Uthread.Latency_critical
      ~name:(Uprocess.name u)
      ~step:(fun ~now:_ ->
        if !burned then begin
          burned := false;
          Uthread.Park
        end
        else begin
          burned := true;
          Uthread.Compute
            {
              ns = 100;
              on_complete =
                Some
                  (fun _ ->
                    match !peer with
                    | Some f -> f ()
                    | None -> ());
            }
        end)
      ~core:0
  in
  let ta = mk_worker ua in
  let tb = mk_worker ub in
  let other th = if th == ta then tb else ta in
  let running = ref ta in
  peer :=
    Some
      (fun () ->
        let next = other !running in
        running := next;
        Runtime.wake_thread rt next ~core:0);
  Manager.start mgr;
  Sim.run_until sim (Vessel_engine.Time.us 200.);
  Manager.stop mgr;
  check_bool "A ran" true (Uthread.total_app_ns ta > 0);
  check_bool "B ran" true (Uthread.total_app_ns tb > 0);
  (* Park-path switches were measured. *)
  check_bool "switches recorded" true
    (Stats.Histogram.count (Runtime.switch_latencies rt) > 10);
  ignore machine

let test_runtime_park_and_wake () =
  let sim, _, mgr = mk_managed ~cores:1 () in
  let rng = Sim.rng sim in
  let u = Result.get_ok (Manager.create_uprocess mgr ~name:"srv" ~image:(app_image "srv" rng) ()) in
  let rt = Manager.runtime mgr in
  let served = ref 0 in
  let pending = ref 0 in
  let th =
    Manager.spawn_thread mgr ~uproc:u ~app:(Uprocess.slot u) ~priority:Uthread.Latency_critical
      ~name:"worker"
      ~step:(fun ~now:_ ->
        if !pending > 0 then begin
          decr pending;
          Uthread.Compute { ns = 1_000; on_complete = Some (fun _ -> incr served) }
        end
        else Uthread.Park)
      ~core:0
  in
  Manager.start mgr;
  (* Request arrives at 5us: wake the worker. *)
  ignore
    (Sim.schedule sim ~at:5_000 (fun _ ->
         incr pending;
         Runtime.wake_thread rt th ~core:0));
  Sim.run_until sim 20_000;
  check_int "served" 1 !served;
  check_bool "parked again" true (Uthread.state th = Uthread.Parked);
  check_bool "core idle" true (Exec.is_idle (Runtime.exec rt) ~core:0)

let test_runtime_preempt_via_uintr () =
  (* A best-effort hog occupies the core; the scheduler preempts it with a
     Uintr and the LC thread runs next. This is Figure 6 end to end. *)
  let sim, machine, mgr = mk_managed ~cores:1 () in
  let rng = Sim.rng sim in
  let ube = Result.get_ok (Manager.create_uprocess mgr ~name:"BE" ~image:(app_image "BE" rng) ()) in
  let ulc = Result.get_ok (Manager.create_uprocess mgr ~name:"LC" ~image:(app_image "LC" rng) ()) in
  let rt = Manager.runtime mgr in
  let hog =
    Manager.spawn_thread mgr ~uproc:ube ~app:(Uprocess.slot ube) ~priority:Uthread.Best_effort ~name:"hog"
      ~step:(fun ~now:_ -> Uthread.Compute { ns = 1_000_000; on_complete = None })
      ~core:0
  in
  let lc_done = ref (-1) in
  Manager.start mgr;
  (* At t=10us the LC app spawns a worker with urgent work; the scheduler
     preempts the hog. *)
  ignore
    (Sim.schedule sim ~at:10_000 (fun _ ->
         let lc =
           Manager.spawn_thread mgr ~uproc:ulc ~app:(Uprocess.slot ulc) ~priority:Uthread.Latency_critical
             ~name:"lc"
             ~step:
               (let fired = ref false in
                fun ~now:_ ->
                  if !fired then Uthread.Park
                  else begin
                    fired := true;
                    Uthread.Compute
                      { ns = 2_000; on_complete = Some (fun t -> lc_done := t) }
                  end)
             ~core:0
         in
         Runtime.preempt_core rt ~core:0 [ Signal.Run_thread (Uthread.tid lc) ]));
  Sim.run_until sim 100_000;
  (* The LC work finished long before the hog's 1ms segment would have. *)
  check_bool "lc ran promptly" true (!lc_done > 0 && !lc_done < 20_000);
  check_bool "hog was split" true (Uthread.total_app_ns hog < 1_000_000);
  (* And the preempted BE thread went back to the global queue and resumed
     after the LC work. *)
  Sim.run_until sim 2_000_000;
  check_bool "hog eventually finishes its segment" true
    (Uthread.total_app_ns hog >= 1_000_000);
  ignore machine

let test_runtime_pkru_follows_thread () =
  (* Figure 6 step 3: after a dispatch, the core's PKRU is the running
     uProcess's image and CPUID_TO_TASK_MAP names the thread. *)
  let sim, machine, mgr = mk_managed ~cores:1 () in
  let rng = Sim.rng sim in
  let u = Result.get_ok (Manager.create_uprocess mgr ~name:"app" ~image:(app_image "app" rng) ()) in
  let rt = Manager.runtime mgr in
  let th =
    Manager.spawn_thread mgr ~uproc:u ~app:(Uprocess.slot u) ~priority:Uthread.Latency_critical
      ~name:"w"
      ~step:(fun ~now:_ -> Uthread.Compute { ns = 100_000; on_complete = None })
      ~core:0
  in
  Manager.start mgr;
  Sim.run_until sim 50_000;
  (* Mid-segment: check the hardware-visible state. *)
  check_bool "core pkru = uproc image" true
    (Hw.Pkru.equal (Hw.Core.pkru (Hw.Machine.core machine 0)) (Uprocess.pkru u));
  (match
     Message_pipe.task (Runtime.pipe rt)
       ~reader_pkru:(Uprocess.pkru u) ~core:0
   with
  | Ok (tid, _) -> check_int "task map names thread" (Uthread.tid th) tid
  | Error _ -> Alcotest.fail "task map unreadable")

let test_runtime_kill_uprocess () =
  let sim, _, mgr = mk_managed ~cores:1 () in
  let rng = Sim.rng sim in
  let u = Result.get_ok (Manager.create_uprocess mgr ~name:"victim" ~image:(app_image "v" rng) ()) in
  let th =
    Manager.spawn_thread mgr ~uproc:u ~app:(Uprocess.slot u) ~priority:Uthread.Latency_critical
      ~name:"w"
      ~step:(fun ~now:_ -> Uthread.Compute { ns = 1_000_000; on_complete = None })
      ~core:0
  in
  Manager.start mgr;
  Sim.run_until sim 10_000;
  Manager.destroy_uprocess mgr u;
  Sim.run_until sim 50_000;
  check_bool "uproc killed" true (Uprocess.state u = Uprocess.Killed);
  check_bool "thread reaped" true (Uthread.state th = Uthread.Exited);
  check_bool "not listed" true (Manager.uprocesses mgr = [])

let test_runtime_kill_thread () =
  (* Section 5.3: the kernel cannot address userspace threads; the
     runtime's sigqueue-with-tid path kills exactly one thread of a
     uProcess, leaving its siblings running. *)
  let sim, _, mgr = mk_managed ~cores:2 () in
  let rng = Sim.rng sim in
  let u = Result.get_ok (Manager.create_uprocess mgr ~name:"app" ~image:(app_image "a" rng) ()) in
  let rt = Manager.runtime mgr in
  let mk core =
    Manager.spawn_thread mgr ~uproc:u ~app:(Uprocess.slot u)
      ~priority:Uthread.Latency_critical
      ~name:(Printf.sprintf "w%d" core)
      ~step:(fun ~now:_ -> Uthread.Compute { ns = 5_000; on_complete = None })
      ~core
  in
  let t0 = mk 0 and t1 = mk 1 in
  Manager.start mgr;
  Sim.run_until sim 20_000;
  Runtime.kill_thread rt ~tid:(Uthread.tid t0);
  Sim.run_until sim 200_000;
  Manager.stop mgr;
  check_bool "victim exited" true (Uthread.state t0 = Uthread.Exited);
  check_bool "sibling alive" true (Uthread.state t1 <> Uthread.Exited);
  check_bool "uproc still running" true (Uprocess.state u = Uprocess.Running);
  (* The victim stopped accumulating time shortly after the kill. *)
  check_bool "victim stopped" true
    (Uthread.total_app_ns t0 < Uthread.total_app_ns t1)

let test_slot_reclamation () =
  (* Section 5.1: a destroyed uProcess's region and key return to the
     manager — and the next tenant of the slot must find zeroed memory,
     not the previous tenant's data. *)
  let sim, _, mgr = mk_managed ~cores:1 ~slots:2 () in
  let rng = Sim.rng sim in
  let u = Result.get_ok (Manager.create_uprocess mgr ~name:"first" ~image:(app_image "a" rng) ()) in
  (* The first tenant leaves a secret in its globals. *)
  let l = Option.get (Uprocess.loaded u) in
  Mem.Smas.priv_write (Manager.smas mgr) ~addr:l.Mem.Loader.data_base
    (Bytes.of_string "SECRET");
  let th =
    Manager.spawn_thread mgr ~uproc:u ~app:0 ~priority:Uthread.Latency_critical
      ~name:"w" ~step:(fun ~now:_ -> Uthread.Exit) ~core:0
  in
  Manager.start mgr;
  Sim.run_until sim 10_000;
  ignore th;
  (* Reclaim refuses while alive... *)
  check_bool "refuses while running" true
    (Manager.reclaim_uprocess mgr u = Error `Still_running);
  Manager.destroy_uprocess mgr u;
  Sim.run_until sim 100_000;
  (* ...and succeeds once the kill settled. *)
  (match Manager.reclaim_uprocess mgr u with
  | Ok () -> ()
  | Error `Still_running -> Alcotest.fail "reclaim should succeed after kill");
  check_int "both slots free again" 2 (Manager.slots_available mgr);
  (* The recycled slot hosts a new tenant at scrubbed addresses. *)
  let u2 = Result.get_ok (Manager.create_uprocess mgr ~name:"second" ~image:(app_image "b" rng) ()) in
  check_int "slot 0 reused" 0 (Uprocess.slot u2);
  let l2 = Option.get (Uprocess.loaded u2) in
  let probe =
    Mem.Smas.priv_read (Manager.smas mgr) ~addr:l2.Mem.Loader.data_base ~len:6
  in
  check_bool "no data leakage from the previous tenant" true
    (Bytes.to_string probe <> "SECRET")

let test_runtime_fault_broadcast () =
  (* Section 4.3: a fault in one uProcess terminates it without touching
     the other uProcess sharing the domain (the blast-radius barrier). *)
  let sim, _, mgr = mk_managed ~cores:2 () in
  let rng = Sim.rng sim in
  let ua = Result.get_ok (Manager.create_uprocess mgr ~name:"faulty" ~image:(app_image "f" rng) ()) in
  let ub = Result.get_ok (Manager.create_uprocess mgr ~name:"healthy" ~image:(app_image "h" rng) ()) in
  let rt = Manager.runtime mgr in
  (* VESSEL-managed threads park between work items (the dataplane is
     instrumented with park() calls, section 5.2.5): the queued fault is
     acted on at the next privileged-mode entry. *)
  let mk u core =
    let th =
      Manager.spawn_thread mgr ~uproc:u ~app:(Uprocess.slot u) ~priority:Uthread.Latency_critical
        ~name:(Uprocess.name u)
        ~step:
          (let burst = ref true in
           fun ~now:_ ->
             if !burst then begin
               burst := false;
               Uthread.Compute { ns = 10_000; on_complete = None }
             end
             else begin
               burst := true;
               Uthread.Park
             end)
        ~core
    in
    (* Periodic request arrivals keep both threads cycling. *)
    for i = 1 to 8 do
      ignore
        (Sim.schedule sim ~at:(i * 20_000) (fun _ ->
             Runtime.wake_thread rt th ~core))
    done;
    th
  in
  let ta = mk ua 0 and tb = mk ub 1 in
  Manager.start mgr;
  Sim.run_until sim 5_000;
  Runtime.raise_fault rt ~slot:(Uprocess.slot ua) ~reason:"segfault";
  Sim.run_until sim 200_000;
  check_bool "faulty killed" true (Uprocess.state ua = Uprocess.Killed);
  check_bool "faulty thread dead" true (Uthread.state ta = Uthread.Exited);
  check_bool "healthy alive" true (Uprocess.state ub = Uprocess.Running);
  check_bool "healthy still runs" true (Uthread.state tb <> Uthread.Exited)

let test_runtime_switch_latencies_recorded () =
  let sim, _, mgr = mk_managed ~cores:1 () in
  let rng = Sim.rng sim in
  let u = Result.get_ok (Manager.create_uprocess mgr ~name:"a" ~image:(app_image "a" rng) ()) in
  let rt = Manager.runtime mgr in
  let th =
    Manager.spawn_thread mgr ~uproc:u ~app:(Uprocess.slot u) ~priority:Uthread.Latency_critical
      ~name:"parker"
      ~step:(fun ~now:_ -> Uthread.Park)
      ~core:0
  in
  Manager.start mgr;
  (* Park, wake, park, wake ... *)
  for i = 1 to 10 do
    ignore
      (Sim.schedule sim ~at:(i * 10_000) (fun _ -> Runtime.wake_thread rt th ~core:0))
  done;
  Sim.run_until sim 200_000;
  let h = Runtime.switch_latencies rt in
  check_bool "park switches recorded" true (Stats.Histogram.count h >= 10);
  (* Table-1 calibration: mean within 25% of 161ns. *)
  let mean = Stats.Histogram.mean h in
  check_bool "mean near 161ns" true (mean > 120. && mean < 260.)

let suite =
  [
    ( "uprocess.uthread",
      [
        Alcotest.test_case "script" `Quick test_uthread_script;
        Alcotest.test_case "remainder" `Quick test_uthread_remainder;
        Alcotest.test_case "memwork split scales bytes" `Quick
          test_uthread_memwork_split_scales_bytes;
        Alcotest.test_case "park not splittable" `Quick
          test_uthread_park_not_splittable;
      ] );
    ( "uprocess.task_queue",
      [
        Alcotest.test_case "fifo" `Quick test_tq_fifo;
        Alcotest.test_case "push_front" `Quick test_tq_push_front;
        Alcotest.test_case "double push" `Quick test_tq_double_push_rejected;
        QCheck_alcotest.to_alcotest prop_tq_fifo_order;
      ] );
    ( "uprocess.message_pipe",
      [
        Alcotest.test_case "task map" `Quick test_pipe_task_map;
        Alcotest.test_case "uproc cannot rewrite vector (PLT defence)" `Quick
          test_pipe_uproc_cannot_write_vector;
        Alcotest.test_case "unregistered function" `Quick
          test_pipe_unregistered_function;
        Alcotest.test_case "runtime stack map" `Quick test_pipe_runtime_stack_map;
      ] );
    ( "uprocess.call_gate",
      [
        Alcotest.test_case "enter/leave" `Quick test_gate_enter_leave;
        Alcotest.test_case "unknown function restores PKRU" `Quick
          test_gate_unknown_function_restores_pkru;
        Alcotest.test_case "hijack defeated (stage 4)" `Quick
          test_gate_hijack_defeated;
        Alcotest.test_case "hijack succeeds without check" `Quick
          test_gate_hijack_succeeds_without_check;
        Alcotest.test_case "hijack denying pipe terminates" `Quick
          test_gate_hijack_denying_pipe_terminates;
        Alcotest.test_case "stack smash defeated (stack switch)" `Quick
          test_gate_stack_smash_defeated;
        Alcotest.test_case "stack smash lands without switch" `Quick
          test_gate_stack_smash_lands_without_switch;
        Alcotest.test_case "foreign attacker MPK-faults" `Quick
          test_gate_foreign_attacker_cannot_even_write;
        QCheck_alcotest.to_alcotest prop_gate_hijack_never_sticks;
      ] );
    ( "uprocess.signal",
      [
        Alcotest.test_case "fifo per core" `Quick test_signal_fifo_per_core;
        Alcotest.test_case "broadcast" `Quick test_signal_broadcast;
      ] );
    ( "uprocess.syscall",
      [
        Alcotest.test_case "fd isolation" `Quick test_syscall_isolation;
        Alcotest.test_case "exec mappings prohibited" `Quick
          test_syscall_exec_mappings_prohibited;
        Alcotest.test_case "close_all" `Quick test_syscall_close_all;
      ] );
    ( "uprocess.exec",
      [
        Alcotest.test_case "runs and charges" `Quick test_exec_runs_and_charges;
        Alcotest.test_case "switch overhead" `Quick test_exec_switch_overhead_charged;
        Alcotest.test_case "preempt splits segment" `Quick
          test_exec_preempt_splits_segment;
        Alcotest.test_case "preempt overhead" `Quick test_exec_preempt_overhead_charged;
        Alcotest.test_case "idle accounting" `Quick test_exec_idle_and_notify;
        Alcotest.test_case "notify wakes" `Quick test_exec_notify_wakes;
        Alcotest.test_case "syscall category" `Quick test_exec_syscall_category;
        Alcotest.test_case "memwork bills bandwidth" `Quick
          test_exec_memwork_consumes_bandwidth;
        Alcotest.test_case "deterministic" `Quick test_exec_deterministic;
        QCheck_alcotest.to_alcotest prop_exec_preemption_storm;
      ] );
    ( "uprocess.runtime",
      [
        Alcotest.test_case "manager creates uprocess" `Quick
          test_manager_create_uprocess;
        Alcotest.test_case "domain full" `Quick test_manager_domain_full;
        Alcotest.test_case "manager rejects bad image" `Quick
          test_manager_rejects_bad_image;
        Alcotest.test_case "two uprocs share a core" `Quick
          test_runtime_park_pingpong;
        Alcotest.test_case "park and wake" `Quick test_runtime_park_and_wake;
        Alcotest.test_case "preempt via Uintr (Fig 6)" `Quick
          test_runtime_preempt_via_uintr;
        Alcotest.test_case "PKRU follows thread" `Quick
          test_runtime_pkru_follows_thread;
        Alcotest.test_case "kill uprocess" `Quick test_runtime_kill_uprocess;
        Alcotest.test_case "kill one thread (sigqueue, 5.3)" `Quick
          test_runtime_kill_thread;
        Alcotest.test_case "slot reclamation scrubs (5.1)" `Quick
          test_slot_reclamation;
        Alcotest.test_case "fault broadcast (blast radius)" `Quick
          test_runtime_fault_broadcast;
        Alcotest.test_case "switch latencies (Table 1 shape)" `Quick
          test_runtime_switch_latencies_recorded;
      ] );
  ]
