(* Tests for the fault-injection + invariant-checking layer: the checker
   invariants on synthetic event streams, the fault profiles, and the
   harness end-to-end (clean under chaos on the real scheduler, violation
   on a deliberately broken one, verdicts identical at any -j). *)

module Hw = Vessel_hw
module S = Vessel_sched
module C = Vessel_check
module Sim = Vessel_engine.Sim
module Event = Vessel_obs.Event
module Track = Vessel_obs.Track
module Tag = Vessel_obs.Tag

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Checker invariants on synthetic streams *)

let instant ?(args = []) ~ts ~track name =
  Event.Instant { ts; track; name; args }

let feed c evs = List.iter (C.Checker.handle c) evs

let invariants c =
  List.map (fun v -> v.C.Checker.invariant) (C.Checker.violations c)

let has_invariant c name = List.mem name (invariants c)

let test_lost_wakeup_detected () =
  let c = C.Checker.create () in
  feed c [ instant ~ts:0 ~track:(Track.Core 0) Tag.uintr_send ];
  C.Checker.finalize c ~elapsed:1_000_000;
  check_bool "lost-wakeup flagged" true (has_invariant c "lost-wakeup");
  check_int "one violation" 1 (C.Checker.total_violations c)

let test_send_matched_by_handle_or_ack () =
  List.iter
    (fun resolution ->
      let c = C.Checker.create () in
      feed c
        [
          instant ~ts:0 ~track:(Track.Core 0) Tag.uintr_send;
          instant ~ts:10_000 ~track:(Track.Core 0) resolution;
        ];
      C.Checker.finalize c ~elapsed:1_000_000;
      check_bool (resolution ^ " resolves the send") true (C.Checker.clean c))
    [ Tag.uintr_handle; Tag.uintr_ack ]

let qev ~ts ?(lc = 0) name tid =
  instant ~ts ~track:Track.Sched name
    ~args:
      [ ("q", Event.Int 0); ("tid", Event.Int tid); ("lc", Event.Int lc);
        ("at", Event.Int ts) ]

let test_fifo_pop_order_violation () =
  let c = C.Checker.create () in
  feed c
    [
      qev ~ts:0 Tag.queue_push 1;
      qev ~ts:10 Tag.queue_push 2;
      qev ~ts:20 Tag.queue_pop 2 (* FIFO head is tid 1 *);
    ];
  check_bool "fifo flagged" true (has_invariant c "fifo")

let test_fifo_pop_empty_violation () =
  let c = C.Checker.create () in
  feed c [ qev ~ts:0 Tag.queue_pop 3 ];
  check_bool "pop from empty flagged" true (has_invariant c "fifo")

let test_fifo_push_front_clean () =
  let c = C.Checker.create () in
  feed c
    [
      qev ~ts:0 Tag.queue_push 1;
      qev ~ts:10 Tag.queue_push 2;
      qev ~ts:20 Tag.queue_push_front 3 (* preempted: jumps the line *);
      qev ~ts:40 Tag.queue_pop 3;
      qev ~ts:50 Tag.queue_pop 1;
      qev ~ts:60 Tag.queue_pop 2;
    ];
  C.Checker.finalize c ~elapsed:100;
  check_bool "push_front jumping the line is legal" true (C.Checker.clean c)

let gate ~ts ~core name ~pkru ~expected =
  instant ~ts ~track:(Track.Core core) name
    ~args:[ ("pkru", Event.Int pkru); ("expected", Event.Int expected) ]

let dispatch ~ts ~core ~tid ~pkru =
  instant ~ts ~track:(Track.Core core) Tag.dispatch
    ~args:[ ("tid", Event.Int tid); ("pkru", Event.Int pkru) ]

let test_pkru_crossing_mismatch () =
  let c = C.Checker.create () in
  feed c [ gate ~ts:5 ~core:0 Tag.gate_enter ~pkru:0x3 ~expected:0xc ];
  check_bool "pkru flagged" true (has_invariant c "pkru")

let test_pkru_leave_vs_dispatch () =
  let c = C.Checker.create () in
  feed c
    [
      dispatch ~ts:0 ~core:0 ~tid:1 ~pkru:0x30;
      (* Restores a consistent image, but not the one dispatch published. *)
      gate ~ts:10 ~core:0 Tag.gate_leave ~pkru:0xc ~expected:0xc;
    ];
  check_bool "leave/dispatch mismatch flagged" true (has_invariant c "pkru");
  let c2 = C.Checker.create () in
  feed c2
    [
      dispatch ~ts:0 ~core:0 ~tid:1 ~pkru:0xc;
      gate ~ts:10 ~core:0 Tag.gate_leave ~pkru:0xc ~expected:0xc;
    ];
  check_bool "matching leave is clean" true (C.Checker.clean c2)

let test_conservation_on_unaccounted_machine () =
  (* A machine whose executor never ran accounts zero cycles: every core
     must fail conservation against a non-zero horizon. *)
  let sim = Sim.create ~seed:3 () in
  let machine = Hw.Machine.create ~cores:2 sim in
  let c = C.Checker.create () in
  C.Checker.finalize c ~machine ~elapsed:1_000_000;
  check_int "both cores flagged" 2 (C.Checker.total_violations c);
  check_bool "conservation" true (has_invariant c "conservation")

let test_violation_cap_keeps_counting () =
  let c =
    C.Checker.create
      ~config:{ C.Checker.default_config with max_violations = 4 } ()
  in
  for i = 1 to 10 do
    C.Checker.handle c (gate ~ts:i ~core:0 Tag.gate_enter ~pkru:1 ~expected:2)
  done;
  check_int "all counted" 10 (C.Checker.total_violations c);
  check_int "details capped" 4 (List.length (C.Checker.violations c));
  check_bool "events counted" true (C.Checker.events_seen c = 10)

(* ------------------------------------------------------------------ *)
(* Fault profiles *)

let test_profile_names_roundtrip () =
  List.iter
    (fun p ->
      match C.Fault.of_string (C.Fault.to_string p) with
      | Some p' -> check_bool (C.Fault.to_string p) true (p = p')
      | None -> Alcotest.fail "of_string (to_string p) must succeed")
    C.Fault.all;
  check_bool "bogus rejected" true (C.Fault.of_string "bogus" = None);
  check_int "four profiles" 4 (List.length C.Fault.all)

let test_profile_none_leaves_machine_pristine () =
  let sim = Sim.create ~seed:4 () in
  let machine = Hw.Machine.create ~cores:1 sim in
  C.Fault.install C.Fault.None_ ~rng:(Vessel_engine.Rng.create ~seed:4) machine;
  let inj = Hw.Machine.inject machine in
  check_bool "disabled" false inj.Hw.Inject.enabled;
  check_int "nothing injected" 0 (Hw.Inject.injected inj)

(* ------------------------------------------------------------------ *)
(* Harness end-to-end *)

let test_no_faults_no_violations () =
  List.iter
    (fun scenario ->
      let v =
        C.Harness.run_one ~seed:5 ~profile:C.Fault.None_ ~scenario ()
      in
      check_int
        (C.Harness.scenario_name scenario ^ " clean")
        0 v.C.Harness.total_violations;
      check_int "no faults under none" 0 v.C.Harness.faults;
      check_bool "checker saw events" true (v.C.Harness.events > 0))
    C.Harness.all_scenarios

let test_chaos_holds_on_correct_scheduler () =
  let v =
    C.Harness.run_one ~seed:6 ~profile:C.Fault.Chaos
      ~scenario:C.Harness.Fig9_class ()
  in
  check_int "chaos clean" 0 v.C.Harness.total_violations;
  check_bool "faults actually fired" true (v.C.Harness.faults > 100);
  check_bool "events" true (v.C.Harness.events > 1_000)

let test_sweep_verdicts_independent_of_jobs () =
  let sweep domains =
    C.Harness.run_sweep ~domains ~seeds:[ 7 ]
      ~profiles:[ C.Fault.Chaos ]
      ~scenarios:[ C.Harness.Fig9_class; C.Harness.Gate ]
      ()
  in
  check_bool "-j 1 = -j 4" true (sweep 1 = sweep 4)

let test_broken_scheduler_caught () =
  (* Disable both reclamation paths: best-effort preemption never fires
     (delay can't exceed max_int) and wake-time eager preemption is off.
     Linpack then monopolizes every core and ready memcached threads sit
     queued forever — the execution-gap invariant must catch it. *)
  let broken =
    {
      S.Vessel.default_params with
      be_preempt_delay = max_int;
      eager_preempt = false;
    }
  in
  let config = { C.Checker.default_config with gap_bound = 2_000_000 } in
  let v =
    C.Harness.run_one ~vessel_params:broken ~config ~seed:8
      ~profile:C.Fault.None_ ~scenario:C.Harness.Fig9_class ()
  in
  check_bool "violations reported" true (v.C.Harness.total_violations > 0);
  check_bool "gap named" true
    (List.exists
       (fun viol -> viol.C.Checker.invariant = "gap")
       v.C.Harness.violations);
  (* The identical run with default params is clean (baseline for the
     mutation): the finding is the scheduler change, not the scenario. *)
  let ok =
    C.Harness.run_one ~config ~seed:8 ~profile:C.Fault.None_
      ~scenario:C.Harness.Fig9_class ()
  in
  check_int "default params clean" 0 ok.C.Harness.total_violations

let suite =
  [
    ( "check.invariants",
      [
        Alcotest.test_case "lost wakeup detected" `Quick
          test_lost_wakeup_detected;
        Alcotest.test_case "handle/ack resolve sends" `Quick
          test_send_matched_by_handle_or_ack;
        Alcotest.test_case "fifo order violation" `Quick
          test_fifo_pop_order_violation;
        Alcotest.test_case "fifo pop from empty" `Quick
          test_fifo_pop_empty_violation;
        Alcotest.test_case "push_front legal" `Quick
          test_fifo_push_front_clean;
        Alcotest.test_case "pkru crossing mismatch" `Quick
          test_pkru_crossing_mismatch;
        Alcotest.test_case "pkru leave vs dispatch" `Quick
          test_pkru_leave_vs_dispatch;
        Alcotest.test_case "conservation" `Quick
          test_conservation_on_unaccounted_machine;
        Alcotest.test_case "violation cap" `Quick
          test_violation_cap_keeps_counting;
      ] );
    ( "check.faults",
      [
        Alcotest.test_case "profile names roundtrip" `Quick
          test_profile_names_roundtrip;
        Alcotest.test_case "none leaves machine pristine" `Quick
          test_profile_none_leaves_machine_pristine;
      ] );
    ( "check.harness",
      [
        Alcotest.test_case "no faults, no violations" `Quick
          test_no_faults_no_violations;
        Alcotest.test_case "chaos holds on correct scheduler" `Quick
          test_chaos_holds_on_correct_scheduler;
        Alcotest.test_case "verdicts independent of -j" `Quick
          test_sweep_verdicts_independent_of_jobs;
        Alcotest.test_case "broken scheduler caught" `Quick
          test_broken_scheduler_caught;
      ] );
  ]
