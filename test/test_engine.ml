(* Tests for the discrete-event engine: time, RNG, distributions, the event
   queue and the simulation driver. The trace ring moved to [Vessel_obs]
   (see test_obs.ml). *)

open Vessel_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_units () =
  check_int "us" 1_500 (Time.us 1.5);
  check_int "ms" 2_000_000 (Time.ms 2.);
  check_int "s" 1_000_000_000 (Time.s 1.);
  Alcotest.(check (float 1e-9)) "to_us" 1.5 (Time.to_us 1_500);
  Alcotest.(check (float 1e-9)) "to_ms" 0.002 (Time.to_ms 2_000);
  Alcotest.(check (float 1e-12)) "to_s" 1e-6 (Time.to_s 1_000)

let test_time_of_cycles () =
  (* 2.1 GHz: 21 cycles = 10 ns *)
  check_int "21 cycles @2.1GHz" 10 (Time.of_cycles ~ghz:2.1 21);
  check_int "zero cycles" 0 (Time.of_cycles ~ghz:2.1 0);
  check_int "1 cycle never rounds to 0" 1 (Time.of_cycles ~ghz:3.0 1)

let test_time_pp () =
  Alcotest.(check string) "ns" "999ns" (Time.to_string 999);
  Alcotest.(check string) "us" "1.500us" (Time.to_string 1_500);
  Alcotest.(check string) "ms" "2.000ms" (Time.to_string 2_000_000)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits a <> Rng.bits b then differs := true
  done;
  check_bool "streams differ" true !differs

let test_rng_split_independent () =
  let a = Rng.create ~seed:3 in
  let c1 = Rng.split a in
  let c2 = Rng.split a in
  check_bool "children differ" true (Rng.bits c1 <> Rng.bits c2)

let test_rng_copy () =
  let a = Rng.create ~seed:11 in
  let _ = Rng.bits a in
  let b = Rng.copy a in
  check_int "copy replays" (Rng.bits a) (Rng.bits b)

let test_rng_int_range () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1_000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_range () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1_000 do
    let v = Rng.float r in
    check_bool "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_rng_int_rejects_bad_bound () =
  let r = Rng.create ~seed:5 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Dist *)

let sample_mean d n seed =
  let r = Rng.create ~seed in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Dist.sample d r
  done;
  !total /. float_of_int n

let test_dist_constant () =
  let d = Dist.constant 42. in
  let r = Rng.create ~seed:1 in
  Alcotest.(check (float 0.)) "constant" 42. (Dist.sample d r);
  Alcotest.(check (float 0.)) "mean" 42. (Dist.mean d)

let test_dist_exponential_mean () =
  let d = Dist.exponential ~mean:1000. in
  let m = sample_mean d 50_000 2 in
  check_bool "empirical mean near 1000" true (Float.abs (m -. 1000.) < 30.)

let test_dist_uniform_mean () =
  let d = Dist.uniform ~lo:10. ~hi:20. in
  let m = sample_mean d 20_000 3 in
  check_bool "mean near 15" true (Float.abs (m -. 15.) < 0.3);
  Alcotest.(check (float 1e-9)) "analytic" 15. (Dist.mean d)

let test_dist_lognormal_quantiles () =
  (* Silo/TPC-C fit: p50 = 20us, p999 = 280us (paper section 6.1). *)
  let d = Dist.lognormal_of_quantiles ~p50:20_000. ~p999:280_000. in
  let r = Rng.create ~seed:4 in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Dist.sample d r) in
  Array.sort compare xs;
  let p50 = xs.(n / 2) and p999 = xs.(n * 999 / 1000) in
  check_bool "p50 ~ 20us" true (Float.abs (p50 -. 20_000.) /. 20_000. < 0.05);
  check_bool "p999 ~ 280us" true
    (Float.abs (p999 -. 280_000.) /. 280_000. < 0.12)

let test_dist_bimodal () =
  let d = Dist.bimodal ~p:0.1 ~lo:1. ~hi:100. in
  let m = sample_mean d 100_000 5 in
  let expected = Dist.mean d in
  Alcotest.(check (float 1e-9)) "analytic mean" 10.9 expected;
  check_bool "empirical near analytic" true (Float.abs (m -. expected) < 0.5)

let test_dist_mixture () =
  let d = Dist.mixture [ (1., Dist.constant 2.); (3., Dist.constant 10.) ] in
  Alcotest.(check (float 1e-9)) "weighted mean" 8. (Dist.mean d);
  let m = sample_mean d 50_000 6 in
  check_bool "empirical" true (Float.abs (m -. 8.) < 0.2)

let test_dist_shifted () =
  let d = Dist.shifted 5. (Dist.constant 1.) in
  let r = Rng.create ~seed:1 in
  Alcotest.(check (float 0.)) "shifted" 6. (Dist.sample d r)

let test_dist_pareto_positive () =
  let d = Dist.pareto ~shape:2. ~scale:3. in
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1_000 do
    check_bool "sample >= scale" true (Dist.sample d r >= 3.)
  done;
  Alcotest.(check (float 1e-9)) "mean" 6. (Dist.mean d)

let test_dist_invalid_args () =
  Alcotest.check_raises "bad quantiles"
    (Invalid_argument "Dist.lognormal_of_quantiles: need 0 < p50 < p999")
    (fun () -> ignore (Dist.lognormal_of_quantiles ~p50:10. ~p999:5.))

(* One Zipf table per (s, n): calls from several domains at once get the
   same value, and a different (s, n) gets its own. *)
let test_dist_zipf_shared () =
  let tables =
    Pool.map ~domains:2 (fun _ -> Dist.zipf ~s:0.7 ~n:5_000) (List.init 4 Fun.id)
  in
  let first = List.hd tables in
  check_bool "one table across domains" true
    (List.for_all (fun d -> d == first) tables);
  check_bool "same (s, n) shares" true (Dist.zipf ~s:0.7 ~n:5_000 == first);
  check_bool "other n builds its own" true (Dist.zipf ~s:0.7 ~n:5_001 != first);
  check_bool "other s builds its own" true (Dist.zipf ~s:0.8 ~n:5_000 != first)

(* ------------------------------------------------------------------ *)
(* Event_queue *)

let test_eq_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:30 "c");
  ignore (Event_queue.add q ~time:10 "a");
  ignore (Event_queue.add q ~time:20 "b");
  let pop () = match Event_queue.pop q with Some (_, v) -> v | None -> "" in
  let x1 = pop () in
  let x2 = pop () in
  let x3 = pop () in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] [ x1; x2; x3 ]

let test_eq_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    ignore (Event_queue.add q ~time:5 i)
  done;
  let out = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order at same time"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !out)

let test_eq_cancel () =
  let q = Event_queue.create () in
  let _h1 = Event_queue.add q ~time:1 "keep1" in
  let h2 = Event_queue.add q ~time:2 "drop" in
  let _h3 = Event_queue.add q ~time:3 "keep2" in
  Event_queue.cancel q h2;
  check_int "live count" 2 (Event_queue.length q);
  let pop () = match Event_queue.pop q with Some (_, v) -> v | None -> "" in
  let x1 = pop () in
  let x2 = pop () in
  Alcotest.(check (list string)) "cancelled skipped" [ "keep1"; "keep2" ]
    [ x1; x2 ];
  check_bool "empty" true (Event_queue.is_empty q)

let test_eq_cancel_idempotent () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1 () in
  Event_queue.cancel q h;
  Event_queue.cancel q h;
  check_int "single decrement" 0 (Event_queue.length q)

let test_eq_cancel_after_pop () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1 () in
  ignore (Event_queue.pop q);
  Event_queue.cancel q h;
  check_int "no underflow" 0 (Event_queue.length q)

let test_eq_peek () =
  let q = Event_queue.create () in
  Alcotest.(check (option int)) "empty peek" None (Event_queue.peek_time q);
  ignore (Event_queue.add q ~time:42 ());
  Alcotest.(check (option int)) "peek" (Some 42) (Event_queue.peek_time q)

let prop_eq_sorted =
  QCheck.Test.make ~name:"event_queue pops sorted" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun time -> ignore (Event_queue.add q ~time ())) times;
      let rec drain acc =
        match Event_queue.pop q with
        | Some (time, ()) -> drain (time :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare times)

let test_eq_pop_if_before () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:10 "a");
  ignore (Event_queue.add q ~time:20 "b");
  Alcotest.(check (option (pair int string)))
    "earliest after horizon" None
    (Event_queue.pop_if_before q ~horizon:9);
  Alcotest.(check (option (pair int string)))
    "boundary is inclusive" (Some (10, "a"))
    (Event_queue.pop_if_before q ~horizon:10);
  Alcotest.(check (option (pair int string)))
    "next still later" None
    (Event_queue.pop_if_before q ~horizon:15);
  check_int "nothing consumed" 1 (Event_queue.length q);
  Alcotest.(check (option (pair int string)))
    "pops when within" (Some (20, "b"))
    (Event_queue.pop_if_before q ~horizon:1_000);
  Alcotest.(check (option (pair int string)))
    "empty" None
    (Event_queue.pop_if_before q ~horizon:max_int)

let test_eq_pop_if_before_skips_cancelled () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:5 "dead" in
  ignore (Event_queue.add q ~time:30 "live");
  Event_queue.cancel q h;
  Alcotest.(check (option (pair int string)))
    "cancelled head hides earlier time" None
    (Event_queue.pop_if_before q ~horizon:10);
  Alcotest.(check (option (pair int string)))
    "live entry pops" (Some (30, "live"))
    (Event_queue.pop_if_before q ~horizon:30)

let test_eq_drain_before () =
  let q = Event_queue.create () in
  for i = 1 to 5 do
    ignore (Event_queue.add q ~time:(10 * i) i)
  done;
  let out = ref [] in
  Event_queue.drain_before q ~horizon:30 (fun time v -> out := (time, v) :: !out);
  Alcotest.(check (list (pair int int)))
    "drains in order up to horizon"
    [ (10, 1); (20, 2); (30, 3) ]
    (List.rev !out);
  check_int "rest untouched" 2 (Event_queue.length q)

let test_eq_drain_before_reentrant () =
  (* An event at the horizon scheduling another at the horizon must see it
     drained in the same call — run_until's semantics. *)
  let q = Event_queue.create () in
  let fired = ref [] in
  let rec chain n () =
    fired := n :: !fired;
    if n < 3 then ignore (Event_queue.add q ~time:100 (chain (n + 1)))
  in
  ignore (Event_queue.add q ~time:100 (chain 1));
  Event_queue.drain_before q ~horizon:100 (fun _time f -> f ());
  Alcotest.(check (list int)) "chained at horizon" [ 1; 2; 3 ] (List.rev !fired);
  check_bool "drained" true (Event_queue.is_empty q)

(* Entry records are pooled and recycled; a handle kept across its
   entry's reuse must not be able to cancel the new tenant. *)
let test_eq_stale_handle_recycled () =
  let q = Event_queue.create () in
  let h1 = Event_queue.add q ~time:1 "a" in
  ignore (Event_queue.pop q);
  (* The freed slot is recycled by the next add. *)
  let _h2 = Event_queue.add q ~time:2 "b" in
  Event_queue.cancel q h1;
  check_int "stale cancel spares new tenant" 1 (Event_queue.length q);
  Alcotest.(check (option (pair int string)))
    "new tenant intact" (Some (2, "b")) (Event_queue.pop q);
  (* Same for a cancelled-then-collected entry. *)
  let h3 = Event_queue.add q ~time:3 "c" in
  Event_queue.cancel q h3;
  Alcotest.(check (option (pair int string))) "empty" None (Event_queue.pop q);
  let _h4 = Event_queue.add q ~time:4 "d" in
  Event_queue.cancel q h3;
  check_int "doubly stale cancel" 1 (Event_queue.length q)

(* Events routed to every wheel level plus the overflow heap must still
   pop in (time, insertion) order, including adds behind the cursor. *)
let test_eq_multi_level () =
  let q = Event_queue.create () in
  let far = (1 lsl 33) + 7 in
  (* level 0 / 1 / 2 / 3 / overflow, interleaved. *)
  let times = [ 20_000_000; 5; 100_000; far; 1_000; 6; far; 100_001 ] in
  List.iteri (fun i time -> ignore (Event_queue.add q ~time (i, time))) times;
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (t, (i, t')) ->
        check_int "payload time" t t';
        popped := (t, i) :: !popped;
        drain ()
    | None -> ()
  in
  (* Pop two, then add behind the cursor: past adds go to the overflow
     heap and must surface immediately. *)
  (match Event_queue.pop q with
  | Some (t, (i, _)) -> popped := (t, i) :: !popped
  | None -> Alcotest.fail "unexpected empty");
  ignore (Event_queue.add q ~time:0 (99, 0));
  drain ();
  Alcotest.(check (list (pair int int)))
    "global (time, seq) order"
    [ (5, 1); (0, 99); (6, 5); (1_000, 4); (100_000, 2); (100_001, 7);
      (20_000_000, 0); (far, 3); (far, 6) ]
    (List.rev !popped)

(* Steady-state churn must not touch the minor heap: [add] hands out
   immediate handles from the entry pool and [drain_before] recycles in
   place. Budget is per *drain call* (one closure), not per event. *)
let test_eq_zero_alloc () =
  let q = Event_queue.create () in
  let burst = 256 and rounds = 100 in
  let fired = ref 0 in
  let cb _time () = incr fired in
  let churn () =
    for r = 0 to rounds - 1 do
      for i = 1 to burst do
        ignore (Event_queue.add q ~time:((r * burst) + i) ())
      done;
      Event_queue.drain_before q ~horizon:((r + 1) * burst) cb
    done
  in
  churn ();
  (* Pool is now warm: steady churn may not grow it or allocate. *)
  let allocated = Event_queue.pool_allocated q in
  let w0 = Gc.minor_words () in
  churn ();
  let per_event =
    (Gc.minor_words () -. w0) /. float_of_int (burst * rounds)
  in
  check_int "fired" (2 * burst * rounds) !fired;
  check_int "pool did not grow" allocated (Event_queue.pool_allocated q);
  check_bool
    (Printf.sprintf "allocation-free steady state (%.3f words/event)"
       per_event)
    true (per_event < 0.5)

(* Regression: a pop can jump the cursor across a block boundary, into
   a region whose events are still parked in a covering higher-level
   slot. A reentrant add then lands at a lower level, and the scan must
   not return it ahead of the earlier parked event. Found by
   differential fuzzing against the pre-wheel heap queue. *)
let test_eq_covering_slot_drain () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:0x1f8c5 0);
  Alcotest.(check (option (pair int int)))
    "warm-up pop" (Some (0x1f8c5, 0)) (Event_queue.pop q);
  (* [b] briefly caches as the front, then [c] undercuts it: [b] is
     demoted into a level-2 slot the cursor has not entered yet. *)
  ignore (Event_queue.add q ~time:0x200c8 1);
  ignore (Event_queue.add q ~time:0x200c2 2);
  let popped = ref [] in
  Event_queue.drain_before q ~horizon:0x20804 (fun t id ->
      popped := (t, id) :: !popped;
      (* Popping [c] moves the cursor into [b]'s covering slot; this
         reentrant add lands at level 1 and must not overtake [b]. *)
      if id = 2 then ignore (Event_queue.add q ~time:0x20523 3));
  Alcotest.(check (list (pair int int)))
    "drain order across the cursor jump"
    [ (0x200c2, 2); (0x200c8, 1); (0x20523, 3) ]
    (List.rev !popped)

(* Regression: demoting the front-cache entry must put it at the HEAD
   of its bucket — a same-time event added while it was cached has a
   higher seq and already sits in that bucket. Found by differential
   fuzzing against the pre-wheel heap queue. *)
let test_eq_demoted_front_fifo () =
  let q = Event_queue.create () in
  let t = 0x19eae in
  ignore (Event_queue.add q ~time:t 0);
  (* same time, higher seq: goes to the bucket while 0 is the front *)
  ignore (Event_queue.add q ~time:t 1);
  (* earlier time: demotes 0 into the same bucket, behind 1 if naive *)
  ignore (Event_queue.add q ~time:0x19408 2);
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (time, id) ->
        popped := (time, id) :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (pair int int)))
    "same-time FIFO survives front demotion"
    [ (0x19408, 2); (t, 0); (t, 1) ]
    (List.rev !popped)

(* Model-based test: random add/cancel/pop/pop_if_before/drain_before
   sequences against a sorted-association-list reference, exercising the
   lazy-deletion path (cancelled entries linger until they surface),
   cascades and the overflow heap. *)

type eq_op =
  | Add of int
  | Cancel of int
  | Pop
  | Pop_before of int
  | Drain_before of int

(* Times at wheel-level scale: mostly near the cursor, some mid-range,
   some past the 2^32 wheel horizon (overflow heap). *)
let eq_time_gen =
  QCheck.Gen.(
    frequency
      [
        (6, int_bound 100);
        (3, int_bound 1_000_000);
        (1, map (fun t -> (1 lsl 32) + t) (int_bound 1_000));
      ])

let eq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun t -> Add t) eq_time_gen);
        (3, map (fun i -> Cancel i) (int_bound 50));
        (3, return Pop);
        (2, map (fun t -> Pop_before t) eq_time_gen);
        (1, map (fun t -> Drain_before t) eq_time_gen);
      ])

let eq_op_print = function
  | Add t -> Printf.sprintf "Add %d" t
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Pop -> "Pop"
  | Pop_before t -> Printf.sprintf "Pop_before %d" t
  | Drain_before t -> Printf.sprintf "Drain_before %d" t

let eq_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map eq_op_print ops))
    QCheck.Gen.(list_size (int_bound 200) eq_op_gen)

let prop_eq_model =
  QCheck.Test.make ~name:"event_queue (wheel) matches sorted-list model"
    ~count:300 eq_ops_arb (fun ops ->
      let q = Event_queue.create () in
      (* The model: live entries as (time, id) kept in pop order; [handles]
         maps id -> real handle for cancel targeting. *)
      let model = ref [] and handles = ref [||] and next_id = ref 0 in
      let model_pop ?horizon () =
        match
          List.sort
            (fun (t1, i1) (t2, i2) -> compare (t1, i1) (t2, i2))
            !model
        with
        | [] -> None
        | (t, i) :: _ ->
            if match horizon with Some h -> t > h | None -> false then None
            else begin
              model := List.filter (fun (_, j) -> j <> i) !model;
              Some (t, i)
            end
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Add time ->
                let id = !next_id in
                incr next_id;
                let h = Event_queue.add q ~time id in
                handles := Array.append !handles [| h |];
                model := (time, id) :: !model;
                true
            | Cancel k ->
                if Array.length !handles = 0 then true
                else begin
                  let i = k mod Array.length !handles in
                  Event_queue.cancel q !handles.(i);
                  (* Cancelling a popped or already-cancelled id is a
                     no-op in both the queue and the model. *)
                  model := List.filter (fun (_, j) -> j <> i) !model;
                  true
                end
            | Pop -> Event_queue.pop q = model_pop ()
            | Pop_before h ->
                Event_queue.pop_if_before q ~horizon:h
                = model_pop ~horizon:h ()
            | Drain_before h ->
                let got = ref [] in
                Event_queue.drain_before q ~horizon:h (fun t id ->
                    got := (t, id) :: !got);
                let rec expect acc =
                  match model_pop ~horizon:h () with
                  | Some e -> expect (e :: acc)
                  | None -> List.rev acc
                in
                List.rev !got = expect []
          in
          ok && Event_queue.length q = List.length !model)
        ops)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_runs_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~at:200 (fun _ -> log := "b" :: !log));
  ignore (Sim.schedule sim ~at:100 (fun _ -> log := "a" :: !log));
  Sim.run_until sim 1_000;
  Alcotest.(check (list string)) "order" [ "a"; "b" ] (List.rev !log);
  check_int "clock at horizon" 1_000 (Sim.now sim)

let test_sim_horizon_excludes_later () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule sim ~at:500 (fun _ -> fired := true));
  Sim.run_until sim 499;
  check_bool "not fired" false !fired;
  check_int "pending" 1 (Sim.pending sim);
  Sim.run_until sim 500;
  check_bool "fired" true !fired

let test_sim_reentrant_schedule () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick sim =
    incr count;
    if !count < 5 then ignore (Sim.schedule_after sim ~delay:10 tick)
  in
  ignore (Sim.schedule sim ~at:0 tick);
  Sim.run_until sim 1_000;
  check_int "chained events" 5 !count

let test_sim_schedule_past_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~at:100 (fun _ -> ()));
  Sim.run_until sim 100;
  check_bool "raises" true
    (try
       ignore (Sim.schedule sim ~at:50 (fun _ -> ()));
       false
     with Invalid_argument _ -> true)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~at:10 (fun _ -> fired := true) in
  Sim.cancel sim h;
  Sim.run_until sim 100;
  check_bool "cancelled" false !fired

let test_sim_step () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~at:7 (fun _ -> ()));
  check_bool "step" true (Sim.step sim);
  check_int "clock moved" 7 (Sim.now sim);
  check_bool "exhausted" false (Sim.step sim)

(* ------------------------------------------------------------------ *)
(* Batched dispatch: [run_until]'s batch drain must be observably
   identical to one-at-a-time [step] — callback order, the clock each
   callback sees, and the executed counters — including reentrant
   schedules into the current batch and cancels aimed at events later
   in the same batch. *)

type batch_op =
  | Fire (* a tagged event that only logs *)
  | Boxed (* a closure event that only logs *)
  | Spawn_same (* schedules a tagged event at its own timestamp *)
  | Spawn_later of int (* schedules a tagged event [d] later *)
  | Cancel_next (* cancels the earliest still-pending Fire handle *)

let batch_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, return Fire);
        (2, return Boxed);
        (2, return Spawn_same);
        (2, map (fun d -> Spawn_later (d + 1)) (int_bound 40));
        (2, return Cancel_next);
      ])

(* Small time range so many events share a timestamp (deep batches). *)
let batch_scenario_gen =
  QCheck.Gen.(
    list_size (int_bound 60) (pair (int_bound 20) batch_op_gen))

let batch_op_print (t, op) =
  Printf.sprintf "(%d, %s)" t
    (match op with
    | Fire -> "Fire"
    | Boxed -> "Boxed"
    | Spawn_same -> "Spawn_same"
    | Spawn_later d -> Printf.sprintf "Spawn_later %d" d
    | Cancel_next -> "Cancel_next")

let batch_scenario_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map batch_op_print ops))
    batch_scenario_gen

(* Interpret a scenario on a fresh sim. [drive] consumes the sim after
   setup; the observable record is the (clock, id) log plus the local
   executed counter. Tagged log events carry their scenario index in
   [a] so the two runs can be compared id-by-id. *)
let run_batch_scenario ~drive ops =
  let sim = Sim.create () in
  let log = ref [] in
  let fire_tag =
    Sim.register_handler sim (fun a _ -> log := (Sim.now sim, a) :: !log)
  in
  (* Pending Fire handles, oldest first, for Cancel_next to target. *)
  let pending = Queue.create () in
  List.iteri
    (fun i (time, op) ->
      match op with
      | Fire ->
          Queue.push
            (Sim.schedule_tagged sim ~at:time ~tag:fire_tag ~a:i ~b:0)
            pending
      | Boxed ->
          ignore
            (Sim.schedule sim ~at:time (fun sim ->
                 log := (Sim.now sim, 10_000 + i) :: !log))
      | Spawn_same ->
          ignore
            (Sim.schedule sim ~at:time (fun sim ->
                 ignore
                   (Sim.schedule_tagged sim ~at:(Sim.now sim) ~tag:fire_tag
                      ~a:(20_000 + i) ~b:0)))
      | Spawn_later d ->
          ignore
            (Sim.schedule sim ~at:time (fun sim ->
                 ignore
                   (Sim.schedule_tagged_after sim ~delay:d ~tag:fire_tag
                      ~a:(30_000 + i) ~b:0)))
      | Cancel_next ->
          ignore
            (Sim.schedule sim ~at:time (fun sim ->
                 match Queue.take_opt pending with
                 | Some h -> Sim.cancel sim h
                 | None -> ())))
    ops;
  drive sim;
  (List.rev !log, Sim.events_executed sim)

let drive_run_until sim = Sim.run_until sim 1_000

let drive_step sim =
  while Sim.step sim do
    ()
  done

let prop_batch_vs_step =
  QCheck.Test.make ~name:"run_until batches = step-at-a-time (wheel)"
    ~count:500 batch_scenario_arb (fun ops ->
      let g0 = Sim.total_events_executed () in
      let batched = run_batch_scenario ~drive:drive_run_until ops in
      let stepped = run_batch_scenario ~drive:drive_step ops in
      let g1 = Sim.total_events_executed () in
      (* Satellite invariant: the batched global-counter flush loses
         nothing — the process-wide aggregate advances by exactly the
         two runs' local counts. *)
      batched = stepped && g1 - g0 = snd batched + snd stepped)

(* The tagged scheduling path must stay allocation-free end to end
   through [Sim.run_until]: a warm self-rescheduling handler churns the
   queue with no minor-heap traffic. Budget is per horizon-window, not
   per event. *)
let test_sim_tagged_zero_alloc () =
  let sim = Sim.create () in
  let count = ref 0 in
  let tag = ref (-1) in
  let rounds = 100 and per_round = 256 in
  tag :=
    Sim.register_handler sim (fun a _ ->
        incr count;
        if a > 1 then
          ignore (Sim.schedule_tagged_after sim ~delay:7 ~tag:!tag ~a:(a - 1) ~b:0));
  let churn () =
    for _ = 1 to rounds do
      ignore
        (Sim.schedule_tagged_after sim ~delay:1 ~tag:!tag ~a:per_round ~b:0);
      Sim.run_until sim (Sim.now sim + (7 * per_round) + 10)
    done
  in
  churn ();
  let w0 = Gc.minor_words () in
  churn ();
  let per_event =
    (Gc.minor_words () -. w0) /. float_of_int (rounds * per_round)
  in
  check_int "fired" (2 * rounds * per_round) !count;
  check_bool
    (Printf.sprintf "tagged run_until allocation-free (%.3f words/event)"
       per_event)
    true (per_event < 0.5)

let test_sim_deterministic_replay () =
  let run () =
    let sim = Sim.create ~seed:99 () in
    let r = Rng.split (Sim.rng sim) in
    let acc = ref [] in
    for _ = 1 to 10 do
      ignore
        (Sim.schedule_after sim ~delay:(Rng.int r 1_000) (fun sim ->
             acc := Sim.now sim :: !acc))
    done;
    Sim.run_until sim 10_000;
    !acc
  in
  Alcotest.(check (list int)) "replay identical" (run ()) (run ())

let suite =
  [
    ( "engine.time",
      [
        Alcotest.test_case "unit conversions" `Quick test_time_units;
        Alcotest.test_case "cycles to ns" `Quick test_time_of_cycles;
        Alcotest.test_case "pretty printing" `Quick test_time_pp;
      ] );
    ( "engine.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "bad bound" `Quick test_rng_int_rejects_bad_bound;
        Alcotest.test_case "shuffle is a permutation" `Quick
          test_rng_shuffle_permutation;
      ] );
    ( "engine.dist",
      [
        Alcotest.test_case "constant" `Quick test_dist_constant;
        Alcotest.test_case "exponential mean" `Quick test_dist_exponential_mean;
        Alcotest.test_case "uniform mean" `Quick test_dist_uniform_mean;
        Alcotest.test_case "lognormal quantile fit (Silo)" `Quick
          test_dist_lognormal_quantiles;
        Alcotest.test_case "bimodal" `Quick test_dist_bimodal;
        Alcotest.test_case "mixture" `Quick test_dist_mixture;
        Alcotest.test_case "shifted" `Quick test_dist_shifted;
        Alcotest.test_case "pareto" `Quick test_dist_pareto_positive;
        Alcotest.test_case "invalid args" `Quick test_dist_invalid_args;
        Alcotest.test_case "zipf table shared per (s, n)" `Quick
          test_dist_zipf_shared;
      ] );
    ( "engine.event_queue",
      [
        Alcotest.test_case "time order" `Quick test_eq_order;
        Alcotest.test_case "FIFO tie-break" `Quick test_eq_fifo_ties;
        Alcotest.test_case "cancel" `Quick test_eq_cancel;
        Alcotest.test_case "cancel idempotent" `Quick test_eq_cancel_idempotent;
        Alcotest.test_case "cancel after pop" `Quick test_eq_cancel_after_pop;
        Alcotest.test_case "peek" `Quick test_eq_peek;
        Alcotest.test_case "pop_if_before" `Quick test_eq_pop_if_before;
        Alcotest.test_case "pop_if_before skips cancelled" `Quick
          test_eq_pop_if_before_skips_cancelled;
        Alcotest.test_case "drain_before" `Quick test_eq_drain_before;
        Alcotest.test_case "drain_before reentrant" `Quick
          test_eq_drain_before_reentrant;
        Alcotest.test_case "stale handle after recycling" `Quick
          test_eq_stale_handle_recycled;
        Alcotest.test_case "multi-level order (wheel)" `Quick
          test_eq_multi_level;
        Alcotest.test_case "zero-alloc steady state" `Quick
          test_eq_zero_alloc;
        Alcotest.test_case "covering-slot drain on cursor jump (wheel)"
          `Quick
          test_eq_covering_slot_drain;
        Alcotest.test_case "demoted front keeps FIFO (wheel)" `Quick
          test_eq_demoted_front_fifo;
        QCheck_alcotest.to_alcotest prop_eq_sorted;
        QCheck_alcotest.to_alcotest prop_eq_model;
      ] );
    ( "engine.sim",
      [
        Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
        Alcotest.test_case "horizon" `Quick test_sim_horizon_excludes_later;
        Alcotest.test_case "reentrant schedule" `Quick test_sim_reentrant_schedule;
        Alcotest.test_case "past rejected" `Quick test_sim_schedule_past_rejected;
        Alcotest.test_case "cancel" `Quick test_sim_cancel;
        Alcotest.test_case "step" `Quick test_sim_step;
        Alcotest.test_case "tagged run_until zero-alloc" `Quick
          test_sim_tagged_zero_alloc;
        Alcotest.test_case "deterministic replay" `Quick
          test_sim_deterministic_replay;
        QCheck_alcotest.to_alcotest prop_batch_vs_step;
      ] );
  ]
