(* Tests for the domain work pool and the parallel sweep layer: a
   parallel map must return exactly what the sequential one does, in the
   same order, because every sweep point is an independent simulation
   built from an explicit seed. *)

open Vessel_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A job heavy enough that parallel workers genuinely interleave, with a
   result that depends deterministically on the input. *)
let job seed =
  let rng = Rng.create ~seed in
  let acc = ref 0 in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int rng 1_000
  done;
  (seed, !acc)

let test_pool_matches_sequential () =
  let inputs = List.init 23 Fun.id in
  let seq = Pool.map ~domains:1 job inputs in
  List.iter
    (fun domains ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "domains=%d equals sequential" domains)
        seq
        (Pool.map ~domains job inputs))
    [ 2; 4; 8 ]

let test_pool_preserves_order () =
  let out = Pool.map ~domains:4 (fun i -> 2 * i) (List.init 100 Fun.id) in
  Alcotest.(check (list int)) "input order" (List.init 100 (fun i -> 2 * i)) out

let test_pool_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~domains:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.map ~domains:4 succ [ 7 ])

let test_pool_more_domains_than_jobs () =
  Alcotest.(check (list int))
    "oversubscribed pool" [ 1; 2; 3 ]
    (Pool.map ~domains:16 succ [ 0; 1; 2 ])

let test_pool_propagates_exception () =
  check_bool "raises" true
    (try
       ignore
         (Pool.map ~domains:4
            (fun i -> if i = 5 then failwith "boom" else i)
            (List.init 10 Fun.id));
       false
     with Failure m -> m = "boom")

let test_pool_simulations_identical () =
  (* Full simulations, not just arithmetic: one Sim per job. *)
  let run seed =
    let sim = Sim.create ~seed () in
    let r = Rng.split (Sim.rng sim) in
    let acc = ref 0 in
    for _ = 1 to 50 do
      ignore
        (Sim.schedule_after sim ~delay:(Rng.int r 1_000) (fun sim ->
             acc := !acc + Sim.now sim))
    done;
    Sim.run_until sim 10_000;
    !acc
  in
  let seeds = List.init 8 (fun i -> 100 + i) in
  Alcotest.(check (list int))
    "parallel sims = sequential sims"
    (Pool.map ~domains:1 run seeds)
    (Pool.map ~domains:4 run seeds)

(* ------------------------------------------------------------------ *)
(* The experiment stack end to end: one exp_fig1 row must be identical
   at -j 1 and -j 4 (tier-1 determinism gate for the parallel sweeps). *)

let test_fig1_row_identical_across_jobs () =
  let open Vessel_experiments in
  let saved = Runner.domains () in
  let run j =
    Runner.set_domains j;
    Fun.protect
      ~finally:(fun () -> Runner.set_domains saved)
      (fun () -> Exp_fig1.run ~seed:42 ~cores:2 ~fractions:[ 0.5 ] ())
  in
  match (run 1, run 4) with
  | [ a ], [ b ] ->
      check_bool "rows bit-identical at -j 1 and -j 4" true (a = b);
      (* Keep the comparison honest: the row actually measured something. *)
      check_bool "row is non-trivial" true (a.Exp_fig1.offered_rps > 0.)
  | _ -> Alcotest.fail "expected one row per run"

let suite =
  [
    ( "engine.pool",
      [
        Alcotest.test_case "parallel = sequential" `Quick
          test_pool_matches_sequential;
        Alcotest.test_case "order preserved" `Quick test_pool_preserves_order;
        Alcotest.test_case "empty and singleton" `Quick
          test_pool_empty_and_singleton;
        Alcotest.test_case "more domains than jobs" `Quick
          test_pool_more_domains_than_jobs;
        Alcotest.test_case "exception propagates" `Quick
          test_pool_propagates_exception;
        Alcotest.test_case "simulations identical" `Quick
          test_pool_simulations_identical;
      ] );
    ( "experiments.parallel",
      [
        Alcotest.test_case "fig1 row identical at -j 1 and -j 4" `Slow
          test_fig1_row_identical_across_jobs;
      ] );
  ]
