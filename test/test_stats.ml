(* Tests for the measurement substrate: histogram, cycle accounting and
   table rendering. *)

open Vessel_stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_hist_empty () =
  let h = Histogram.create () in
  check_int "count" 0 (Histogram.count h);
  check_int "p99" 0 (Histogram.percentile h 99.);
  Alcotest.(check (float 0.)) "mean" 0. (Histogram.mean h)

let test_hist_empty_percentile_edges () =
  let h = Histogram.create () in
  (* Every in-range p on an empty histogram reports 0 rather than
     raising — callers print percentiles unconditionally. *)
  check_int "p50 empty" 0 (Histogram.percentile h 50.);
  check_int "p100 empty" 0 (Histogram.percentile h 100.);
  Alcotest.check_raises "p0 rejected"
    (Invalid_argument "Histogram.percentile: p must be in (0, 100]")
    (fun () -> ignore (Histogram.percentile h 0.));
  Alcotest.check_raises "p>100 rejected"
    (Invalid_argument "Histogram.percentile: p must be in (0, 100]")
    (fun () -> ignore (Histogram.percentile h 100.5))

let test_hist_single_sample () =
  let h = Histogram.create ~precision:6 () in
  Histogram.record h 7;
  (* One sample below 2^precision: every percentile is that sample. *)
  List.iter
    (fun p -> check_int (Printf.sprintf "p%.1f" p) 7 (Histogram.percentile h p))
    [ 0.001; 1.; 50.; 99.; 100. ];
  check_int "min" 7 (Histogram.min h);
  check_int "max" 7 (Histogram.max h)

let test_hist_all_in_top_bucket () =
  (* Samples at max_int all land in the last magnitude row. The bucket
     floor undershoots by at most one sub-bucket width (1/64 relative)
     and the max_v clamp keeps the report from overshooting. *)
  let h = Histogram.create ~precision:6 () in
  for _ = 1 to 5 do
    Histogram.record h Stdlib.max_int
  done;
  check_int "count" 5 (Histogram.count h);
  let p50 = Histogram.percentile h 50. in
  let p100 = Histogram.percentile h 100. in
  check_bool "p50 <= max_int" true (p50 <= Stdlib.max_int);
  check_bool "p50 within 1/64 of max_int" true
    (float_of_int p50 >= float_of_int Stdlib.max_int *. 63. /. 64.);
  check_int "p100 = p50 (single occupied bucket)" p50 p100;
  check_int "max exact" Stdlib.max_int (Histogram.max h)

let test_hist_exact_small () =
  (* Values below 2^precision are stored exactly. *)
  let h = Histogram.create ~precision:6 () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4; 5 ];
  check_int "p50 exact" 3 (Histogram.percentile h 50.);
  check_int "min" 1 (Histogram.min h);
  check_int "max" 5 (Histogram.max h);
  Alcotest.(check (float 1e-9)) "mean exact" 3. (Histogram.mean h)

let test_hist_relative_error () =
  let h = Histogram.create ~precision:6 () in
  let v = 1_234_567 in
  Histogram.record h v;
  let p = Histogram.percentile h 50. in
  let err = Float.abs (float_of_int (p - v)) /. float_of_int v in
  check_bool "within 2/64 relative error" true (err < 2. /. 64.)

let test_hist_percentile_ordering () =
  let h = Histogram.create () in
  for i = 1 to 10_000 do
    Histogram.record h i
  done;
  let p50 = Histogram.percentile h 50. in
  let p90 = Histogram.percentile h 90. in
  let p999 = Histogram.percentile h 99.9 in
  check_bool "p50<=p90" true (p50 <= p90);
  check_bool "p90<=p999" true (p90 <= p999);
  check_bool "p50 near 5000" true (abs (p50 - 5_000) < 200);
  check_bool "p999 near 9990" true (abs (p999 - 9_990) < 300)

let test_hist_record_n () =
  let h = Histogram.create () in
  Histogram.record_n h 10 ~n:1000;
  check_int "count" 1000 (Histogram.count h);
  check_int "p99" 10 (Histogram.percentile h 99.)

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 10;
  Histogram.record b 1_000;
  Histogram.merge ~into:a b;
  check_int "count" 2 (Histogram.count a);
  check_int "min" 10 (Histogram.min a);
  check_bool "max >= 1000*63/64" true (Histogram.max a >= 984)

let test_hist_clear () =
  let h = Histogram.create () in
  Histogram.record h 5;
  Histogram.clear h;
  check_int "count" 0 (Histogram.count h);
  check_int "max" 0 (Histogram.max h)

let test_hist_negative_rejected () =
  let h = Histogram.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Histogram.record: negative value") (fun () ->
      Histogram.record h (-1))

let prop_hist_percentile_bounded =
  QCheck.Test.make ~name:"histogram percentile within value range" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 5_000_000))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let lo = List.fold_left min max_int xs in
      let hi = List.fold_left max 0 xs in
      List.for_all
        (fun p ->
          let v = Histogram.percentile h p in
          (* The bucket representative can undershoot by one bucket width
             (<= 1/64 relative) but never overshoots max. *)
          v <= hi && float_of_int v >= float_of_int lo *. 0.96 -. 1.)
        [ 1.; 50.; 90.; 99.; 99.9; 100. ])

let prop_hist_mean_exact =
  QCheck.Test.make ~name:"histogram mean is exact" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (int_bound 1_000_000))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let expect =
        List.fold_left (fun a x -> a +. float_of_int x) 0. xs
        /. float_of_int (List.length xs)
      in
      Float.abs (Histogram.mean h -. expect) < 1e-6 *. (1. +. expect))

(* Exhaustive check of the branch-free bucketing against the loop it
   replaced. [Bits.msb] must agree with a one-bit-at-a-time scan on
   every representable magnitude, and the histogram's bucket floor
   (observable through percentile of a single recorded value) must
   match the reference index formula computed with the naive msb — at
   every sub-bucket lower bound of every magnitude row, and one on
   either side of it. *)

let msb_naive v =
  let k = ref 0 and x = ref v in
  while !x > 1 do
    incr k;
    x := !x lsr 1
  done;
  !k

let test_hist_index_exhaustive () =
  let precision = 6 in
  let sub = 1 lsl precision in
  (* Reference bucket floor: the value the old loop-based index mapped
     [v] to (identity below [sub], top [precision+1] bits kept above). *)
  let ref_floor v =
    if v < sub then v
    else begin
      let m = msb_naive v - precision in
      (v lsr m) lsl m
    end
  in
  let checked = ref 0 in
  let check_v v =
    if v >= 0 then begin
      let h = Histogram.create ~precision () in
      Histogram.record h v;
      check_int (Printf.sprintf "bucket floor of %d" v) (ref_floor v)
        (Histogram.percentile h 50.);
      incr checked
    end
  in
  (* Magnitudes 0..61 cover every positive OCaml int (max_int = 2^62-1);
     small values below one full row are exact. *)
  for v = 0 to (2 * sub) + 1 do
    check_v v
  done;
  for k = precision to 61 do
    check_int (Printf.sprintf "msb of 2^%d" k) k (msb_naive (1 lsl k));
    check_int
      (Printf.sprintf "Bits.msb of 2^%d" k)
      k
      (Vessel_engine.Bits.msb (1 lsl k));
    for col = 0 to sub - 1 do
      (* Sub-bucket lower bound in magnitude row [k - precision]. *)
      let v = (sub + col) lsl (k - precision) in
      check_v (v - 1);
      check_v v;
      check_v (v + 1)
    done
  done;
  check_v max_int;
  check_v (max_int - 1);
  (* Bits.msb against the naive scan on both sides of every power. *)
  for k = 0 to 61 do
    List.iter
      (fun v ->
        if v > 0 then
          check_int
            (Printf.sprintf "Bits.msb %d" v)
            (msb_naive v)
            (Vessel_engine.Bits.msb v))
      [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]
  done;
  check_bool "covered all rows" true
    (!checked > (61 - precision + 1) * sub * 3)

(* ------------------------------------------------------------------ *)
(* Cycle_account *)

let test_cycles_basic () =
  let c = Cycle_account.create () in
  Cycle_account.charge c (App 1) 100;
  Cycle_account.charge c (App 1) 50;
  Cycle_account.charge c (App 2) 30;
  Cycle_account.charge c Runtime 20;
  Cycle_account.charge c Kernel 10;
  Cycle_account.charge c Idle 40;
  check_int "app1" 150 (Cycle_account.total c (App 1));
  check_int "app total" 180 (Cycle_account.app_total c);
  check_int "grand" 250 (Cycle_account.grand_total c);
  Alcotest.(check (list int)) "ids" [ 1; 2 ] (Cycle_account.app_ids c);
  Alcotest.(check (float 1e-9)) "cores worth" 0.5
    (Cycle_account.cores_worth c (App 1) ~wall:300)

let test_cycles_merge () =
  let a = Cycle_account.create () and b = Cycle_account.create () in
  Cycle_account.charge a Kernel 5;
  Cycle_account.charge b Kernel 7;
  Cycle_account.charge b (App 3) 2;
  Cycle_account.merge ~into:a b;
  check_int "kernel" 12 (Cycle_account.total a Kernel);
  check_int "app3" 2 (Cycle_account.total a (App 3))

let test_cycles_negative_rejected () =
  let c = Cycle_account.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Cycle_account.charge: negative duration") (fun () ->
      Cycle_account.charge c Idle (-1))

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Table.create ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  check_bool "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  check_int "rows" 2 (Table.row_count t);
  (* All lines align: same rendered width for the first two columns. *)
  let lines = String.split_on_char '\n' s in
  check_int "line count" 4 (List.length lines)

let test_table_rowf_and_cells () =
  let t = Table.create ~columns:[ "a"; "b"; "c" ] in
  Table.add_rowf t "%s|%s|%s" (Table.cell_f 1.2345) (Table.cell_us 1_500)
    (Table.cell_pct 0.42);
  Alcotest.(check bool) "cells formatted" true
    (Table.render t |> fun s ->
     let has sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has "1.234" && has "1.500" && has "42.0%")

let test_table_arity_enforced () =
  let t = Table.create ~columns:[ "x" ] in
  check_bool "arity" true
    (try
       Table.add_row t [ "a"; "b" ];
       false
     with Invalid_argument _ -> true)

let suite =
  [
    ( "stats.histogram",
      [
        Alcotest.test_case "empty" `Quick test_hist_empty;
        Alcotest.test_case "empty percentile edges" `Quick
          test_hist_empty_percentile_edges;
        Alcotest.test_case "single sample" `Quick test_hist_single_sample;
        Alcotest.test_case "all in top bucket" `Quick test_hist_all_in_top_bucket;
        Alcotest.test_case "exact small values" `Quick test_hist_exact_small;
        Alcotest.test_case "bounded relative error" `Quick
          test_hist_relative_error;
        Alcotest.test_case "percentile ordering" `Quick
          test_hist_percentile_ordering;
        Alcotest.test_case "record_n" `Quick test_hist_record_n;
        Alcotest.test_case "merge" `Quick test_hist_merge;
        Alcotest.test_case "clear" `Quick test_hist_clear;
        Alcotest.test_case "negative rejected" `Quick test_hist_negative_rejected;
        Alcotest.test_case "index exhaustive vs naive msb" `Quick
          test_hist_index_exhaustive;
        QCheck_alcotest.to_alcotest prop_hist_percentile_bounded;
        QCheck_alcotest.to_alcotest prop_hist_mean_exact;
      ] );
    ( "stats.cycle_account",
      [
        Alcotest.test_case "basic" `Quick test_cycles_basic;
        Alcotest.test_case "merge" `Quick test_cycles_merge;
        Alcotest.test_case "negative rejected" `Quick
          test_cycles_negative_rejected;
      ] );
    ( "stats.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "rowf/cells" `Quick test_table_rowf_and_cells;
        Alcotest.test_case "arity" `Quick test_table_arity_enforced;
      ] );
  ]
