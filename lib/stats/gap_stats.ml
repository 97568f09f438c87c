(* Execution-gap accounting for the hwlat-style tracer (schedgaps):
   per-thread inner/outer gap histograms plus the cross-thread
   aggregates the fairness suite reports — max gap, p99 gap, and Jain's
   fairness index over CPU time received.

   The ledger identity the qcheck differential leans on: within one
   spin window that woke at [w] and completed chunks at t_1 < ... < t_n,
     outer = t_1 - w - chunk        and  inner_k = t_k - t_{k-1} - chunk
   so     t_n - w = n * chunk + outer + sum inner_k
   — run time + observed gaps exactly cover the wall time since the
   wake. [add_run]/[record_*] keep the per-thread totals that make the
   identity checkable after the fact. *)

type thread = {
  inner : Histogram.t;
  outer : Histogram.t;
  mutable max_inner : int;
  mutable max_outer : int;
  mutable run_ns : int;
  mutable gap_ns : int;
  mutable windows : int;
}

type t = { mutable threads : thread list (* newest first *) }

let create () = { threads = [] }

let add_thread t =
  let th =
    {
      inner = Histogram.create ();
      outer = Histogram.create ();
      max_inner = 0;
      max_outer = 0;
      run_ns = 0;
      gap_ns = 0;
      windows = 0;
    }
  in
  t.threads <- th :: t.threads;
  th

let threads t = List.rev t.threads

let record_inner th gap =
  Histogram.record th.inner gap;
  th.gap_ns <- th.gap_ns + gap;
  if gap > th.max_inner then th.max_inner <- gap

let record_outer th gap =
  Histogram.record th.outer gap;
  th.gap_ns <- th.gap_ns + gap;
  if gap > th.max_outer then th.max_outer <- gap

let add_run th ns = th.run_ns <- th.run_ns + ns
let add_window th = th.windows <- th.windows + 1

let max_inner th = th.max_inner
let max_outer th = th.max_outer
let run_ns th = th.run_ns
let gap_ns th = th.gap_ns
let windows th = th.windows

let max_gap t =
  List.fold_left
    (fun acc th -> max acc (max th.max_inner th.max_outer))
    0 t.threads

(* p99 over the merged per-thread histograms (inner and outer pooled):
   the single number a regression gate can watch. *)
let p99_gap t =
  let merged = Histogram.create () in
  List.iter
    (fun th ->
      Histogram.merge ~into:merged th.inner;
      Histogram.merge ~into:merged th.outer)
    t.threads;
  if Histogram.count merged = 0 then 0 else Histogram.percentile merged 99.

let total_windows t = List.fold_left (fun a th -> a + th.windows) 0 t.threads

(* Jain's fairness index over per-thread CPU time received:
   J = (sum x_i)^2 / (n * sum x_i^2), 1.0 = perfectly fair, 1/n = one
   thread got everything. Threads that received nothing still count —
   starving a thread is exactly the unfairness this measures. *)
let fairness t =
  match t.threads with
  | [] -> 1.
  | ths ->
      let n = float_of_int (List.length ths) in
      let sum, sumsq =
        List.fold_left
          (fun (s, s2) th ->
            let x = float_of_int th.run_ns in
            (s +. x, s2 +. (x *. x)))
          (0., 0.) ths
      in
      if sumsq = 0. then 1. else sum *. sum /. (n *. sumsq)
