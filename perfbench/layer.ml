(* Host-time measurement around calls into the simulator's layers, made
   from outside: the benchmark wraps public entry points (the scheduler
   system record, the cluster's machine scope, constructors, exporters)
   and never reaches inside them.

   Per-call boundaries (notify, worker step, machine epoch) are too
   frequent to keep one span each, so they aggregate in place: calls,
   inclusive and self nanoseconds, and minor words from the allocation
   counter (one noalloc read each side). Coarse spans (constructors,
   [run_until], exporters) are kept one by one with full [Gc.quick_stat]
   deltas and written out at the end of the run. *)

module Sched_intf = Vessel_sched.Sched_intf
module Uthread = Vessel_uprocess.Uthread

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())

(* CPU time of the whole process (every domain), in seconds. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- host speed ------------------------------------------------------ *)

(* A fixed loop of the simulator's kind of work, written here and never
   changed by the program: a binary heap of random keys (the event
   queue's access pattern), a hash table and short-lived allocation. On
   a shared host its time tracks the simulator's own slowdowns (across
   22 colo rounds, a correlation of 0.95 with the round's time), so the
   ratio of the two is steadier than either. Returns its wall ns. *)
let ref_heap = Array.make 65536 0

let ref_loop () =
  let t0 = now_ns () in
  let n = ref 0 and x = ref 88172645463325252 in
  let tbl = Hashtbl.create 4096 in
  let live = ref [] in
  for i = 1 to 600_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let v = !x land 0xFFFFFF in
    if !n < 60_000 && (v land 3 <> 0 || !n = 0) then begin
      let j = ref !n in
      incr n;
      while !j > 0 && ref_heap.((!j - 1) / 2) > v do
        ref_heap.(!j) <- ref_heap.((!j - 1) / 2);
        j := (!j - 1) / 2
      done;
      ref_heap.(!j) <- v
    end
    else begin
      decr n;
      let last = ref_heap.(!n) in
      let j = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !j) + 1 in
        if l >= !n then sifting := false
        else begin
          let c =
            if l + 1 < !n && ref_heap.(l + 1) < ref_heap.(l) then l + 1 else l
          in
          if ref_heap.(c) < last then begin
            ref_heap.(!j) <- ref_heap.(c);
            j := c
          end
          else sifting := false
        end
      done;
      ref_heap.(!j) <- last
    end;
    let k = v land 4095 in
    (match Hashtbl.find_opt tbl k with
    | Some c -> Hashtbl.replace tbl k (c + 1)
    | None -> Hashtbl.add tbl k i);
    if i land 7 = 0 then
      live :=
        (i, v) :: (match !live with _ :: t when i land 1023 = 0 -> t | l -> l)
  done;
  ignore (Sys.opaque_identity !live);
  now_ns () - t0

(* ---- per-call boundaries ------------------------------------------- *)

type calls = {
  mutable n : int;
  mutable ns : int;  (** inclusive *)
  mutable self_ns : int;  (** minus wrapped calls nested inside *)
  mutable words : int;
}

let calls () = { n = 0; ns = 0; self_ns = 0; words = 0 }

let add_calls ~into c =
  into.n <- into.n + c.n;
  into.ns <- into.ns + c.ns;
  into.self_ns <- into.self_ns + c.self_ns;
  into.words <- into.words + c.words

(* The wrapped calls of one simulated machine. They never run
   concurrently (a machine runs on one domain at a time), so nesting is
   tracked without synchronisation: [child] accumulates the time of the
   completed calls at the current nesting level, and at the top level it
   is the time the machine's wrapped calls covered in total. *)
type group = {
  notify : calls;
  step : calls;
  mutable child : int;
  footprints : (int * int * int) Queue.t option;
      (** (app, base, len) of every Mem_work footprint, in step order *)
}

let group ?footprints () = { notify = calls (); step = calls (); child = 0; footprints }
let covered g = g.child

let enter g =
  let saved = g.child in
  g.child <- 0;
  saved

let leave g c ~saved ~t0 ~w0 =
  let d = now_ns () - t0 in
  c.n <- c.n + 1;
  c.ns <- c.ns + d;
  c.self_ns <- c.self_ns + d - g.child;
  c.words <- c.words + (minor_words () - w0);
  g.child <- saved + d

let record_footprint g ~app_id action =
  match (g.footprints, action) with
  | Some q, Uthread.Mem_work { footprint = Some (base, len); _ } ->
      Queue.add (app_id, base, len) q
  | _ -> ()

(* A copy of the system record whose [notify_app] and [add_worker] (and
   so every worker step) go through the group. With [timed = false] only
   the footprints are kept, which the object-copy checks need in every
   run. *)
let wrap_system ~timed g (sys : Sched_intf.system) =
  let step_of ~app_id step =
    if timed then fun ~now ->
      let saved = enter g in
      let w0 = minor_words () in
      let t0 = now_ns () in
      let a = step ~now in
      leave g g.step ~saved ~t0 ~w0;
      record_footprint g ~app_id a;
      a
    else fun ~now ->
      let a = step ~now in
      record_footprint g ~app_id a;
      a
  in
  {
    sys with
    Sched_intf.notify_app =
      (if timed then fun ~app_id ->
         let saved = enter g in
         let w0 = minor_words () in
         let t0 = now_ns () in
         sys.Sched_intf.notify_app ~app_id;
         leave g g.notify ~saved ~t0 ~w0
       else sys.Sched_intf.notify_app);
    add_worker =
      (fun ~app_id ~name ~step ->
        sys.Sched_intf.add_worker ~app_id ~name ~step:(step_of ~app_id step));
  }

(* ---- coarse spans -------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (** -1 at the top *)
  name : string;
  start_ns : int;
  end_ns : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

(* Runs [f] as a span under the current one and returns the span with
   the result. Spans nest on the calling domain only; the benchmark opens
   them from the main domain. *)
let measure name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let finish () =
    let t1 = now_ns () in
    let g1 = Gc.quick_stat () in
    current := parent;
    let s =
      {
        id;
        parent;
        name;
        start_ns = t0;
        end_ns = t1;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      }
    in
    spans := s :: !spans;
    s
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
      ignore (finish ());
      raise e
