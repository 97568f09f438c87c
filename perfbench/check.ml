(* Reference checks for the benchmark's workloads.

   Every check takes plain numbers that the benchmark read off the
   simulator's public accessors (or out of the files it exported) and
   compares them with a value computed here, from the workload's inputs
   alone, or with a property the method must have. None compares against
   a stored copy of an earlier run. A check returns the list of its
   violations: [] when it holds. *)

type verdict = string list

let fail fmt = Printf.ksprintf (fun s -> [ s ]) fmt
let ok : verdict = []
let all (vs : verdict list) : verdict = List.concat vs

(* ---- colocation ------------------------------------------------------ *)

(* The window's cycle accounts, summed over every category, against
   cores x window. Segments are charged when they end, so each core may
   hold one segment open across each edge of the window: the allowance
   is one segment per core per edge, [max_segment_ns] each. *)
let cycle_accounts ~cores ~window_ns ~charged_ns ~max_segment_ns =
  let expected = cores * window_ns in
  let slack = 2 * cores * max_segment_ns in
  if abs (charged_ns - expected) > slack then
    fail "cycle accounts: %d ns charged in the window, expected %d +- %d"
      charged_ns expected slack
  else ok

(* Poisson arrivals: the in-window count lies within five standard
   deviations (sqrt of the mean) of rate x window. *)
let poisson_count ~rate_rps ~window_ns ~count =
  let mean = rate_rps *. float_of_int window_ns /. 1e9 in
  let dev = 5. *. sqrt mean in
  if Float.abs (float_of_int count -. mean) > dev then
    fail "offered: %d requests in the window, expected %.0f +- %.0f" count
      mean dev
  else ok

(* A request is served at most once, and below saturation nearly all of
   the window's requests complete before the run ends. *)
let served ~offered ~served ~min_share =
  if served > offered then fail "served %d > offered %d" served offered
  else if float_of_int served < min_share *. float_of_int offered then
    fail "served %d < %.2f x offered %d" served min_share offered
  else ok

(* Sojourn times: never below the service floor, and the percentiles are
   ordered. *)
let latency ~floor_ns ~p50 ~p99 ~p999 =
  all
    [
      (if p50 < floor_ns then fail "p50 %d ns below the %d ns floor" p50 floor_ns
       else ok);
      (if p50 > p99 || p99 > p999 then
         fail "percentiles out of order: p50 %d, p99 %d, p999 %d" p50 p99 p999
       else ok);
    ]

(* Best-effort work done in the window cannot exceed the cores'
   capacity over it. *)
let completed_work ~cores ~window_ns ~completed_ns =
  if completed_ns < 0 || completed_ns > cores * window_ns then
    fail "best-effort work %d ns outside [0, %d]" completed_ns
      (cores * window_ns)
  else ok

(* Figure 9's ordering at the top load: VESSEL's tail is below
   Caladan's. *)
let tail_order ~vessel_p999 ~caladan_p999 =
  if vessel_p999 >= caladan_p999 then
    fail "VESSEL p999 %d ns is not below Caladan's %d ns" vessel_p999
      caladan_p999
  else ok

(* ---- object copy ----------------------------------------------------- *)

(* Disjoint working sets that together fit the cache miss exactly once
   per line: the compulsory misses. *)
let compulsory_misses ~apps ~working_set ~line ~misses =
  let expected = apps * working_set / line in
  if misses <> expected then
    fail "misses %d, expected exactly %d compulsory misses" misses expected
  else ok

(* Every copied object touches each of its words at least once. *)
let accesses_cover ~words_per_object ~copied ~accesses =
  if accesses < words_per_object * copied then
    fail "accesses %d < %d x %d copied objects" accesses words_per_object
      copied
  else ok

(* Each batch footprint is a full batch inside its app's region. *)
let batches_inside ~region:(base, len) ~batch_bytes footprints =
  let bad =
    List.filter
      (fun (start, span) ->
        start < base || start + span > base + len || span <> batch_bytes)
      footprints
  in
  match bad with
  | [] -> ok
  | (start, span) :: _ ->
      fail "%d of %d batches leave [%d, %d) or are cut; first at %d+%d"
        (List.length bad) (List.length footprints) base (base + len) start span

let miss_rate_order ~vessel ~caladan =
  if not (caladan > vessel) then
    fail "Caladan miss rate %g is not above VESSEL's %g" caladan vessel
  else ok

(* A line fetch is followed by the accesses to the rest of its words, so
   at most one access in [words_per_line] can miss. *)
let miss_bound ~words_per_line ~accesses ~misses =
  if misses * words_per_line > accesses then
    fail "misses %d > accesses %d / %d" misses accesses words_per_line
  else ok

(* ---- fleet ----------------------------------------------------------- *)

(* Every in-window arrival is either routed or dropped. *)
let routed ~offered ~dropped ~dispatched =
  let sum = Array.fold_left ( + ) 0 dispatched in
  if offered <> sum + dropped then
    fail "offered %d <> dispatched %d + dropped %d" offered sum dropped
  else ok

(* The served total, its per-backend split and the latency histogram
   count the same requests. *)
let served_split ~served ~served_by ~histogram_count =
  let sum = Array.fold_left ( + ) 0 served_by in
  if served <> sum || served <> histogram_count then
    fail "served %d, sum of served_by %d, histogram count %d" served sum
      histogram_count
  else ok

(* Per backend: a request served in the window was dispatched in it, and
   a dispatched one not yet served is still outstanding. *)
let backend_flow ~served_by ~dispatched ~inflight =
  let bad = ref [] in
  Array.iteri
    (fun i d ->
      let s = served_by.(i) and f = inflight.(i) in
      if s > d || d > s + f then
        bad :=
          Printf.sprintf "backend %d: served %d, dispatched %d, inflight %d" i
            s d f
          :: !bad)
    dispatched;
  List.rev !bad

(* Round robin over backends that are all up deals counts that differ
   by at most one. *)
let round_robin_even ~dispatched =
  let lo = Array.fold_left min max_int dispatched in
  let hi = Array.fold_left max min_int dispatched in
  if hi - lo > 1 then
    fail "round-robin dispatch counts span %d..%d" lo hi
  else ok

(* ---- trace export ---------------------------------------------------- *)

(* Named integer measurements of one point, with recording on and off:
   recording must not change what is simulated. *)
let same_fields ~recorded ~plain =
  let diffs =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k plain with
        | Some w when w = v -> None
        | Some w -> Some (Printf.sprintf "%s: %d recorded, %d plain" k v w)
        | None -> Some (Printf.sprintf "%s: missing from the plain run" k))
      recorded
  in
  if List.length plain <> List.length recorded then
    "field lists differ in length" :: diffs
  else diffs

(* Timestamps never decrease along a track. [backwards] counts, by
   event name, the events stamped before an earlier event of their
   track. Those named in [known] are a known fault of the program
   (reported apart, so that the operation fails without hiding a new
   fault); any other name is a plain failure. Returns
   (new faults, known faults). *)
let track_order ~known backwards =
  let is_known (name, _) = List.mem name known in
  let describe (name, n) = Printf.sprintf "%d %s events go back in time" n name in
  ( List.map describe (List.filter (fun b -> not (is_known b)) backwards),
    List.map describe (List.filter is_known backwards) )

(* The trace journal and the metrics registry are independent paths;
   they must count the same switches and preemptions. *)
let trace_vs_metrics ~switch_spans ~preempt_instants ~switches ~preempts =
  all
    [
      (if switch_spans <> switches then
         fail "trace has %d switch spans, metrics count %d switches"
           switch_spans switches
       else ok);
      (if preempt_instants <> preempts then
         fail "trace has %d preempt instants, metrics count %d preempts"
           preempt_instants preempts
       else ok);
    ]

type attrib_unit = {
  label : string;
  e2e_sum : int;
  phase_sums : int list;
  violations : int;
  malformed : int;
}

(* Attribution telescopes: a unit's phase sums add up exactly to its
   end-to-end sum, with no conservation failure or malformed request. *)
let attribution units =
  if units = [] then fail "attribution file has no units"
  else
    List.concat_map
      (fun u ->
        let phases = List.fold_left ( + ) 0 u.phase_sums in
        all
          [
            (if phases <> u.e2e_sum then
               fail "%s: phase sums %d <> end-to-end sum %d" u.label phases
                 u.e2e_sum
             else ok);
            (if u.violations <> 0 || u.malformed <> 0 then
               fail "%s: %d conservation violations, %d malformed" u.label
                 u.violations u.malformed
             else ok);
          ])
      units
