(* Owns the per-unit journals and registries behind --trace / --metrics
   and merges them deterministically.

   A "unit" is a stretch of sequential simulation work: the root unit is
   whatever runs on the main domain; every sweep point becomes a child
   unit. Units are keyed by int-list paths — the root is [], a sweep
   forked as the parent's [seq]-th fork gives point [i] the key
   [parent_key @ [seq; i]]. Keys depend only on program structure, never
   on which domain ran the point or in what order, so sorting units by
   key makes the merged trace byte-identical at any -j N. *)

type unit_entry = {
  key : int list;
  journal : Journal.t;
  reg : Metrics.t;
  mutable seq : int;
}

let units : unit_entry list ref = ref []
let mu = Mutex.create ()
let trace_wanted = ref false
let metrics_wanted = ref false
let attrib_wanted = ref false
let active () = !trace_wanted || !metrics_wanted || !attrib_wanted

(* The unit owning the current domain, if the collector is active. *)
let cur_key : unit_entry option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let new_unit key =
  let u =
    { key; journal = Journal.create (); reg = Metrics.create (); seq = 0 }
  in
  Mutex.lock mu;
  units := u :: !units;
  Mutex.unlock mu;
  u

let install_unit u =
  Domain.DLS.set cur_key (Some u);
  Probe.install
    ~sink:(if !trace_wanted then Journal.sink u.journal else Sink.null)
    ~reg:(if !metrics_wanted then Some u.reg else None)

let configure ?(trace = false) ?(metrics = false) ?(attrib = false) () =
  trace_wanted := trace;
  metrics_wanted := metrics;
  attrib_wanted := attrib;
  Probe.set_trace_configured trace;
  Probe.set_metrics_configured metrics;
  Probe.set_attrib_configured attrib;
  if active () then install_unit (new_unit [])

(* The current unit's structural key — attribution instances register
   under it so their merge order is -j-independent like everything else. *)
let current_key () =
  match Domain.DLS.get cur_key with None -> [] | Some u -> u.key

type fork = int list

(* Must be called on the domain that owns the parent unit (sweeps fork
   from the domain that launched them, so this holds by construction). *)
let fork_point () : fork =
  match Domain.DLS.get cur_key with
  | None -> []
  | Some parent ->
      let seq = parent.seq in
      parent.seq <- seq + 1;
      parent.key @ [ seq ]

let enter_unit u f =
  let saved = Domain.DLS.get cur_key in
  let saved_sink = Probe.current_sink () in
  let saved_reg = Probe.current_reg () in
  install_unit u;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set cur_key saved;
      Probe.install ~sink:saved_sink ~reg:saved_reg)
    f

let with_child fork ~index f = enter_unit (new_unit (fork @ [ index ])) f

(* Persistent children: one unit entered many times. A sweep point is a
   single stretch of work, but a cluster machine is revisited every
   lockstep epoch — its trace and metrics must accumulate in ONE unit
   (keyed by creation structure, so the merge stays byte-identical at
   any -j) rather than minting epochs x machines units. The caller must
   guarantee at most one domain is inside a given child at a time; the
   cluster's epoch barrier provides exactly that. *)
type child = unit_entry option

let child fork ~index : child =
  if active () then Some (new_unit (fork @ [ index ])) else None

let with_unit (c : child) f =
  match c with None -> f () | Some u -> enter_unit u f

let sorted_units () =
  Mutex.lock mu;
  let us = !units in
  Mutex.unlock mu;
  List.sort (fun a b -> compare a.key b.key) us

let write_trace out =
  Perfetto.write out ~units:(List.map (fun u -> u.journal) (sorted_units ()))

let write_metrics out =
  let merged = Metrics.create () in
  List.iter (fun u -> Metrics.merge ~into:merged u.reg) (sorted_units ());
  Metrics.write out merged

let reset () =
  Mutex.lock mu;
  units := [];
  Mutex.unlock mu;
  trace_wanted := false;
  metrics_wanted := false;
  attrib_wanted := false;
  Probe.set_trace_configured false;
  Probe.set_metrics_configured false;
  Probe.set_attrib_configured false;
  Domain.DLS.set cur_key None;
  Probe.install ~sink:Sink.null ~reg:None
