(* A fleet of machines under one clock: N independent Sim.t instances
   advanced in lockstep epochs of conservative lookahead.

   The synchronization argument, once: let B be the barrier all machines
   have executed to, and L the cluster lookahead. The next epoch runs
   every machine to B' <= B + L. A cross-machine message sent at time
   s (B < s <= B') over a link of latency l >= L arrives at
   s + l >= B + 1 + L >= B' + 1 — strictly after the epoch being
   executed. So delivering at the barrier (into the destination wheel,
   never mid-epoch) can never schedule into a machine's executed past,
   and machines within an epoch share no state at all: one domain per
   machine is safe and byte-identical to sequential execution. *)

module Sim = Vessel_engine.Sim
module Rng = Vessel_engine.Rng
module Pool = Vessel_engine.Pool
module Obs = Vessel_obs

type machine = {
  id : int;
  m_sim : Sim.t;
  m_seed : int;
  (* One Probe.process marker per machine, emitted lazily inside the
     machine's scope so the Perfetto exporter gives each machine its own
     process even when all epochs run on one domain. *)
  mutable marked : bool;
}

type t = {
  ms : machine array;
  la : int;
  mutable barrier : int;
  mutable n_epochs : int;
  mutable scope : (int -> (unit -> unit) -> unit) option;
  (* Barrier-time flushers, registered by Net.link. Stored reversed;
     run in creation order. *)
  mutable flushers : (until:int -> unit) list;
  (* Attribution sink: machine id = lane, recorder installed around
     every machine scope so request stamps land in per-machine buffers
     (single writer per lane, serialized by the epoch barrier). *)
  mutable attrib : Obs.Attrib.t option;
}

let create ?(seed = 42) ?machine_seeds ~machines ~lookahead () =
  if machines <= 0 then invalid_arg "Cluster.create: machines must be positive";
  if lookahead <= 0 then
    invalid_arg "Cluster.create: lookahead must be positive";
  let seeds =
    match machine_seeds with
    | Some l ->
        if List.length l <> machines then
          invalid_arg "Cluster.create: machine_seeds length <> machines";
        Array.of_list l
    | None ->
        (* Derive per-machine seeds from a root stream in machine order:
           distinct streams per machine, reproducible from one seed. *)
        let root = Rng.create ~seed in
        Array.init machines (fun _ -> Rng.bits root land 0x3FFFFFFF)
  in
  let ms =
    Array.init machines (fun id ->
        { id; m_sim = Sim.create ~seed:seeds.(id) (); m_seed = seeds.(id); marked = false })
  in
  {
    ms;
    la = lookahead;
    barrier = 0;
    n_epochs = 0;
    scope = None;
    flushers = [];
    attrib = None;
  }

let machines t = Array.length t.ms

let check_id t m =
  if m < 0 || m >= Array.length t.ms then invalid_arg "Cluster: no such machine"

let sim t m =
  check_id t m;
  t.ms.(m).m_sim

let lookahead t = t.la
let now t = t.barrier
let epochs t = t.n_epochs

let set_scope t scope =
  (match t.scope with
  | Some _ -> invalid_arg "Cluster.set_scope: scope already installed"
  | None -> ());
  t.scope <- Some scope

let register_flusher t fl = t.flushers <- fl :: t.flushers
let set_attrib t a = t.attrib <- Some a

let with_lane t m f =
  match t.attrib with
  | Some a -> Obs.Attrib.with_lane a ~lane:m f
  | None -> f ()

(* Default scope: one persistent collector child unit per machine when
   --trace/--metrics is live, so every machine's events accumulate in a
   unit keyed by machine id and the merged output is byte-identical at
   any -j. Installed lazily at the first run_until so the harness can
   set_scope (per-machine checker sinks) after create. *)
let ensure_scope t =
  match t.scope with
  | Some s -> s
  | None ->
      let s =
        if Obs.Collector.active () then (
          let fork = Obs.Collector.fork_point () in
          let children =
            Array.init (Array.length t.ms) (fun i ->
                Obs.Collector.child fork ~index:i)
          in
          fun m f -> Obs.Collector.with_unit children.(m) f)
        else fun _ f -> f ()
      in
      t.scope <- Some s;
      s

let run_machine t scope epoch_end m =
  scope m.id (fun () ->
      with_lane t m.id @@ fun () ->
      if !Obs.Probe.on then begin
        if not m.marked then begin
          m.marked <- true;
          Obs.Probe.process ~name:(Printf.sprintf "machine %d seed=%d" m.id m.m_seed)
        end;
        Obs.Probe.instant ~ts:(Sim.now m.m_sim) ~track:Obs.Track.Engine
          ~name:Obs.Tag.cluster_epoch
          ~args:
            [
              ("until", Obs.Event.Int epoch_end);
              ("lookahead", Obs.Event.Int t.la);
            ]
          ()
      end;
      Sim.run_until m.m_sim epoch_end)

let run_until ?(domains = 1) t horizon =
  if horizon < t.barrier then
    invalid_arg "Cluster.run_until: horizon is in the past";
  let scope = ensure_scope t in
  let jobs = Array.to_list t.ms in
  let flushers = List.rev t.flushers in
  while t.barrier < horizon do
    let epoch_end = min (t.barrier + t.la) horizon in
    t.n_epochs <- t.n_epochs + 1;
    if domains <= 1 then List.iter (run_machine t scope epoch_end) jobs
    else ignore (Pool.map ~domains (run_machine t scope epoch_end) jobs);
    (* Barrier: flush cross-machine sends on the coordinating domain, in
       link-creation order (each flusher drains senders in machine
       order) — fully deterministic, independent of -j. *)
    List.iter (fun fl -> fl ~until:epoch_end) flushers;
    t.barrier <- epoch_end
  done

let scoped t m f =
  check_id t m;
  (ensure_scope t) m (fun () -> with_lane t m f)
