module Hw = Vessel_hw
module Mem = Vessel_mem
module Rng = Vessel_engine.Rng

type create_error = Domain_full | Load_failed of Mem.Loader.error

let pp_create_error fmt = function
  | Domain_full ->
      Format.fprintf fmt
        "scheduling domain full (%d uProcess slots)" Hw.Pkey.max_uprocesses
  | Load_failed e -> Format.fprintf fmt "load failed: %a" Mem.Loader.pp_error e

type recipe = {
  image : Mem.Image.t;
  libraries : Mem.Image.t list;
  args : string list;
}

type t = {
  machine : Hw.Machine.t;
  smas : Mem.Smas.t;
  runtime : Runtime.t;
  loaders : (int, Mem.Loader.t) Hashtbl.t;
  recipes : (int, recipe) Hashtbl.t;
  rng : Rng.t;
  slots : int;
  mutable next_slot : int;
  mutable free_slots : int list;
}

let create ?(slots = Hw.Pkey.max_uprocesses) ~machine () =
  let layout = Mem.Layout.create ~slots () in
  let smas = Mem.Smas.create layout in
  let runtime = Runtime.create ~machine ~smas () in
  {
    machine;
    smas;
    runtime;
    loaders = Hashtbl.create 8;
    recipes = Hashtbl.create 8;
    rng = Rng.split (Vessel_engine.Sim.rng (Hw.Machine.sim machine));
    slots;
    next_slot = 0;
    free_slots = [];
  }

let runtime t = t.runtime
let machine t = t.machine
let smas t = t.smas
let start t = Runtime.start t.runtime
let stop t = Runtime.stop t.runtime

let install t ~slot ~name ~loader ~recipe =
  match
    Mem.Loader.load_program loader ~args:recipe.args ~libraries:recipe.libraries
      recipe.image
  with
  | Error e -> Error (Load_failed e)
  | Ok loaded ->
      Hashtbl.replace t.loaders slot loader;
      Hashtbl.replace t.recipes slot recipe;
      let u =
        Uprocess.create ~slot ~name ~pkru:(Mem.Smas.pkru_for_slot t.smas slot)
      in
      Uprocess.set_loaded u loaded;
      Uprocess.set_state u Uprocess.Running;
      Runtime.register_uprocess t.runtime u;
      Ok u

let take_slot t =
  match t.free_slots with
  | slot :: rest ->
      t.free_slots <- rest;
      Some (slot, `Recycled)
  | [] ->
      if t.next_slot >= t.slots then None
      else begin
        let slot = t.next_slot in
        Some (slot, `Fresh)
      end

let create_uprocess t ~name ~image ?(libraries = []) ?(args = []) () =
  match take_slot t with
  | None -> Error Domain_full
  | Some (slot, kind) -> (
      (* The booting kProcess is forked and pinned; it maps SMAS and polls
         its FIFO for the init command (section 5.1). In the model the
         boot handshake collapses into the loader invocation below. *)
      let loader = Mem.Loader.create t.smas ~slot t.rng in
      match install t ~slot ~name ~loader ~recipe:{ image; libraries; args } with
      | Ok u ->
          if kind = `Fresh then t.next_slot <- slot + 1;
          Ok u
      | Error _ as e ->
          (* A failed install leaves the slot reusable. *)
          if kind = `Recycled then t.free_slots <- slot :: t.free_slots;
          e)

let destroy_uprocess t u = Runtime.kill_uprocess t.runtime ~slot:(Uprocess.slot u)

let reclaim_uprocess t u =
  let slot = Uprocess.slot u in
  if Uprocess.state u <> Uprocess.Killed || Uprocess.live_threads u > 0 then
    Error `Still_running
  else begin
    Runtime.unregister_uprocess t.runtime ~slot;
    (* Scrub and unmap both regions: the next tenant must find zeroes. *)
    let layout = Mem.Smas.layout t.smas in
    let release (r : Mem.Region.t) =
      Mem.Smas.release_range t.smas ~addr:r.Mem.Region.base ~len:r.Mem.Region.len
    in
    release (Mem.Layout.slot_text layout slot);
    release (Mem.Layout.slot_data layout slot);
    Mem.Smas.detach_slot_data t.smas slot;
    Hashtbl.remove t.loaders slot;
    Hashtbl.remove t.recipes slot;
    t.free_slots <- slot :: t.free_slots;
    Ok ()
  end

let fork_uprocess _t _u =
  (* The child would collide with the parent's addresses in the shared
     SMAS (section 5.3). *)
  Error `Address_conflict

let clone_uprocess t u ~dst =
  let slot = Uprocess.slot u in
  if dst.next_slot > slot || slot >= dst.slots then Error Domain_full
  else
    match (Hashtbl.find_opt t.loaders slot, Hashtbl.find_opt t.recipes slot) with
    | Some src_loader, Some recipe -> (
        (* Identical address space: same slot, same slide, same image. *)
        let loader =
          Mem.Loader.create dst.smas ~slot
            ~slide:(Mem.Loader.slide src_loader)
            dst.rng
        in
        match
          install dst ~slot ~name:(Uprocess.name u) ~loader ~recipe
        with
        | Error _ as e -> e
        | Ok clone ->
            (* Skipped slots below [slot] stay unusable in dst; document
               the cost of address fidelity. *)
            dst.next_slot <- slot + 1;
            (* Synchronize the parent's data region into the child:
               globals + argv + everything the heap ever touched. *)
            let region = Mem.Layout.slot_data (Mem.Smas.layout t.smas) slot in
            let heap_top =
              Mem.Allocator.high_water (Mem.Loader.allocator src_loader)
              - region.Mem.Region.base
            in
            let used = max (Mem.Loader.data_used src_loader) heap_top in
            if used > 0 then begin
              let bytes =
                Mem.Smas.priv_read t.smas ~addr:region.Mem.Region.base ~len:used
              in
              Mem.Smas.priv_write dst.smas ~addr:region.Mem.Region.base bytes
            end;
            Ok clone)
    | _ -> Error Domain_full

let uprocesses t =
  let acc = ref [] in
  for slot = t.next_slot - 1 downto 0 do
    match Runtime.uprocess t.runtime ~slot with
    | Some u when Uprocess.state u <> Uprocess.Killed -> acc := u :: !acc
    | _ -> ()
  done;
  !acc

let slots_used t = t.next_slot - List.length t.free_slots
let slots_available t = t.slots - slots_used t

let spawn_thread t ~uproc ~app ~priority ~name ~step ~core =
  let slot = Uprocess.slot uproc in
  let stack =
    match Hashtbl.find_opt t.loaders slot with
    | None -> invalid_arg "Manager.spawn_thread: uProcess has no loader"
    | Some loader -> (
        let heap = Mem.Loader.allocator loader in
        match Mem.Allocator.malloc_aligned heap (64 * 1024) ~align:4096 with
        | Ok addr -> addr
        | Error `Out_of_memory ->
            invalid_arg "Manager.spawn_thread: out of stack space")
  in
  Runtime.spawn t.runtime ~uproc ~app ~priority ~name ~step ~stack ~core

let loader t ~slot = Hashtbl.find_opt t.loaders slot
