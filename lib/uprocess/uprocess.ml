type state = Booting | Running | Killed

type t = {
  slot : int;
  name : string;
  pkru : Vessel_hw.Pkru.t;
  mutable state : state;
  mutable loaded : Vessel_mem.Loader.loaded option;
  mutable threads : Uthread.t list; (* newest first *)
}

let create ~slot ~name ~pkru =
  { slot; name; pkru; state = Booting; loaded = None; threads = [] }

let slot t = t.slot
let name t = t.name
let pkru t = t.pkru
let state t = t.state
let set_state t s = t.state <- s
let set_loaded t l = t.loaded <- Some l
let loaded t = t.loaded
let add_thread t th = t.threads <- th :: t.threads
let threads t = List.rev t.threads

let live_threads t =
  List.length (List.filter (fun th -> Uthread.state th <> Uthread.Exited) t.threads)
