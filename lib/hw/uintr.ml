type vector = int

type receiver = {
  id : int;
  mutable pir : int64; (* posted-interrupt requests, bit per vector *)
  mutable running : bool;
  mutable suppressed : bool;
}

type entry = { target : receiver; vector : vector }

type uitt = { entries : entry option array }

type t = { notify : receiver -> unit; mutable receivers : receiver list }

let create ~notify = { notify; receivers = [] }

let register_receiver t ~id =
  let r = { id; pir = 0L; running = false; suppressed = false } in
  t.receivers <- r :: t.receivers;
  r

let receiver_id r = r.id

let create_uitt _t ~size =
  if size <= 0 then invalid_arg "Uintr.create_uitt: size must be positive";
  { entries = Array.make size None }

let uitt_set uitt ~index r ~vector =
  if index < 0 || index >= Array.length uitt.entries then
    invalid_arg "Uintr.uitt_set: index out of range";
  if vector < 0 || vector > 63 then
    invalid_arg "Uintr.uitt_set: vector must be in [0,63]";
  uitt.entries.(index) <- Some { target = r; vector }

let post r vector = r.pir <- Int64.logor r.pir (Int64.shift_left 1L vector)

let senduipi t uitt ~index =
  if index < 0 || index >= Array.length uitt.entries then
    invalid_arg "Uintr.senduipi: index out of range";
  match uitt.entries.(index) with
  | None -> invalid_arg "Uintr.senduipi: empty UITT entry"
  | Some { target; vector } ->
      post target vector;
      if target.running && not target.suppressed then begin
        if !Vessel_obs.Probe.metrics_on then
          Vessel_obs.Probe.incr "hw.uintr.notified";
        t.notify target;
        `Notified
      end
      else begin
        if !Vessel_obs.Probe.metrics_on then
          Vessel_obs.Probe.incr "hw.uintr.deferred";
        `Deferred
      end

let set_running t r running =
  let was = r.running in
  r.running <- running;
  if running && (not was) && (not r.suppressed) && r.pir <> 0L then
    t.notify r

let set_suppressed t r suppressed =
  let was = r.suppressed in
  r.suppressed <- suppressed;
  if was && (not suppressed) && r.running && r.pir <> 0L then t.notify r

(* Would a notification reach this receiver right now? Used by delayed /
   retried deliveries to re-validate before dispatching: the victim may
   have parked (clearing PIR at privileged entry) or been suppressed
   while the notification was in flight. *)
let deliverable r = r.running && (not r.suppressed) && r.pir <> 0L

let take_pending r =
  let pir = r.pir in
  (* Usually empty: pick_next polls this at every privileged entry, so
     the common case must not walk (and box) 64 vector positions. *)
  if pir = 0L then []
  else begin
    r.pir <- 0L;
    (* Split into two unboxed 32-bit halves and pop set bits with the de
       Bruijn ctz: the drain allocates one cell per pending vector (the
       result list), not 64 boxed Int64 probes. Popping the lowest bit
       builds each half in descending order, lo half consed deepest, so
       one reverse yields the ascending vector order callers expect. *)
    let lo = Int64.to_int (Int64.logand pir 0xFFFFFFFFL) in
    let hi = Int64.to_int (Int64.shift_right_logical pir 32) in
    let rec pop base x acc =
      if x = 0 then acc
      else
        pop base
          (x land (x - 1))
          ((base + Vessel_engine.Bits.ctz32 x) :: acc)
    in
    List.rev (pop 32 hi (pop 0 lo []))
  end

let has_pending r = r.pir <> 0L
