(* Per-request causal context, packed into one immediate int:

     bits 3..62  request id (>= 1; 0 is reserved for "no context")
     bits 0..2   current pipeline phase

   The context is born at open-loop arrival, carried through the
   frontend LB and across Net links, bound to the uthread that serves
   it, and stamped at every pipeline transition. Stamps go to a
   per-domain *recorder* installed by {!Attrib} (one per cluster lane),
   never through the ambient sink — so attribution can run without full
   tracing, and recording is a bounds check plus two int stores.

   Disabled cost is the usual probe discipline: call sites guard on
   [live ()] (two loads and a branch); nothing below allocates on the
   hot path. *)

type phase =
  | Arrive
  | Lb
  | Enqueue
  | Wake
  | Dispatch
  | Preempt
  | Complete
  | Done

let phase_index = function
  | Arrive -> 0
  | Lb -> 1
  | Enqueue -> 2
  | Wake -> 3
  | Dispatch -> 4
  | Preempt -> 5
  | Complete -> 6
  | Done -> 7

(* Trace-instant names, indexed by phase. *)
let tags =
  [|
    Tag.req_arrive;
    Tag.req_lb;
    Tag.req_enqueue;
    Tag.req_wake;
    Tag.req_dispatch;
    Tag.req_preempt;
    Tag.req_complete;
    Tag.req_done;
  |]

type t = int

let none = 0
let v ~rid phase = (rid lsl 3) lor phase_index phase
let rid c = c lsr 3
let with_phase c p = (c land -8) lor phase_index p
(* Cold-path conveniences; hot call sites read [!Probe.req_on] directly
   instead — without flambda these cross-module calls don't inline. *)
let active () = !Probe.attrib_on

(* Hand-off slot: the workload step that pops a request stashes its
   context here; [Uthread.next_action] takes it and binds it to the
   thread that will serve it. Per-domain, so concurrent cluster machines
   can't race. *)
let stash_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let stash c = Domain.DLS.get stash_key := c

let take () =
  let r = Domain.DLS.get stash_key in
  let c = !r in
  r := 0;
  c

(* The recorder: [f context ts]. Installed per lane by Attrib; one slot
   per domain, scoped per cluster machine by the epoch executor. *)
let recorder_key : (int -> int -> unit) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let recorder_slot () = Domain.DLS.get recorder_key
let with_recorder r f =
  let slot = recorder_slot () in
  let saved = !slot in
  slot := r;
  Fun.protect ~finally:(fun () -> slot := saved) f

let stamp c ~ts =
  match !(recorder_slot ()) with None -> () | Some f -> f c ts

(* One transition: an [req.*] instant when tracing, an attribution stamp
   when --attrib. Callers guard on [live ()] first. *)
let mark c ~ts ~track =
  if !Probe.on then
    Probe.instant ~ts ~track ~name:tags.(c land 7)
      ~args:[ ("rid", Event.Int (c lsr 3)) ]
      ();
  if !Probe.attrib_on then stamp c ~ts
