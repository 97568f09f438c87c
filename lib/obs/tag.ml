(* Every event tag used by the instrumented layers, defined once so the
   probes, the experiments and the tests agree on spelling. *)

(* hw *)
let ipi_send = "ipi.send"
let ipi_deliver = "ipi.deliver"
let uintr_notify = "uintr.notify"

(* uprocess runtime (the Figure-6 stages) *)
let uintr_send = "uintr.send"
let uintr_handle = "uintr.handle"
let uintr_ack = "uintr.ack"
let dispatch = "dispatch"

(* task queues (invariant checking: FIFO order, execution gaps) *)
let queue_push = "queue.push"
let queue_push_front = "queue.push_front"
let queue_pop = "queue.pop"

(* call gate crossings (PKRU consistency) *)
let gate_enter = "gate.enter"
let gate_leave = "gate.leave"

(* fault injection *)
let inject_uintr_delay = "inject.uintr.delay"
let inject_uintr_drop = "inject.uintr.drop"
let inject_ipi_spurious = "inject.ipi.spurious"
let inject_stall = "inject.stall"

(* executor *)
let preempt = "preempt"
let idle = "idle"
let compute = "compute"
let mem = "mem"
let syscall = "syscall"
let runtime_work = "runtime"
let switch_initial = "switch.initial"
let switch_park = "switch.park"
let switch_preempt = "switch.preempt"
let switch_exit = "switch.exit"
let switch_wake = "switch.wake"

(* schedulers *)
let vessel_wake = "vessel.wake"
let vessel_preempt = "vessel.preempt"
let iok_grant = "iokernel.grant"
let iok_preempt = "iokernel.preempt"
let iok_release = "iokernel.release"

(* per-request pipeline transitions (latency attribution; --attrib) *)
let req_arrive = "req.arrive"
let req_lb = "req.lb"
let req_enqueue = "req.enqueue"
let req_wake = "req.wake"
let req_dispatch = "req.dispatch"
let req_preempt = "req.preempt"
let req_complete = "req.complete"
let req_done = "req.done"
let req_flow = "req"

(* execution-gap tracer (schedgaps-style inner/outer gaps) *)
let gap_window = "gap.window"
let gap_inner = "gap.inner"
let gap_outer = "gap.outer"

(* cluster (lockstep sync + cross-machine delivery; causality checking) *)
let cluster_epoch = "cluster.epoch"
let cluster_deliver = "cluster.deliver"

(* engine *)
let sim_events = "engine.events"
let eq_pool_entries = "engine.queue.pool.entries"
let eq_pool_grown = "engine.queue.pool.grown"
