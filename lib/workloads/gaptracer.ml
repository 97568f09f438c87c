module Sim = Vessel_engine.Sim
module U = Vessel_uprocess
module S = Vessel_sched
module Stats = Vessel_stats
module Probe = Vessel_obs.Probe
module Event = Vessel_obs.Event
module Track = Vessel_obs.Track
module Tag = Vessel_obs.Tag

(* The hwlat-tracer / schedgaps workload: each tracer thread busy-spins
   through a window of fixed-size compute chunks, parks for [sleep_ns],
   and repeats. Every chunk completion reads the simulated TSC; the
   delay beyond the chunk length is the gap the scheduler inserted —
   outer for the window's first chunk (wakeup-to-first-run), inner
   between consecutive chunks (mid-window preemption).

   Each tracer thread is registered as its own latency-critical app so
   [notify_app] deterministically wakes that thread and nothing else. *)

type tstate = {
  slot : int;
  app_id : int;
  mutable track : Track.t; (* per-thread trace track for window spans *)
  gs : Stats.Gap_stats.thread;
  mutable wake_at : int; (* -1 before the first activation *)
  mutable last_end : int; (* previous chunk's completion; -1 at window start *)
  mutable left : int; (* chunks remaining in the current window *)
  mutable cur : int list; (* completion stamps of the window, newest first *)
  mutable windows : (int * int list) list; (* (wake, stamps) newest first *)
}

type t = {
  sim : Sim.t;
  sys : S.Sched_intf.system;
  chunk_ns : int;
  chunks : int;
  sleep_ns : int;
  until : int;
  keep_stamps : bool;
  stats : Stats.Gap_stats.t;
  mutable threads : tstate array;
  mutable wake_tag : int;
}

let chunk_done t st ts =
  let first = st.last_end < 0 in
  let gap = ts - (if first then st.wake_at else st.last_end) - t.chunk_ns in
  if first then Stats.Gap_stats.record_outer st.gs gap
  else Stats.Gap_stats.record_inner st.gs gap;
  Stats.Gap_stats.add_run st.gs t.chunk_ns;
  if !Probe.on then begin
    if first then
      Probe.span_begin ~ts ~track:st.track ~name:Tag.gap_window
        ~args:[ ("wake", Event.Int st.wake_at) ]
        ();
    Probe.instant ~ts ~track:st.track
      ~name:(if first then Tag.gap_outer else Tag.gap_inner)
      ~args:[ ("gap", Event.Int gap) ]
      ()
  end;
  if !Probe.metrics_on then
    Probe.observe (if first then "gaps.outer_ns" else "gaps.inner_ns") gap;
  st.last_end <- ts;
  if t.keep_stamps then st.cur <- ts :: st.cur;
  if st.left = 0 then begin
    (* window complete: close the span, park, and book the next wake *)
    Stats.Gap_stats.add_window st.gs;
    if t.keep_stamps then begin
      st.windows <- (st.wake_at, List.rev st.cur) :: st.windows;
      st.cur <- []
    end;
    if !Probe.on then Probe.span_end ~ts ~track:st.track;
    if !Probe.metrics_on then Probe.incr "gaps.windows";
    let next_wake = ts + t.sleep_ns in
    if next_wake < t.until then begin
      st.wake_at <- next_wake;
      st.last_end <- -1;
      st.left <- t.chunks;
      ignore
        (Sim.schedule_tagged_after t.sim ~delay:t.sleep_ns ~tag:t.wake_tag
           ~a:st.slot ~b:0)
    end
    (* else: done for good — [left] stays 0, the step parks forever *)
  end

let step t st ~now =
  if st.wake_at < 0 then begin
    (* first activation: the initial dispatch is the first wake *)
    st.wake_at <- now;
    st.last_end <- -1;
    st.left <- t.chunks
  end;
  if st.left > 0 && now >= st.wake_at then begin
    st.left <- st.left - 1;
    U.Uthread.Compute
      { ns = t.chunk_ns; on_complete = Some (fun ts -> chunk_done t st ts) }
  end
  else U.Uthread.Park

let make ~sim ~sys ~app_id ~threads ?(chunk_ns = 1_000) ?(chunks = 50)
    ?(sleep_ns = 50_000) ?(keep_stamps = false) ~until () =
  if threads <= 0 then invalid_arg "Gaptracer.make: threads must be positive";
  if chunk_ns <= 0 || chunks <= 0 || sleep_ns <= 0 then
    invalid_arg "Gaptracer.make: chunk_ns, chunks and sleep_ns must be positive";
  let t =
    {
      sim;
      sys;
      chunk_ns;
      chunks;
      sleep_ns;
      until;
      keep_stamps;
      stats = Stats.Gap_stats.create ();
      threads = [||];
      wake_tag = -1;
    }
  in
  t.wake_tag <-
    Sim.register_handler sim (fun slot _ ->
        let st = t.threads.(slot) in
        t.sys.S.Sched_intf.notify_app ~app_id:st.app_id);
  t.threads <-
    Array.init threads (fun i ->
        let name = Printf.sprintf "gaptracer-%d" i in
        let app = app_id + i in
        sys.S.Sched_intf.add_app
          { S.Sched_intf.id = app; name; class_ = S.Sched_intf.Latency_critical };
        let st =
          {
            slot = i;
            app_id = app;
            track = Track.Engine (* patched below once the tid is known *);
            gs = Stats.Gap_stats.add_thread t.stats;
            wake_at = -1;
            last_end = -1;
            left = 0;
            cur = [];
            windows = [];
          }
        in
        let th =
          sys.S.Sched_intf.add_worker ~app_id:app ~name ~step:(fun ~now ->
              step t st ~now)
        in
        st.track <- Track.Uproc (U.Uthread.tid th);
        st);
  t

let stats t = t.stats

let stamps t =
  Array.map (fun st -> List.rev st.windows) t.threads
