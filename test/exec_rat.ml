(* ------------------------------------------------------------------ *)
(* The exact rational oracle of the engine: the seed interpreter of the *)
(* online policy (Sec. IV), on rationals, with a polling fixpoint.      *)
(*                                                                      *)
(* The suites run it beside [Engine.run] and [Engine.run_session], with *)
(* or without the criticality monitor of the mixed-criticality          *)
(* extension, whose branches are inert without one, and expect the     *)
(* same result or the same exception.  It shares only the validation    *)
(* and window assignment ([Engine.validate_and_assign]) with the        *)
(* engine, and nothing of its tick core, so the oracle stays            *)
(* independent of the core it checks.  It needs no tick grid, so it    *)
(* also runs the inputs the engine refuses.                             *)
(* ------------------------------------------------------------------ *)

module Rat = Rt_util.Rat
module Pqueue = Rt_util.Pqueue
module Network = Fppn.Network
module Process = Fppn.Process
module Netstate = Fppn.Netstate
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Derive = Taskgraph.Derive
module Static_schedule = Sched.Static_schedule
module Platform = Runtime.Platform
module Exec_time = Runtime.Exec_time
module Exec_trace = Runtime.Exec_trace
module Engine = Runtime.Engine

let frame_base h frame = Rat.mul h (Rat.of_int frame)

let overhead_segments config h =
  List.filter_map
    (fun frame ->
      let from = frame_base h frame
      and oh = Platform.frame_overhead config.Engine.platform ~frame in
      if Rat.sign oh > 0 then Some (frame, from, Rat.add from oh) else None)
    (List.init config.Engine.frames Fun.id)

type proc_state = {
  order : int array;
  mutable frame : int;
  mutable pos : int;
  mutable busy_until : Rat.t option;
  mutable running : (int * Exec_trace.record) option;
      (** job id + its record-in-progress while busy *)
}

(* [Engine.run ?monitor net derived sched config], interpreted *)
let run ?monitor:(monitor : Engine.monitor option) net (derived : Derive.t) sched
    (config : Engine.config) =
  let assigned, unhandled_events =
    Engine.validate_and_assign net derived sched config
  in
  let g = derived.Derive.graph in
  let h = derived.Derive.hyperperiod in
  let state = Netstate.create net in
  let n_procs = config.platform.Platform.n_procs in
  let procs =
    Array.init n_procs (fun p ->
        {
          order = Static_schedule.order_on sched p;
          frame = 0;
          pos = 0;
          busy_until = None;
          running = None;
        })
  in
  (* completions.(job) = number of frames in which the job has completed
     (executed or skipped); job j of frame f is done iff > f *)
  let n = Graph.n_jobs g in
  let completions = Array.make n 0 in
  let records = ref [] in
  let events = Pqueue.create ~cmp:Rat.compare in
  let now = ref Rat.zero in
  (* monitor: processors advance through frames independently, so HI
     mode is a per-frame state *)
  let degraded = Array.make config.frames false in
  let is_hi j = match monitor with Some m -> m.is_hi j | None -> false in
  let preds_done frame job =
    List.for_all (fun p -> completions.(p) > frame) (Graph.preds g job)
  in
  let record ps job j ~invoked ~finish ~skipped =
    {
      Exec_trace.job;
      label = Job.label j;
      frame = ps.frame;
      proc = Static_schedule.proc sched job;
      invoked;
      start = !now;
      finish;
      deadline =
        Rat.add invoked (Process.deadline (Network.process net j.Job.proc));
      skipped;
    }
  in
  (* the job is done for this frame: step the static order *)
  let complete ps job =
    completions.(job) <- completions.(job) + 1;
    ps.pos <- ps.pos + 1;
    if ps.pos >= Array.length ps.order then begin
      ps.pos <- 0;
      ps.frame <- ps.frame + 1
    end;
    true
  in
  (* one attempt to make progress on processor [p]; true if state changed *)
  let advance ps =
    match ps.busy_until with
    | Some t when Rat.(t <= !now) ->
      (* job completes *)
      let job, r = Option.get ps.running in
      records := { r with Exec_trace.finish = t } :: !records;
      ps.busy_until <- None;
      ps.running <- None;
      complete ps job
    | Some _ ->
      (* monitor: a HI job still running at start + C_LO degrades its
         frame *)
      (match (monitor, ps.running) with
      | Some m, Some (job, r) ->
        let j = Graph.job g job in
        if
          m.is_hi j
          && (not degraded.(ps.frame))
          && Rat.(Rat.add r.Exec_trace.start (m.budget_lo j) <= !now)
        then begin
          degraded.(ps.frame) <- true;
          m.on_switch ps.frame !now
        end
      | _ -> ());
      false
    | None ->
      if ps.frame >= config.frames || Array.length ps.order = 0 then false
      else begin
        let job = ps.order.(ps.pos) in
        let j = Graph.job g job in
        let base = frame_base h ps.frame in
        (* For periodic jobs the invocation occurs at A_i.  For server
           slots the real event may arrive earlier, but only at the
           boundary b = A_i can a slot be declared 'false' (Sec. IV), so
           the round synchronizes on A_i in both cases — conservative
           and sufficient for Prop. 4.1. *)
        let invocation = Rat.add base j.Job.arrival in
        let earliest =
          Rat.max invocation
            (Rat.add base
               (Platform.frame_overhead config.platform ~frame:ps.frame))
        in
        if degraded.(ps.frame) && not (is_hi j) then begin
          (* monitor: a degraded frame drops the LO jobs its processors
             reach, before any wait *)
          Option.iter (fun m -> m.Engine.on_drop ()) monitor;
          records :=
            record ps job j ~invoked:invocation ~finish:!now ~skipped:true
            :: !records;
          complete ps job
        end
        else if Rat.(earliest > !now) then begin
          Pqueue.push events earliest;
          false
        end
        else if not (preds_done ps.frame job) then false
        else begin
          let stamp =
            if j.Job.is_server then Hashtbl.find_opt assigned (job, ps.frame)
            else Some invocation
          in
          match stamp with
          | None ->
            (* 'false' job: skip without executing *)
            records :=
              record ps job j ~invoked:invocation ~finish:!now ~skipped:true
              :: !records;
            complete ps job
          | Some invoked ->
            (* execute the job body now; duration covers the WCET model
               plus per-access synchronisation overhead *)
            let accesses = ref 0 in
            let recorder = function
              | Fppn.Trace.Read _ | Fppn.Trace.Write _ -> incr accesses
              | _ -> ()
            in
            Netstate.run_job ~recorder ~inputs:config.inputs state
              ~proc:j.Job.proc ~now:invoked;
            let duration =
              Rat.add
                (Exec_time.sample config.exec j)
                (Rat.mul
                   config.platform.Platform.overhead.Platform.per_access
                   (Rat.of_int !accesses))
            in
            let finish = Rat.add !now duration in
            (match monitor with
            | Some m when m.is_hi j ->
              (* monitor: wake up at the C_LO expiry if the job overruns *)
              let detect = Rat.add !now (m.budget_lo j) in
              if Rat.(detect < finish) then Pqueue.push events detect
            | _ -> ());
            ps.busy_until <- Some finish;
            ps.running <-
              Some (job, record ps job j ~invoked ~finish ~skipped:false);
            Pqueue.push events finish;
            true
        end
      end
  in
  Pqueue.push events Rat.zero;
  let rec fixpoint () =
    let changed = Array.fold_left (fun acc ps -> advance ps || acc) false procs in
    if changed then fixpoint ()
  in
  (* blocked processors re-push [earliest] on every poll, so an instant
     may be queued many times; its copies pop together.  A degrade is no
     processor transition: under a monitor, the drops it enables wait
     for the next fixpoint, which an instant queued twice or more runs
     at once (a third would find nothing left to do). *)
  let rec loop () =
    match Pqueue.pop events with
    | None -> ()
    | Some t ->
      let copies = ref 1 in
      while Option.fold ~none:false ~some:(Rat.equal t) (Pqueue.peek events) do
        ignore (Pqueue.pop events);
        incr copies
      done;
      if Rat.(t >= !now) then begin
        now := t;
        fixpoint ();
        if Option.is_some monitor && !copies > 1 then fixpoint ()
      end;
      loop ()
  in
  loop ();
  let trace =
    List.sort
      (fun (a : Exec_trace.record) b ->
        let c = Rat.compare a.start b.start in
        if c <> 0 then c
        else
          let c = Int.compare a.proc b.proc in
          if c <> 0 then c
          else
            let c = Int.compare a.frame b.frame in
            if c <> 0 then c else Int.compare a.job b.job)
      !records
  in
  {
    Engine.trace = Lazy.from_val trace;
    channel_history = lazy (Netstate.channel_history state);
    output_history = lazy (Netstate.output_history state);
    stats = Exec_trace.stats trace;
    unhandled_events;
    overhead_segments = lazy (overhead_segments config h);
  }
