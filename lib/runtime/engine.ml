module Rat = Rt_util.Rat
module Timebase = Rt_util.Timebase
module Pqueue = Rt_util.Pqueue
module Iheap = Rt_util.Iheap
module Trace = Fppn_obs.Trace
module Metrics = Fppn_obs.Metrics
module Network = Fppn.Network
module Process = Fppn.Process
module Event = Fppn.Event
module Netstate = Fppn.Netstate
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Derive = Taskgraph.Derive
module Static_schedule = Sched.Static_schedule

type config = {
  platform : Platform.t;
  exec : Exec_time.t;
  frames : int;
  sporadic : (string * Rat.t list) list;
  inputs : Netstate.input_feed;
}

let default_config ?(frames = 1) ~n_procs () =
  {
    platform = Platform.create ~n_procs ();
    exec = Exec_time.constant;
    frames;
    sporadic = [];
    inputs = Netstate.no_inputs;
  }

(* Traces, histories and overhead segments are produced lazily: the
   compiled core keeps its records as packed int arrays and most
   consumers (benchmarks, statistics, gates) never look at the rational
   view, so materializing it per run would dominate both time and
   allocation of short simulations.  Forcing is not synchronized —
   a result is meant to be consumed by the domain that ran it. *)
type result = {
  trace : Exec_trace.t Lazy.t;
  channel_history : (string * Fppn.Value.t list) list Lazy.t;
  output_history : (string * Fppn.Value.t list) list Lazy.t;
  stats : Exec_trace.stats;
  unhandled_events : (string * Rat.t) list;
  overhead_segments : (int * Rat.t * Rat.t) list Lazy.t;
}

let trace r = Lazy.force r.trace
let channel_history r = Lazy.force r.channel_history
let output_history r = Lazy.force r.output_history
let overhead_segments r = Lazy.force r.overhead_segments

(* Map every (server job id, frame) to the real sporadic event it
   handles, applying the Fig. 2 boundary rule.  The server windows tile
   the time line: window [w] ends at [b = w·T_s] and is slot
   [w mod S + 1] of frame [w / S] ([H = S·T_s]), so a stamp's window
   follows from [s / T_s] and its position in the window's subset is its
   rank among the ascending stamps there — one pass per server.  Returns
   the map plus the events that fall beyond the last simulated window. *)
let assign_sporadic_events net (derived : Derive.t) ~frames ~hyperperiod traces =
  let g = derived.Derive.graph in
  let assigned : (int * int, Rat.t) Hashtbl.t = Hashtbl.create 64 in
  let unhandled = ref [] in
  List.iter
    (fun (s : Derive.server_info) ->
      let p = s.Derive.sporadic in
      let name = Process.name (Network.process net p) in
      let stamps =
        match List.assoc_opt name traces with Some l -> l | None -> []
      in
      let ev = Process.event (Network.process net p) in
      if not (Event.is_valid_sporadic_trace ev stamps) then
        invalid_arg
          (Printf.sprintf "Engine.run: sporadic trace of %S violates (m,T)" name);
      let ts = s.Derive.server_period in
      let burst = Process.burst (Network.process net p) in
      let slots_per_frame = Rat.to_int_exn (Rat.div hyperperiod ts) in
      let windows = frames * slots_per_frame in
      (* the w with s in (b - T_s, b], respectively [b - T_s, b) *)
      let window stamp =
        let q = Rat.div stamp ts in
        if s.Derive.boundary_closed_right then Rat.ceil q else Rat.floor q + 1
      in
      if stamps <> [] then begin
        (* server jobs ascending k: job k handles position
           (k - 1) mod burst + 1 of slot (k - 1) / burst + 1 *)
        let jobs = Array.of_list (Graph.jobs_of_process g p) in
        let current = ref (-1) and rank = ref 0 in
        List.iter
          (fun stamp ->
            let w = window stamp in
            if w = !current then incr rank
            else begin
              current := w;
              rank := 1
            end;
            (* a valid trace has at most m stamps per window, as
               T_s <= T; the rank test keeps a job index in its slot *)
            if w < windows && !rank <= burst then
              let slot = w mod slots_per_frame in
              Hashtbl.replace assigned
                (jobs.((slot * burst) + !rank - 1), w / slots_per_frame)
                stamp
            else unhandled := (name, stamp) :: !unhandled)
          stamps
      end)
    derived.Derive.servers;
  (assigned, List.rev !unhandled)

let sporadic_assignment net derived ~frames traces =
  assign_sporadic_events net derived ~frames
    ~hyperperiod:derived.Derive.hyperperiod traces

type proc_state = {
  order : int array;
  mutable frame : int;
  mutable pos : int;
  mutable busy_until : Rat.t option;
  mutable running : (int * Exec_trace.record) option;
      (** job id + its record-in-progress while busy *)
}

type monitor = {
  is_hi : Job.t -> bool;
  budget_lo : Job.t -> Rat.t;
  on_switch : int -> Rat.t -> unit;
  on_drop : unit -> unit;
}

(* Validation + sporadic-window assignment shared by every core. *)
let prologue net (derived : Derive.t) sched config =
  let g = derived.Derive.graph in
  let n = Graph.n_jobs g in
  if config.frames <= 0 then invalid_arg "Engine.run: frames must be positive";
  if Static_schedule.n_jobs sched <> n then
    invalid_arg "Engine.run: schedule does not cover the task graph";
  if Static_schedule.n_procs sched <> config.platform.Platform.n_procs then
    invalid_arg "Engine.run: schedule and platform processor counts differ";
  List.iter
    (fun (name, _) ->
      let p =
        try Network.find net name
        with Not_found ->
          invalid_arg (Printf.sprintf "Engine.run: unknown process %S" name)
      in
      if not (Process.is_sporadic (Network.process net p)) then
        invalid_arg
          (Printf.sprintf "Engine.run: %S is periodic, not sporadic" name))
    config.sporadic;
  assign_sporadic_events net derived ~frames:config.frames
    ~hyperperiod:derived.Derive.hyperperiod config.sporadic

let frame_base h frame = Rat.mul h (Rat.of_int frame)

let overhead_segments_of config h =
  List.filter_map
    (fun frame ->
      let from = frame_base h frame
      and oh = Platform.frame_overhead config.platform ~frame in
      if Rat.sign oh > 0 then Some (frame, from, Rat.add from oh) else None)
    (List.init config.frames Fun.id)

(* ------------------------------------------------------------------ *)
(* Reference core: exact rational arithmetic, polling fixpoint.         *)
(*                                                                      *)
(* The seed interpreter, reached only where no tick grid exists (an     *)
(* opaque execution-time model, a grid overflow) and as the oracle the  *)
(* tick core is differentially tested against, with or without the      *)
(* criticality monitor of the mixed-criticality extension, whose        *)
(* branches are inert without one.                                      *)
(* ------------------------------------------------------------------ *)

let exec_rat ?monitor net (derived : Derive.t) sched config ~assigned
    ~unhandled_events =
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
          Option.iter (fun m -> m.on_drop ()) monitor;
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
    trace = Lazy.from_val trace;
    channel_history = lazy (Netstate.channel_history state);
    output_history = lazy (Netstate.output_history state);
    stats = Exec_trace.stats trace;
    unhandled_events;
    overhead_segments = lazy (overhead_segments_of config h);
  }

(* ------------------------------------------------------------------ *)
(* Compiled core: integer tick timeline, wake-list scheduling.          *)
(*                                                                      *)
(* Setup maps every model time onto the common-denominator tick grid    *)
(* of a [Timebase]; the event loop then runs on machine integers, and   *)
(* a completion re-examines only the processors registered on the       *)
(* completed job's wake list instead of polling all of them.  The       *)
(* transition order of the reference fixpoint (ascending processor      *)
(* index per sweep, sweeps repeated until quiescent) is replicated      *)
(* exactly, so execution-time PRNG draws, channel operations and trace  *)
(* records are bit-identical to [exec_rat]'s.                           *)
(*                                                                      *)
(* The criticality monitor runs on the same grid: a HI job's C_LO       *)
(* expiry is one more queued event, and a degrade marks every processor *)
(* hot, so one at or below the sweep cursor sees it at the next sweep:  *)
(* as in the reference, a second one at an instant t queued twice or    *)
(* more, else at the next instant.  The cores agree on "twice" whenever *)
(* a degrade at t left processors hot, as it comes with a C_LO wake-up  *)
(* at t.  The other copies are finishes and wake-ups, queued one for    *)
(* one, and re-pushes of a waiting processor's earliest start, made on  *)
(* every poll there and every hot poll here: at least once in both.     *)
(* ------------------------------------------------------------------ *)

type tick_plan = {
  tb : Timebase.t;
  h_t : int;  (* hyperperiod *)
  first_t : int;  (* frame overheads *)
  steady_t : int;
  per_access_t : int;
  arr_t : int array;  (* per job: phase within the frame *)
  dl_rel_t : int array;  (* per job: relative deadline of its process *)
  is_server : bool array;
  proc_of : int array;  (* per job: scheduled processor *)
  body_proc : int array;  (* per job: network process index *)
  stamp_t : int array;
      (* sporadic stamp ticks at [frame·n + job], absent = [min_int];
         empty when the run has no real events *)
  dur_t : int array option;
      (* per job: fixed duration ticks; [None] = draw per execution *)
  lo_t : int array;  (* per job: C_LO ticks if HI, else -1; [||] unmonitored *)
}

type tick_proc = {
  t_order : int array;
  mutable t_frame : int;
  mutable t_pos : int;
  mutable t_busy : bool;
  (* the record-in-progress while busy, final since start time *)
  mutable t_job : int;
  mutable t_invoked : int;
  mutable t_start : int;
  mutable t_finish : int;
  mutable t_deadline : int;
  mutable t_missing : int;  (* wake-list registrations outstanding *)
}

(* index of the only set bit of [b] *)
let bit_index b =
  let i = ref 0 and b = ref b in
  while !b land 1 = 0 do
    if !b land 0xffffffff = 0 then begin
      b := !b lsr 32;
      i := !i + 32
    end
    else if !b land 0xff = 0 then begin
      b := !b lsr 8;
      i := !i + 8
    end
    else begin
      b := !b lsr 1;
      incr i
    end
  done;
  !i

(* Compile the run onto a tick grid, or [None] when any time cannot be
   represented (unpredictable execution-time model, common-denominator
   overflow, horizon too large, a negative C_LO) — the caller then uses
   the exact rational core, so compilation failures degrade, never
   crash. *)
let tick_compile ?monitor net (derived : Derive.t) sched config ~assigned =
  let g = derived.Derive.graph in
  let n = Graph.n_jobs g in
  let jobs = Graph.jobs g in
  let budgets =
    match monitor with
    | None -> [||]
    | Some m ->
      Array.map (fun j -> if m.is_hi j then Some (m.budget_lo j) else None) jobs
  in
  match Exec_time.durations config.exec ~jobs with
  | Exec_time.Opaque -> None
  | _ when Array.exists (function Some c -> Rat.sign c < 0 | _ -> false) budgets ->
    None
  | (Exec_time.Fixed _ | Exec_time.Extras _) as durs -> (
    let dur_times =
      match durs with
      | Exec_time.Fixed a -> Array.to_list a
      | Exec_time.Extras l -> l
      | Exec_time.Opaque -> []
    in
    match
      let ov = config.platform.Platform.overhead in
      let times =
        derived.Derive.hyperperiod :: ov.Platform.first_frame
        :: ov.Platform.steady_frame :: ov.Platform.per_access
        :: Hashtbl.fold (fun _ stamp acc -> stamp :: acc) assigned []
        @ dur_times
        @ List.filter_map Fun.id (Array.to_list budgets)
        @ Array.to_list (Array.map (fun j -> j.Job.wcet) jobs)
        @ Array.to_list (Array.map (fun j -> j.Job.arrival) jobs)
        @ List.init (Network.n_processes net) (fun p ->
              Process.deadline (Network.process net p))
      in
      let horizon =
        Rat.mul derived.Derive.hyperperiod (Rat.of_int config.frames)
      in
      Timebase.create ~horizon times
    with
    | exception Rat.Overflow -> None
    | None -> None
    | Some tb -> (
      let ov = config.platform.Platform.overhead in
      match
        let tk = Timebase.ticks tb in
        let stamp_t =
          if Hashtbl.length assigned = 0 then [||]
          else begin
            let a = Array.make (n * config.frames) min_int in
            Hashtbl.iter
              (fun (j, f) s -> if f < config.frames then a.((f * n) + j) <- tk s)
              assigned;
            a
          end
        in
        {
          tb;
          h_t = tk derived.Derive.hyperperiod;
          first_t = tk ov.Platform.first_frame;
          steady_t = tk ov.Platform.steady_frame;
          per_access_t = tk ov.Platform.per_access;
          arr_t = Array.map (fun j -> tk j.Job.arrival) jobs;
          dl_rel_t =
            Array.map
              (fun j -> tk (Process.deadline (Network.process net j.Job.proc)))
              jobs;
          is_server = Array.map (fun j -> j.Job.is_server) jobs;
          proc_of = Array.init n (Static_schedule.proc sched);
          body_proc = Array.map (fun j -> j.Job.proc) jobs;
          stamp_t;
          dur_t =
            (match durs with
            | Exec_time.Fixed a -> Some (Array.map tk a)
            | Exec_time.Extras _ | Exec_time.Opaque -> None);
          lo_t = Array.map (Option.fold ~none:(-1) ~some:tk) budgets;
        }
      with
      | plan -> Some plan
      | exception (Timebase.Inexact | Rat.Overflow) -> None))

(* Flat predecessor segments: job [j]'s predecessors are
   [pred_job.(pred_off.(j)) .. pred_job.(pred_off.(j + 1) - 1)]. *)
let pred_segments g =
  let n = Graph.n_jobs g in
  let pred_off = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    pred_off.(j + 1) <- pred_off.(j) + List.length (Graph.preds g j)
  done;
  let pred_job = Array.make (max 1 pred_off.(n)) 0 in
  for j = 0 to n - 1 do
    List.iteri (fun i q -> pred_job.(pred_off.(j) + i) <- q) (Graph.preds g j)
  done;
  (pred_off, pred_job)

(* [Timebase.of_ticks] behind a one-entry cache: invocation instants
   repeat across jobs, so the conversion is all but free *)
let rat_cache tb =
  let last_tick = ref min_int and last_rat = ref Rat.zero in
  fun tick ->
    if tick = !last_tick then !last_rat
    else begin
      let r = Timebase.of_ticks tb tick in
      last_tick := tick;
      last_rat := r;
      r
    end

(* Job records as packed parallel columns of grid ticks: the tick
   core's buffers, the replay template, and what a result materializes
   its trace from.  A record's deadline is its invocation plus its
   job's [dl_rel_t]. *)
type recs = {
  r_job : int array;
  r_frame : int array;
  r_invoked : int array;
  r_start : int array;
  r_finish : int array;
  r_skip : Bytes.t;
}

let make_recs cap =
  let col () = Array.make cap 0 in
  {
    r_job = col ();
    r_frame = col ();
    r_invoked = col ();
    r_start = col ();
    r_finish = col ();
    r_skip = Bytes.make cap '\000';
  }

let set_rec r i job frame invoked start finish skipped =
  r.r_job.(i) <- job;
  r.r_frame.(i) <- frame;
  r.r_invoked.(i) <- invoked;
  r.r_start.(i) <- start;
  r.r_finish.(i) <- finish;
  if skipped then Bytes.set r.r_skip i '\001'

(* the [len] records from [off] (default 0) in a fresh buffer of [cap]
   (default [len]) *)
let copy_recs ?(off = 0) ?cap r len =
  let d = make_recs (Option.value cap ~default:len) in
  let col a b = Array.blit a off b 0 len in
  col r.r_job d.r_job;
  col r.r_frame d.r_frame;
  col r.r_invoked d.r_invoked;
  col r.r_start d.r_start;
  col r.r_finish d.r_finish;
  Bytes.blit r.r_skip off d.r_skip 0 len;
  d

(* the permutation that sorts [r] by (start, processor, frame, job), the
   reference trace order.  Every buffer holds records appended at job
   start ([exec_ticks]' [push_rec]), or a slice of one, so starts ascend
   and only each run of equal starts needs sorting. *)
let sorted_order plan r =
  let m = Array.length r.r_job in
  let rs = r.r_start in
  let cmp a b =
    let c = Int.compare rs.(a) rs.(b) in
    if c <> 0 then c
    else
      let c =
        Int.compare plan.proc_of.(r.r_job.(a)) plan.proc_of.(r.r_job.(b))
      in
      if c <> 0 then c
      else
        let c = Int.compare r.r_frame.(a) r.r_frame.(b) in
        if c <> 0 then c else Int.compare r.r_job.(a) r.r_job.(b)
  in
  let perm = Array.init m Fun.id in
  let i = ref 0 in
  while !i < m do
    let j = ref (!i + 1) in
    while !j < m && rs.(!j) = rs.(!i) do
      incr j
    done;
    if !j - !i > 1 then begin
      let run = Array.sub perm !i (!j - !i) in
      Array.sort cmp run;
      Array.blit run 0 perm !i (!j - !i)
    end;
    i := !j
  done;
  perm

(* The result of the tick core: statistics, the common [engine.*]
   counters, history snapshots that decouple the result from the reused
   [state], and the lazily sorted trace.  The result owns [recs].  With
   [template = (tpl_frame, t)], frames after [tpl_frame] were replayed:
   each is [t], the template frame's records, shifted by whole
   hyperperiods — so it counts [t]'s per-frame figures, whose misses and
   responses are shift-invariant. *)
let packed_result (derived : Derive.t) config plan state ~unhandled_events
    ?template recs =
  let g = derived.Derive.graph in
  let frames = config.frames in
  let executed = ref 0
  and skipped = ref 0
  and misses = ref 0
  and max_resp = ref 0
  and max_frame = ref (-1) in
  let tally r ~times ~frame_shift =
    for i = 0 to Array.length r.r_job - 1 do
      if Bytes.get r.r_skip i <> '\000' then skipped := !skipped + times
      else begin
        executed := !executed + times;
        if r.r_finish.(i) > r.r_invoked.(i) + plan.dl_rel_t.(r.r_job.(i)) then
          misses := !misses + times;
        let resp = r.r_finish.(i) - r.r_invoked.(i) in
        if resp > !max_resp then max_resp := resp;
        if r.r_frame.(i) + frame_shift > !max_frame then
          max_frame := r.r_frame.(i) + frame_shift
      end
    done
  in
  tally recs ~times:1 ~frame_shift:0;
  Option.iter
    (fun (tpl_frame, t) ->
      let k = frames - 1 - tpl_frame in
      tally t ~times:k ~frame_shift:k)
    template;
  if Metrics.enabled () then begin
    Metrics.add (Metrics.counter "engine.jobs_executed") !executed;
    Metrics.add (Metrics.counter "engine.jobs_skipped") !skipped;
    Metrics.add (Metrics.counter "engine.deadline_misses") !misses;
    Metrics.add (Metrics.counter "engine.frames") frames
  end;
  let trace =
    lazy
      begin
        (* records sit in start order; sort them and materialize
           rationals only here.  Replayed frames all follow the
           event-loop frames and are disjoint from each other, so
           sorted blocks concatenate sorted. *)
        let labels =
          Array.init (Graph.n_jobs g) (fun j -> Job.label (Graph.job g j))
        in
        (* instants repeat across records (one job's finish is the next
           one's start), so each tick is converted once *)
        let rats = Hashtbl.create 256 in
        (* prepends [r], in the order [perm], shifted by [shift]
           hyperperiods onto [acc] *)
        let emit r perm shift acc =
          let dt = shift * plan.h_t in
          let rat tick =
            let tick = tick + dt in
            try Hashtbl.find rats tick
            with Not_found ->
              let q = Timebase.of_ticks plan.tb tick in
              Hashtbl.add rats tick q;
              q
          in
          let acc = ref acc in
          for k = Array.length r.r_job - 1 downto 0 do
            let i = perm.(k) in
            let j = r.r_job.(i) in
            acc :=
              {
                Exec_trace.job = j;
                label = labels.(j);
                frame = r.r_frame.(i) + shift;
                proc = plan.proc_of.(j);
                invoked = rat r.r_invoked.(i);
                start = rat r.r_start.(i);
                finish = rat r.r_finish.(i);
                deadline = rat (r.r_invoked.(i) + plan.dl_rel_t.(j));
                skipped = Bytes.get r.r_skip i <> '\000';
              }
              :: !acc
          done;
          !acc
        in
        let acc = ref [] in
        Option.iter
          (fun (tpl_frame, t) ->
            let perm = sorted_order plan t in
            for f = frames - 1 downto tpl_frame + 1 do
              acc := emit t perm (f - tpl_frame) !acc
            done)
          template;
        emit recs (sorted_order plan recs) 0 !acc
      end
  in
  (* O(#channels) snapshots: the next run may reset and reuse [state],
     and these keep reading the arrays this run wrote *)
  let materialize snaps =
    List.map (fun (c, s) -> (c, Fppn.Channel.snapshot_history s)) snaps
  in
  let chan_snap = Netstate.channel_snapshot state in
  let out_snap = Netstate.output_snapshot state in
  {
    trace;
    channel_history = lazy (materialize chan_snap);
    output_history = lazy (materialize out_snap);
    stats =
      {
        Exec_trace.executed = !executed;
        skipped = !skipped;
        misses = !misses;
        max_response = Timebase.of_ticks plan.tb !max_resp;
        frames = !max_frame + 1;
      };
    unhandled_events;
    overhead_segments =
      lazy (overhead_segments_of config derived.Derive.hyperperiod);
  }

(* Engine scratch: every working array of [exec_ticks] whose shape
   depends only on the derived graph and the schedule.  A run memo
   entry owns one, so reruns pay a handful of [Array.fill]s instead of
   rebuilding the dependence segments and reallocating a dozen
   arrays. *)
type tick_scratch = {
  sc_procs : tick_proc array;
  sc_completions : int array;
  (* flat predecessor segments, and per-job waiter segments sized by
     out-degree: a processor registers on a job only while its current
     job has it as predecessor, and distinct registrants host distinct
     successors, so out-degree bounds each segment.  A completion then
     walks just its own segment — no list cell is ever consed. *)
  sc_pred_off : int array;
  sc_pred_job : int array;
  sc_succ_off : int array;
  sc_w_proc : int array;
  sc_w_frame : int array;
  sc_w_len : int array;
  mutable sc_recs : recs;
      (* records in job start order, sized by the first run, grown on
         demand *)
  sc_events : Iheap.t;
  sc_hot : int array;
  (* compacted replay program (executed bodies + deduped invocation
     instants) and its precomputed rationals.  The template is a pure
     function of (plan, sched, frames), so across runs on one scratch
     the program is rebuilt in place and the rationals are reused
     unless a tick actually changed — the steady-frame loop of a
     repeated run then allocates nothing at all. *)
  sc_r_proc : int array;
  sc_r_uidx : int array;
  sc_u_tick : int array;
  mutable sc_u_rat : Rat.t array;
  mutable sc_rep_m : int; (* -1 = no cached program *)
  mutable sc_rep_n_u : int;
  mutable sc_rep_frames : int;
}

let make_scratch (derived : Derive.t) sched ~n_procs =
  let g = derived.Derive.graph in
  let n = Graph.n_jobs g in
  let pred_off, pred_job = pred_segments g in
  let m_edges = pred_off.(n) in
  let succ_off = Array.make (n + 1) 0 in
  for i = 0 to m_edges - 1 do
    let q = pred_job.(i) in
    succ_off.(q + 1) <- succ_off.(q + 1) + 1
  done;
  for q = 0 to n - 1 do
    succ_off.(q + 1) <- succ_off.(q + 1) + succ_off.(q)
  done;
  {
    sc_procs =
      Array.init n_procs (fun p ->
          {
            t_order = Static_schedule.order_on sched p;
            t_frame = 0;
            t_pos = 0;
            t_busy = false;
            t_job = -1;
            t_invoked = 0;
            t_start = 0;
            t_finish = 0;
            t_deadline = 0;
            t_missing = 0;
          });
    sc_completions = Array.make n 0;
    sc_pred_off = pred_off;
    sc_pred_job = pred_job;
    sc_succ_off = succ_off;
    sc_w_proc = Array.make (max 1 m_edges) 0;
    sc_w_frame = Array.make (max 1 m_edges) 0;
    sc_w_len = Array.make n 0;
    sc_recs = make_recs 0;
    sc_events = Iheap.create ~capacity:(max 16 (2 * n_procs)) ();
    sc_hot = Array.make ((n_procs + 62) / 63) 0;
    sc_r_proc = Array.make (max 1 n) 0;
    sc_r_uidx = Array.make (max 1 n) 0;
    sc_u_tick = Array.make (max 1 n) 0;
    sc_u_rat = [||];
    sc_rep_m = -1;
    sc_rep_n_u = 0;
    sc_rep_frames = 0;
  }

(* the scratch as [make_scratch] left it, with records for at least
   [cap0] jobs *)
let reset_scratch sc ~cap0 =
  if Array.length sc.sc_recs.r_job < cap0 then sc.sc_recs <- make_recs cap0;
  Array.fill sc.sc_completions 0 (Array.length sc.sc_completions) 0;
  Array.fill sc.sc_w_len 0 (Array.length sc.sc_w_len) 0;
  Array.fill sc.sc_hot 0 (Array.length sc.sc_hot) 0;
  Iheap.clear sc.sc_events;
  Array.iter
    (fun ps ->
      ps.t_frame <- 0;
      ps.t_pos <- 0;
      ps.t_busy <- false;
      ps.t_job <- -1;
      ps.t_invoked <- 0;
      ps.t_start <- 0;
      ps.t_finish <- 0;
      ps.t_deadline <- 0;
      ps.t_missing <- 0)
    sc.sc_procs;
  (* skip flags are only ever set, never cleared, on the hot path *)
  Bytes.fill sc.sc_recs.r_skip 0 (Bytes.length sc.sc_recs.r_skip) '\000'

(* The tick core, on [sc] and [state], which it resets first.  It
   appends every record at job start, which is the order the bodies run
   in.  With [monitor], [plan] must be compiled with it. *)
let exec_ticks ?monitor (derived : Derive.t) config ~unhandled_events plan sc
    state =
  let g = derived.Derive.graph in
  let n = Graph.n_jobs g in
  let frames = config.frames in
  let n_procs = config.platform.Platform.n_procs in
  let monitored = Option.is_some monitor in
  let degraded = Bytes.make (if monitored then frames else 0) '\000' in
  Netstate.reset state;
  Netstate.set_inputs state config.inputs;
  Netstate.set_access_counting state (plan.per_access_t > 0);
  let have_stamps = Array.length plan.stamp_t > 0 in
  (* Steady-state replay: with per-job deterministic durations, no
     sporadic stamps and zero per-access cost, the schedule of any
     steady frame whose window is self-contained is the template
     frame's shifted by a hyperperiod multiple.  The template frame is
     frame 0 itself when the first-frame overhead equals the steady one
     (then every frame is alike), frame 1 otherwise.  Frames up to and
     including the template run through the event loop; if they all
     stay inside their windows, the remaining frames only re-run the
     template's job bodies in call order — their records are implied by
     the template frame's records and materialized on demand.  Replayed
     frames would call no monitor callback, so a monitored run never
     replays. *)
  let tpl_frame = if plan.first_t = plan.steady_t then 0 else 1 in
  let replay_candidate =
    (not monitored) && plan.dur_t <> None
    && plan.per_access_t = 0
    && (not have_stamps) && frames > tpl_frame + 1
  in
  (* records as packed parallel arrays; presized for the head
     frames when replay may make the rest implicit, grown once if not *)
  let cap0 =
    max 1 (if replay_candidate then (tpl_frame + 1) * n else n * frames)
  in
  reset_scratch sc ~cap0;
  let procs = sc.sc_procs in
  let completions = sc.sc_completions in
  let pred_off = sc.sc_pred_off in
  let pred_job = sc.sc_pred_job in
  let succ_off = sc.sc_succ_off in
  let w_proc = sc.sc_w_proc in
  let w_frame = sc.sc_w_frame in
  let w_len = sc.sc_w_len in
  let recs = ref sc.sc_recs in
  let s_n = ref 0 in
  let push_rec job frame invoked start finish skipped =
    let i = !s_n in
    if i = Array.length !recs.r_job then begin
      (* replay declined after frame 1: grow to the full horizon *)
      recs := copy_recs !recs i ~cap:(n * frames);
      sc.sc_recs <- !recs
    end;
    set_rec !recs i job frame invoked start finish skipped;
    s_n := i + 1
  in
  (* observability: [tracing] is captured once, so the hot loop pays a
     single immutable-bool branch per site when tracing is off; job
     labels are pre-interned so per-job spans never hash on dispatch,
     and spans open/close through the preallocated ring without any
     closure allocation *)
  let tracing = Trace.enabled () in
  let span_ids =
    if tracing then
      Array.init n (fun j -> Trace.intern (Job.label (Graph.job g j)))
    else [||]
  in
  let miss_id = Trace.intern "engine.deadline_miss" in
  let depth_id = Trace.intern "engine.queue_depth" in
  let q_pushes = ref 0 in
  (* events carry the tick as key and the processor as payload — two
     immediate ints, so any processor count fits (the previous packed
     encoding capped networks at 64 processors) *)
  let events = sc.sc_events in
  let push_event tick p =
    incr q_pushes;
    Iheap.push events ~key:tick ~pay:p
  in
  let now = ref 0 in
  (* hot set: one bit per processor, swept in ascending index *)
  let nw = (n_procs + 62) / 63 in
  let hot = sc.sc_hot in
  let set_hot p = hot.(p / 63) <- hot.(p / 63) lor (1 lsl (p mod 63)) in
  (* model-time rationals survive only inside job bodies ([ctx.now]) *)
  let now_rat = rat_cache plan.tb in
  let wake job =
    if w_len.(job) > 0 then begin
      let c = completions.(job) in
      let base = succ_off.(job) in
      let i = ref 0 in
      while !i < w_len.(job) do
        let idx = base + !i in
        if c > w_frame.(idx) then begin
          let p = w_proc.(idx) in
          let ps = procs.(p) in
          ps.t_missing <- ps.t_missing - 1;
          if ps.t_missing = 0 then set_hot p;
          (* swap-remove; segment order is irrelevant *)
          let last = base + w_len.(job) - 1 in
          w_proc.(idx) <- w_proc.(last);
          w_frame.(idx) <- w_frame.(last);
          w_len.(job) <- w_len.(job) - 1
        end
        else incr i
      done
    end
  in
  let step_order ps =
    ps.t_pos <- ps.t_pos + 1;
    if ps.t_pos >= Array.length ps.t_order then begin
      ps.t_pos <- 0;
      ps.t_frame <- ps.t_frame + 1
    end
  in
  (* the current job of [ps] is done without running — a 'false' slot
     or a dropped LO job, recorded skipped at [now]; a transition *)
  let skip ps job invocation =
    push_rec job ps.t_frame invocation !now !now true;
    completions.(job) <- completions.(job) + 1;
    step_order ps;
    wake job;
    true
  in
  (* monitor: the busy processor [ps] degrades its frame if it runs a
     HI job past its C_LO *)
  let degrade ps =
    let b = plan.lo_t.(ps.t_job) in
    if b >= 0 && Bytes.get degraded ps.t_frame = '\000' && ps.t_start + b <= !now
    then begin
      Bytes.set degraded ps.t_frame '\001';
      Option.iter
        (fun m -> m.on_switch ps.t_frame (Timebase.of_ticks plan.tb !now))
        monitor;
      for q = 0 to n_procs - 1 do
        set_hot q
      done
    end
  in
  (* monitor: [p] drops its current LO job, leaving the waiter segments
     of the predecessors it still waits on *)
  let drop p ps job invocation =
    Option.iter (fun m -> m.on_drop ()) monitor;
    if ps.t_missing > 0 then begin
      for i = pred_off.(job) to pred_off.(job + 1) - 1 do
        let q = pred_job.(i) in
        if completions.(q) <= ps.t_frame then begin
          let idx = ref succ_off.(q) in
          while w_proc.(!idx) <> p do
            incr idx
          done;
          let last = succ_off.(q) + w_len.(q) - 1 in
          w_proc.(!idx) <- w_proc.(last);
          w_frame.(!idx) <- w_frame.(last);
          w_len.(q) <- w_len.(q) - 1
        end
      done;
      ps.t_missing <- 0
    end;
    skip ps job invocation
  in
  (* one attempt to make progress on processor [p]; true if state
     changed — mirrors [exec_rat]'s [advance] transition for transition *)
  let try_advance p ps =
    if ps.t_busy then
      if ps.t_finish <= !now then begin
        let job = ps.t_job in
        completions.(job) <- completions.(job) + 1;
        if tracing && ps.t_finish > ps.t_deadline then
          Trace.instant_id miss_id;
        ps.t_busy <- false;
        step_order ps;
        wake job;
        true
      end
      else begin
        if monitored then degrade ps;
        false
      end
    else if ps.t_frame >= frames || Array.length ps.t_order = 0 then false
    else begin
      let job = ps.t_order.(ps.t_pos) in
      let base = ps.t_frame * plan.h_t in
      let invocation = base + plan.arr_t.(job) in
      let oh_end =
        base + if ps.t_frame = 0 then plan.first_t else plan.steady_t
      in
      let earliest = if invocation > oh_end then invocation else oh_end in
      if monitored && Bytes.get degraded ps.t_frame <> '\000' && plan.lo_t.(job) < 0
      then drop p ps job invocation
      else if earliest > !now then begin
        push_event earliest p;
        false
      end
      else if ps.t_missing > 0 then false
      else begin
        (* count unfinished predecessors and register on their waiter
           segments; nothing to poll until the last one completes *)
        let missing = ref 0 in
        for i = pred_off.(job) to pred_off.(job + 1) - 1 do
          let q = pred_job.(i) in
          if completions.(q) <= ps.t_frame then begin
            incr missing;
            let idx = succ_off.(q) + w_len.(q) in
            w_proc.(idx) <- p;
            w_frame.(idx) <- ps.t_frame;
            w_len.(q) <- w_len.(q) + 1
          end
        done;
        if !missing > 0 then begin
          ps.t_missing <- !missing;
          false
        end
        else begin
          let stamp =
            if plan.is_server.(job) then
              if have_stamps then plan.stamp_t.((ps.t_frame * n) + job)
              else min_int
            else invocation
          in
          if stamp = min_int then
            (* 'false' job: skip without executing *)
            skip ps job invocation
          else begin
            if tracing then Trace.span_begin span_ids.(job);
            let a0 =
              if plan.per_access_t = 0 then 0 else Netstate.access_count state
            in
            Netstate.run_job_fast state ~proc:plan.body_proc.(job)
              ~now:(now_rat stamp);
            if tracing then Trace.span_end ();
            let duration =
              (match plan.dur_t with
              | Some d -> Array.unsafe_get d job
              | None ->
                Timebase.ticks plan.tb
                  (Exec_time.sample config.exec (Graph.job g job)))
              +
              if plan.per_access_t = 0 then 0
              else plan.per_access_t * (Netstate.access_count state - a0)
            in
            let finish = !now + duration in
            let deadline = stamp + plan.dl_rel_t.(job) in
            (* monitor: wake up at the C_LO expiry if the job overruns *)
            if monitored && plan.lo_t.(job) >= 0 && !now + plan.lo_t.(job) < finish
            then push_event (!now + plan.lo_t.(job)) p;
            ps.t_busy <- true;
            ps.t_job <- job;
            ps.t_invoked <- stamp;
            ps.t_start <- !now;
            ps.t_finish <- finish;
            ps.t_deadline <- deadline;
            push_rec job ps.t_frame stamp !now finish false;
            push_event finish p;
            true
          end
        end
      end
    end
  in
  (* sweeps over the hot set in ascending processor index, repeated
     until quiescent — the reference fixpoint restricted to processors
     that can actually transition.  A processor set hot at an index at
     or below the sweep cursor waits for the next sweep, exactly like
     the reference's [for] loop. *)
  let rec rounds () =
    let changed = ref false in
    for wi = 0 to nw - 1 do
      let base = wi * 63 in
      let mask = ref (-1) in
      let continue = ref true in
      while !continue do
        let avail = hot.(wi) land !mask in
        if avail = 0 then continue := false
        else begin
          let b = avail land -avail in
          let p = base + bit_index b in
          (* bits strictly above [b]: lower re-arrivals wait a sweep *)
          mask := -(b lsl 1);
          hot.(wi) <- hot.(wi) land lnot b;
          if try_advance p procs.(p) then begin
            changed := true;
            hot.(wi) <- hot.(wi) lor b
          end
        end
      done
    done;
    if !changed then rounds ()
  in
  (* advance to instant [t], draining every event scheduled on it so
     one sweep set sees them all — two under a monitor if [t] was queued
     twice or more (see the section header) *)
  let process_at t =
    now := t;
    if tracing then Trace.counter_id depth_id (Iheap.length events);
    let queued = ref 0 in
    while (not (Iheap.is_empty events)) && Iheap.top_key events = t do
      set_hot (Iheap.top_pay events);
      Iheap.drop events;
      incr queued
    done;
    rounds ();
    if monitored && !queued >= 2 then rounds ()
  in
  let rec run_all () =
    if not (Iheap.is_empty events) then begin
      process_at (Iheap.top_key events);
      run_all ()
    end
  in
  (* process events strictly before [limit] ticks, leaving the rest
     queued *)
  let rec run_until limit =
    if (not (Iheap.is_empty events)) && Iheap.top_key events < limit then begin
      process_at (Iheap.top_key events);
      run_until limit
    end
  in
  (* the head frames each ran wholly inside their own window, and every
     processor stands idle at the post-template boundary: the engine
     state there (and at every later boundary, inductively) matches the
     template boundary shifted by the hyperperiod, so each remaining
     frame is the template frame's sequence shifted in time.  Every
     record then finishes before its frame ends and no job starts before
     its frame begins, so in start order the template frame's records
     are the last [n]. *)
  let steady_state_ok () =
    !s_n = (tpl_frame + 1) * n
    && Array.for_all
         (fun ps ->
           Array.length ps.t_order = 0
           || ((not ps.t_busy)
              && ps.t_frame = tpl_frame + 1
              && ps.t_missing = 0))
         procs
    &&
    let ok = ref true in
    let sf = !recs.r_finish and sfr = !recs.r_frame in
    for i = 0 to !s_n - 1 do
      if sf.(i) >= (sfr.(i) + 1) * plan.h_t then ok := false
    done;
    !ok
  in
  let replayed = ref false in
  let replay () =
    (* compact the template to its executed entries and dedup their
       invocation instants: a frame has at most a handful of distinct
       arrival times, so each frame converts each tick to a rational
       once instead of once per job.  The program is built into the
       scratch arrays, comparing against the previous run's
       contents on the way — when nothing changed (the common case:
       the template is a function of (plan, sched, frames)), the
       precomputed rationals are reused and the whole replay allocates
       nothing. *)
    let tpl = !recs and off = tpl_frame * n in
    let r_proc = sc.sc_r_proc in
    let r_uidx = sc.sc_r_uidx in
    let u_tick = sc.sc_u_tick in
    let changed = ref (sc.sc_rep_m < 0) in
    let n_u = ref 0 in
    let k = ref 0 in
    for i = off to off + n - 1 do
      if Bytes.get tpl.r_skip i = '\000' then begin
        let inv = tpl.r_invoked.(i) in
        let j = ref 0 in
        while !j < !n_u && u_tick.(!j) <> inv do
          incr j
        done;
        if !j = !n_u then begin
          if u_tick.(!n_u) <> inv then changed := true;
          u_tick.(!n_u) <- inv;
          incr n_u
        end;
        r_proc.(!k) <- plan.body_proc.(tpl.r_job.(i));
        r_uidx.(!k) <- !j;
        incr k
      end
    done;
    let m = !k in
    let n_u = !n_u in
    let k_frames = frames - 1 - tpl_frame in
    if
      !changed || m <> sc.sc_rep_m || n_u <> sc.sc_rep_n_u
      || k_frames <> sc.sc_rep_frames
    then begin
      (* all replay instants up front, so the steady-frame loop below
         allocates nothing at all — the allocation gate in the perf
         harness holds it to that *)
      let u_rat = Array.make (max 1 (k_frames * n_u)) Rat.zero in
      for f = 0 to k_frames - 1 do
        let shift = (f + 1) * plan.h_t in
        for j = 0 to n_u - 1 do
          u_rat.((f * n_u) + j) <-
            Timebase.of_ticks plan.tb (u_tick.(j) + shift)
        done
      done;
      sc.sc_u_rat <- u_rat;
      sc.sc_rep_m <- m;
      sc.sc_rep_n_u <- n_u;
      sc.sc_rep_frames <- k_frames
    end;
    let u_rat = sc.sc_u_rat in
    for f = 0 to k_frames - 1 do
      Netstate.run_jobs_fast state ~procs:r_proc ~now_idx:r_uidx ~nows:u_rat
        ~now_base:(f * n_u) ~count:m
    done;
    replayed := true
  in
  for p = 0 to n_procs - 1 do
    set_hot p
  done;
  rounds ();
  (if replay_candidate then begin
     run_until ((tpl_frame + 1) * plan.h_t);
     if steady_state_ok () then Trace.with_span "engine.replay" replay
     else Trace.with_span "engine.eventloop" run_all
   end
   else Trace.with_span "engine.eventloop" run_all);
  (* the next run on [sc] overwrites its buffers, so the result owns
     exact-length copies — a few dozen entries when replay kept the
     records implicit *)
  let result =
    packed_result derived config plan state ~unhandled_events
      ?template:
        (if !replayed then
           Some (tpl_frame, copy_recs ~off:(tpl_frame * n) !recs n)
         else None)
      (copy_recs !recs !s_n)
  in
  if Metrics.enabled () then begin
    Metrics.add (Metrics.counter "engine.queue_pushes") !q_pushes;
    if !replayed then Metrics.incr (Metrics.counter "engine.replays")
  end;
  result

(* ------------------------------------------------------------------ *)
(* Run memo: per domain, so concurrent runs never share an entry.       *)
(*                                                                      *)
(* Callers re-run identical configurations (benchmark steps, fuzz       *)
(* campaigns, periodic re-simulation), often interleaved with other     *)
(* networks.  An entry owns all a rerun needs: the prologue's outcome,  *)
(* the compiled plan (or, without a tick grid, the window assignment),  *)
(* the scratch and the network state, shared by the entries of one      *)
(* network.  A hit goes straight to the timing core.  Skipping the      *)
(* prologue is safe: every input it reads is in the key, and an entry   *)
(* exists only once its prologue succeeded.  Compilation is pure for    *)
(* every compilable model ([Profile] callbacks are required to be       *)
(* pure).  The last run stays in [recent]; an entry joins the [hot] LRU *)
(* only when its (schedule, config) recurs among the last [keep]        *)
(* misses, so callers that build fresh schedules or stamps for every    *)
(* run never keep more than that one entry.                             *)
(* ------------------------------------------------------------------ *)

(* Structural-enough config equality for the memo: scalars compare by
   value, closures and rational lists by identity (callers that rebuild
   [default_config] per run share the library-level defaults, so the
   common case still hits). *)
let same_config a b =
  a == b
  || (a.frames = b.frames && a.exec == b.exec && a.inputs == b.inputs
     && a.sporadic == b.sporadic
     && (a.platform == b.platform
        || (a.platform.Platform.n_procs = b.platform.Platform.n_procs
           && a.platform.Platform.overhead == b.platform.Platform.overhead)))

type core =
  | Ticks of tick_plan * tick_scratch * Netstate.t
  | Rational of (int * int, Rat.t) Hashtbl.t  (* the window assignment *)

type entry = {
  e_net : Network.t;
  e_derived : Derive.t;
  e_sched : Static_schedule.t;
  e_config : config;
  e_unhandled : (string * Rat.t) list;
  e_core : core;
}

type memo = {
  mutable recent : entry option;
  mutable hot : entry list;  (* most recently used first *)
  mutable seen : (Static_schedule.t * config) list;  (* the last misses *)
}

let keep = 8

let memo_key =
  Domain.DLS.new_key (fun () -> { recent = None; hot = []; seen = [] })

let rec take k = function x :: l when k > 0 -> x :: take (k - 1) l | _ -> []

(* a kept state of [net], else a fresh one *)
let state_for memo net =
  let kept e =
    match e.e_core with
    | Ticks (_, _, st) when e.e_net == net -> Some st
    | _ -> None
  in
  match List.find_map kept (Option.to_list memo.recent @ memo.hot) with
  | Some st -> st
  | None -> Netstate.create net

(* prologue and compilation: the unhandled events and the core to run *)
let prepare ?monitor memo net derived sched config =
  let assigned, unhandled = prologue net derived sched config in
  match
    Trace.with_span "engine.compile" (fun () ->
        tick_compile ?monitor net derived sched config ~assigned)
  with
  | Some plan ->
    (* the scratch and the state are the tick core's set-up *)
    Trace.with_span "engine.exec.ticks" (fun () ->
        let n_procs = config.platform.Platform.n_procs in
        let sc = make_scratch derived sched ~n_procs in
        (unhandled, Ticks (plan, sc, state_for memo net)))
  | None -> (unhandled, Rational assigned)

(* the entry that serves an unmonitored run, found or made *)
let lookup memo net derived sched config =
  let serves e =
    e.e_net == net && e.e_derived == derived && e.e_sched == sched
    && same_config e.e_config config
  in
  let found =
    match memo.recent with
    | Some e as r when serves e -> r
    | _ -> List.find_opt serves memo.hot
  in
  match found with
  | Some e ->
    if Metrics.enabled () then Metrics.incr (Metrics.counter "engine.memo_hits");
    (match memo.hot with
    | h :: _ when h == e -> ()
    | hot ->
      if List.memq e hot then memo.hot <- e :: List.filter (( != ) e) hot);
    memo.recent <- found;
    e
  | None ->
    let e_unhandled, e_core = prepare memo net derived sched config in
    let e =
      {
        e_net = net;
        e_derived = derived;
        e_sched = sched;
        e_config = config;
        e_unhandled;
        e_core;
      }
    in
    let recurs =
      List.exists (fun (s, c) -> s == sched && same_config c config) memo.seen
    in
    memo.seen <- take keep ((sched, config) :: memo.seen);
    if recurs then memo.hot <- take keep (e :: memo.hot);
    memo.recent <- Some e;
    e

(* A monitor's budgets and callbacks are fresh per call, so a monitored
   run is never memoized; it only borrows a kept state of its network. *)
let run ?monitor net derived sched config =
  Trace.with_span "engine.run" (fun () ->
      let memo = Domain.DLS.get memo_key in
      let unhandled_events, core =
        match monitor with
        | Some _ -> prepare ?monitor memo net derived sched config
        | None ->
          let e = lookup memo net derived sched config in
          (e.e_unhandled, e.e_core)
      in
      match core with
      | Ticks (plan, sc, state) ->
        Trace.with_span "engine.exec.ticks" (fun () ->
            exec_ticks ?monitor derived config ~unhandled_events plan sc state)
      | Rational assigned ->
        Trace.with_span "engine.exec.rat" (fun () ->
            exec_rat ?monitor net derived sched config ~assigned
              ~unhandled_events))

let run_reference ?monitor net derived sched config =
  Trace.with_span "engine.run_reference" (fun () ->
      let assigned, unhandled_events = prologue net derived sched config in
      Trace.with_span "engine.exec.rat" (fun () ->
          exec_rat ?monitor net derived sched config ~assigned
            ~unhandled_events))

let run_sharded ?shards:_ net derived sched config = run net derived sched config

let signature r =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Lazy.force r.channel_history @ Lazy.force r.output_history)
