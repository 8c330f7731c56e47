(* ------------------------------------------------------------------ *)
(* Tick core set-up: everything [Exec_ticks] runs on and hands back.    *)
(*                                                                      *)
(* [compile] maps every model time of a run onto the common-denominator *)
(* tick grid of a [Timebase], or refuses the run with the reason no     *)
(* grid holds it, and [place] puts a run's sporadic stamps on the grid; *)
(* [make_scratch] builds the working arrays whose shape depends         *)
(* only on the derived graph and the schedule; the packed record        *)
(* buffers hold job records as columns of ticks, and [packed_result]    *)
(* turns them into a result whose trace materializes rationals only     *)
(* when forced.                                                         *)
(* ------------------------------------------------------------------ *)

open Prologue
module Timebase = Rt_util.Timebase
module Iheap = Rt_util.Iheap
module Metrics = Fppn_obs.Metrics

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
  dur_t : int array option;
      (* per job: fixed duration ticks; [None] = draw per execution *)
  lo_t : int array;  (* per job: C_LO ticks if HI, else -1; [||] unmonitored *)
}

type tick_proc = {
  t_order : int array;
  mutable t_frame : int;
  mutable t_pos : int;
  mutable t_busy : bool;
  (* the record-in-progress while busy, final since start time; its
     deadline is [t_invoked + dl_rel_t.(t_job)] *)
  mutable t_job : int;
  mutable t_invoked : int;
  mutable t_start : int;
  mutable t_finish : int;
  mutable t_missing : int;  (* wake-list registrations outstanding *)
}

(* a refusal of [compile]: the reason no grid holds the run *)
let refuse fmt = Format.kasprintf invalid_arg ("Engine.run: " ^^ fmt)

(* Compile the run's model times and [stamps] onto a tick grid, or
   refuse the run, before any job body runs, with the reason no grid
   holds it: a negative C_LO, a uniform model over a WCET whose
   denominator exceeds max_int/1000 ([Exec_time.durations]), or times
   whose common denominator, or whose ticks up to [frames·H], exceed
   [Timebase]'s 2^55 cap.  The grid holds no stamp: [place] puts a
   run's stamps on it. *)
let compile ?monitor net (derived : Derive.t) sched config ~stamps =
  let g = derived.Derive.graph in
  let n = Graph.n_jobs g in
  let jobs = Graph.jobs g in
  let budgets =
    match monitor with
    | None -> [||]
    | Some m ->
      Array.map (fun j -> if m.is_hi j then Some (m.budget_lo j) else None) jobs
  in
  Array.iteri
    (fun i -> function
      | Some c when Rat.sign c < 0 ->
        refuse "the C_LO budget %a of %s is negative" Rat.pp c
          (Job.label jobs.(i))
      | _ -> ())
    budgets;
  let durs = Exec_time.durations config.exec ~jobs in
  let ov = config.platform.Platform.overhead in
  let times =
    derived.Derive.hyperperiod :: ov.Platform.first_frame
    :: ov.Platform.steady_frame :: ov.Platform.per_access
    :: stamps
    @ (match durs with
      | Exec_time.Fixed a -> Array.to_list a
      | Exec_time.Extras l -> l)
    @ List.filter_map Fun.id (Array.to_list budgets)
    @ Array.to_list (Array.map (fun j -> j.Job.wcet) jobs)
    @ Array.to_list (Array.map (fun j -> j.Job.arrival) jobs)
    @ List.init (Network.n_processes net) (fun p ->
          Process.deadline (Network.process net p))
  in
  let tb =
    match Timebase.create times with
    | Some tb -> tb
    | None ->
      refuse "no tick grid holds the run's times: their common denominator \
              exceeds 2^55"
  in
  let tk r =
    try Timebase.ticks tb r
    with Rat.Overflow ->
      refuse "no tick grid holds the time %a: it exceeds 2^55 ticks of 1/%d"
        Rat.pp r (Timebase.den tb)
  in
  let h = derived.Derive.hyperperiod in
  (match Timebase.ticks tb (Rat.mul h (Rat.of_int config.frames)) with
  | _ -> ()
  | exception Rat.Overflow ->
    refuse "no tick grid holds the run: %d frames of the hyperperiod %a \
            exceed 2^55 ticks of 1/%d"
      config.frames Rat.pp h (Timebase.den tb));
  {
    tb;
    h_t = tk h;
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
    dur_t =
      (match durs with
      | Exec_time.Fixed a -> Some (Array.map tk a)
      | Exec_time.Extras _ -> None);
    lo_t = Array.map (Option.fold ~none:(-1) ~some:tk) budgets;
  }

(* The window assignment's stamps on [plan]'s grid, as ticks at
   [frame·n + job], absent = [min_int]; [||] when there are none.
   @raise Timebase.Inexact or Rat.Overflow on a stamp off the grid *)
let place plan ~n ~frames assigned =
  if Hashtbl.length assigned = 0 then [||]
  else begin
    let a = Array.make (n * frames) min_int in
    Hashtbl.iter
      (fun (j, f) s ->
        if f < frames then a.((f * n) + j) <- Timebase.ticks plan.tb s)
      assigned;
    a
  end

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

(* the [len] records from [off] in a fresh buffer of [cap] (default
   [len]); [off] is not optional, as a call from another module would
   box it *)
let copy_recs ?cap r ~off len =
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
   start ([Exec_ticks]' [push_rec]), or a slice of one, so starts ascend
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

(* Engine scratch: every working array of [Exec_ticks.run] whose shape
   depends only on the derived graph and the schedule.  A session owns
   one, so reruns pay a handful of [Array.fill]s instead of rebuilding
   the dependence segments and reallocating a dozen arrays. *)
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
  (* the replay program, built by the first run that replays ([||]
     until then): the template frame's executed bodies ([sc_r_proc])
     and, for each replayed frame [f], its distinct invocation instants
     ([sc_u_rat.(f)], indexed by [sc_r_uidx]).  The session that owns
     the scratch fixes schedule, configuration and frame count, and
     only its stamp-free runs replay, so they share one template: every
     later run replays the same program and the steady-frame loop
     allocates nothing at all — test_tick and test_costs hold it to
     that. *)
  mutable sc_r_proc : int array;
  mutable sc_r_uidx : int array;
  mutable sc_u_rat : Rat.t array array;
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
    sc_r_proc = [||];
    sc_r_uidx = [||];
    sc_u_rat = [||];
  }

(* the scratch as [make_scratch] left it, with records for at least
   [cap0] jobs; the replay program stays *)
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
      ps.t_missing <- 0)
    sc.sc_procs;
  (* skip flags are only ever set, never cleared, on the hot path *)
  Bytes.fill sc.sc_recs.r_skip 0 (Bytes.length sc.sc_recs.r_skip) '\000'
