(* ------------------------------------------------------------------ *)
(* Compiled core: integer tick timeline, wake-list scheduling.          *)
(*                                                                      *)
(* [Tick_setup] maps every model time onto the common-denominator tick  *)
(* grid of a [Timebase]; the event loop then runs on machine integers,  *)
(* and a completion re-examines only the processors registered on the  *)
(* completed job's wake list instead of polling all of them.  The       *)
(* transition order of the reference fixpoint (ascending processor      *)
(* index per sweep, sweeps repeated until quiescent) is replicated      *)
(* exactly, so execution-time PRNG draws, channel operations and trace  *)
(* records are bit-identical to [Exec_rat]'s.                           *)
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
(*                                                                      *)
(* Every per-job helper lives here, so the hot path makes no call into  *)
(* another module of the engine.                                        *)
(* ------------------------------------------------------------------ *)

open Prologue
open Tick_setup
module Trace = Fppn_obs.Trace

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

(* Build the replay program into [sc] from the template frame's [n]
   records at [off] of [tpl]: the bodies the template executed, in call
   order, and the distinct invocation instants of each of the [k_frames]
   frames after it, as rationals.  A frame has at most a handful of
   distinct instants, so each is converted once per frame, and all of
   them here, once per memo entry. *)
let build_replay plan sc tpl ~off ~n ~k_frames =
  let r_proc = Array.make n 0 and r_uidx = Array.make n 0 in
  let u_tick = Array.make n 0 in
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
        u_tick.(!n_u) <- inv;
        incr n_u
      end;
      r_proc.(!k) <- plan.body_proc.(tpl.r_job.(i));
      r_uidx.(!k) <- !j;
      incr k
    end
  done;
  sc.sc_r_proc <- Array.sub r_proc 0 !k;
  sc.sc_r_uidx <- Array.sub r_uidx 0 !k;
  sc.sc_u_rat <-
    Array.init k_frames (fun f ->
        let shift = (f + 1) * plan.h_t in
        Array.init !n_u (fun j ->
            Timebase.of_ticks plan.tb (u_tick.(j) + shift)))

(* The tick core, on [sc] and [state], which it resets first.  It
   appends every record at job start, which is the order the bodies run
   in.  With [monitor], [plan] must be compiled with it. *)
let run ?monitor (derived : Derive.t) config ~unhandled_events plan sc state =
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
      recs := copy_recs !recs ~off:0 i ~cap:(n * frames);
      sc.sc_recs <- !recs
    end;
    let r = !recs in
    r.r_job.(i) <- job;
    r.r_frame.(i) <- frame;
    r.r_invoked.(i) <- invoked;
    r.r_start.(i) <- start;
    r.r_finish.(i) <- finish;
    if skipped then Bytes.set r.r_skip i '\001';
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
     changed — mirrors [Exec_rat]'s [advance] transition for transition *)
  let try_advance p ps =
    if ps.t_busy then
      if ps.t_finish <= !now then begin
        let job = ps.t_job in
        completions.(job) <- completions.(job) + 1;
        if tracing && ps.t_finish > ps.t_invoked + plan.dl_rel_t.(job) then
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
            (* monitor: wake up at the C_LO expiry if the job overruns *)
            if monitored && plan.lo_t.(job) >= 0 && !now + plan.lo_t.(job) < finish
            then push_event (!now + plan.lo_t.(job)) p;
            ps.t_busy <- true;
            ps.t_job <- job;
            ps.t_invoked <- stamp;
            ps.t_start <- !now;
            ps.t_finish <- finish;
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
    (* a replay has at least one frame after the template *)
    if Array.length sc.sc_u_rat = 0 then
      build_replay plan sc !recs ~off:(tpl_frame * n) ~n
        ~k_frames:(frames - 1 - tpl_frame);
    for f = 0 to Array.length sc.sc_u_rat - 1 do
      Netstate.run_jobs_fast state ~procs:sc.sc_r_proc ~now_idx:sc.sc_r_uidx
        ~nows:sc.sc_u_rat.(f) ~count:(Array.length sc.sc_r_proc)
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
           Some (tpl_frame, copy_recs !recs ~off:(tpl_frame * n) n)
         else None)
      (copy_recs !recs ~off:0 !s_n)
  in
  if Metrics.enabled () then begin
    Metrics.add (Metrics.counter "engine.queue_pushes") !q_pushes;
    if !replayed then Metrics.incr (Metrics.counter "engine.replays")
  end;
  result
