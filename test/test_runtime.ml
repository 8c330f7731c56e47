module Rat = Rt_util.Rat
module V = Fppn.Value
module Event = Fppn.Event
module Process = Fppn.Process
module Network = Fppn.Network
module Semantics = Fppn.Semantics
module Derive = Taskgraph.Derive
module List_scheduler = Sched.List_scheduler
module Engine = Runtime.Engine
module Exec_time = Runtime.Exec_time
module Exec_trace = Runtime.Exec_trace
module Platform = Runtime.Platform
module Uniproc_fp = Runtime.Uniproc_fp
module Graph = Taskgraph.Graph
module Prng = Rt_util.Prng
module Randgen = Fppn_apps.Randgen

let ms = Rat.of_int
let rat = Alcotest.testable Rat.pp Rat.equal

let eq_sig a b =
  List.equal
    (fun (n1, h1) (n2, h2) -> String.equal n1 n2 && List.equal V.equal h1 h2)
    a b

let schedule_for ?(n_procs = 2) d =
  match snd (List_scheduler.auto ~n_procs d.Derive.graph) with
  | Some a -> a.List_scheduler.schedule
  | None -> Alcotest.fail "no feasible schedule"

(* --- basic engine behaviour ------------------------------------------- *)

let fig1 () =
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  (net, d)

let test_engine_runs_frames () =
  let net, d = fig1 () in
  let sched = schedule_for d in
  let config = Engine.default_config ~frames:3 ~n_procs:2 () in
  let r = Engine.run net d sched config in
  (* 10 jobs per frame, 2 of which are CoefB server slots (skipped: no
     sporadic events were supplied) *)
  Alcotest.(check int) "executed jobs" (8 * 3) r.Engine.stats.Exec_trace.executed;
  Alcotest.(check int) "skipped server slots" (2 * 3) r.Engine.stats.Exec_trace.skipped;
  Alcotest.(check int) "no misses" 0 r.Engine.stats.Exec_trace.misses;
  Alcotest.(check int) "frames" 3 r.Engine.stats.Exec_trace.frames

let test_engine_respects_wcet_and_deadlines () =
  let net, d = fig1 () in
  let sched = schedule_for d in
  let config =
    { (Engine.default_config ~frames:2 ~n_procs:2 ()) with
      Engine.exec = Exec_time.uniform ~seed:3 ~min_fraction:0.2 }
  in
  let r = Engine.run net d sched config in
  Alcotest.(check int) "no misses with early completions" 0
    r.Engine.stats.Exec_trace.misses;
  (* every record's span fits within [start, start + C] *)
  List.iter
    (fun (rec_ : Exec_trace.record) ->
      if not rec_.Exec_trace.skipped then begin
        let j = Taskgraph.Graph.job d.Derive.graph rec_.Exec_trace.job in
        let dur = Rat.sub rec_.Exec_trace.finish rec_.Exec_trace.start in
        Alcotest.(check bool) "duration <= WCET" true
          Rat.(dur <= j.Taskgraph.Job.wcet)
      end)
    (Engine.trace r)

let test_engine_precedence_order () =
  let net, d = fig1 () in
  let g = d.Derive.graph in
  let sched = schedule_for d in
  let r = Engine.run net d sched (Engine.default_config ~frames:2 ~n_procs:2 ()) in
  (* for every task-graph edge, within each frame, the predecessor must
     finish before the successor starts *)
  let finish = Hashtbl.create 64 and start = Hashtbl.create 64 in
  List.iter
    (fun (rec_ : Exec_trace.record) ->
      Hashtbl.replace finish (rec_.Exec_trace.job, rec_.Exec_trace.frame)
        rec_.Exec_trace.finish;
      Hashtbl.replace start (rec_.Exec_trace.job, rec_.Exec_trace.frame)
        rec_.Exec_trace.start)
    (Engine.trace r);
  List.iter
    (fun (a, b) ->
      for f = 0 to 1 do
        match (Hashtbl.find_opt finish (a, f), Hashtbl.find_opt start (b, f)) with
        | Some ea, Some sb ->
          Alcotest.(check bool)
            (Printf.sprintf "edge (%d,%d) frame %d ordered" a b f)
            true
            Rat.(ea <= sb)
        | _ -> Alcotest.fail "missing records"
      done)
    (Taskgraph.Graph.edges g)

let test_engine_zero_wcet_complies () =
  (* a zero-WCET job executes as an empty interval at its start, possibly
     at the instant the next job on its processor starts; the engine must
     stay deterministic and its trace compliant *)
  let net = Fppn_apps.Fig1.network () in
  let frames = 2 in
  let inputs = Fppn_apps.Fig1.input_feed ~samples:64 in
  let zd =
    Semantics.signature
      (Semantics.run ~inputs net
         (Semantics.invocations ~sporadic:[]
            ~horizon:(Rat.mul (ms 200) (Rat.of_int frames))
            net))
  in
  let cases =
    ("every WCET zero", Derive.const_wcet Rat.zero)
    :: List.map
         (fun proc ->
           let name = Process.name proc in
           ( name ^ " zero",
             fun p -> if p = name then Rat.zero else Fppn_apps.Fig1.wcet p ))
         (Array.to_list (Network.processes net))
  in
  List.iter
    (fun (label, wcet) ->
      let d = Derive.derive_exn ~wcet net in
      List.iter
        (fun n_procs ->
          (* deadlines may be missed on M = 1; compliance may not fail *)
          let sched =
            List_scheduler.schedule_with ~heuristic:Sched.Priority.Alap_edf
              ~n_procs d.Derive.graph
          in
          let r =
            Engine.run net d sched
              { (Engine.default_config ~frames ~n_procs ()) with Engine.inputs }
          in
          let case = Printf.sprintf "%s, M=%d" label n_procs in
          Alcotest.(check bool) (case ^ ": deterministic") true
            (eq_sig zd (Engine.signature r));
          Alcotest.(check (list string)) (case ^ ": trace compliant") []
            (List.map
               (Format.asprintf "%a" Exec_trace.pp_violation)
               (Exec_trace.check d.Derive.graph (Engine.trace r))))
        [ 1; 2 ])
    cases

let test_engine_mutual_exclusion () =
  let net, d = fig1 () in
  let sched = schedule_for d in
  let r = Engine.run net d sched (Engine.default_config ~frames:2 ~n_procs:2 ()) in
  (* on each processor, executions never overlap *)
  let by_proc = Hashtbl.create 4 in
  List.iter
    (fun (rec_ : Exec_trace.record) ->
      if not rec_.Exec_trace.skipped then
        Hashtbl.replace by_proc rec_.Exec_trace.proc
          (rec_
          :: (try Hashtbl.find by_proc rec_.Exec_trace.proc with Not_found -> [])))
    (Engine.trace r);
  Hashtbl.iter
    (fun _ records ->
      let sorted =
        List.sort
          (fun (a : Exec_trace.record) b -> Rat.compare a.Exec_trace.start b.Exec_trace.start)
          records
      in
      let rec scan = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check bool) "no overlap" true
            Rat.(a.Exec_trace.finish <= b.Exec_trace.start);
          scan rest
        | [ _ ] | [] -> ()
      in
      scan sorted)
    by_proc

(* --- determinism under jitter and processor count (Prop. 2.1/4.1) ----- *)

let test_engine_matches_zero_delay () =
  let net, d = fig1 () in
  let frames = 3 in
  let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int frames) in
  let coefb = [ ms 50; ms 200 ] in
  let inputs = Fppn_apps.Fig1.input_feed ~samples:64 in
  let zd =
    Semantics.run ~inputs net
      (Semantics.invocations ~sporadic:[ ("CoefB", coefb) ] ~horizon net)
  in
  List.iter
    (fun (n_procs, seed) ->
      let sched = schedule_for ~n_procs d in
      let config =
        { (Engine.default_config ~frames ~n_procs ()) with
          Engine.sporadic = [ ("CoefB", coefb) ];
          inputs;
          exec = Exec_time.uniform ~seed ~min_fraction:0.3 }
      in
      let rt = Engine.run net d sched config in
      Alcotest.(check bool)
        (Printf.sprintf "signature equal on M=%d seed=%d" n_procs seed)
        true
        (eq_sig (Semantics.signature zd) (Engine.signature rt)))
    [ (2, 1); (2, 99); (3, 7); (4, 13) ]

(* --- sporadic boundary rule (Fig. 2) ----------------------------------- *)

(* Sporadic S configures periodic user U (100 ms); U emits (k, cfg)
   pairs.  A deadline at or below U's period gives S's server a
   fractional period (footnote 3). *)
let server_net ~sporadic_first ~burst ~min_period ~deadline =
  let b = Network.Builder.create "boundary" in
  Network.Builder.add_process b
    (Process.make ~name:"U"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native
          (fun ctx ->
            let cfg = ctx.Process.read "cfg" in
            ctx.Process.write "o" (V.Pair (V.Int ctx.Process.job_index, cfg)))));
  Network.Builder.add_process b
    (Process.make ~name:"S"
       ~event:(Event.sporadic ~burst ~min_period ~deadline ())
       (Process.Native
          (fun ctx -> ctx.Process.write "cfg" (V.Int (100 + ctx.Process.job_index)))));
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"S"
    ~reader:"U" "cfg";
  if sporadic_first then Network.Builder.add_priority b "S" "U"
  else Network.Builder.add_priority b "U" "S";
  Network.Builder.add_output b ~owner:"U" "o";
  Network.Builder.finish_exn b

let boundary_net ~sporadic_first =
  server_net ~sporadic_first ~burst:1 ~min_period:(ms 100) ~deadline:(ms 150)

let boundary_run ~sporadic_first =
  let net = boundary_net ~sporadic_first in
  let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 10)) net in
  let sched = schedule_for ~n_procs:1 d in
  let config =
    { (Engine.default_config ~frames:3 ~n_procs:1 ()) with
      Engine.sporadic = [ ("S", [ ms 100 ]) ] (* exactly on a boundary *) }
  in
  let rt = Engine.run net d sched config in
  (net, d, rt)

let test_boundary_closed_right () =
  (* S -> U: the event at t=100 joins the subset at b=100 and is seen by
     U's job at t=100 *)
  let _, _, rt = boundary_run ~sporadic_first:true in
  let o = List.assoc "o" (Engine.output_history rt) in
  Alcotest.(check (list (testable V.pp V.equal))) "handled at b=100"
    [
      V.Pair (V.Int 1, V.Absent);
      V.Pair (V.Int 2, V.Int 101);
      V.Pair (V.Int 3, V.Int 101);
    ]
    o;
  (* matches the zero-delay semantics of the same trace *)
  let net = boundary_net ~sporadic_first:true in
  let zd =
    Semantics.run net
      (Semantics.invocations ~sporadic:[ ("S", [ ms 100 ]) ] ~horizon:(ms 300) net)
  in
  Alcotest.(check bool) "zero-delay agrees" true
    (eq_sig (Semantics.signature zd) (Engine.signature rt))

let test_boundary_open_right () =
  (* U -> S: the event at t=100 is postponed to the subset at b=200, so
     U's job at t=100 still sees Absent, U at t=200 sees the config *)
  let _, _, rt = boundary_run ~sporadic_first:false in
  let o = List.assoc "o" (Engine.output_history rt) in
  Alcotest.(check (list (testable V.pp V.equal))) "postponed to b=200"
    [
      V.Pair (V.Int 1, V.Absent);
      V.Pair (V.Int 2, V.Absent);
      V.Pair (V.Int 3, V.Int 101);
    ]
    o;
  let net = boundary_net ~sporadic_first:false in
  let zd =
    Semantics.run net
      (Semantics.invocations ~sporadic:[ ("S", [ ms 100 ]) ] ~horizon:(ms 300) net)
  in
  Alcotest.(check bool) "zero-delay agrees" true
    (eq_sig (Semantics.signature zd) (Engine.signature rt))

let test_boundary_assignment_slots () =
  (* Fig. 2 at the window edge, checked at the slot-assignment level: an
     event exactly at b = frame·H is part of the (b-T', b] subset when
     the sporadic has priority over its user, and of the [b, b+T')
     subset — the NEXT frame's slot — otherwise. *)
  let check_case ~sporadic_first ~frames expect_frame =
    let net = boundary_net ~sporadic_first in
    let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 10)) net in
    let assigned, unhandled =
      Engine.sporadic_assignment net d ~frames [ ("S", [ ms 100 ]) ]
    in
    let sp = Network.find net "S" in
    let job = Taskgraph.Graph.find_job d.Derive.graph ~proc:sp ~k:1 in
    match expect_frame with
    | Some f ->
      Alcotest.(check (option rat))
        "stamp assigned to the expected frame's slot" (Some (ms 100))
        (Hashtbl.find_opt assigned (job, f));
      Alcotest.(check (list (pair string rat))) "nothing unhandled" [] unhandled
    | None ->
      Alcotest.(check int) "no slot assigned" 0 (Hashtbl.length assigned);
      Alcotest.(check (list (pair string rat))) "reported beyond horizon"
        [ ("S", ms 100) ]
        unhandled
  in
  (* closed-right: t=100 belongs to the frame-1 window (0,100] *)
  check_case ~sporadic_first:true ~frames:2 (Some 1);
  (* closed-left: t=100 belongs to [100,200), i.e. the frame-2 slot ... *)
  check_case ~sporadic_first:false ~frames:3 (Some 2);
  (* ... which with only 2 simulated frames lies beyond the horizon *)
  check_case ~sporadic_first:false ~frames:2 None

let test_unhandled_horizon_events () =
  let net = boundary_net ~sporadic_first:false in
  let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 10)) net in
  let sched = schedule_for ~n_procs:1 d in
  (* open-right windows: an event at 250 falls in [200,300) handled at
     b=300 = beyond the 3-frame horizon of 300 *)
  let config =
    { (Engine.default_config ~frames:3 ~n_procs:1 ()) with
      Engine.sporadic = [ ("S", [ ms 250 ]) ] }
  in
  let rt = Engine.run net d sched config in
  Alcotest.(check (list (pair string rat))) "event reported unhandled"
    [ ("S", ms 250) ]
    rt.Engine.unhandled_events

(* --- sporadic assignment vs the window-scan reference ------------------ *)

(* [Engine.sporadic_assignment] as it was before it became one pass per
   server: every (frame, slot) window rescans every stamp.  Kept
   verbatim as the differential reference. *)
let reference_assign_sporadic_events net (derived : Derive.t) ~frames ~hyperperiod traces =
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
      let in_window ~b stamp =
        let lo = Rat.sub b ts in
        if s.Derive.boundary_closed_right then Rat.(stamp > lo) && Rat.(stamp <= b)
        else Rat.(stamp >= lo) && Rat.(stamp < b)
      in
      let consumed = Hashtbl.create 16 in
      (* no real events: every slot of this server is 'false' and the
         whole window scan (frames · slots rational steps) is a no-op *)
      if stamps <> [] then
      for frame = 0 to frames - 1 do
        for slot = 1 to slots_per_frame do
          let rel = Rat.mul ts (Rat.of_int (slot - 1)) in
          let b = Rat.add (Rat.mul hyperperiod (Rat.of_int frame)) rel in
          (* positions within the subset, in stamp order *)
          let idx = ref 0 in
          List.iteri
            (fun i stamp ->
              if (not (Hashtbl.mem consumed i)) && in_window ~b stamp then begin
                incr idx;
                if !idx <= burst then begin
                  Hashtbl.replace consumed i ();
                  let k = ((slot - 1) * burst) + !idx in
                  let job_id = Graph.find_job g ~proc:p ~k in
                  Hashtbl.replace assigned (job_id, frame) stamp
                end
              end)
            stamps
        done
      done;
      List.iteri
        (fun i stamp ->
          if not (Hashtbl.mem consumed i) then
            unhandled := (name, stamp) :: !unhandled)
        stamps)
    derived.Derive.servers;
  (assigned, List.rev !unhandled)

(* The assignment as comparable data: the [Hashtbl.fold] order of the
   map, the unhandled list, or the text of the exception raised. *)
let assignment_outcome assign =
  match assign () with
  | assigned, unhandled ->
    Ok (Hashtbl.fold (fun key stamp acc -> (key, stamp) :: acc) assigned [], unhandled)
  | exception e -> Error (Printexc.to_string e)

(* Keep each ascending stamp that has fewer than m kept ones in its
   window (s - T, s]. *)
let thin_to_valid (ev : Event.t) stamps =
  List.rev
    (List.fold_left
       (fun kept s ->
         let lo = Rat.sub s ev.Event.period in
         if List.length (List.filter (fun x -> Rat.(x > lo)) kept) < ev.Event.burst
         then s :: kept
         else kept)
       [] stamps)

(* One trace over [horizon] for a server of period [ts]: random, on the
   window edges k·T_s (up to m copies each), on the edges nudged by
   1/3 ms either way, or an over-dense grid that mostly violates
   (m,T). *)
let stamps_for prng (ev : Event.t) ~ts ~horizon =
  let edges nudge =
    List.concat_map
      (fun k ->
        if Prng.int prng 3 = 0 then []
        else
          let s = Rat.add (Rat.mul ts (Rat.of_int k)) nudge in
          List.init (1 + Prng.int prng ev.Event.burst) (fun _ -> s))
      (List.init (Rat.ceil (Rat.div horizon ts) + 1) Fun.id)
    |> List.filter (fun s -> Rat.sign s >= 0 && Rat.(s < horizon))
    |> List.sort Rat.compare |> thin_to_valid ev
  in
  match Prng.int prng 4 with
  | 0 ->
    Event.random_sporadic_trace ev prng ~horizon
      ~density:(0.2 +. Prng.float prng 0.8)
  | 1 -> edges Rat.zero
  | 2 -> edges (Rat.make (Prng.int_in prng (-1) 1) 3)
  | _ ->
    let step = Rat.make (1 + Prng.int prng 30) (1 + Prng.int prng 2) in
    List.init
      (min 200 (Rat.ceil (Rat.div horizon step)))
      (fun k -> Rat.mul step (Rat.of_int k))

let fms_reduced =
  lazy
    (let net = Fppn_apps.Fms.reduced () in
     (net, Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet net))

let automotive =
  lazy
    (let net = Fppn_apps.Automotive.network () in
     (net, Derive.derive_exn ~wcet:Fppn_apps.Automotive.wcet net))

(* A network, its derivation, a frame count and traces over frames + 1
   hyperperiods, so that some stamps fall past the last window. *)
let assignment_case ~family ~seed ~frames =
  let prng = Prng.create seed in
  let drawn_traces net (d : Derive.t) =
    let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int (frames + 1)) in
    List.filter_map
      (fun (s : Derive.server_info) ->
        let proc = Network.process net s.Derive.sporadic in
        if Prng.int prng 8 = 0 then None
        else
          Some
            ( Process.name proc,
              stamps_for prng (Process.event proc) ~ts:s.Derive.server_period
                ~horizon ))
      d.Derive.servers
  in
  match family with
  | 0 | 1 | 2 | 3 | 4 | 5 ->
    (* Randgen, 1-3 sporadics of burst 1-3, either boundary rule *)
    let spec =
      Randgen.spec_of_params
        {
          Randgen.seed;
          n_periodic = 1 + Prng.int prng 4;
          n_sporadic = 1 + Prng.int prng 3;
          periods = [ 50; 100; 200 ];
          channel_density = 0.3;
          max_burst = 1 + Prng.int prng 3;
        }
    in
    let flipped =
      {
        spec with
        Randgen.sporadics =
          List.map
            (fun sp -> { sp with Randgen.sp_higher = Prng.bool prng })
            spec.Randgen.sporadics;
      }
    in
    let net =
      match Randgen.build flipped with
      | Ok net -> net
      | Error _ -> Randgen.build_exn spec
    in
    let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 1)) net in
    (net, d, frames, drawn_traces net d)
  | 6 | 7 ->
    let net =
      server_net ~sporadic_first:(Prng.bool prng)
        ~burst:(Prng.int_in prng 1 3)
        ~min_period:(ms (100 * Prng.int_in prng 1 3))
        ~deadline:(ms (List.nth [ 30; 40; 70; 100; 150 ] (Prng.int prng 5)))
    in
    let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 1)) net in
    (net, d, frames, drawn_traces net d)
  | 8 ->
    let net, d = Lazy.force fms_reduced in
    let frames = 1 + (frames mod 3) in
    let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int (frames + 1)) in
    ( net,
      d,
      frames,
      Fppn_apps.Fms.random_config_traces ~seed ~horizon
        ~density:(0.2 +. Prng.float prng 0.8) net )
  | _ ->
    let net, d = Lazy.force automotive in
    let frames = frames * 2 in
    let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int (frames + 1)) in
    (net, d, frames, Fppn_apps.Automotive.knock_burst ~horizon)

let prop_assignment_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400
       ~name:"one-pass sporadic assignment = window-scan reference"
       ~print:(fun (family, seed, frames) ->
         Printf.sprintf "family %d, seed %d, frames %d" family seed frames)
       QCheck2.Gen.(triple (int_range 0 9) (int_range 0 100_000) (int_range 1 12))
       (fun (family, seed, frames) ->
         let net, d, frames, traces = assignment_case ~family ~seed ~frames in
         assignment_outcome (fun () -> Engine.sporadic_assignment net d ~frames traces)
         = assignment_outcome (fun () ->
               reference_assign_sporadic_events net d ~frames
                 ~hyperperiod:d.Derive.hyperperiod traces)))

(* --- overhead model ----------------------------------------------------- *)

let test_frame_overhead_delays_start () =
  let net, d = fig1 () in
  let sched = schedule_for d in
  let overhead =
    { Platform.first_frame = ms 41; steady_frame = ms 20; per_access = Rat.zero }
  in
  let config =
    { (Engine.default_config ~frames:2 ~n_procs:2 ()) with
      Engine.platform = Platform.create ~overhead ~n_procs:2 () }
  in
  let r = Engine.run net d sched config in
  List.iter
    (fun (rec_ : Exec_trace.record) ->
      if not rec_.Exec_trace.skipped then begin
        let bound = if rec_.Exec_trace.frame = 0 then ms 41 else ms 220 in
        Alcotest.(check bool) "start delayed past the frame overhead" true
          Rat.(rec_.Exec_trace.start >= bound)
      end)
    (Engine.trace r);
  Alcotest.(check int) "overhead segments reported" 2
    (List.length (Engine.overhead_segments r))

let test_per_access_overhead_inflates_duration () =
  let net, d = fig1 () in
  let sched = schedule_for d in
  let base = Engine.run net d sched (Engine.default_config ~frames:1 ~n_procs:2 ()) in
  let overhead =
    { Platform.first_frame = Rat.zero; steady_frame = Rat.zero; per_access = ms 1 }
  in
  let config =
    { (Engine.default_config ~frames:1 ~n_procs:2 ()) with
      Engine.platform = Platform.create ~overhead ~n_procs:2 () }
  in
  let inflated = Engine.run net d sched config in
  let dur r =
    List.fold_left
      (fun acc (rec_ : Exec_trace.record) ->
        Rat.add acc (Rat.sub rec_.Exec_trace.finish rec_.Exec_trace.start))
      Rat.zero (Engine.trace r)
  in
  Alcotest.(check bool) "total busy time grows with per-access cost" true
    Rat.(dur inflated > dur base)

(* --- uniprocessor fixed-priority baseline ------------------------------- *)

let test_uniproc_rm_equivalence_fms () =
  (* Sec. V-B: FMS under FPPN semantics is functionally equivalent to
     the rate-monotonic uniprocessor prototype *)
  let net = Fppn_apps.Fms.reduced () in
  let horizon = ms 2000 in
  let sporadic =
    [ ("BCPConfig", [ ms 70; ms 430 ]); ("PerformanceConfig", [ ms 120 ]) ]
  in
  let zd =
    Semantics.run net (Semantics.invocations ~sporadic ~horizon net)
  in
  let cfg =
    { (Uniproc_fp.default_config ~wcet:Fppn_apps.Fms.wcet ~horizon) with
      Uniproc_fp.sporadic }
  in
  let up = Uniproc_fp.run net cfg in
  Alcotest.(check int) "no misses at load 0.23" 0 up.Uniproc_fp.misses;
  Alcotest.(check bool) "uniproc RM functionally equivalent to zero-delay"
    true
    (eq_sig (Semantics.signature zd) (Uniproc_fp.signature up))

let test_uniproc_preemption_counted () =
  (* a long low-priority job is preempted by a short high-priority one *)
  let b = Network.Builder.create "preempt" in
  Network.Builder.add_process b
    (Process.make ~name:"Long"
       ~event:(Event.periodic ~period:(ms 1000) ~deadline:(ms 1000) ())
       (Process.Native (fun _ -> ())));
  Network.Builder.add_process b
    (Process.make ~name:"Short"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native (fun _ -> ())));
  let net = Network.Builder.finish_exn b in
  let wcet = Derive.wcet_of_list (ms 10) [ ("Long", ms 250); ("Short", ms 10) ] in
  let cfg = Uniproc_fp.default_config ~wcet ~horizon:(ms 1000) in
  let up = Uniproc_fp.run net cfg in
  let long_rec =
    List.find (fun r -> r.Uniproc_fp.process = "Long") up.Uniproc_fp.records
  in
  Alcotest.(check bool) "Long was preempted" true
    (long_rec.Uniproc_fp.preemptions >= 2);
  (* RM: Short (smaller period) always runs first at common releases *)
  let short_first =
    List.find (fun r -> r.Uniproc_fp.process = "Short") up.Uniproc_fp.records
  in
  Alcotest.check rat "Short starts at 0" (ms 0) short_first.Uniproc_fp.started

let () =
  Alcotest.run "runtime"
    [
      ( "engine",
        [
          Alcotest.test_case "frames" `Quick test_engine_runs_frames;
          Alcotest.test_case "wcet and deadlines" `Quick
            test_engine_respects_wcet_and_deadlines;
          Alcotest.test_case "precedence order" `Quick test_engine_precedence_order;
          Alcotest.test_case "mutual exclusion" `Quick test_engine_mutual_exclusion;
          Alcotest.test_case "zero WCET" `Quick test_engine_zero_wcet_complies;
        ] );
      ( "determinism",
        [ Alcotest.test_case "matches zero-delay" `Quick test_engine_matches_zero_delay ] );
      ( "sporadic",
        [
          Alcotest.test_case "boundary closed-right" `Quick test_boundary_closed_right;
          Alcotest.test_case "boundary open-right" `Quick test_boundary_open_right;
          Alcotest.test_case "boundary slot assignment" `Quick
            test_boundary_assignment_slots;
          Alcotest.test_case "unhandled horizon events" `Quick
            test_unhandled_horizon_events;
          prop_assignment_matches_reference;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "frame overhead" `Quick test_frame_overhead_delays_start;
          Alcotest.test_case "per-access overhead" `Quick
            test_per_access_overhead_inflates_duration;
        ] );
      ( "uniproc",
        [
          Alcotest.test_case "FMS RM equivalence" `Quick test_uniproc_rm_equivalence_fms;
          Alcotest.test_case "preemption" `Quick test_uniproc_preemption_counted;
        ] );
    ]
