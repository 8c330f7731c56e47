(* Quickstart: build a tiny FPPN from scratch, run it under the
   zero-delay reference semantics, derive its task graph, compute a
   static schedule and execute it on a simulated two-core platform.

   Run with:  dune exec examples/quickstart.exe *)

module Rat = Rt_util.Rat
module V = Fppn.Value
module Event = Fppn.Event
module Process = Fppn.Process
module Network = Fppn.Network

let ms = Rat.of_int

(* 1. Describe the application: a 100 ms producer streams samples to a
   200 ms consumer over a FIFO; a sporadic "gain" process (at most one
   event per 300 ms, deadline 600 ms) reconfigures the consumer through
   a blackboard. *)

let producer_body (ctx : Process.job_ctx) =
  (* each job emits its invocation index as the sample *)
  ctx.Process.write "samples" (V.Int ctx.Process.job_index)

let consumer_body (ctx : Process.job_ctx) =
  let gain =
    match ctx.Process.read "gain" with V.Absent -> 1 | v -> V.to_int v
  in
  (* drain both samples produced since the previous 200 ms job *)
  let consume () =
    match ctx.Process.read "samples" with
    | V.Absent -> ()
    | v -> ctx.Process.write "out" (V.Int (gain * V.to_int v))
  in
  consume ();
  consume ()

let gain_body (ctx : Process.job_ctx) =
  ctx.Process.write "gain" (V.Int (10 * ctx.Process.job_index))

let network () =
  let b = Network.Builder.create "quickstart" in
  Network.Builder.add_process b
    (Process.make ~name:"Producer"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native producer_body));
  Network.Builder.add_process b
    (Process.make ~name:"Consumer"
       ~event:(Event.periodic ~period:(ms 200) ~deadline:(ms 200) ())
       (Process.Native consumer_body));
  Network.Builder.add_process b
    (Process.make ~name:"Gain"
       ~event:(Event.sporadic ~min_period:(ms 300) ~deadline:(ms 600) ())
       (Process.Native gain_body));
  Network.Builder.add_channel b ~kind:Fppn.Channel.Fifo ~writer:"Producer"
    ~reader:"Consumer" "samples";
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"Gain"
    ~reader:"Consumer" "gain";
  (* functional priorities: Def. 2.1 requires a direct priority between
     any two processes sharing a channel *)
  Network.Builder.add_priority b "Producer" "Consumer";
  Network.Builder.add_priority b "Gain" "Consumer";
  Network.Builder.add_output b ~owner:"Consumer" "out";
  Network.Builder.finish_exn b

let () =
  let net = network () in
  let horizon = ms 800 in
  let sporadic = [ ("Gain", [ ms 150; ms 450 ]) ] in

  (* 2. Reference run: the deterministic zero-delay semantics *)
  print_endline "== zero-delay reference run ==";
  let inv = Fppn.Semantics.invocations ~sporadic ~horizon net in
  let zd = Fppn.Semantics.run net inv in
  List.iter
    (fun (channel, history) ->
      Printf.printf "  output %s: %s\n" channel
        (String.concat ", " (List.map V.to_string history)))
    zd.Fppn.Semantics.output_history;

  (* 3. Compile: task graph over one hyperperiod + static schedule *)
  print_endline "\n== task graph and static schedule (M=2) ==";
  let wcet = Taskgraph.Derive.wcet_of_list (ms 10) [ ("Consumer", ms 30) ] in
  let d = Taskgraph.Derive.derive_exn ~wcet net in
  let g = d.Taskgraph.Derive.graph in
  Printf.printf "  hyperperiod %s ms, %d jobs, %d edges, load %.3f\n"
    (Rat.to_string d.Taskgraph.Derive.hyperperiod)
    (Taskgraph.Graph.n_jobs g) (Taskgraph.Graph.n_edges g)
    (Rat.to_float (Taskgraph.Analysis.load g).Taskgraph.Analysis.value);
  let attempts, best = Sched.List_scheduler.auto ~n_procs:2 g in
  ignore attempts;
  let sched =
    match best with
    | Some a -> a.Sched.List_scheduler.schedule
    | None -> failwith "no feasible schedule"
  in
  Rt_util.Gantt.print ~width:60
    (Sched.Static_schedule.to_gantt_rows g sched);

  (* 4. Execute online: static-order policy, jittered execution times *)
  print_endline "== simulated execution (4 frames, jittered) ==";
  let config =
    { (Runtime.Engine.default_config ~frames:4 ~n_procs:2 ()) with
      Runtime.Engine.sporadic;
      exec = Runtime.Exec_time.uniform ~seed:42 ~min_fraction:0.5 }
  in
  let rt = Runtime.Engine.run net d sched config in
  Format.printf "  %a@." Runtime.Exec_trace.pp_stats rt.Runtime.Engine.stats;

  (* 5. Determinism check (Prop. 2.1): the runtime wrote exactly the
     same values as the reference *)
  let eq =
    Fppn.Semantics.equal_signature (Fppn.Semantics.signature zd)
      (Runtime.Engine.signature rt)
  in
  Printf.printf "  deterministic (runtime history = reference history): %b\n" eq
