module Rat = Rt_util.Rat
module V = Fppn.Value
module Event = Fppn.Event
module Process = Fppn.Process
module Network = Fppn.Network
module Semantics = Fppn.Semantics
module Trace = Fppn.Trace

let ms = Rat.of_int
let value = Alcotest.testable V.pp V.equal

(* Writer/reader pair over one channel; the reader copies to an output.
   Priority direction is a parameter so both orders can be tested. *)
let wr_pair ?(kind = Fppn.Channel.Blackboard) ~writer_first () =
  let b = Network.Builder.create "wr" in
  let add name body =
    Network.Builder.add_process b
      (Process.make ~name
         ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
         (Process.Native body))
  in
  add "W" (fun ctx -> ctx.Process.write "c" (V.Int ctx.Process.job_index));
  add "R" (fun ctx -> ctx.Process.write "o" (ctx.Process.read "c"));
  Network.Builder.add_channel b ~kind ~writer:"W" ~reader:"R" "c";
  if writer_first then Network.Builder.add_priority b "W" "R"
  else Network.Builder.add_priority b "R" "W";
  Network.Builder.add_output b ~owner:"R" "o";
  Network.Builder.finish_exn b

let run_horizon ?sporadic ?inputs net h =
  Semantics.run ?inputs net (Semantics.invocations ?sporadic ~horizon:(ms h) net)

let output res name = List.assoc name res.Semantics.output_history

let test_priority_orders_simultaneous_jobs () =
  (* W -> R: R sees the fresh value written in the same instant *)
  let res = run_horizon (wr_pair ~writer_first:true ()) 300 in
  Alcotest.(check (list value)) "reader after writer"
    [ V.Int 1; V.Int 2; V.Int 3 ] (output res "o");
  (* R -> W: R reads before W writes, so it lags one period *)
  let res' = run_horizon (wr_pair ~writer_first:false ()) 300 in
  Alcotest.(check (list value)) "reader before writer"
    [ V.Absent; V.Int 1; V.Int 2 ] (output res' "o")

let test_fifo_vs_blackboard_rates () =
  (* writer at 100 ms, reader at 200 ms: FIFO backlog vs blackboard last *)
  let make kind =
    let b = Network.Builder.create "rates" in
    Network.Builder.add_process b
      (Process.make ~name:"W"
         ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
         (Process.Native
            (fun ctx -> ctx.Process.write "c" (V.Int ctx.Process.job_index))));
    Network.Builder.add_process b
      (Process.make ~name:"R"
         ~event:(Event.periodic ~period:(ms 200) ~deadline:(ms 200) ())
         (Process.Native (fun ctx -> ctx.Process.write "o" (ctx.Process.read "c"))));
    Network.Builder.add_channel b ~kind ~writer:"W" ~reader:"R" "c";
    Network.Builder.add_priority b "W" "R";
    Network.Builder.add_output b ~owner:"R" "o";
    Network.Builder.finish_exn b
  in
  let fifo = run_horizon (make Fppn.Channel.Fifo) 600 in
  (* at t=0 W wrote 1; at t=200 reader pops head of backlog {2,3}; etc. *)
  Alcotest.(check (list value)) "fifo reads in order with backlog"
    [ V.Int 1; V.Int 2; V.Int 3 ] (output fifo "o");
  let bb = run_horizon (make Fppn.Channel.Blackboard) 600 in
  Alcotest.(check (list value)) "blackboard reads last value"
    [ V.Int 1; V.Int 3; V.Int 5 ] (output bb "o")

let test_trace_structure () =
  let res = run_horizon (wr_pair ~writer_first:true ()) 200 in
  let waits =
    List.filter_map
      (function Trace.Wait t -> Some t | _ -> None)
      res.Semantics.trace
  in
  Alcotest.(check (list (testable Rat.pp Rat.equal))) "wait stamps"
    [ ms 0; ms 100 ] waits;
  (* within each instant: W's job run completes before R's starts *)
  let rec check_order = function
    | Trace.Job_end { process = "W"; k } :: rest ->
      let rec find_r = function
        | Trace.Job_start { process = "R"; k = k' } :: _ ->
          Alcotest.(check int) "same instance index" k k'
        | _ :: tl -> find_r tl
        | [] -> Alcotest.fail "reader job missing"
      in
      find_r rest;
      check_order rest
    | _ :: rest -> check_order rest
    | [] -> ()
  in
  check_order res.Semantics.trace;
  Alcotest.(check int) "job count W" 2 (Trace.job_count res.Semantics.trace "W");
  Alcotest.(check (list value)) "writes_to extracts channel writes"
    [ V.Int 1; V.Int 2 ]
    (Trace.writes_to res.Semantics.trace "c")

let test_burst_execution () =
  let b = Network.Builder.create "burst" in
  Network.Builder.add_process b
    (Process.make ~name:"B2"
       ~event:(Event.periodic ~burst:2 ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native (fun ctx -> ctx.Process.write "o" (V.Int ctx.Process.job_index))));
  Network.Builder.add_output b ~owner:"B2" "o";
  let net = Network.Builder.finish_exn b in
  let res = run_horizon net 200 in
  Alcotest.(check (list value)) "burst jobs run consecutively with distinct k"
    [ V.Int 1; V.Int 2; V.Int 3; V.Int 4 ] (output res "o")

let test_sporadic_invocations () =
  let b = Network.Builder.create "sp" in
  Network.Builder.add_process b
    (Process.make ~name:"P"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native (fun _ -> ())));
  Network.Builder.add_process b
    (Process.make ~name:"S"
       ~event:(Event.sporadic ~min_period:(ms 50) ~deadline:(ms 100) ())
       (Process.Native (fun ctx -> ctx.Process.write "o" (V.Int ctx.Process.job_index))));
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"S" ~reader:"P" "cfg";
  Network.Builder.add_priority b "S" "P";
  Network.Builder.add_output b ~owner:"S" "o";
  let net = Network.Builder.finish_exn b in
  let res = run_horizon ~sporadic:[ ("S", [ ms 10; ms 130 ]) ] net 200 in
  Alcotest.(check (list value)) "sporadic executed at its stamps"
    [ V.Int 1; V.Int 2 ] (output res "o");
  Alcotest.(check (list (pair string int))) "job counts"
    [ ("P", 2); ("S", 2) ]
    res.Semantics.job_counts

let test_sporadic_validation () =
  let net = wr_pair ~writer_first:true () in
  Alcotest.(check bool) "unknown process rejected" true
    (try
       ignore (Semantics.invocations ~sporadic:[ ("X", []) ] ~horizon:(ms 100) net);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "periodic process rejected in sporadic list" true
    (try
       ignore (Semantics.invocations ~sporadic:[ ("W", []) ] ~horizon:(ms 100) net);
       false
     with Invalid_argument _ -> true)

let test_determinism_repeated_runs () =
  let net = Fppn_apps.Fig1.network () in
  let inputs = Fppn_apps.Fig1.input_feed ~samples:16 in
  let sporadic = [ ("CoefB", [ ms 50; ms 200 ]) ] in
  let run () =
    Semantics.run ~inputs net
      (Semantics.invocations ~sporadic ~horizon:(ms 800) net)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical signatures on repeated runs" true
    (Semantics.equal_signature (Semantics.signature a) (Semantics.signature b));
  (* the signature covers both internal channels and outputs *)
  Alcotest.(check bool) "signature non-trivial" true
    (List.length (Semantics.signature a) >= 9)

let test_inputs_feed () =
  let feed = Semantics.feed_of_list [ ("in", [ V.Int 10; V.Int 20 ]) ] in
  Alcotest.check value "sample 1" (V.Int 10) (feed "in" 1);
  Alcotest.check value "sample 2" (V.Int 20) (feed "in" 2);
  Alcotest.check value "exhausted" V.Absent (feed "in" 3);
  Alcotest.check value "unknown channel" V.Absent (feed "zzz" 1);
  Alcotest.check value "no_inputs" V.Absent (Semantics.no_inputs "in" 1)

let () =
  Alcotest.run "semantics"
    [
      ( "zero-delay",
        [
          Alcotest.test_case "priority orders simultaneous jobs" `Quick
            test_priority_orders_simultaneous_jobs;
          Alcotest.test_case "fifo vs blackboard" `Quick test_fifo_vs_blackboard_rates;
          Alcotest.test_case "trace structure" `Quick test_trace_structure;
          Alcotest.test_case "burst execution" `Quick test_burst_execution;
        ] );
      ( "sporadic",
        [
          Alcotest.test_case "invocations" `Quick test_sporadic_invocations;
          Alcotest.test_case "validation" `Quick test_sporadic_validation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "repeated runs" `Quick test_determinism_repeated_runs;
          Alcotest.test_case "input feeds" `Quick test_inputs_feed;
        ] );
    ]
