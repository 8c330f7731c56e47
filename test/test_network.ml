module Rat = Rt_util.Rat
module V = Fppn.Value
module Event = Fppn.Event
module Process = Fppn.Process
module Network = Fppn.Network

let ms = Rat.of_int
let rat = Alcotest.testable Rat.pp Rat.equal
let nop _ = ()

let periodic ?(burst = 1) name period =
  Process.make ~name
    ~event:(Event.periodic ~burst ~period:(ms period) ~deadline:(ms period) ())
    (Process.Native nop)

let sporadic ?(burst = 1) ?deadline name period =
  let deadline = match deadline with Some d -> ms d | None -> ms (2 * period) in
  Process.make ~name
    ~event:(Event.sporadic ~burst ~min_period:(ms period) ~deadline ())
    (Process.Native nop)

(* two periodic processes with one channel and one priority edge *)
let tiny () =
  let b = Network.Builder.create "tiny" in
  Network.Builder.add_process b (periodic "A" 100);
  Network.Builder.add_process b (periodic "B" 200);
  Network.Builder.add_channel b ~kind:Fppn.Channel.Fifo ~writer:"A" ~reader:"B" "c";
  Network.Builder.add_priority b "A" "B";
  b

let test_build_ok () =
  let net = Network.Builder.finish_exn (tiny ()) in
  Alcotest.(check int) "2 processes" 2 (Network.n_processes net);
  Alcotest.(check int) "A index" 0 (Network.find net "A");
  Alcotest.(check bool) "A higher priority" true
    (Network.higher_priority net 0 1);
  Alcotest.(check bool) "related either way" true (Network.related net 1 0);
  Alcotest.(check bool) "rank order" true
    (Network.fp_rank net 0 < Network.fp_rank net 1);
  Alcotest.check rat "hyperperiod" (ms 200) (Network.hyperperiod net);
  Alcotest.(check int) "one channel between" 1
    (List.length (Network.channels_between net 0 1))

let expect_errors b expected =
  match Network.Builder.finish b with
  | Ok _ -> Alcotest.fail "expected validation errors"
  | Error errs ->
    let strings =
      List.map (fun e -> Format.asprintf "%a" Network.pp_error e) errs
    in
    List.iter
      (fun needle ->
        if
          not
            (List.exists
               (fun s ->
                 (* substring check *)
                 let nl = String.length needle and sl = String.length s in
                 let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
                 scan 0)
               strings)
        then
          Alcotest.failf "missing error %S among [%s]" needle
            (String.concat "; " strings))
      expected

let test_duplicate_process () =
  let b = tiny () in
  Network.Builder.add_process b (periodic "A" 100);
  expect_errors b [ "duplicate process \"A\"" ]

let test_unknown_process () =
  let b = tiny () in
  Network.Builder.add_channel b ~kind:Fppn.Channel.Fifo ~writer:"A" ~reader:"Ghost" "g";
  expect_errors b [ "unknown process \"Ghost\"" ]

let test_duplicate_channel () =
  let b = tiny () in
  Network.Builder.add_channel b ~kind:Fppn.Channel.Fifo ~writer:"B" ~reader:"A" "c";
  expect_errors b [ "duplicate channel \"c\"" ]

let test_self_channel () =
  let b = tiny () in
  Network.Builder.add_channel b ~kind:Fppn.Channel.Fifo ~writer:"A" ~reader:"A" "self";
  expect_errors b [ "connects a process to itself" ]

let test_priority_cycle () =
  let b = tiny () in
  Network.Builder.add_priority b "B" "A";
  expect_errors b [ "functional priority cycle" ]

let test_missing_priority () =
  let b = Network.Builder.create "nopr" in
  Network.Builder.add_process b (periodic "A" 100);
  Network.Builder.add_process b (periodic "B" 100);
  Network.Builder.add_channel b ~kind:Fppn.Channel.Fifo ~writer:"A" ~reader:"B" "c";
  expect_errors b [ "no functional priority between" ]

let test_empty_network () =
  expect_errors (Network.Builder.create "empty") [ "network has no processes" ]

let test_duplicate_io () =
  let b = tiny () in
  Network.Builder.add_input b ~owner:"A" "in";
  Network.Builder.add_input b ~owner:"B" "in";
  expect_errors b [ "duplicate external channel \"in\"" ]

(* --- user map (scheduling subclass, Sec. III-A) ----------------------- *)

let with_sporadic ~user_period ~sporadic_period ~deadline () =
  let b = Network.Builder.create "sub" in
  Network.Builder.add_process b (periodic "U" user_period);
  Network.Builder.add_process b (sporadic ~deadline "S" sporadic_period);
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"S"
    ~reader:"U" "cfg";
  Network.Builder.add_priority b "S" "U";
  Network.Builder.finish_exn b

let test_user_map_ok () =
  let net = with_sporadic ~user_period:100 ~sporadic_period:300 ~deadline:600 () in
  match Network.user_map net with
  | Error _ -> Alcotest.fail "expected Ok"
  | Ok users ->
    Alcotest.(check (option int)) "U has no user" None users.(Network.find net "U");
    Alcotest.(check (option int)) "S's user is U"
      (Some (Network.find net "U"))
      users.(Network.find net "S")

let test_user_map_no_user () =
  let b = Network.Builder.create "nouser" in
  Network.Builder.add_process b (periodic "U" 100);
  Network.Builder.add_process b (sporadic "S" 300);
  (* no channel: S has no user *)
  let net = Network.Builder.finish_exn b in
  match Network.user_map net with
  | Ok _ -> Alcotest.fail "expected error"
  | Error [ Network.No_user "S" ] -> ()
  | Error _ -> Alcotest.fail "expected No_user"

let test_user_map_period_too_large () =
  let net = with_sporadic ~user_period:500 ~sporadic_period:300 ~deadline:600 () in
  match Network.user_map net with
  | Ok _ -> Alcotest.fail "expected error"
  | Error [ Network.User_period_too_large { sporadic = "S"; user = "U" } ] -> ()
  | Error _ -> Alcotest.fail "expected User_period_too_large"

let test_user_map_ambiguous () =
  let b = Network.Builder.create "ambig" in
  Network.Builder.add_process b (periodic "U1" 100);
  Network.Builder.add_process b (periodic "U2" 100);
  Network.Builder.add_process b (sporadic "S" 300);
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"S" ~reader:"U1" "c1";
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"S" ~reader:"U2" "c2";
  Network.Builder.add_priority b "S" "U1";
  Network.Builder.add_priority b "S" "U2";
  let net = Network.Builder.finish_exn b in
  match Network.user_map net with
  | Error [ Network.Ambiguous_user ("S", [ "U1"; "U2" ]) ] -> ()
  | _ -> Alcotest.fail "expected Ambiguous_user"

let test_user_map_sporadic_user () =
  let b = Network.Builder.create "spuser" in
  Network.Builder.add_process b (periodic "P" 100);
  Network.Builder.add_process b (sporadic "S1" 200);
  Network.Builder.add_process b (sporadic "S2" 400);
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"S2" ~reader:"S1" "c";
  Network.Builder.add_priority b "S2" "S1";
  let net = Network.Builder.finish_exn b in
  match Network.user_map net with
  | Error errs ->
    Alcotest.(check bool) "mentions sporadic user" true
      (List.exists
         (function Network.Sporadic_user _ -> true | _ -> false)
         errs)
  | Ok _ -> Alcotest.fail "expected error"

(* --- rendering, I/O accessors ----------------------------------------- *)

let test_io_and_dot () =
  let b = tiny () in
  Network.Builder.add_input b ~owner:"A" "ext_in";
  Network.Builder.add_output b ~owner:"B" "ext_out";
  let net = Network.Builder.finish_exn b in
  Alcotest.(check int) "one input" 1 (List.length (Network.inputs net));
  Alcotest.(check int) "one output" 1 (List.length (Network.outputs net));
  Alcotest.(check int) "io of A" 1 (List.length (Network.io_of net "A"));
  let dot = Network.to_dot net in
  List.iter
    (fun needle ->
      let nl = String.length needle and sl = String.length dot in
      let rec scan i = i + nl <= sl && (String.sub dot i nl = needle || scan (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "dot mentions %s" needle) true (scan 0))
    [ "digraph"; "\"A\""; "\"B\""; "ext_in"; "fifo" ]

let test_fig1_shape () =
  (* structural checks against the paper's Fig. 1 *)
  let net = Fppn_apps.Fig1.network () in
  Alcotest.(check int) "7 processes" 7 (Network.n_processes net);
  Alcotest.(check int) "7 internal channels" 7 (List.length (Network.channels net));
  let coefb = Network.process net (Network.find net "CoefB") in
  Alcotest.(check bool) "CoefB sporadic" true (Process.is_sporadic coefb);
  Alcotest.(check int) "CoefB burst 2" 2 (Process.burst coefb);
  Alcotest.check rat "CoefB min period 700" (ms 700) (Process.period coefb);
  Alcotest.check rat "hyperperiod 200 excluding sporadic periods via lcm"
    (ms 1400)
    (Network.hyperperiod net);
  match Network.user_map net with
  | Error _ -> Alcotest.fail "Fig.1 is in the scheduling subclass"
  | Ok users ->
    Alcotest.(check (option int)) "CoefB's user is FilterB"
      (Some (Network.find net "FilterB"))
      users.(Network.find net "CoefB")

(* --- the linear scans against quadratic reference scans ---------------- *)

module Prng = Rt_util.Prng
module Digraph = Rt_util.Digraph
module D = Fppn_lint.Diagnostic

(* a network's declarations, in the order they are made *)
type decls = {
  d_procs : Process.t list;
  d_chans : Network.channel_decl list;
  d_fp : (string * string) list;
  d_ios : Network.io_decl list;
}

let builder_of d =
  let b = Network.Builder.create "drawn" in
  List.iter (Network.Builder.add_process b) d.d_procs;
  List.iter
    (fun (c : Network.channel_decl) ->
      Network.Builder.add_channel b ~kind:c.Network.ch_kind ~writer:c.Network.writer
        ~reader:c.Network.reader c.Network.ch_name)
    d.d_chans;
  List.iter (fun (hi, lo) -> Network.Builder.add_priority b hi lo) d.d_fp;
  List.iter
    (fun (io : Network.io_decl) ->
      match io.Network.dir with
      | Network.In -> Network.Builder.add_input b ~owner:io.Network.owner io.Network.io_name
      | Network.Out -> Network.Builder.add_output b ~owner:io.Network.owner io.Network.io_name)
    d.d_ios;
  b

(* [Network.Builder.finish] with its first-occurrence dedup by [List.mem]
   over the growing list, returning the FP edges in place of the network *)
let finish_oracle d =
  let procs = Array.of_list d.d_procs in
  let chans = d.d_chans in
  let fp_names =
    (* dedup while keeping first-declaration order *)
    List.rev
      (List.fold_left
         (fun acc e -> if List.mem e acc then acc else e :: acc)
         [] d.d_fp)
  in
  let ios = d.d_ios in
  let errors = ref [] in
  let err e = errors := e :: !errors in
  if Array.length procs = 0 then err Network.Empty_network;
  let proc_index = Hashtbl.create 16 in
  Array.iteri
    (fun i p ->
      let n = Process.name p in
      if Hashtbl.mem proc_index n then err (Network.Duplicate_process n)
      else Hashtbl.add proc_index n i)
    procs;
  let known n = Hashtbl.mem proc_index n in
  let check_known n = if not (known n) then err (Network.Unknown_process n) in
  let seen_ch = Hashtbl.create 16 in
  List.iter
    (fun (c : Network.channel_decl) ->
      if Hashtbl.mem seen_ch c.ch_name then err (Network.Duplicate_channel c.ch_name)
      else Hashtbl.add seen_ch c.ch_name ();
      check_known c.writer;
      check_known c.reader;
      if c.writer = c.reader then err (Network.Self_channel c.ch_name))
    chans;
  List.iter
    (fun (hi, lo) ->
      check_known hi;
      check_known lo)
    fp_names;
  let seen_io = Hashtbl.create 16 in
  List.iter
    (fun (io : Network.io_decl) ->
      if Hashtbl.mem seen_io io.io_name then err (Network.Duplicate_io io.io_name)
      else Hashtbl.add seen_io io.io_name ();
      check_known io.owner)
    ios;
  if !errors <> [] then Error (List.rev !errors)
  else begin
    let n = Array.length procs in
    let fp_dag = Digraph.create n in
    let fp =
      List.map
        (fun (hi, lo) -> (Hashtbl.find proc_index hi, Hashtbl.find proc_index lo))
        fp_names
    in
    List.iter (fun (hi, lo) -> Digraph.add_edge fp_dag hi lo) fp;
    List.iter
      (fun (c : Network.channel_decl) ->
        let w = Hashtbl.find proc_index c.writer
        and r = Hashtbl.find proc_index c.reader in
        if not (Digraph.has_edge fp_dag w r || Digraph.has_edge fp_dag r w) then
          err
            (Network.Missing_priority
               { channel = c.ch_name; writer = c.writer; reader = c.reader }))
      chans;
    match Digraph.topo_sort fp_dag with
    | None ->
      let cycle =
        match Digraph.find_cycle fp_dag with
        | Some vs -> List.map (fun v -> Process.name procs.(v)) vs
        | None -> []
      in
      err (Network.Priority_cycle cycle);
      Error (List.rev !errors)
    | Some _ -> if !errors <> [] then Error (List.rev !errors) else Ok fp
  end

(* [Network.user_map] rescanning every channel for each sporadic process *)
let user_map_oracle net =
  let procs = Network.processes net in
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let n = Array.length procs in
  let result = Array.make n None in
  for p = 0 to n - 1 do
    let proc = procs.(p) in
    if Process.is_sporadic proc then begin
      let partners =
        List.sort_uniq Int.compare
          (List.concat_map
             (fun (c : Network.channel_decl) ->
               let w = Network.find net c.writer and r = Network.find net c.reader in
               if w = p then [ r ] else if r = p then [ w ] else [])
             (Network.channels net))
      in
      match partners with
      | [] -> err (Network.No_user (Process.name proc))
      | [ u ] ->
        let uproc = procs.(u) in
        if Process.is_sporadic uproc then
          err
            (Network.Sporadic_user
               { sporadic = Process.name proc; user = Process.name uproc })
        else if Rat.(Process.period uproc > Process.period proc) then
          err
            (Network.User_period_too_large
               { sporadic = Process.name proc; user = Process.name uproc })
        else result.(p) <- Some u
      | us ->
        err
          (Network.Ambiguous_user
             (Process.name proc, List.map (fun u -> Process.name procs.(u)) us))
    end
  done;
  if !errors = [] then Ok result else Error (List.rev !errors)

(* 2-12 processes, a third sporadic, periods 50, 100 or 200.  Each
   sporadic process gets no channel, one, the same partner twice, or two
   draws (in either direction, to any process, sporadic or of a larger
   period); each periodic one a channel to another process half the
   time.  Every channel carries a priority from its lower-numbered end,
   some declared again after the others.  An eighth of the networks
   refer to an undeclared process, from priorities declared twice, or
   from an external channel. *)
let draw_decls seed =
  let prng = Prng.create seed in
  let n = Prng.int_in prng 2 12 in
  let name i = Printf.sprintf "P%d" i in
  let is_sporadic = Array.init n (fun _ -> Prng.int prng 3 = 0) in
  let procs =
    List.init n (fun i ->
        let period = Prng.pick prng [ 50; 100; 200 ] in
        if is_sporadic.(i) then sporadic (name i) period else periodic (name i) period)
  in
  let chans = ref [] and fp = ref [] in
  let other i = (i + 1 + Prng.int prng (n - 1)) mod n in
  let connect i j =
    let w, r = if Prng.bool prng then (i, j) else (j, i) in
    chans :=
      {
        Network.ch_name = Printf.sprintf "c%d" (List.length !chans);
        ch_kind = Fppn.Channel.Blackboard;
        writer = name w;
        reader = name r;
        init = None;
      }
      :: !chans;
    fp := (name (min i j), name (max i j)) :: !fp
  in
  for i = 0 to n - 1 do
    if is_sporadic.(i) then begin
      match Prng.int prng 4 with
      | 0 -> ()
      | 1 -> connect i (other i)
      | 2 ->
        let j = other i in
        connect i j;
        connect i j
      | _ ->
        connect i (other i);
        connect i (other i)
    end
    else if Prng.bool prng then connect i (other i)
  done;
  let fp = List.rev !fp in
  let again = List.filter (fun _ -> Prng.int prng 3 = 0) fp in
  let ghost_fp, ios =
    match Prng.int prng 16 with
    | 0 -> ([ ("Ghost", name 0); (name 1, "Ghost"); ("Ghost", name 0) ], [])
    | 1 -> ([], [ { Network.io_name = "out"; owner = "Ghost"; dir = Network.Out } ])
    | _ -> ([], [])
  in
  { d_procs = procs; d_chans = List.rev !chans; d_fp = fp @ ghost_fp @ again; d_ios = ios }

(* lint's FPPN030-033 findings as (code, subject), and the ones the user
   map's errors call for *)
let subclass_findings net =
  List.sort compare
    (List.filter_map
       (fun (d : D.t) ->
         match D.code_id d.D.code with
         | ("FPPN030" | "FPPN031" | "FPPN032" | "FPPN033") as c -> Some (c, d.D.subject)
         | _ -> None)
       (Fppn_lint.Lint.lint_network net))

let expected_findings = function
  | Ok _ -> []
  | Error errs ->
    List.sort compare
      (List.map
         (function
           | Network.No_user p -> ("FPPN030", "process " ^ p)
           | Network.Ambiguous_user (p, _) -> ("FPPN031", "process " ^ p)
           | Network.Sporadic_user { sporadic; _ } -> ("FPPN032", "process " ^ sporadic)
           | Network.User_period_too_large { sporadic; _ } ->
             ("FPPN033", "process " ^ sporadic))
         errs)

let prop_linear_scans =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"linear scans equal the quadratic oracle"
       ~count:1000
       QCheck2.Gen.(int_range 0 999_999)
       (fun seed ->
         let d = draw_decls seed in
         match (Network.Builder.finish (builder_of d), finish_oracle d) with
         | Error errs, Error errs' -> errs = errs'
         | Ok net, Ok fp ->
           let users = Network.user_map net in
           Network.fp_edges net = fp
           && users = user_map_oracle net
           && subclass_findings net = expected_findings users
         | Ok _, Error _ | Error _, Ok _ -> false))

let () =
  Alcotest.run "network"
    [
      ( "builder",
        [
          Alcotest.test_case "valid build" `Quick test_build_ok;
          Alcotest.test_case "duplicate process" `Quick test_duplicate_process;
          Alcotest.test_case "unknown process" `Quick test_unknown_process;
          Alcotest.test_case "duplicate channel" `Quick test_duplicate_channel;
          Alcotest.test_case "self channel" `Quick test_self_channel;
          Alcotest.test_case "priority cycle" `Quick test_priority_cycle;
          Alcotest.test_case "missing priority" `Quick test_missing_priority;
          Alcotest.test_case "empty network" `Quick test_empty_network;
          Alcotest.test_case "duplicate io" `Quick test_duplicate_io;
        ] );
      ( "user-map",
        [
          Alcotest.test_case "ok" `Quick test_user_map_ok;
          Alcotest.test_case "no user" `Quick test_user_map_no_user;
          Alcotest.test_case "period too large" `Quick test_user_map_period_too_large;
          Alcotest.test_case "ambiguous" `Quick test_user_map_ambiguous;
          Alcotest.test_case "sporadic user" `Quick test_user_map_sporadic_user;
          prop_linear_scans;
        ] );
      ( "accessors",
        [
          Alcotest.test_case "io and dot" `Quick test_io_and_dot;
          Alcotest.test_case "fig1 shape" `Quick test_fig1_shape;
        ] );
    ]
