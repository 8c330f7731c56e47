module Ast = Fppn_lang.Ast
module Lexer = Fppn_lang.Lexer
module Parser = Fppn_lang.Parser
module Elaborate = Fppn_lang.Elaborate
module Printer = Fppn_lang.Printer
module Rat = Rt_util.Rat
module V = Fppn.Value

let ms = Rat.of_int

(* --- lexer ---------------------------------------------------------------- *)

let tokens_of src = List.map (fun t -> t.Lexer.token) (Lexer.tokenize src)

let test_lexer_basic () =
  Alcotest.(check int) "token count" 8
    (List.length (tokens_of "network n { process } 42 13.5"));
  (match tokens_of "x := y -> z" with
  | [ Lexer.IDENT "x"; Lexer.ASSIGN; Lexer.IDENT "y"; Lexer.ARROW; Lexer.IDENT "z"; Lexer.EOF ] ->
    ()
  | _ -> Alcotest.fail "unexpected tokens");
  match tokens_of "a <= b != c && d" with
  | [ Lexer.IDENT "a"; Lexer.LE; Lexer.IDENT "b"; Lexer.NE; Lexer.IDENT "c";
      Lexer.ANDAND; Lexer.IDENT "d"; Lexer.EOF ] ->
    ()
  | _ -> Alcotest.fail "operator lexing"

let test_lexer_comments_strings () =
  (match tokens_of "a // comment\n b" with
  | [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "line comment");
  (match tokens_of "a (* nested (* deeper *) still *) b" with
  | [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "nested block comment");
  match tokens_of {|"hi\nthere"|} with
  | [ Lexer.STRING "hi\nthere"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "string escapes"

let test_lexer_errors () =
  let expect_error src =
    match Lexer.tokenize src with
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.failf "expected a lexical error on %S" src
  in
  expect_error "a # b";
  expect_error "\"unterminated";
  expect_error "(* unterminated";
  expect_error "a & b";
  expect_error "a = b"

let test_lexer_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
    Alcotest.(check int) "a line" 1 a.Lexer.pos.Ast.line;
    Alcotest.(check int) "b line" 2 b.Lexer.pos.Ast.line;
    Alcotest.(check int) "b col" 3 b.Lexer.pos.Ast.col
  | _ -> Alcotest.fail "token shape"

(* --- expression parsing ----------------------------------------------------- *)

let test_expr_precedence () =
  (match Parser.parse_expr "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, Ast.Lit (Ast.L_int 1), Ast.Binop (Ast.Mul, _, _)) -> ()
  | _ -> Alcotest.fail "mul binds tighter than add");
  (match Parser.parse_expr "a && b || c" with
  | Ast.Binop (Ast.Or, Ast.Binop (Ast.And, _, _), _) -> ()
  | _ -> Alcotest.fail "and binds tighter than or");
  (match Parser.parse_expr "x + 1 <= y" with
  | Ast.Binop (Ast.Le, Ast.Binop (Ast.Add, _, _), _) -> ()
  | _ -> Alcotest.fail "arithmetic binds tighter than comparison");
  (match Parser.parse_expr "not avail(x)" with
  | Ast.Unop (Ast.Not, Ast.Avail "x") -> ()
  | _ -> Alcotest.fail "not/avail");
  match Parser.parse_expr "-(3 % 2)" with
  | Ast.Unop (Ast.Neg, Ast.Binop (Ast.Mod, _, _)) -> ()
  | _ -> Alcotest.fail "unary minus over parens"

let test_parse_errors_have_positions () =
  let expect src =
    match Parser.parse src with
    | exception Parser.Error (_, pos) ->
      Alcotest.(check bool) "line >= 1" true (pos.Ast.line >= 1)
    | _ -> Alcotest.failf "expected a parse error on %S" src
  in
  expect "network {";
  expect "network n { process }";
  expect "network n { channel pipe c : A -> B; }";
  expect "network n { process P : periodic deadline 1 extern; }"

(* --- full program parse + elaborate ------------------------------------------ *)

let counter_src =
  {|
network demo {
  process Counter : periodic 100 deadline 100 wcet 10 {
    var x := 0;
    loc l0 {
      when true do x := x + 1, x ! samples goto l0;
    }
  }
  process Sink : periodic 200 deadline 200 wcet 30 extern;
  channel fifo samples : Counter -> Sink;
  priority Counter -> Sink;
  output Sink -> out;
}
|}

let sink_behavior =
  Fppn.Process.Native
    (fun ctx -> ctx.Fppn.Process.write "out" (ctx.Fppn.Process.read "samples"))

let test_parse_network () =
  let ast = Parser.parse counter_src in
  Alcotest.(check string) "name" "demo" ast.Ast.n_name;
  Alcotest.(check int) "2 processes" 2 (List.length ast.Ast.processes);
  Alcotest.(check int) "1 channel" 1 (List.length ast.Ast.channels);
  Alcotest.(check int) "1 priority" 1 (List.length ast.Ast.priorities);
  let counter = List.hd ast.Ast.processes in
  (match counter.Ast.event with
  | Ast.Periodic { burst = 1; period; deadline } ->
    Alcotest.(check bool) "period 100" true (Rat.equal period (ms 100));
    Alcotest.(check bool) "deadline 100" true (Rat.equal deadline (ms 100))
  | _ -> Alcotest.fail "expected periodic");
  Alcotest.(check bool) "wcet recorded" true
    (counter.Ast.wcet = Some (ms 10))

let test_elaborate_and_run () =
  let ast = Parser.parse counter_src in
  let net = Elaborate.to_network ~externs:[ ("Sink", sink_behavior) ] ast in
  let res =
    Fppn.Semantics.run net
      (Fppn.Semantics.invocations ~horizon:(ms 400) net)
  in
  Alcotest.(check (list (testable V.pp V.equal)))
    "automaton counter streams through the extern sink"
    [ V.Int 1; V.Int 2 ]
    (List.assoc "out" res.Fppn.Semantics.output_history);
  let wcet = Elaborate.wcet_map ~default:(ms 99) ast in
  Alcotest.(check bool) "wcet from annotation" true (Rat.equal (wcet "Counter") (ms 10));
  Alcotest.(check bool) "wcet default" true (Rat.equal (wcet "Unknown") (ms 99))

let test_elaborate_errors () =
  let expect_elab_error ?externs src =
    match Elaborate.to_network ?externs (Parser.parse src) with
    | exception Elaborate.Error _ -> ()
    | _ -> Alcotest.fail "expected an elaboration error"
  in
  (* extern without a binding *)
  expect_elab_error
    "network n { process P : periodic 1 deadline 1 extern; }";
  (* goto to an unknown location *)
  expect_elab_error
    "network n { process P : periodic 1 deadline 1 { loc a { when true goto zz; } } }";
  (* network-level validation (missing priority on a channel) *)
  expect_elab_error
    "network n {\n\
     process A : periodic 1 deadline 1 { loc a { when true goto a; } }\n\
     process B : periodic 1 deadline 1 { loc a { when true goto a; } }\n\
     channel fifo c : A -> B;\n\
     }"

(* a repeated channel or external channel is reported at the repeat,
   as a repeated process is and as lint's FPPN004 reports it *)
let test_duplicates_at_the_repeat () =
  let src last =
    Printf.sprintf
      "network n {\n\
      \  process A : periodic 100 deadline 100 {\n\
      \    loc main { when true goto main; }\n\
      \  }\n\
      \  process B : periodic 100 deadline 100 {\n\
      \    loc main { when true goto main; }\n\
      \  }\n\
      \  %s\n\
      \  %s\n\
      \  priority A -> B;\n\
       }"
      last last
  in
  List.iter
    (fun decl ->
      match Elaborate.to_network (Parser.parse (src decl)) with
      | _ -> Alcotest.failf "%s twice must not elaborate" decl
      | exception Elaborate.Error (_, pos) ->
        Alcotest.(check (pair int int))
          (decl ^ " twice: line and column")
          (9, 3) (pos.Ast.line, pos.Ast.col))
    [ "channel blackboard c : A -> B;"; "output B -> o;" ]

let test_sporadic_event_syntax () =
  let ast =
    Parser.parse
      "network n { process S : sporadic 2 per 700 deadline 700 { loc a { when \
       true goto a; } } process U : periodic 200 deadline 200 { loc a { when \
       true goto a; } } channel blackboard c : S -> U; priority S -> U; }"
  in
  match (List.hd ast.Ast.processes).Ast.event with
  | Ast.Sporadic { burst = 2; period; deadline } ->
    Alcotest.(check bool) "period 700" true (Rat.equal period (ms 700));
    Alcotest.(check bool) "deadline 700" true (Rat.equal deadline (ms 700))
  | _ -> Alcotest.fail "expected sporadic 2 per 700"

(* --- printer round-trip ------------------------------------------------------- *)

let test_print_parse_roundtrip () =
  let ast = Parser.parse counter_src in
  let printed = Printer.to_string ast in
  let ast' = Parser.parse printed in
  let printed' = Printer.to_string ast' in
  Alcotest.(check string) "print . parse . print is stable" printed printed'

let test_sensor_fusion_example () =
  (* the shipped example file must parse, elaborate and simulate
     deterministically *)
  (* resolve next to the test binary so both `dune runtest` and
     `dune exec` find the copied file *)
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "sensor_fusion.fppn"
  in
  let ic = open_in path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let ast = Parser.parse src in
  let net = Elaborate.to_network ast in
  Alcotest.(check int) "4 processes" 4 (Fppn.Network.n_processes net);
  let wcet = Elaborate.wcet_map ~default:(ms 10) ast in
  let d = Taskgraph.Derive.derive_exn ~wcet net in
  let sched =
    match snd (Sched.List_scheduler.auto ~n_procs:2 d.Taskgraph.Derive.graph) with
    | Some a -> a.Sched.List_scheduler.schedule
    | None -> Alcotest.fail "sensor_fusion should be schedulable on 2 cores"
  in
  let sporadic = [ ("Operator", [ ms 120; ms 180 ]) ] in
  let config =
    { (Runtime.Engine.default_config ~frames:3 ~n_procs:2 ()) with
      Runtime.Engine.sporadic;
      exec = Runtime.Exec_time.uniform ~seed:3 ~min_fraction:0.4 }
  in
  let rt = Runtime.Engine.run net d sched config in
  let zd =
    Fppn.Semantics.run net
      (Fppn.Semantics.invocations ~sporadic
         ~horizon:(Rat.mul d.Taskgraph.Derive.hyperperiod (Rat.of_int 3))
         net)
  in
  Alcotest.(check bool) "parsed program runs deterministically" true
    (List.equal
       (fun (n1, h1) (n2, h2) -> n1 = n2 && List.equal V.equal h1 h2)
       (Fppn.Semantics.signature zd)
       (Runtime.Engine.signature rt))

(* --- property: generated ASTs round-trip -------------------------------------- *)

let qprop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let ident_gen =
  QCheck2.Gen.(
    map
      (fun (c, rest) ->
        String.make 1 (Char.chr (Char.code 'a' + c))
        ^ String.concat ""
            (List.map (fun i -> string_of_int (abs i mod 10)) rest))
      (pair (int_range 0 25) (list_size (int_range 0 4) small_int)))

let rec expr_gen depth =
  let open QCheck2.Gen in
  if depth = 0 then
    oneof
      [
        map (fun n -> Ast.Lit (Ast.L_int n)) (int_range 0 100);
        map (fun b -> Ast.Lit (Ast.L_bool b)) bool;
        map (fun x -> Ast.Var x) ident_gen;
        map (fun x -> Ast.Avail x) ident_gen;
      ]
  else
    oneof
      [
        expr_gen 0;
        map (fun e -> Ast.Unop (Ast.Neg, e)) (expr_gen (depth - 1));
        map (fun e -> Ast.Unop (Ast.Not, e)) (expr_gen (depth - 1));
        map3
          (fun op a b -> Ast.Binop (op, a, b))
          (oneofl
             [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Eq; Ast.Ne;
               Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.And; Ast.Or ])
          (expr_gen (depth - 1))
          (expr_gen (depth - 1));
      ]

let prop_expr_roundtrip =
  qprop "printed expressions re-parse to the same AST" (expr_gen 4) (fun e ->
      let printed = Format.asprintf "%a" Printer.pp_expr e in
      Parser.parse_expr printed = e)

(* network-level roundtrip: random ASTs survive print+parse, ignoring
   source positions *)

let zero_pos = { Ast.line = 0; col = 0 }

let strip_network (n : Ast.network) =
  let strip_machine (m : Ast.machine) =
    { m with
      Ast.locations =
        List.map
          (fun (l : Ast.location) ->
            { l with
              Ast.transitions =
                List.map
                  (fun t -> { t with Ast.t_pos = zero_pos })
                  l.Ast.transitions })
          m.Ast.locations }
  in
  {
    n with
    Ast.processes =
      List.map
        (fun (p : Ast.process_decl) ->
          { p with
            Ast.p_pos = zero_pos;
            behavior =
              (match p.Ast.behavior with
              | Ast.Extern -> Ast.Extern
              | Ast.Machine m -> Ast.Machine (strip_machine m)) })
        n.Ast.processes;
    channels =
      List.map (fun (c : Ast.channel_decl) -> { c with Ast.c_pos = zero_pos }) n.Ast.channels;
    priorities = List.map (fun (a, b, _) -> (a, b, zero_pos)) n.Ast.priorities;
    ios = List.map (fun (io : Ast.io_decl) -> { io with Ast.io_pos = zero_pos }) n.Ast.ios;
  }

(* integer-only expressions over declared variables: generated machines
   must both elaborate AND evaluate without type errors *)
let rec int_expr_gen n_vars depth =
  let open QCheck2.Gen in
  let leaf =
    if n_vars = 0 then map (fun n -> Ast.Lit (Ast.L_int n)) (int_range 0 50)
    else
      oneof
        [
          map (fun n -> Ast.Lit (Ast.L_int n)) (int_range 0 50);
          map (fun i -> Ast.Var (Printf.sprintf "v%d" (i mod n_vars))) (int_range 0 9);
        ]
  in
  if depth = 0 then leaf
  else
    oneof
      [
        leaf;
        map (fun e -> Ast.Unop (Ast.Neg, e)) (int_expr_gen n_vars (depth - 1));
        map3
          (fun op a b -> Ast.Binop (op, a, b))
          (oneofl [ Ast.Add; Ast.Sub; Ast.Mul ])
          (int_expr_gen n_vars (depth - 1))
          (int_expr_gen n_vars (depth - 1));
      ]

let machine_gen =
  QCheck2.Gen.(
    let* n_vars = int_range 0 2 in
    let* exprs = list_size (int_range 1 2) (int_expr_gen n_vars 2) in
    let vars = List.init n_vars (fun i -> (Printf.sprintf "v%d" i, Ast.L_int i)) in
    let exprs = if n_vars = 0 then [] else exprs in
    let actions =
      List.mapi (fun i e -> Ast.Assign (Printf.sprintf "v%d" (i mod (max 1 n_vars)), e)) exprs
    in
    return
      {
        Ast.vars;
        locations =
          [
            {
              Ast.loc_name = "main";
              transitions =
                [ { Ast.guard = Ast.Lit (Ast.L_bool true); actions; goto = "main"; t_pos = zero_pos } ];
            };
          ];
      })

let network_gen =
  QCheck2.Gen.(
    let* n_procs = int_range 1 4 in
    let* machines = list_repeat n_procs machine_gen in
    let* dense = float_bound_inclusive 1.0 in
    let name i = Printf.sprintf "P%d" i in
    let processes =
      List.mapi
        (fun i m ->
          {
            Ast.p_name = name i;
            event =
              Ast.Periodic
                { burst = 1; period = Rt_util.Rat.of_int ((i + 1) * 100);
                  deadline = Rt_util.Rat.of_int ((i + 1) * 100) };
            wcet = (if i mod 2 = 0 then Some (Rt_util.Rat.of_int 5) else None);
            behavior = Ast.Machine m;
            p_pos = zero_pos;
          })
        machines
    in
    let channels, priorities =
      let cs = ref [] and ps = ref [] in
      for i = 0 to n_procs - 1 do
        for j = i + 1 to n_procs - 1 do
          if dense > 0.5 || j = i + 1 then begin
            cs :=
              {
                Ast.c_name = Printf.sprintf "c%d_%d" i j;
                kind = (if (i + j) mod 2 = 0 then Fppn.Channel.Fifo else Fppn.Channel.Blackboard);
                writer = name i;
                reader = name j;
                init = (if j mod 3 = 0 then Some (Ast.L_int 0) else None);
                c_pos = zero_pos;
              }
              :: !cs;
            ps := (name i, name j, zero_pos) :: !ps
          end
        done
      done;
      (List.rev !cs, List.rev !ps)
    in
    return
      {
        Ast.n_name = "gen";
        processes;
        channels;
        priorities;
        ios = [ { Ast.io_name = "out0"; io_owner = name 0; dir = Ast.Out; io_pos = zero_pos } ];
      })

let prop_network_roundtrip =
  qprop "printed networks re-parse to the same AST (modulo positions)" ~count:80
    network_gen
    (fun ast ->
      let printed = Printer.to_string ast in
      strip_network (Parser.parse printed) = strip_network ast)

let prop_generated_networks_elaborate =
  qprop "generated network ASTs elaborate and run" ~count:40 network_gen
    (fun ast ->
      let net = Elaborate.to_network ast in
      let res =
        Fppn.Semantics.run net
          (Fppn.Semantics.invocations ~horizon:(Rt_util.Rat.of_int 200) net)
      in
      List.length res.Fppn.Semantics.job_counts = Fppn.Network.n_processes net)

(* robustness: arbitrary input never escapes the documented exceptions *)
let prop_parser_total =
  qprop "parser raises only its documented errors on random input" ~count:300
    QCheck2.Gen.(string_size ~gen:(char_range '\x20' '\x7e') (int_range 0 60))
    (fun s ->
      match Parser.parse s with
      | _ -> true
      | exception Parser.Error _ -> true
      | exception Lexer.Error _ -> true)

let prop_lexer_total =
  qprop "lexer is total up to Lexer.Error" ~count:300
    QCheck2.Gen.(string_size (int_range 0 80))
    (fun s ->
      match Lexer.tokenize s with
      | _ -> true
      | exception Lexer.Error _ -> true)

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basic;
          Alcotest.test_case "comments and strings" `Quick test_lexer_comments_strings;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
        ] );
      ( "parser",
        [
          Alcotest.test_case "expression precedence" `Quick test_expr_precedence;
          Alcotest.test_case "error positions" `Quick test_parse_errors_have_positions;
          Alcotest.test_case "network" `Quick test_parse_network;
          Alcotest.test_case "sporadic syntax" `Quick test_sporadic_event_syntax;
        ] );
      ( "elaborate",
        [
          Alcotest.test_case "run a parsed program" `Quick test_elaborate_and_run;
          Alcotest.test_case "errors" `Quick test_elaborate_errors;
          Alcotest.test_case "duplicates anchored at the repeat" `Quick
            test_duplicates_at_the_repeat;
          Alcotest.test_case "sensor_fusion example" `Quick test_sensor_fusion_example;
        ] );
      ( "printer",
        [
          Alcotest.test_case "roundtrip" `Quick test_print_parse_roundtrip;
          prop_expr_roundtrip;
          prop_network_roundtrip;
          prop_generated_networks_elaborate;
          prop_parser_total;
          prop_lexer_total;
        ] );
    ]
