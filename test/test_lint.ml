(* Tests for the static analyzer (lib/lint): per-code unit tests over
   inline .fppn sources with position assertions, cleanliness of the
   built-in applications, the QCheck lint-vs-oracle differential, and
   the stability of the JSON rendering. *)

module Rat = Rt_util.Rat
module Prng = Rt_util.Prng
module Ast = Fppn_lang.Ast
module D = Fppn_lint.Diagnostic
module Lint = Fppn_lint.Lint
module Randgen = Fppn_apps.Randgen
module Oracle = Fppn_fuzz.Oracle
module Campaign = Fppn_fuzz.Campaign
module Static_diff = Fppn_fuzz.Static_diff
module Checker = Fppn_verify.Checker

let qprop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let lint_src ?processors src =
  Lint.lint_ast ?processors (Fppn_lang.Parser.parse src)

let codes ds = List.map (fun d -> D.code_id d.D.code) ds
let errors_of ds = List.filter D.is_error ds
let has_code c ds = List.mem c (codes ds)

let find_code c ds =
  match List.find_opt (fun d -> D.code_id d.D.code = c) ds with
  | Some d -> d
  | None ->
    Alcotest.failf "expected a %s finding, got: %s" c
      (String.concat ", " (codes ds))

let check_line what expected (d : D.t) =
  match d.D.pos with
  | Some p -> Alcotest.(check int) (what ^ " line") expected p.Ast.line
  | None -> Alcotest.failf "%s carries no position" what

(* --- per-code unit tests over inline sources --------------------------- *)

let test_structure_codes () =
  let ds =
    lint_src
      {|network t {
  process A : periodic 100 deadline 100 extern;
  process A : periodic 100 deadline 100 extern;
  channel blackboard c : A -> X;
  channel blackboard d : A -> A;
  channel blackboard e : A -> A;
  channel blackboard e : A -> A;
  priority A -> Y;
  input i -> A;
  output Z -> o;
}|}
  in
  check_line "FPPN002" 3 (find_code "FPPN002" ds);
  check_line "FPPN001" 4 (find_code "FPPN001" ds);
  check_line "FPPN003" 5 (find_code "FPPN003" ds);
  check_line "FPPN004" 7 (find_code "FPPN004" ds);
  Alcotest.(check bool) "priority to undeclared process flagged" true
    (List.exists
       (fun d ->
         D.code_id d.D.code = "FPPN001"
         && d.D.subject = "priority A -> Y")
       ds);
  (* elaboration refuses an external channel owned by no process; a
     declared owner is fine *)
  match
    List.filter (fun d -> d.D.subject = "external channel o") ds,
    List.filter (fun d -> d.D.subject = "external channel i") ds
  with
  | [ d ], [] ->
    Alcotest.(check string) "code" "FPPN001" (D.code_id d.D.code);
    check_line "FPPN001 (external channel)" 10 d
  | o, i ->
    Alcotest.failf "expected one finding on output o and none on input i, got %d and %d"
      (List.length o) (List.length i)

(* an external channel declared twice: lint reports FPPN004 at the
   repeat, as elaboration refuses the source there *)
let test_duplicate_external_channel () =
  let src =
    {|network t {
  process A : periodic 100 deadline 100 extern;
  output A -> o;
  output A -> o;
}|}
  in
  let d = find_code "FPPN004" (lint_src src) in
  Alcotest.(check string) "subject" "external channel o" d.D.subject;
  Alcotest.(check bool) "severity error" true (D.is_error d);
  check_line "FPPN004" 4 d;
  let externs = [ ("A", Fppn.Process.Native (fun _ -> ())) ] in
  match Fppn_lang.Elaborate.to_network ~externs (Fppn_lang.Parser.parse src) with
  | _ -> Alcotest.fail "a duplicate external channel must not elaborate"
  | exception Fppn_lang.Elaborate.Error (_, pos) ->
    Alcotest.(check int) "elaboration anchors at the repeat" 4 pos.Ast.line

let test_determinism_race () =
  let ds =
    lint_src
      {|network t {
  process A : periodic 100 deadline 100 extern;
  process B : periodic 200 deadline 200 extern;
  channel blackboard c : A -> B;
}|}
  in
  let d = find_code "FPPN010" ds in
  Alcotest.(check string) "pair subject" "A ./ B" d.D.subject;
  Alcotest.(check bool) "severity error" true (D.is_error d);
  check_line "FPPN010" 4 d;
  Alcotest.(check bool) "coincidence evidence names the lcm" true
    (let sub = "every 200 ms" in
     let msg = d.D.message in
     let rec mem i =
       i + String.length sub <= String.length msg
       && (String.sub msg i (String.length sub) = sub || mem (i + 1))
     in
     mem 0)

let test_race_with_sporadic () =
  let ds =
    lint_src
      {|network t {
  process A : periodic 100 deadline 100 extern;
  process S : sporadic 1 per 100 deadline 200 extern;
  channel blackboard c : S -> A;
}|}
  in
  ignore (find_code "FPPN010" ds)

let test_transitive_only () =
  let ds =
    lint_src
      {|network t {
  process A : periodic 100 deadline 100 extern;
  process B : periodic 100 deadline 100 extern;
  process C : periodic 100 deadline 100 extern;
  channel blackboard ab : A -> B;
  channel blackboard bc : B -> C;
  channel blackboard ac : A -> C;
  priority A -> B;
  priority B -> C;
}|}
  in
  let d = find_code "FPPN011" ds in
  Alcotest.(check string) "pair subject" "A ./ C" d.D.subject;
  Alcotest.(check bool) "warning, not error" false (D.is_error d);
  Alcotest.(check bool) "no race reported" false (has_code "FPPN010" ds)

let test_priority_cycle () =
  let ds =
    lint_src
      {|network t {
  process A : periodic 100 deadline 100 extern;
  process B : periodic 100 deadline 100 extern;
  priority A -> B;
  priority B -> A;
}|}
  in
  let d = find_code "FPPN020" ds in
  Alcotest.(check bool) "severity error" true (D.is_error d)

let test_redundant_edge () =
  let ds =
    lint_src
      {|network t {
  process A : periodic 100 deadline 100 extern;
  process B : periodic 100 deadline 100 extern;
  process C : periodic 100 deadline 100 extern;
  channel blackboard ab : A -> B;
  channel blackboard bc : B -> C;
  priority A -> B;
  priority B -> C;
  priority A -> C;
}|}
  in
  let d = find_code "FPPN021" ds in
  Alcotest.(check string) "edge subject" "priority A -> C" d.D.subject;
  check_line "FPPN021" 9 d

let test_counter_dataflow () =
  let ds =
    lint_src
      {|network t {
  process A : periodic 100 deadline 100 extern;
  process B : periodic 100 deadline 100 extern;
  channel blackboard c : A -> B;
  priority B -> A;
}|}
  in
  let d = find_code "FPPN022" ds in
  Alcotest.(check string) "channel subject" "channel c" d.D.subject;
  Alcotest.(check bool) "info severity" false (D.is_error d);
  Alcotest.(check bool) "no race (pair is ordered)" false (has_code "FPPN010" ds)

let test_subclass_codes () =
  let no_user =
    lint_src
      {|network t {
  process S : sporadic 1 per 100 deadline 200 extern;
}|}
  in
  check_line "FPPN030" 2 (find_code "FPPN030" no_user);
  let ambiguous =
    lint_src
      {|network t {
  process A : periodic 100 deadline 100 extern;
  process B : periodic 100 deadline 100 extern;
  process S : sporadic 1 per 100 deadline 200 extern;
  channel blackboard sa : S -> A;
  channel blackboard sb : S -> B;
  priority S -> A;
  priority S -> B;
}|}
  in
  ignore (find_code "FPPN031" ambiguous);
  let sporadic_user =
    lint_src
      {|network t {
  process S : sporadic 1 per 100 deadline 200 extern;
  process T : sporadic 1 per 100 deadline 200 extern;
  channel blackboard st : S -> T;
  priority S -> T;
}|}
  in
  ignore (find_code "FPPN032" sporadic_user);
  let period_exceeds =
    lint_src
      {|network t {
  process U : periodic 200 deadline 200 extern;
  process S : sporadic 1 per 100 deadline 200 extern;
  channel blackboard su : S -> U;
  priority S -> U;
}|}
  in
  check_line "FPPN033" 3 (find_code "FPPN033" period_exceeds)

let test_channel_misuse_codes () =
  let dead_read =
    lint_src
      {|network t {
  process W : periodic 100 deadline 100 {
    var x := 0;
    loc main { when true do x := x + 1, x ! c goto main; }
  }
  process R : periodic 100 deadline 100 {
    var y := 0;
    loc main { when true do y := y + 1 goto main; }
  }
  channel blackboard c : W -> R;
  priority W -> R;
}|}
  in
  check_line "FPPN040" 10 (find_code "FPPN040" dead_read);
  let never_written =
    lint_src
      {|network t {
  process W : periodic 100 deadline 100 {
    var x := 0;
    loc main { when true do x := x + 1 goto main; }
  }
  process R : periodic 100 deadline 100 {
    var y := 0;
    loc main { when true do y ? c goto main; }
  }
  channel blackboard c : W -> R;
  priority W -> R;
}|}
  in
  ignore (find_code "FPPN041" never_written);
  let rate =
    lint_src
      {|network t {
  process W : periodic 100 deadline 100 extern;
  process R : periodic 200 deadline 200 extern;
  channel fifo c : W -> R;
  priority W -> R;
}|}
  in
  let d = find_code "FPPN042" rate in
  Alcotest.(check bool) "rate mismatch is a warning" false (D.is_error d)

let test_timing_codes () =
  let dl =
    lint_src
      {|network t {
  process A : periodic 100 deadline 150 extern;
}|}
  in
  let d = find_code "FPPN050" dl in
  Alcotest.(check bool) "d > T is a warning" false (D.is_error d);
  let wcet =
    lint_src
      {|network t {
  process A : periodic 200 deadline 100 wcet 150 extern;
}|}
  in
  Alcotest.(check bool) "C > d is an error" true
    (D.is_error (find_code "FPPN051" wcet));
  let util_src =
    {|network t {
  process A : periodic 100 deadline 100 wcet 80 extern;
  process B : periodic 100 deadline 100 wcet 80 extern;
}|}
  in
  let bound = find_code "FPPN052" (lint_src ~processors:1 util_src) in
  Alcotest.(check bool) "bound exceeded is an error with a count" true
    (D.is_error bound);
  let advisory = find_code "FPPN052" (lint_src util_src) in
  Alcotest.(check bool) "advisory without a count" false (D.is_error advisory)

(* --- built-in applications stay clean ---------------------------------- *)

let test_apps_error_free () =
  let check name net wcet =
    let ds = Lint.lint_network ~wcet:(fun n -> Some (wcet n)) net in
    Alcotest.(check (list string))
      (name ^ " has no error-severity findings")
      [] (codes (errors_of ds))
  in
  check "fig1" (Fppn_apps.Fig1.network ()) Fppn_apps.Fig1.wcet;
  let p = Fppn_apps.Fft.default_params in
  check "fft8" (Fppn_apps.Fft.network p) (Fppn_apps.Fft.wcet_map p);
  check "automotive" (Fppn_apps.Automotive.network ()) Fppn_apps.Automotive.wcet;
  check "fms" (Fppn_apps.Fms.reduced ()) Fppn_apps.Fms.wcet;
  check "fms-original" (Fppn_apps.Fms.original ()) Fppn_apps.Fms.wcet

(* --- elaboration failures carry useful positions ------------------------ *)

let test_elaborate_positions () =
  let src =
    {|network t {
  process A : periodic 100 deadline 100 extern;
  process B : periodic 100 deadline 100 extern;
  channel blackboard c : A -> B;
}|}
  in
  let externs =
    [ ("A", Fppn.Process.Native (fun _ -> ()));
      ("B", Fppn.Process.Native (fun _ -> ())) ]
  in
  match Fppn_lang.Elaborate.to_network ~externs (Fppn_lang.Parser.parse src) with
  | _ -> Alcotest.fail "missing priority must not elaborate"
  | exception Fppn_lang.Elaborate.Error (msg, pos) ->
    Alcotest.(check int) "anchored at the channel declaration" 4 pos.Ast.line;
    Alcotest.(check bool) "message mentions the channel" true
      (let rec mem i =
         i + 3 <= String.length msg
         && (String.sub msg i 3 = {|"c"|} || mem (i + 1))
       in
       mem 0)

(* lint and certify read the AST model, info, derive and check the
   elaborated network: a zero period gets the same answer from both, at
   the first process that declares one *)
let test_zero_period () =
  let src =
    {|network z {
  process A : periodic 0 deadline 0 {
    loc main { when true do 1 ! c goto main; }
  }
  process B : periodic 0 deadline 0 {
    var x := 0;
    loc main { when true do x ? c goto main; }
  }
  channel fifo c : A -> B;
  priority A -> B;
}|}
  in
  let ast = Fppn_lang.Parser.parse src in
  let answer what f =
    match f () with
    | () -> Alcotest.failf "%s accepted a zero period" what
    | exception Fppn_lang.Elaborate.Error (msg, pos) ->
      Alcotest.(check (triple string int int))
        what
        ("Event: period must be positive", 2, 3)
        (msg, pos.Ast.line, pos.Ast.col)
  in
  answer "lint" (fun () -> ignore (Lint.lint_ast ast));
  answer "certify" (fun () -> ignore (Fppn_lint.Model.of_ast ast));
  answer "elaboration" (fun () -> ignore (Fppn_lang.Elaborate.to_network ast))

(* a [goto] to an undeclared location: lint and certify read the AST
   model, so they must validate the machine as elaboration does and
   report the same first error, at the transition *)
let test_goto_undeclared () =
  let src =
    {|network g {
  process A : periodic 100 deadline 100 {
    loc main { when true goto nowhere; }
  }
}|}
  in
  let ast = Fppn_lang.Parser.parse src in
  let answer what f =
    match f () with
    | () -> Alcotest.failf "%s accepted a goto to an undeclared location" what
    | exception Fppn_lang.Elaborate.Error (msg, pos) ->
      Alcotest.(check (triple string int int))
        what
        ({|goto "nowhere" targets an undeclared location|}, 3, 16)
        (msg, pos.Ast.line, pos.Ast.col)
  in
  answer "lint" (fun () -> ignore (Lint.lint_ast ast));
  answer "certify" (fun () -> ignore (Fppn_lint.Model.of_ast ast));
  answer "elaboration" (fun () -> ignore (Fppn_lang.Elaborate.to_network ast))

(* --- checker integration ------------------------------------------------ *)

let test_checker_fails_fast_on_lint_errors () =
  let spec =
    {
      Randgen.label = "lint-fast-fail";
      periods = [| 100; 100 |];
      chans =
        [ { Randgen.cw = 0; cr = 1; fifo = false; rev_fp = false; no_fp = false } ];
      sporadics = [];
    }
  in
  let net = Randgen.build_exn spec in
  (* WCET far beyond every deadline: FPPN051 fires for every process *)
  let report = Checker.run ~wcet:(fun _ -> Rat.of_int 10_000) net in
  Alcotest.(check bool) "report failed" false report.Checker.passed;
  match report.Checker.checks with
  | [ c ] ->
    Alcotest.(check string) "only the lint check ran" "static lint" c.Checker.name;
    Alcotest.(check bool) "lint check failed" false c.Checker.passed
  | cs -> Alcotest.failf "expected exactly the lint check, got %d" (List.length cs)

let test_checker_leads_with_passing_lint () =
  let spec =
    {
      Randgen.label = "lint-leading";
      periods = [| 100; 100 |];
      chans =
        [ { Randgen.cw = 0; cr = 1; fifo = false; rev_fp = false; no_fp = false } ];
      sporadics = [];
    }
  in
  let net = Randgen.build_exn spec in
  let config =
    { Checker.default_config with Checker.processor_counts = [ 1 ]; frames = 1 }
  in
  let report = Checker.run ~config ~wcet:(fun _ -> Rat.of_int 10) net in
  match report.Checker.checks with
  | c :: _ ->
    Alcotest.(check string) "leading check" "static lint" c.Checker.name;
    Alcotest.(check bool) "leading check passed" true c.Checker.passed;
    Alcotest.(check bool) "more checks follow" true
      (List.length report.Checker.checks > 1)
  | [] -> Alcotest.fail "empty report"

(* --- JSON schema stability ---------------------------------------------- *)

let test_json_schema_stable () =
  let d1 =
    D.make ~file:"f.fppn" ~pos:{ Ast.line = 3; col = 7 } D.Determinism_race
      ~subject:"A ./ B" "msg"
  in
  let d2 = D.make D.Fifo_rate_mismatch ~subject:"channel c" "m2" in
  (* d2 listed first on purpose: to_json must apply the canonical sort *)
  Alcotest.(check string) "schema v1"
    ("{\"version\":1,\"errors\":1,\"warnings\":1,\"infos\":0,\"diagnostics\":["
   ^ "{\"code\":\"FPPN010\",\"severity\":\"error\",\"subject\":\"A ./ B\","
   ^ "\"message\":\"msg\",\"file\":\"f.fppn\",\"line\":3,\"col\":7},"
   ^ "{\"code\":\"FPPN042\",\"severity\":\"warning\",\"subject\":\"channel c\","
   ^ "\"message\":\"m2\",\"file\":null,\"line\":null,\"col\":null}]}")
    (D.to_json [ d2; d1 ])

let test_all_codes_unique () =
  let ids = List.map (fun (c, _, _) -> D.code_id c) D.all_codes in
  Alcotest.(check int) "no duplicate code ids"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* --- QCheck: lint vs generator vs oracle -------------------------------- *)

let prop_clean_specs_lint_error_free =
  qprop "clean randgen specs lint error-free" ~count:80
    QCheck2.Gen.(int_range 0 999_999)
    (fun seed ->
      let prng = Prng.create seed in
      let spec = Campaign.draw_spec prng ~max_periodic:6 ~max_sporadic:2 in
      (not (D.has_errors (Lint.lint_spec spec)))
      && not (D.has_errors (Lint.lint_network (Randgen.build_exn spec))))

let prop_seed_race_detected =
  qprop "seed_race yields FPPN010 on the labeled pair" ~count:80
    QCheck2.Gen.(int_range 0 999_999)
    (fun seed ->
      let prng = Prng.create seed in
      let spec = Campaign.draw_spec prng ~max_periodic:6 ~max_sporadic:2 in
      match Randgen.seed_race prng spec with
      | None -> true (* every edge is transitively covered: nothing to seed *)
      | Some (spec', (w, r)) ->
        let a = Randgen.periodic_name w and b = Randgen.periodic_name r in
        let subject =
          if String.compare a b <= 0 then a ^ " ./ " ^ b else b ^ " ./ " ^ a
        in
        Result.is_error (Randgen.build spec')
        && List.exists
             (fun d -> d.D.code = D.Determinism_race && d.D.subject = subject)
             (Lint.lint_spec spec'))

let prop_sabotage_visible_statically =
  qprop "every applicable sabotage is visible statically" ~count:80
    QCheck2.Gen.(
      pair (int_range 0 999_999)
        (oneofl [ Campaign.Inject_channel_flip; Campaign.Inject_sporadic_flip ]))
    (fun (seed, inject) ->
      let prng = Prng.create seed in
      let base = Campaign.draw_spec prng ~max_periodic:6 ~max_sporadic:2 in
      let sabotage = Campaign.choose_sabotage inject prng base in
      match Static_diff.check ~base sabotage with
      | Static_diff.Caught code -> code = "FPPN022"
      | Static_diff.Not_applicable -> true
      | Static_diff.Missed -> false)

let test_static_diff_sweeps () =
  (* >= 200 randgen cases per injection kind, all caught, stable code *)
  List.iter
    (fun (seed, inject) ->
      let s = Static_diff.run ~seed ~budget:220 ~inject () in
      Alcotest.(check bool) "some cases injected" true (s.Static_diff.injected > 0);
      Alcotest.(check int) "none missed" 0 s.Static_diff.missed;
      Alcotest.(check int) "clean specs lint error-free" 0
        s.Static_diff.clean_errors;
      Alcotest.(check (list (pair string int)))
        "all catches share the stable code"
        [ ("FPPN022", s.Static_diff.caught) ]
        s.Static_diff.codes;
      Alcotest.(check bool) "summary passes" true
        (Static_diff.passed ~inject s))
    [ (42, Campaign.Inject_channel_flip); (43, Campaign.Inject_sporadic_flip) ]

let test_lint_clean_implies_oracle_pass () =
  (* the other direction of the differential: a lint-clean workload must
     not make the dynamic determinism oracle diverge *)
  let prng = Prng.create 2024 in
  for _ = 1 to 6 do
    let spec = Campaign.draw_spec prng ~max_periodic:4 ~max_sporadic:1 in
    Alcotest.(check bool) "spec lints clean" false
      (D.has_errors (Lint.lint_spec spec));
    let case =
      {
        Oracle.spec;
        sabotage = Oracle.No_sabotage;
        trace_seed = Prng.int prng 1_000_000;
        jitter_seeds = [ 1 ];
        proc_counts = [ 1; 2 ];
        frames = 2;
        permutations = 2;
        boundary_snap = true;
      }
    in
    match Oracle.check case with
    | Oracle.Fail d -> Alcotest.failf "oracle diverged: %s" d.Oracle.detail
    | Oracle.Pass _ | Oracle.Skip _ -> ()
  done

let () =
  Alcotest.run "lint"
    [
      ( "codes",
        [
          Alcotest.test_case "structure (FPPN001-004)" `Quick test_structure_codes;
          Alcotest.test_case "duplicate external channel (FPPN004)" `Quick
            test_duplicate_external_channel;
          Alcotest.test_case "determinism race (FPPN010)" `Quick test_determinism_race;
          Alcotest.test_case "race with sporadic accessor" `Quick test_race_with_sporadic;
          Alcotest.test_case "transitive-only order (FPPN011)" `Quick test_transitive_only;
          Alcotest.test_case "priority cycle (FPPN020)" `Quick test_priority_cycle;
          Alcotest.test_case "redundant edge (FPPN021)" `Quick test_redundant_edge;
          Alcotest.test_case "counter-dataflow edge (FPPN022)" `Quick test_counter_dataflow;
          Alcotest.test_case "subclass (FPPN030-033)" `Quick test_subclass_codes;
          Alcotest.test_case "channel misuse (FPPN040-042)" `Quick test_channel_misuse_codes;
          Alcotest.test_case "timing (FPPN050-052)" `Quick test_timing_codes;
          Alcotest.test_case "code table unique" `Quick test_all_codes_unique;
        ] );
      ( "integration",
        [
          Alcotest.test_case "built-in apps lint error-free" `Quick test_apps_error_free;
          Alcotest.test_case "elaboration errors carry positions" `Quick test_elaborate_positions;
          Alcotest.test_case "zero period reported at the process" `Quick
            test_zero_period;
          Alcotest.test_case "undeclared goto reported at the transition" `Quick
            test_goto_undeclared;
          Alcotest.test_case "checker fails fast on lint errors" `Quick
            test_checker_fails_fast_on_lint_errors;
          Alcotest.test_case "checker leads with passing lint" `Quick
            test_checker_leads_with_passing_lint;
          Alcotest.test_case "json schema stable" `Quick test_json_schema_stable;
        ] );
      ( "differential",
        [
          prop_clean_specs_lint_error_free;
          prop_seed_race_detected;
          prop_sabotage_visible_statically;
          Alcotest.test_case "static sweeps catch 100% of injections" `Quick
            test_static_diff_sweeps;
          Alcotest.test_case "lint-clean implies oracle pass" `Slow
            test_lint_clean_implies_oracle_pass;
        ] );
    ]
