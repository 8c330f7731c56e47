(* Tests for static shardability certification (lib/lint/interference,
   lib/lint/certificate): pinned unit tests for the FPPN060/061/062
   diagnostics over inline .fppn sources, a byte-pinned certificate
   JSON schema with of_json/validate round-trips, a QCheck agreement
   property against the legacy job-level transitive closure, and the
   headline >16384-job network the old [max_closure_jobs] cap could not
   certify. *)

module Rat = Rt_util.Rat
module Prng = Rt_util.Prng
module D = Fppn_lint.Diagnostic
module I = Fppn_lint.Interference
module Certificate = Fppn_lint.Certificate
module Model = Fppn_lint.Model
module Randgen = Fppn_apps.Randgen
module Campaign = Fppn_fuzz.Campaign
module Derive = Taskgraph.Derive
module Graph = Taskgraph.Graph

let qprop name ?(count = 100) ?print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen f)

let model_of_src src = Model.of_ast (Fppn_lang.Parser.parse src)
let cert_of_src src = Certificate.of_model (model_of_src src)

let codes ds = List.map (fun d -> D.code_id d.D.code) ds

let find_code c ds =
  match List.find_opt (fun d -> D.code_id d.D.code = c) ds with
  | Some d -> d
  | None ->
    Alcotest.failf "expected a %s finding, got: %s" c
      (String.concat ", " (codes ds))

(* --- FPPN060: proven-unordered channel pair ----------------------------- *)

let unordered_src =
  {|network t {
  process A : periodic 100 deadline 100 extern;
  process B : periodic 100 deadline 100 extern;
  process C : periodic 100 deadline 100 extern;
  channel blackboard c : A -> B;
}|}

let test_unordered () =
  let cert = cert_of_src unordered_src in
  Alcotest.(check bool) "not shardable" false (Certificate.shardable cert);
  let ds = Certificate.diagnostics cert in
  let d = find_code "FPPN060" ds in
  Alcotest.(check string) "pair subject" "A ./ B" d.D.subject;
  Alcotest.(check bool) "severity error" true (D.is_error d);
  Alcotest.(check bool) "message names the channel" true
    (let sub = "channel c" in
     let msg = d.D.message in
     let n = String.length sub in
     let rec at i =
       i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1))
     in
     at 0);
  match cert.Certificate.channels with
  | [ cv ] -> (
    Alcotest.(check string) "channel" "c" cv.I.cv_channel;
    match cv.I.cv_verdict with
    | I.Unordered off ->
      Alcotest.(check string) "offending proc a" "A" off.I.off_proc_a;
      Alcotest.(check int) "offending k a" 1 off.I.off_k_a;
      Alcotest.(check string) "offending proc b" "B" off.I.off_proc_b;
      Alcotest.(check int) "offending k b" 1 off.I.off_k_b
    | _ -> Alcotest.fail "expected an Unordered verdict")
  | cs -> Alcotest.failf "expected one channel verdict, got %d" (List.length cs)

(* --- FPPN061: sporadic fold hazard -------------------------------------- *)

let hazard_src =
  {|network t {
  process A : periodic 100 deadline 100 extern;
  process B : periodic 100 deadline 100 extern;
  process S : sporadic 200 deadline 50 extern;
  channel blackboard c : S -> A;
  channel blackboard d : S -> B;
}|}

let test_hazard () =
  let cert = cert_of_src hazard_src in
  Alcotest.(check bool) "not shardable" false (Certificate.shardable cert);
  let ds = Certificate.diagnostics cert in
  let hs = List.filter (fun d -> D.code_id d.D.code = "FPPN061") ds in
  Alcotest.(check (list string))
    "one hazard per channel, sorted subjects"
    [ "channel c"; "channel d" ]
    (List.sort compare (List.map (fun d -> d.D.subject) hs));
  List.iter
    (fun (d : D.t) ->
      Alcotest.(check string) "severity warning" "warning"
        (D.severity_to_string d.D.severity))
    hs;
  Alcotest.(check bool) "no unordered finding" false
    (List.mem "FPPN060" (codes ds))

(* --- FPPN062: partition-cut hotspot (+ pinned JSON schema) -------------- *)

let hotspot_src =
  {|network hot {
  process A : periodic 100 deadline 100 wcet 40 extern;
  process B : periodic 100 deadline 100 wcet 40 extern;
  process C : periodic 100 deadline 100 wcet 1 extern;
  channel blackboard c : A -> B;
  priority A -> B;
}|}

let test_hotspot () =
  let cert = cert_of_src hotspot_src in
  (* a hotspot is informational: the certificate still accepts *)
  Alcotest.(check bool) "shardable" true (Certificate.shardable cert);
  let ds = Certificate.diagnostics cert in
  let d = find_code "FPPN062" ds in
  Alcotest.(check string) "subject" "channel c" d.D.subject;
  Alcotest.(check string) "severity info" "info"
    (D.severity_to_string d.D.severity);
  match cert.Certificate.hotspots with
  | [ h ] ->
    Alcotest.(check string) "pair utilization" "4/5"
      (Rat.to_string h.I.hs_pair_utilization);
    Alcotest.(check string) "total utilization" "81/100"
      (Rat.to_string h.I.hs_total_utilization)
  | hs -> Alcotest.failf "expected one hotspot, got %d" (List.length hs)

let test_json_schema_pinned () =
  let cert = cert_of_src hotspot_src in
  Alcotest.(check string) "certificate schema v1"
    ("{\"version\":1,\"network\":\"hot\",\"hyperperiod\":\"100\","
   ^ "\"classes\":3,\"shardable\":true,\"channels\":["
   ^ "{\"channel\":\"c\",\"writer\":\"A\",\"reader\":\"B\","
   ^ "\"verdict\":\"ordered\",\"witness\":[\"A\",\"B\"]}],\"hotspots\":["
   ^ "{\"channel\":\"c\",\"writer\":\"A\",\"reader\":\"B\","
   ^ "\"pair_utilization\":\"4/5\",\"total_utilization\":\"81/100\"}]}")
    (Certificate.to_json cert)

let test_json_round_trip () =
  List.iter
    (fun src ->
      let m = model_of_src src in
      let cert = Certificate.of_model m in
      match Certificate.of_json (Certificate.to_json cert) with
      | Error e -> Alcotest.failf "re-parse failed: %s" e
      | Ok cert' -> (
        Alcotest.(check bool) "round trip is structural identity" true
          (cert' = cert);
        match Certificate.validate cert' m with
        | Ok () -> ()
        | Error e -> Alcotest.failf "validate failed: %s" e))
    [ unordered_src; hazard_src; hotspot_src ]

let test_validate_rejects_forgery () =
  let m = model_of_src hotspot_src in
  let cert = Certificate.of_model m in
  let forged = { cert with Certificate.shardable = false } in
  Alcotest.(check bool) "flipped shardable bit rejected" true
    (Result.is_error (Certificate.validate forged m));
  let swapped =
    {
      cert with
      Certificate.channels =
        List.map
          (fun (c : I.channel_verdict) ->
            match c.I.cv_verdict with
            | I.Ordered w -> { c with I.cv_verdict = I.Ordered (List.rev w) }
            | _ -> c)
          cert.Certificate.channels;
    }
  in
  Alcotest.(check bool) "reversed witness rejected" true
    (Result.is_error (Certificate.validate swapped m))

(* --- QCheck: certificate vs legacy job-level closure -------------------- *)

let prop_agrees_with_closure =
  qprop "certificate agrees with the job-level transitive closure"
    ~count:200
    QCheck2.Gen.(pair (int_range 0 999_999) bool)
    (fun (seed, race) ->
      let prng = Prng.create seed in
      let spec = Campaign.draw_spec prng ~max_periodic:6 ~max_sporadic:2 in
      let spec =
        if race then
          match Randgen.seed_race prng spec with
          | Some (raced, _) -> raced
          | None -> spec
        else spec
      in
      let ok = Certificate.shardable (Certificate.of_model (Model.of_spec spec)) in
      match Randgen.build spec with
      | Error _ ->
        (* unbuildable = a planted Def. 2.1 violation: must be rejected *)
        not ok
      | Ok net -> (
        let wcet =
          Randgen.wcet ~scale:(Rat.make 1 25) (Derive.const_wcet Rat.one) net
        in
        match Derive.derive ~wcet net with
        | Error _ -> true
        | Ok d ->
          let g = d.Derive.graph in
          (* wherever the legacy check is computable (the old engine cap
             was 16384 jobs) the quotient sweep must agree exactly *)
          Graph.n_jobs g > 16384
          || ok = Fppn_fuzz.Static_diff.closure_conflicts_ordered g net))

(* --- the headline network: >16384 jobs -------------------------------- *)

let test_wide_network_certifies () =
  let spec = Randgen.wide_spec () in
  let net = Randgen.build_exn spec in
  let wcet =
    Randgen.wcet ~scale:(Rat.make 1 100_000) (Derive.const_wcet Rat.one) net
  in
  match Derive.derive ~wcet net with
  | Error e ->
    Alcotest.failf "derive failed: %s" (Format.asprintf "%a" Derive.pp_error e)
  | Ok d ->
    Alcotest.(check bool) "beyond the old closure cap" true
      (Graph.n_jobs d.Derive.graph > 16384);
    Alcotest.(check bool) "certificate accepts" true
      (Certificate.shardable (Certificate.of_network net))

let () =
  Alcotest.run "certify"
    [
      ( "codes",
        [
          Alcotest.test_case "unordered pair (FPPN060)" `Quick test_unordered;
          Alcotest.test_case "sporadic hazard (FPPN061)" `Quick test_hazard;
          Alcotest.test_case "partition hotspot (FPPN062)" `Quick test_hotspot;
        ] );
      ( "schema",
        [
          Alcotest.test_case "json pinned byte-for-byte" `Quick
            test_json_schema_pinned;
          Alcotest.test_case "json round trip + validate" `Quick
            test_json_round_trip;
          Alcotest.test_case "validate rejects forgeries" `Quick
            test_validate_rejects_forgery;
        ] );
      ( "differential",
        [
          prop_agrees_with_closure;
          Alcotest.test_case "wide network (>16384 jobs) certifies" `Slow
            test_wide_network_certifies;
        ] );
    ]
