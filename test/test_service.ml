(* Multi-tenant service suite: MPR interface algebra, admission
   monotonicity (QCheck), the admission differential against the
   repo's other schedulability verdicts (Cosched.admit, Rta), and the
   end-to-end service with async producers and the per-tenant
   determinism oracle.  @gate adds the CLI serve runs on top. *)

module Rat = Rt_util.Rat
module Json = Rt_util.Json
module Pool = Rt_util.Pool
module Derive = Taskgraph.Derive
module Cosched = Sched.Cosched
module Rta = Sched.Rta
module Randgen = Fppn_apps.Randgen
module Mpr = Fppn_service.Mpr
module Admission = Fppn_service.Admission
module Tenant = Fppn_service.Tenant
module Ingest = Fppn_service.Ingest
module Service = Fppn_service.Service

let ms = Rat.of_int

let qprop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let task ?d ~c ~t name =
  {
    Mpr.t_name = name;
    wcet = c;
    period = t;
    deadline = (match d with Some d -> d | None -> t);
  }

(* --- Mpr unit tests ---------------------------------------------------- *)

let test_mpr_dbf () =
  let t = task "a" ~c:(ms 2) ~t:(ms 10) in
  Alcotest.(check string) "before deadline" "0" (Rat.to_string (Mpr.dbf t (ms 9)));
  Alcotest.(check string) "at deadline" "2" (Rat.to_string (Mpr.dbf t (ms 10)));
  Alcotest.(check string) "two periods" "4" (Rat.to_string (Mpr.dbf t (ms 20)));
  let constrained = task "b" ~c:(ms 1) ~t:(ms 10) ~d:(ms 4) in
  Alcotest.(check string) "constrained deadline" "1"
    (Rat.to_string (Mpr.dbf constrained (ms 4)))

let test_mpr_sbf_monotone () =
  let mk budget = { Mpr.period = ms 10; budget; concurrency = 2 } in
  List.iter
    (fun len ->
      let a = Mpr.sbf (mk (ms 4)) len and b = Mpr.sbf (mk (ms 8)) len in
      Alcotest.(check bool)
        (Printf.sprintf "sbf monotone in budget at t=%s" (Rat.to_string len))
        true
        Rat.(a <= b);
      Alcotest.(check bool) "sbf non-negative" true (Rat.sign a >= 0))
    [ ms 0; ms 5; ms 10; ms 25; ms 100 ]

let test_mpr_generate () =
  let ts =
    [ task "a" ~c:(ms 2) ~t:(ms 20); task "b" ~c:(ms 5) ~t:(ms 50) ]
  in
  match Mpr.generate_interface ts with
  | None -> Alcotest.fail "no interface for a 20%-utilization pair"
  | Some iface ->
    Alcotest.(check bool) "generated interface is schedulable" true
      (Mpr.is_schedulable_edf ts iface);
    Alcotest.(check bool) "bandwidth covers utilization" true
      Rat.(Mpr.utilization ts <= Mpr.bandwidth iface);
    Alcotest.(check bool) "budget within concurrency ceiling" true
      Rat.(iface.Mpr.budget <= of_int iface.Mpr.concurrency * iface.Mpr.period)

let test_mpr_generate_none () =
  (* five period-100 tasks at 70 each: carry-in kills every m' <= 5 *)
  let ts = List.init 5 (fun i -> task (string_of_int i) ~c:(ms 70) ~t:(ms 100)) in
  Alcotest.(check bool) "no interface covers U=3.5 with carry-in" true
    (Mpr.generate_interface ts = None)

let test_mpr_empty () =
  match Mpr.generate_interface [] with
  | None -> Alcotest.fail "empty task set needs no supply"
  | Some iface ->
    Alcotest.(check bool) "zero budget" true (Rat.sign iface.Mpr.budget = 0);
    Alcotest.(check bool) "schedulable" true (Mpr.is_schedulable_edf [] iface)

let test_mpr_compose () =
  let iface bw m' =
    { Mpr.period = ms 10; budget = Rat.mul bw (ms 10); concurrency = m' }
  in
  Alcotest.(check bool) "fits" true
    (Mpr.compose [ iface Rat.one 1; iface Rat.one 2 ] ~procs:2 = Ok ());
  (match Mpr.compose [ iface (Rat.make 3 2) 2; iface Rat.one 2 ] ~procs:2 with
  | Error (Mpr.Utilization { total; procs = 2 }) ->
    Alcotest.(check string) "total bandwidth" "5/2" (Rat.to_string total)
  | _ -> Alcotest.fail "expected utilization overflow");
  match Mpr.compose [ iface Rat.one 3 ] ~procs:2 with
  | Error (Mpr.Concurrency { required = 3; procs = 2 }) -> ()
  | _ -> Alcotest.fail "expected concurrency overflow"

let test_mpr_taskset_folds_servers () =
  (* one periodic user (period 50) + one sporadic (min period 100,
     deadline 200, burst 2): the sporadic folds to its server with
     period T' = 50 and deadline d - T' = 150, demand burst * C *)
  let spec =
    {
      Randgen.label = "fold";
      periods = [| 50 |];
      chans = [];
      sporadics =
        [
          {
            Randgen.sp_name = "S";
            sp_user = 0;
            sp_burst = 2;
            sp_min_period = 100;
            sp_higher = true;
          };
        ];
    }
  in
  let net = Randgen.build_exn spec in
  let wcet = Derive.wcet_of_list (ms 1) [ ("S", ms 3) ] in
  let d = Derive.derive_exn ~wcet net in
  let ts = Mpr.taskset_of_network ~wcet net d in
  let server = List.find (fun t -> t.Mpr.t_name = "S") ts in
  Alcotest.(check string) "server period" "50" (Rat.to_string server.Mpr.period);
  Alcotest.(check string) "server deadline" "150"
    (Rat.to_string server.Mpr.deadline);
  Alcotest.(check string) "server demand = burst * C" "6"
    (Rat.to_string server.Mpr.wcet)

(* --- admission --------------------------------------------------------- *)

let decide_net name wcet net ~procs ~resident =
  let d = Derive.derive_exn ~wcet net in
  Admission.decide ~procs ~resident (Admission.candidate ~name ~wcet net d)

let heavy_net () =
  let params =
    {
      Randgen.seed = 42;
      n_periodic = 5;
      n_sporadic = 0;
      periods = [ 100 ];
      channel_density = 0.0;
      max_burst = 1;
    }
  in
  let net = Randgen.network params in
  let wcet =
    Randgen.wcet ~scale:(Rat.make 7 10) (Derive.const_wcet Rat.one) net
  in
  (net, wcet)

let test_admission_reason_json () =
  let reasons =
    [
      Admission.Duplicate_tenant "x";
      Admission.Load_bound { load = Rat.make 5 2; lower_bound = 3; procs = 2 };
      Admission.No_interface { utilization = Rat.make 7 2 };
      Admission.Compose_utilization { total = Rat.make 9 2; procs = 4 };
      Admission.Compose_concurrency { required = 5; procs = 4 };
      Admission.No_schedule { procs = 4 };
      Admission.Underivable "scheduling subclass violated";
      Admission.Overflow { step = "decide" };
    ]
  in
  List.iter
    (fun r ->
      let json = Json.to_string (Admission.reason_to_json r) in
      match Json.parse json with
      | Json.Obj _ as doc ->
        Alcotest.(check bool)
          (Printf.sprintf "reason %s has a code" json)
          true
          (Option.bind (Json.member "code" doc) Json.as_string <> None)
      | _ -> Alcotest.failf "reason did not parse as an object: %s" json)
    reasons

let test_admission_fig1 () =
  let net = Fppn_apps.Fig1.network () and wcet = Fppn_apps.Fig1.wcet in
  (match decide_net "fig1" wcet net ~procs:4 ~resident:[] with
  | Admission.Accepted iface ->
    Alcotest.(check bool) "interface fits the platform" true
      (Mpr.compose [ iface ] ~procs:4 = Ok ())
  | Admission.Rejected r ->
    Alcotest.failf "fig1 rejected at M=4: %s"
      (Json.to_string (Admission.reason_to_json r)));
  match decide_net "fig1" wcet net ~procs:1 ~resident:[] with
  | Admission.Rejected (Admission.Load_bound { lower_bound = 2; procs = 1; _ }) ->
    ()
  | _ -> Alcotest.fail "fig1 must fail the Prop. 3.1 bound at M=1"

let test_admission_heavy_mpr_reason () =
  let net, wcet = heavy_net () in
  match decide_net "heavy" wcet net ~procs:4 ~resident:[] with
  | Admission.Rejected (Admission.No_interface { utilization }) ->
    Alcotest.(check string) "utilization reported" "7/2"
      (Rat.to_string utilization)
  | other ->
    Alcotest.failf "expected no_interface, got %s"
      (Json.to_string (Admission.decision_to_json other))

(* The differential: the MPR verdict against the repo's other
   admission/schedulability analyses on the built-in applications.
   The tests are logically one-sided (the analyses bound different
   things) but the outcomes on these fixed inputs are deterministic,
   so both sides are pinned. *)
let test_admission_differential () =
  let apps =
    [
      ("fig1", Fppn_apps.Fig1.network (), (Fppn_apps.Fig1.wcet : Derive.wcet_map));
      ("automotive", Fppn_apps.Automotive.network (), Fppn_apps.Automotive.wcet);
    ]
  in
  List.iter
    (fun (name, net, wcet) ->
      let d = Derive.derive_exn ~wcet net in
      let cand = Admission.candidate ~name ~wcet net d in
      List.iter
        (fun m ->
          match Admission.decide ~procs:m ~resident:[] cand with
          | Admission.Accepted _ ->
            (* MPR accepted: Prop. 3.1 must agree (it is checked first),
               and MHEFT co-scheduling admission must also host the app
               alone on the same platform *)
            Alcotest.(check bool)
              (Printf.sprintf "%s lower bound fits M=%d" name m)
              true
              (cand.Admission.c_lower_bound <= m);
            (match
               Cosched.admit ~n_procs:m ~admitted:[]
                 { Cosched.app_name = name; app_priority = 0; graph = d.Derive.graph }
             with
            | Cosched.Admitted _ -> ()
            | Cosched.Rejected { reason; _ } ->
              Alcotest.failf "%s: MPR admits at M=%d but Cosched rejects: %s"
                name m reason)
          | Admission.Rejected _ ->
            Alcotest.failf "%s must be admitted at M=%d" name m)
        [ 2; 4 ])
    apps;
  (* the two co-resident: MPR composition and Cosched.admit both accept *)
  let fig1_net = Fppn_apps.Fig1.network () in
  let auto_net = Fppn_apps.Automotive.network () in
  let fig1_d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet fig1_net in
  let auto_d = Derive.derive_exn ~wcet:Fppn_apps.Automotive.wcet auto_net in
  let fig1_iface =
    match
      decide_net "fig1" Fppn_apps.Fig1.wcet fig1_net ~procs:4 ~resident:[]
    with
    | Admission.Accepted i -> i
    | Admission.Rejected _ -> Alcotest.fail "fig1 at M=4"
  in
  (match
     decide_net "automotive" Fppn_apps.Automotive.wcet auto_net ~procs:4
       ~resident:[ fig1_iface ]
   with
  | Admission.Accepted _ -> ()
  | Admission.Rejected r ->
    Alcotest.failf "automotive alongside fig1 at M=4: %s"
      (Json.to_string (Admission.reason_to_json r)));
  (match
     Cosched.admit ~n_procs:4
       ~admitted:
         [ { Cosched.app_name = "fig1"; app_priority = 0; graph = fig1_d.Derive.graph } ]
       { Cosched.app_name = "automotive"; app_priority = 1; graph = auto_d.Derive.graph }
   with
  | Cosched.Admitted _ -> ()
  | Cosched.Rejected { reason; _ } ->
    Alcotest.failf "cosched rejects automotive alongside fig1: %s" reason);
  (* the over-demanding tenant: both admissions turn it away *)
  let heavy, heavy_wcet = heavy_net () in
  let heavy_d = Derive.derive_exn ~wcet:heavy_wcet heavy in
  (match decide_net "heavy" heavy_wcet heavy ~procs:4 ~resident:[] with
  | Admission.Rejected _ -> ()
  | Admission.Accepted _ -> Alcotest.fail "heavy must be rejected at M=4");
  (match
     Cosched.admit ~n_procs:4 ~admitted:[]
       { Cosched.app_name = "heavy"; app_priority = 0; graph = heavy_d.Derive.graph }
   with
  | Cosched.Rejected _ -> ()
  | Cosched.Admitted _ -> Alcotest.fail "cosched must also reject heavy at M=4");
  (* uniprocessor: MPR admission at M=1 agrees with the RM response-time
     analysis on the automotive application *)
  (match
     decide_net "automotive" Fppn_apps.Automotive.wcet auto_net ~procs:1
       ~resident:[]
   with
  | Admission.Accepted _ -> ()
  | Admission.Rejected r ->
    Alcotest.failf "automotive rejected at M=1: %s"
      (Json.to_string (Admission.reason_to_json r)));
  Alcotest.(check bool) "RTA agrees automotive is uniproc schedulable" true
    (Rta.schedulable (Rta.analyse ~wcet:Fppn_apps.Automotive.wcet auto_net))

(* --- QCheck: the hoisted interface search against the per-probe one ---- *)

(* Periods on a small grid (one of them fractional), WCETs up to the
   whole period so that some sets need m' > 1, and deadlines from half
   to two and a half periods, so that in some sets every deadline falls
   past the hyperperiod and only the hyperperiod checkpoint is left *)
let mpr_taskset_gen =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    list_size (return n)
      (let* p =
         oneofl [ Rat.of_int 10; Rat.of_int 20; Rat.make 15 2; Rat.of_int 50 ]
       in
       let* k = int_range 1 64 in
       let* f =
         oneofl
           [ Rat.make 1 2; Rat.make 3 4; Rat.one; Rat.make 3 2; Rat.make 5 2 ]
       in
       return (p, k, f)))

let mpr_taskset raw =
  List.mapi
    (fun i (p, k, f) ->
      task (Printf.sprintf "t%d" i)
        ~c:(Rat.div (Rat.mul (Rat.of_int k) p) (ms 64))
        ~t:p ~d:(Rat.mul f p))
    raw

let same_interface a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Mpr.t), Some (y : Mpr.t) ->
    Rat.equal x.period y.period && Rat.equal x.budget y.budget
    && x.concurrency = y.concurrency
  | _ -> false

let prop_interface_equals_oracle =
  qprop "generate_interface = the per-probe oracle (step 1, 7, 64)" ~count:400
    QCheck2.Gen.(
      triple mpr_taskset_gen (oneofl [ 1; 7; 64 ])
        (oneofl [ None; Some 1; Some 2; Some 4 ]))
    (fun (raw, step, max_concurrency) ->
      let ts = mpr_taskset raw in
      same_interface
        (Mpr.generate_interface ~step ?max_concurrency ts)
        (Mpr_ref.generate_interface ~step ?max_concurrency ts))

let prop_edf_test_equals_oracle =
  qprop "is_schedulable_edf = the per-probe oracle" ~count:400
    QCheck2.Gen.(
      triple mpr_taskset_gen (int_range 0 128) (int_range 1 3))
    (fun (raw, k, concurrency) ->
      let ts = mpr_taskset raw in
      let period = Rat.of_int 2 in
      let budget = Rat.div (Rat.mul (Rat.of_int k) period) (ms 64) in
      let m = { Mpr.period; budget; concurrency } in
      Mpr.is_schedulable_edf ts m = Mpr_ref.is_schedulable_edf ts m)

(* --- QCheck: admission monotonicity ------------------------------------ *)

(* Synthetic candidates straight from task sets: period drawn from a
   small grid, WCET a fraction of it, implicit deadlines. *)
let taskset_gen =
  QCheck2.Gen.(
    let* n = int_range 1 3 in
    list_size (return n)
      (let* p = oneofl [ 10; 20; 50; 100 ] in
       let* k = int_range 1 48 in
       return (p, k)))

let tenants_gen =
  QCheck2.Gen.(list_size (int_range 1 6) taskset_gen)

let candidate_of_taskset name raw =
  let ts =
    List.mapi
      (fun i (p, k) ->
        task
          (Printf.sprintf "%s_%d" name i)
          ~c:(Rat.div (Rat.mul (Rat.of_int k) (ms p)) (ms 256))
          ~t:(ms p))
      raw
  in
  let u = Mpr.utilization ts in
  {
    Admission.c_name = name;
    c_load = u;
    c_lower_bound = max 1 (Rat.ceil u);
    c_taskset = ts;
  }

let admit_all ~procs cands =
  List.fold_left
    (fun (resident, verdicts) cand ->
      match Admission.decide ~procs ~resident cand with
      | Admission.Accepted iface -> (resident @ [ iface ], verdicts @ [ true ])
      | Admission.Rejected _ -> (resident, verdicts @ [ false ]))
    ([], []) cands

let prop_admission_monotone_in_m =
  qprop "one decision, fixed residents: admitted at M implies admitted at M+1"
    QCheck2.Gen.(
      let* ts = tenants_gen in
      let* m = int_range 1 3 in
      return (ts, m))
    (fun (raw, m) ->
      let cands = List.mapi (fun i r -> candidate_of_taskset (Printf.sprintf "t%d" i) r) raw in
      (* walk the sequential admission at M; at every step replay the
         same (resident, candidate) decision at M+1 *)
      let rec walk resident = function
        | [] -> true
        | cand :: rest -> (
          match Admission.decide ~procs:m ~resident cand with
          | Admission.Accepted iface ->
            (match Admission.decide ~procs:(m + 1) ~resident cand with
            | Admission.Accepted _ -> walk (resident @ [ iface ]) rest
            | Admission.Rejected _ -> false)
          | Admission.Rejected _ -> walk resident rest)
      in
      walk [] cands)

let prop_admission_set_monotone =
  qprop "a fully admitted tenant set stays fully admitted at M+1"
    QCheck2.Gen.(
      let* ts = tenants_gen in
      let* m = int_range 1 3 in
      return (ts, m))
    (fun (raw, m) ->
      let cands = List.mapi (fun i r -> candidate_of_taskset (Printf.sprintf "t%d" i) r) raw in
      let _, verdicts = admit_all ~procs:m cands in
      (not (List.for_all Fun.id verdicts))
      || snd (admit_all ~procs:(m + 1) cands) = verdicts)

let prop_retire_never_flips =
  qprop "retiring a tenant never flips a resident's verdict"
    QCheck2.Gen.(
      let* ts = tenants_gen in
      let* m = int_range 1 4 in
      return (ts, m))
    (fun (raw, m) ->
      let cands = List.mapi (fun i r -> candidate_of_taskset (Printf.sprintf "t%d" i) r) raw in
      let accepted =
        List.filter_map
          (fun (cand, ok) -> if ok then Some cand else None)
          (List.combine cands (snd (admit_all ~procs:m cands)))
      in
      let interfaces =
        List.map
          (fun c ->
            match Mpr.generate_interface c.Admission.c_taskset with
            | Some i -> i
            | None -> Alcotest.fail "accepted candidate lost its interface")
          accepted
      in
      (* drop each resident in turn: every survivor must still be
         admitted against the remaining interfaces *)
      List.for_all
        (fun retired ->
          List.for_all2
            (fun cand own ->
              own == List.nth interfaces retired
              ||
              let resident =
                List.filteri
                  (fun j i -> j <> retired && not (i == own))
                  interfaces
              in
              match Admission.decide ~procs:m ~resident cand with
              | Admission.Accepted _ -> true
              | Admission.Rejected _ -> false)
            accepted interfaces)
        (List.init (List.length accepted) Fun.id))

(* Service.register composes on its running bandwidth sum; over random
   register/retire sequences its decision must be Admission.decide's
   against the resident interfaces, and the sum must be the fold over
   them.  Returns whether both held at every step, and the compose
   rejections seen. *)
type admission_op = Register of int * int | Retire of int

let admission_ops_gen =
  QCheck2.Gen.(
    pair (int_range 1 3)
      (list_size (int_range 1 25)
         (frequency
            [
              (3, map2 (fun seed scale -> Register (seed, scale)) (int_range 0 99_999) (int_range 0 4));
              (1, map (fun i -> Retire i) (int_range 0 9));
            ])))

let admission_sequence_agrees (procs, ops) =
  let svc = Service.create ~procs ~frames:1 () in
  let seen = ref [] in
  let agrees i op =
    (match op with
    | Retire k ->
      Option.iter
        (fun ten -> ignore (Service.retire svc ten.Tenant.name))
        (List.nth_opt (Service.tenants svc) k);
      true
    | Register (seed, scale) -> (
      let net =
        Randgen.network
          {
            Randgen.seed;
            n_periodic = 1 + (seed mod 3);
            n_sporadic = seed mod 2;
            periods = [ 50; 100; 200 ];
            channel_density = 0.4;
            max_burst = 2;
          }
      in
      let wcet =
        Randgen.wcet
          ~scale:(List.nth [ Rat.make 1 20; Rat.make 1 8; Rat.make 1 4; Rat.make 1 2; Rat.make 3 4 ] scale)
          (Derive.const_wcet Rat.one) net
      in
      let name = Printf.sprintf "t%d" i in
      let expected =
        Result.map
          (fun d ->
            Admission.decide ~procs ~resident:(Service.resident_interfaces svc)
              (Admission.candidate ~name ~wcet net d))
          (Derive.derive ~wcet net)
      in
      match (expected, Service.register svc ~name ~wcet net) with
      | Ok (Admission.Rejected r), Error r' ->
        (match r with
        | Admission.Compose_utilization _ | Admission.Compose_concurrency _ ->
          seen := r :: !seen
        | _ -> ());
        r = r'
      | Ok (Admission.Accepted iface), Ok ten -> ten.Tenant.interface = iface
      | Ok (Admission.Accepted _), Error (Admission.No_schedule _)
      | Error _, Error (Admission.Underivable _) -> true
      | _ -> false))
    && Rat.equal (Service.bandwidth svc)
         (List.fold_left
            (fun acc m -> Rat.add acc (Mpr.bandwidth m))
            Rat.zero (Service.resident_interfaces svc))
  in
  let ok = List.for_all Fun.id (List.mapi agrees ops) in
  (ok, !seen)

let prop_register_equals_decide =
  qprop "register decides as Admission.decide over the residents" ~count:200
    admission_ops_gen
    (fun case -> fst (admission_sequence_agrees case))

(* the same check on 60 fixed draws, which must meet both compose
   rejections *)
let test_register_compose_rejections () =
  let rand = Random.State.make [| 42 |] in
  let seen =
    List.concat_map
      (fun _ ->
        let ok, seen =
          admission_sequence_agrees (QCheck2.Gen.generate1 ~rand admission_ops_gen)
        in
        Alcotest.(check bool) "register agrees with decide" true ok;
        seen)
      (List.init 60 Fun.id)
  in
  let count f = List.length (List.filter f seen) in
  Alcotest.(check bool) "a utilization rejection" true
    (count (function Admission.Compose_utilization _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "a concurrency rejection" true
    (count (function Admission.Compose_concurrency _ -> true | _ -> false) > 0)

(* --- ingest ------------------------------------------------------------ *)

let test_ingest_legalize () =
  let gen = Fppn.Event.sporadic ~burst:2 ~min_period:(ms 100) ~deadline:(ms 150) () in
  let generators = [ ("S", gen) ] in
  let ev s = { Ingest.ev_tenant = "t"; ev_process = "S"; ev_stamp = ms s } in
  let traces, dropped =
    Ingest.legalize ~generators ~horizon:(ms 400)
      [ ev 30; ev 10; ev 20; ev 140; ev 500; ev (-5);
        { Ingest.ev_tenant = "t"; ev_process = "nope"; ev_stamp = ms 1 } ]
  in
  (* 10 and 20 survive the (2,100) window, 30 is thinned; 140 opens a
     new window; 500 is past the horizon, -5 and "nope" are dropped *)
  Alcotest.(check int) "dropped count" 4 dropped;
  match traces with
  | [ ("S", stamps) ] ->
    Alcotest.(check (list string)) "kept stamps" [ "10"; "20"; "140" ]
      (List.map Rat.to_string stamps);
    Alcotest.(check bool) "trace is engine-legal" true
      (Fppn.Event.is_valid_sporadic_trace gen stamps)
  | _ -> Alcotest.fail "expected one trace for S"

let prop_legalize_always_legal =
  qprop "legalized traces always satisfy the sporadic constraint"
    QCheck2.Gen.(
      let* burst = int_range 1 3 in
      let* stamps = list_size (int_range 0 40) (int_range (-10) 500) in
      return (burst, stamps))
    (fun (burst, stamps) ->
      let gen =
        Fppn.Event.sporadic ~burst ~min_period:(ms 50) ~deadline:(ms 100) ()
      in
      let events =
        List.map
          (fun s -> { Ingest.ev_tenant = "t"; ev_process = "S"; ev_stamp = ms s })
          stamps
      in
      let traces, _ =
        Ingest.legalize ~generators:[ ("S", gen) ] ~horizon:(ms 400) events
      in
      List.for_all
        (fun (_, t) -> Fppn.Event.is_valid_sporadic_trace gen t)
        traces)

(* --- end-to-end service ------------------------------------------------ *)

let small_tenant_net i =
  let params =
    {
      Randgen.seed = 9000 + (7919 * i);
      n_periodic = 2;
      n_sporadic = 1;
      periods = [ 50; 100 ];
      channel_density = 0.4;
      max_burst = 2;
    }
  in
  let net = Randgen.network params in
  let wcet =
    Randgen.wcet ~scale:(Rat.make 1 2000) (Derive.const_wcet Rat.one) net
  in
  (net, wcet)

let register_small svc i =
  let net, wcet = small_tenant_net i in
  Service.register svc ~name:(Printf.sprintf "t%02d" i) ~wcet net

let test_service_end_to_end () =
  let svc = Service.create ~queue_capacity:1024 ~procs:4 ~frames:2 () in
  for i = 0 to 19 do
    match register_small svc i with
    | Ok _ -> ()
    | Error r ->
      Alcotest.failf "tenant %d rejected: %s" i
        (Json.to_string (Admission.reason_to_json r))
  done;
  Alcotest.(check int) "20 residents" 20 (List.length (Service.tenants svc));
  let targets =
    Array.of_list
      (List.filter_map
         (fun ten ->
           match Tenant.sporadic_events ten with
           | [] -> None
           | sp -> Some (ten.Tenant.name, Array.of_list (List.map fst sp)))
         (Service.tenants svc))
  in
  Pool.with_pool ~jobs:3 (fun pool ->
      for epoch = 1 to 2 do
        (* three concurrent producer domains feed the MPSC queue *)
        let doms =
          List.init 3 (fun p ->
              Domain.spawn (fun () ->
                  let prng = Rt_util.Prng.create ((epoch * 100) + p) in
                  for _ = 1 to 50 do
                    let tname, sp =
                      targets.(Rt_util.Prng.int prng (Array.length targets))
                    in
                    let process = sp.(Rt_util.Prng.int prng (Array.length sp)) in
                    let stamp = Rat.of_int (Rt_util.Prng.int prng 200) in
                    ignore (Service.submit svc ~tenant:tname ~process ~stamp)
                  done))
        in
        List.iter Domain.join doms;
        let r = Service.run_epoch ~pool svc in
        Alcotest.(check int) "epoch number" epoch r.Service.epoch;
        Alcotest.(check int) "every event accounted for" 150
          (r.Service.events_drained);
        Alcotest.(check int) "drained = consumed + dropped + unhandled"
          r.Service.events_drained
          (r.Service.events_consumed + r.Service.events_dropped
           + r.Service.events_unhandled);
        Alcotest.(check bool) "work happened" true (r.Service.jobs_executed > 0)
      done;
      (* the oracle: every tenant's co-resident epoch equals its
         standalone sequential run *)
      List.iter
        (fun (name, ok) ->
          Alcotest.(check bool) (Printf.sprintf "oracle %s" name) true ok)
        (Service.verify ~pool svc))

(* U periodic 100 ms, S sporadic (min period 100 ms) configuring it,
   with U -> S: S's server windows are [b - 100, b), so over 2 frames
   a stamp in [100, 200) is legal input yet left to the window ending
   at the next epoch's origin. *)
let final_window_net () =
  let module B = Fppn.Network.Builder in
  let module P = Fppn.Process in
  let b = B.create "final-window" in
  let nop _ = () in
  B.add_process b
    (P.make ~name:"U"
       ~event:(Fppn.Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (P.Native nop));
  B.add_process b
    (P.make ~name:"S"
       ~event:(Fppn.Event.sporadic ~min_period:(ms 100) ~deadline:(ms 150) ())
       (P.Native nop));
  B.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"S" ~reader:"U" "cfg";
  B.add_priority b "U" "S";
  B.finish_exn b

let test_service_final_window_unhandled () =
  let svc = Service.create ~procs:2 ~frames:2 () in
  let ten =
    match
      Service.register svc ~name:"t" ~wcet:(Derive.const_wcet (ms 10))
        (final_window_net ())
    with
    | Ok ten -> ten
    | Error r -> Alcotest.failf "rejected: %s" (Json.to_string (Admission.reason_to_json r))
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "queued" true
        (Service.submit svc ~tenant:"t" ~process:"S" ~stamp:(ms s)))
    [ 20; 150 ];
  let r = Service.run_epoch svc in
  Alcotest.(check (list int)) "drained, consumed, dropped, unhandled"
    [ 2; 1; 0; 1 ]
    [
      r.Service.events_drained;
      r.Service.events_consumed;
      r.Service.events_dropped;
      r.Service.events_unhandled;
    ];
  Alcotest.(check int) "tenant counts only the handled stamp" 1
    ten.Tenant.events_consumed;
  let rt =
    Runtime.Engine.run ten.Tenant.plan.Tenant.net ten.Tenant.plan.Tenant.derive
      ten.Tenant.plan.Tenant.schedule
      (Tenant.config ten ~frames:2 ~sporadic:ten.Tenant.last_events)
  in
  Alcotest.(check (list (pair string string))) "the engine leaves S@150"
    [ ("S", "150") ]
    (List.map (fun (n, s) -> (n, Rat.to_string s)) rt.Runtime.Engine.unhandled_events)

let test_service_backpressure () =
  let svc = Service.create ~queue_capacity:8 ~procs:2 ~frames:1 () in
  (match register_small svc 0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "tenant 0 rejected");
  let tname = (List.hd (Service.tenants svc)).Tenant.name in
  let sp =
    match Tenant.sporadic_events (List.hd (Service.tenants svc)) with
    | (n, _) :: _ -> n
    | [] -> Alcotest.fail "tenant has no sporadic process"
  in
  let accepted = ref 0 in
  for i = 1 to 100 do
    if Service.submit svc ~tenant:tname ~process:sp ~stamp:(ms i) then
      incr accepted
  done;
  Alcotest.(check int) "queue holds exactly its capacity" 8 !accepted;
  Alcotest.(check int) "the rest counted as backpressure" 92
    (Service.backpressure svc);
  let r = Service.run_epoch svc in
  Alcotest.(check int) "drained what fit" 8 r.Service.events_drained

let test_service_retire_and_duplicate () =
  let svc = Service.create ~procs:4 ~frames:1 () in
  List.iter
    (fun i ->
      match register_small svc i with
      | Ok _ -> ()
      | Error _ -> Alcotest.failf "tenant %d rejected" i)
    [ 0; 1; 2 ];
  (match register_small svc 1 with
  | Error (Admission.Duplicate_tenant _) -> ()
  | _ -> Alcotest.fail "duplicate registration must be rejected");
  Alcotest.(check bool) "retire t01" true (Service.retire svc "t01");
  Alcotest.(check bool) "retire is idempotent" false (Service.retire svc "t01");
  Alcotest.(check int) "two residents left" 2
    (List.length (Service.tenants svc));
  Alcotest.(check bool) "t01 gone" true (Service.find svc "t01" = None);
  match register_small svc 1 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "freed bandwidth admits the tenant again"

let test_service_zero_wcet_tenant () =
  (* zero-WCET jobs with successors once tripped the list scheduler's
     completion bookkeeping (Assert_failure); registration must answer
     with a verdict instead of raising, whichever processes cost nothing *)
  let net = Fppn_apps.Fig1.network () in
  List.iteri
    (fun i (label, wcet) ->
      let svc = Service.create ~procs:2 ~frames:1 () in
      match Service.register svc ~name:(Printf.sprintf "zero%d" i) ~wcet net with
      | Ok _ | Error _ -> ()
      | exception e ->
        Alcotest.failf "%s: register raised %s" label (Printexc.to_string e))
    [
      ("every WCET zero", Derive.const_wcet Rat.zero);
      ( "FilterB zero",
        fun p -> if p = "FilterB" then Rat.zero else Fppn_apps.Fig1.wcet p );
    ]

(* W feeds R, whose second job raises while [armed] holds: the epoch
   that raises leaves the tenant no signature, and the next one equals
   its standalone run again *)
let test_service_raising_epoch () =
  let armed = ref false in
  let net =
    let module B = Fppn.Network.Builder in
    let module P = Fppn.Process in
    let event () = Fppn.Event.periodic ~period:(ms 100) ~deadline:(ms 100) () in
    let b = B.create "raising" in
    B.add_process b
      (P.make ~name:"W" ~event:(event ())
         (P.Native (fun ctx -> ctx.P.write "c" (Fppn.Value.Int ctx.P.job_index))));
    B.add_process b
      (P.make ~name:"R" ~event:(event ())
         (P.Native
            (fun ctx ->
              if !armed && ctx.P.job_index = 2 then failwith "R: second job";
              ctx.P.write "out" (ctx.P.read "c"))));
    B.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"W" ~reader:"R" "c";
    B.add_priority b "W" "R";
    B.add_output b ~owner:"R" "out";
    B.finish_exn b
  in
  let svc = Service.create ~procs:2 ~frames:2 () in
  let ten =
    match Service.register svc ~name:"r" ~wcet:(Derive.const_wcet (ms 10)) net with
    | Ok ten -> ten
    | Error r -> Alcotest.failf "rejected: %s" (Json.to_string (Admission.reason_to_json r))
  in
  Alcotest.(check bool) "no session before the first epoch" true
    (ten.Tenant.session = None && Tenant.last_signature ten = None);
  let verified () =
    Alcotest.(check (list (pair string bool))) "verify" [ ("r", true) ]
      (Service.verify svc)
  in
  ignore (Service.run_epoch svc);
  verified ();
  armed := true;
  Alcotest.check_raises "the second epoch raises" (Failure "R: second job")
    (fun () -> ignore (Service.run_epoch svc));
  Alcotest.(check bool) "no signature after the raise" true
    (Tenant.last_signature ten = None);
  Alcotest.(check (list (pair string bool))) "nothing to verify" []
    (Service.verify svc);
  armed := false;
  ignore (Service.run_epoch svc);
  verified ();
  Alcotest.(check bool) "the signature is the standalone run's" true
    (Tenant.last_signature ten = Some (Tenant.standalone_signature ten ~frames:2))

(* A stamp 1/1000000000000037 ms past an integer needs a grid of about
   10^15 ticks per ms, past 2^55 ticks over fig1's epoch: the tenant's
   session refuses the epoch, with the reason, and [run_epoch] raises
   it.  No producer in the repo emits such a stamp ([serve] submits
   integer ms), and whether one refused tenant may stop the epoch of
   the others is the service's fault-containment question. *)
let test_service_off_grid_stamp () =
  let svc = Service.create ~procs:4 ~frames:2 () in
  (match
     Service.register svc ~name:"fig1" ~wcet:Fppn_apps.Fig1.wcet
       (Fppn_apps.Fig1.network ())
   with
  | Ok _ -> ()
  | Error r ->
    Alcotest.failf "rejected: %s" (Json.to_string (Admission.reason_to_json r)));
  let stamp = Rat.add (ms 50) (Rat.make 1 1_000_000_000_000_037) in
  Alcotest.(check bool) "queued" true
    (Service.submit svc ~tenant:"fig1" ~process:"CoefB" ~stamp);
  match Service.run_epoch svc with
  | _ -> Alcotest.fail "the epoch was not refused"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "the reason"
      "Engine.run: no tick grid holds the run: 2 frames of the hyperperiod \
       200 exceed 2^55 ticks of 1/1000000000000037"
      msg

(* a sporadic process with no channel to a periodic user is outside the
   Sec. III-A subclass: registering it is a verdict, not an exception *)
let test_service_underivable () =
  let svc = Service.create ~procs:4 ~frames:1 () in
  (match register_small svc 0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "tenant 0 rejected");
  let names () = List.map (fun ten -> ten.Tenant.name) (Service.tenants svc) in
  let before = names () in
  let net =
    let module B = Fppn.Network.Builder in
    let b = B.create "orphan" in
    B.add_process b
      (Fppn.Process.make ~name:"P"
         ~event:(Fppn.Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
         (Fppn.Process.Native ignore));
    B.add_process b
      (Fppn.Process.make ~name:"S"
         ~event:(Fppn.Event.sporadic ~min_period:(ms 100) ~deadline:(ms 100) ())
         (Fppn.Process.Native ignore));
    B.finish_exn b
  in
  (match
     Service.register svc ~name:"orphan" ~wcet:(Derive.const_wcet (ms 1)) net
   with
  | Error (Admission.Underivable _) -> ()
  | Error r ->
    Alcotest.failf "expected underivable, got %s"
      (Json.to_string (Admission.reason_to_json r))
  | Ok _ -> Alcotest.fail "an underivable network was admitted");
  Alcotest.(check (list string)) "residents unchanged" before (names ())

(* a network whose hyperperiod overflows the rationals (four coprime
   periods near 10^6) is underivable too: a verdict, not Rat.Overflow *)
let test_service_hyperperiod_overflow () =
  let svc = Service.create ~procs:4 ~frames:1 () in
  let net =
    let module B = Fppn.Network.Builder in
    let b = B.create "coprime" in
    List.iteri
      (fun i t ->
        B.add_process b
          (Fppn.Process.make ~name:(Printf.sprintf "P%d" i)
             ~event:(Fppn.Event.periodic ~period:(ms t) ~deadline:(ms t) ())
             (Fppn.Process.Native ignore)))
      [ 999983; 999979; 999961; 999959 ];
    B.finish_exn b
  in
  match
    Service.register svc ~name:"coprime" ~wcet:(Derive.const_wcet (ms 1)) net
  with
  | Error (Admission.Underivable _) ->
    Alcotest.(check int) "no resident" 0 (List.length (Service.tenants svc))
  | Error r ->
    Alcotest.failf "expected underivable, got %s"
      (Json.to_string (Admission.reason_to_json r))
  | Ok _ -> Alcotest.fail "an underivable network was admitted"

(* fig1 with every WCET 10^-16 ms: a tick grid holds its task graph
   (D = 10^16), but the rational steps after it overflow *)
let test_service_overflow_reason () =
  let svc = Service.create ~procs:4 ~frames:2 () in
  (match
     Service.register svc ~name:"fig1" ~wcet:Fppn_apps.Fig1.wcet
       (Fppn_apps.Fig1.network ())
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "fig1 rejected");
  let before = Json.to_string (Service.status_json svc) in
  let tiny = Derive.const_wcet (Rat.make 1 10_000_000_000_000_000) in
  (match
     Service.register svc ~name:"tiny" ~wcet:tiny (Fppn_apps.Fig1.network ())
   with
  | Error (Admission.Overflow _ as r) ->
    let json = Admission.reason_to_json r in
    let field name = Option.bind (Json.member name json) Json.as_string in
    Alcotest.(check (option string)) "code" (Some "overflow") (field "code");
    (* the analysis and the interface hold; the list scheduler's
       rational makespan does not *)
    Alcotest.(check (option string)) "step" (Some "plan") (field "step")
  | Error r ->
    Alcotest.failf "expected an overflow reason, got %s"
      (Json.to_string (Admission.reason_to_json r))
  | Ok _ -> Alcotest.fail "the 10^-16 ms tenant was admitted");
  Alcotest.(check string) "status unchanged" before
    (Json.to_string (Service.status_json svc))

let () =
  Alcotest.run "service"
    [
      ( "mpr",
        [
          Alcotest.test_case "dbf" `Quick test_mpr_dbf;
          Alcotest.test_case "sbf monotone" `Quick test_mpr_sbf_monotone;
          Alcotest.test_case "generate" `Quick test_mpr_generate;
          Alcotest.test_case "generate none" `Quick test_mpr_generate_none;
          Alcotest.test_case "empty taskset" `Quick test_mpr_empty;
          Alcotest.test_case "compose" `Quick test_mpr_compose;
          Alcotest.test_case "server folding" `Quick
            test_mpr_taskset_folds_servers;
        ] );
      ( "admission",
        [
          Alcotest.test_case "reasons are machine-readable" `Quick
            test_admission_reason_json;
          Alcotest.test_case "fig1 verdicts" `Quick test_admission_fig1;
          Alcotest.test_case "heavy: MPR reason" `Quick
            test_admission_heavy_mpr_reason;
          Alcotest.test_case "differential vs Cosched/RTA" `Quick
            test_admission_differential;
        ] );
      ( "properties",
        [
          prop_admission_monotone_in_m;
          prop_admission_set_monotone;
          prop_retire_never_flips;
          prop_register_equals_decide;
          prop_interface_equals_oracle;
          prop_edf_test_equals_oracle;
          Alcotest.test_case "register meets both compose rejections" `Quick
            test_register_compose_rejections;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "legalize" `Quick test_ingest_legalize;
          prop_legalize_always_legal;
        ] );
      ( "service",
        [
          Alcotest.test_case "end to end with async producers" `Quick
            test_service_end_to_end;
          Alcotest.test_case "final-window stamps unhandled" `Quick
            test_service_final_window_unhandled;
          Alcotest.test_case "backpressure" `Quick test_service_backpressure;
          Alcotest.test_case "retire + duplicate" `Quick
            test_service_retire_and_duplicate;
          Alcotest.test_case "zero-WCET tenant" `Quick
            test_service_zero_wcet_tenant;
          Alcotest.test_case "an epoch whose body raises" `Quick
            test_service_raising_epoch;
          Alcotest.test_case "a stamp on no tick grid is refused" `Quick
            test_service_off_grid_stamp;
          Alcotest.test_case "underivable tenant" `Quick
            test_service_underivable;
          Alcotest.test_case "hyperperiod overflow underivable" `Quick
            test_service_hyperperiod_overflow;
          Alcotest.test_case "10^-16 ms WCETs: an overflow reason" `Quick
            test_service_overflow_reason;
        ] );
    ]
