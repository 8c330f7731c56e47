module Rat = Rt_util.Rat
module Digraph = Rt_util.Digraph
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Analysis = Taskgraph.Analysis
module Tick_graph = Taskgraph.Tick_graph

let ms = Rat.of_int
let rat = Alcotest.testable Rat.pp Rat.equal

(* Hand-built graph:
     J0 (A=0,  D=100, C=30) --\
                               +--> J2 (A=0, D=100, C=40)
     J1 (A=0,  D=60,  C=20) --/
     J3 (A=100, D=200, C=50)   (independent)            *)
let sample () =
  let mk id name a d c =
    {
      Job.id;
      proc = id;
      proc_name = name;
      k = 1;
      arrival = ms a;
      deadline = ms d;
      wcet = ms c;
      is_server = false;
    }
  in
  let jobs =
    [| mk 0 "J0" 0 100 30; mk 1 "J1" 0 60 20; mk 2 "J2" 0 100 40; mk 3 "J3" 100 200 50 |]
  in
  let dag = Digraph.create 4 in
  Digraph.add_edge dag 0 2;
  Digraph.add_edge dag 1 2;
  Graph.make jobs dag

let ticks_of (a : Analysis.t) = Array.map (Tick_graph.to_rat a.ticks)

let test_asap_alap () =
  let g = sample () in
  let a = Analysis.analyse g in
  let asap = ticks_of a a.asap and alap = ticks_of a a.alap in
  Alcotest.check rat "J0 asap" (ms 0) asap.(0);
  Alcotest.check rat "J2 asap = max pred chain" (ms 30) asap.(2);
  Alcotest.check rat "J3 asap = its arrival" (ms 100) asap.(3);
  Alcotest.check rat "J2 alap = own deadline" (ms 100) alap.(2);
  Alcotest.check rat "J0 alap tightened by J2" (ms 60) alap.(0);
  Alcotest.check rat "J1 alap = min(own D, J2 slack)" (ms 60) alap.(1)

let test_load () =
  let g = sample () in
  let l = (Analysis.analyse g).load in
  (* window [0,100] holds J0+J1+J2 = 90ms -> 0.9; check it's the max *)
  Alcotest.check rat "load value" (Rat.make 9 10) l.Analysis.value;
  let t1, t2 = l.Analysis.window in
  Alcotest.check rat "window start" (ms 0) t1;
  Alcotest.check rat "window end" (ms 100) t2

let test_load_empty () =
  let g = Graph.make [||] (Digraph.create 0) in
  (* empty arrays are rejected by Static_schedule but Graph accepts them *)
  let a = Analysis.analyse g in
  Alcotest.check rat "empty load" Rat.zero a.load.value;
  Alcotest.(check int) "lower bound 1" 1 (Analysis.lower_bound a)

let test_necessary_condition () =
  let g = sample () in
  let a = Analysis.analyse g in
  (match Analysis.necessary_condition a ~processors:1 with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "unexpected violations: %d (load %s)" (List.length vs)
      (Rat.to_string a.load.value));
  (* an infeasible job: C bigger than its window *)
  let bad =
    let mk id a d c =
      {
        Job.id;
        proc = id;
        proc_name = "X";
        k = 1;
        arrival = ms a;
        deadline = ms d;
        wcet = ms c;
        is_server = false;
      }
    in
    Analysis.analyse (Graph.make [| mk 0 0 50 80 |] (Digraph.create 1))
  in
  Alcotest.(check int) "no processor count helps" max_int
    (Analysis.lower_bound bad);
  match Analysis.necessary_condition bad ~processors:4 with
  | Ok () -> Alcotest.fail "expected Job_infeasible"
  | Error vs ->
    Alcotest.(check bool) "job infeasible reported" true
      (List.exists (function Analysis.Job_infeasible 0 -> true | _ -> false) vs)

let test_load_exceeds () =
  (* two independent jobs each filling [0,100] completely: load = 2 *)
  let mk id a d c =
    {
      Job.id;
      proc = id;
      proc_name = Printf.sprintf "P%d" id;
      k = 1;
      arrival = ms a;
      deadline = ms d;
      wcet = ms c;
      is_server = false;
    }
  in
  let g = Graph.make [| mk 0 0 100 100; mk 1 0 100 100 |] (Digraph.create 2) in
  let a = Analysis.analyse g in
  Alcotest.check rat "load 2" (ms 2) a.load.value;
  Alcotest.(check int) "lower bound 2" 2 (Analysis.lower_bound a);
  (match Analysis.necessary_condition a ~processors:1 with
  | Error vs ->
    Alcotest.(check bool) "load violation on M=1" true
      (List.exists (function Analysis.Load_exceeds _ -> true | _ -> false) vs)
  | Ok () -> Alcotest.fail "expected Load_exceeds");
  match Analysis.necessary_condition a ~processors:2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "M=2 satisfies the necessary condition"

let test_b_level_critical_path () =
  let g = sample () in
  let v = Tick_graph.compile g in
  let bl = Array.map (Tick_graph.to_rat v) (Analysis.b_level v) in
  Alcotest.check rat "sink b-level = own wcet" (ms 40) bl.(2);
  Alcotest.check rat "J0 b-level = 30+40" (ms 70) bl.(0);
  Alcotest.check rat "J3 b-level standalone" (ms 50) bl.(3);
  Alcotest.(check (array rat)) "b-level = the rational oracle's"
    (Analysis_ref.b_level g) bl;
  let len, path = Analysis_ref.critical_path g in
  Alcotest.check rat "critical path length" (ms 70) len;
  Alcotest.(check (list int)) "critical path" [ 0; 2 ] path

let test_fft_load_matches_paper () =
  (* Sec. V-A: 14 jobs, C=13.3 ms -> load 0.93 *)
  let p = Fppn_apps.Fft.default_params in
  let d = Taskgraph.Derive.derive_exn ~wcet:(Fppn_apps.Fft.wcet_map p) (Fppn_apps.Fft.network p) in
  let l = (Analysis.analyse d.Taskgraph.Derive.graph).load in
  let v = Rat.to_float l.Analysis.value in
  Alcotest.(check bool) "load = 0.931" true (v > 0.92 && v < 0.94)

let test_fft_overhead_load_matches_paper () =
  (* with the 41 ms overhead job the load exceeds 1 (paper: ~1.2) *)
  let p = Fppn_apps.Fft.default_params in
  let net = Fppn_apps.Fft.network_with_overhead_job p in
  let wcet = Fppn_apps.Fft.wcet_map_with_overhead p ~overhead:(ms 41) in
  let d = Taskgraph.Derive.derive_exn ~wcet net in
  let a = Analysis.analyse d.Taskgraph.Derive.graph in
  let v = Rat.to_float a.load.value in
  Alcotest.(check bool) "load > 1" true (v > 1.0);
  Alcotest.(check bool) "load in the paper's ballpark (~1.1-1.2)" true (v < 1.3);
  (* Prop. 3.1: single processor is necessarily infeasible *)
  match Analysis.necessary_condition a ~processors:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected the necessary condition to fail on M=1"

(* --- the tick analysis against the rational oracle ----------------------- *)

let job id ~proc a d c =
  {
    Job.id;
    proc;
    proc_name = Printf.sprintf "P%d" proc;
    k = 1;
    arrival = a;
    deadline = d;
    wcet = c;
    is_server = false;
  }

let independent jobs = Graph.of_succs jobs (Array.map (fun _ -> []) jobs)

(* one process of tiny_wcet.fppn: a 10^-16 ms WCET every 100 ms, whose
   grid (D = 10^16) is past Rat.compare's cross products *)
let test_tiny_wcet () =
  let ast =
    Fppn_lang.Parser.parse
      "network tiny {\n\
      \  process A : periodic 100 deadline 100 wcet 0.0000000000000001 {\n\
      \    loc main { when true goto main; }\n\
      \  }\n\
       }\n"
  in
  let net = Fppn_lang.Elaborate.to_network ast in
  let wcet = Fppn_lang.Elaborate.wcet_map ~default:(ms 10) ast in
  let d = Taskgraph.Derive.derive_exn ~wcet net in
  let a = Analysis.analyse d.Taskgraph.Derive.graph in
  Alcotest.check rat "load 10^-18" (Rat.make 1 1_000_000_000_000_000_000)
    a.load.value;
  let t1, t2 = a.load.window in
  Alcotest.check rat "window start" (ms 0) t1;
  Alcotest.check rat "window end" (ms 100) t2;
  Alcotest.(check int) "lower bound 1" 1 (Analysis.lower_bound a)

(* four WCETs 1/65521, 1/65519, 1/65497, 1/65479: their common
   denominator (about 1.8·10^19) is past max_int *)
let test_no_grid () =
  let jobs =
    Array.mapi
      (fun i p -> job i ~proc:i (ms 0) (ms 100) (Rat.make 1 p))
      [| 65521; 65519; 65497; 65479 |]
  in
  match Analysis.analyse (independent jobs) with
  | _ -> Alcotest.fail "expected Rat.Overflow"
  | exception Rat.Overflow -> ()

(* Two windows whose ratios differ by about 10^-17, less than a double
   resolves near 1/3: [3·10^16, 3·10^16 + 3] holding 1 ms (ratio 1/3),
   met first, and [0, 3·10^16] holding 10^16 + 1 ms, the larger.  Their
   cross products pass max_int. *)
let test_subfloat_windows () =
  let e16 = 10_000_000_000_000_000 in
  let g =
    independent
      [|
        job 0 ~proc:0 (ms 0) (ms (3 * e16)) (ms (e16 + 1));
        job 1 ~proc:1 (ms (3 * e16)) (ms ((3 * e16) + 3)) (ms 1);
      |]
  in
  let a = Analysis.analyse g in
  Alcotest.check rat "value" (Rat.make (e16 + 1) (3 * e16)) a.load.value;
  let t1, t2 = a.load.window in
  Alcotest.check rat "window start" (ms 0) t1;
  Alcotest.check rat "window end" (ms (3 * e16)) t2

let same_violations vs ws =
  List.length vs = List.length ws
  && List.for_all2
       (fun v w ->
         match (v, w) with
         | Analysis.Job_infeasible i, Analysis_ref.Job_infeasible j -> i = j
         | ( Analysis.Load_exceeds { load; processors },
             Analysis_ref.Load_exceeds { load = l; processors = p } ) ->
           Rat.equal load l && processors = p
         | _ -> false)
       vs ws

(* Value, window, the jobs that cannot fit, the verdicts at M = 1..4 and
   the lower bound equal the rational oracle's; a graph no int grid holds
   raises Rat.Overflow.  Where the oracle's own cross products overflow
   it cannot judge, and the tick analysis only has to answer. *)
let matches_oracle g =
  match Analysis.analyse g with
  | exception Rat.Overflow -> (
    match Tick_graph.compile g with
    | _ -> false
    | exception Rat.Overflow -> true)
  | a -> (
    match
      let times = Analysis_ref.asap_alap g in
      ( Analysis_ref.load ~times g,
        List.map
          (fun m -> Analysis_ref.necessary_condition ~times g ~processors:m)
          [ 1; 2; 3; 4; max_int ] )
    with
    | exception Rat.Overflow -> true
    | l, verdicts ->
      let t1, t2 = a.load.window and r1, r2 = l.Analysis_ref.window in
      let infeasible =
        match List.nth verdicts 4 with
        | Ok () -> []
        | Error vs ->
          List.filter_map
            (function Analysis_ref.Job_infeasible i -> Some i | _ -> None)
            vs
      in
      let lower_bound =
        if infeasible <> [] then max_int
        else max 1 (Rat.ceil l.Analysis_ref.value)
      in
      Rat.equal a.load.value l.Analysis_ref.value
      && Rat.equal t1 r1 && Rat.equal t2 r2
      && a.infeasible = infeasible
      && List.for_all2
           (fun m verdict ->
             match (Analysis.necessary_condition a ~processors:m, verdict) with
             | Ok (), Ok () -> true
             | Error vs, Error ws -> same_violations vs ws
             | _ -> false)
           [ 1; 2; 3; 4; max_int ] verdicts
      && Analysis.lower_bound a = lower_bound)

let scales = [| Rat.make 1 7; Rat.make 3 8; Rat.make 1 10; Rat.make 1 1000 |]

(* Randgen nets with bursts and sporadic servers; WCET scales with mixed
   denominators, some zero *)
let randgen_graph =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* n_periodic = int_range 1 6 in
    let* n_sporadic = int_range 0 2 in
    let* max_burst = int_range 1 3 in
    let params =
      {
        Fppn_apps.Randgen.default_params with
        seed;
        n_periodic;
        n_sporadic;
        max_burst;
      }
    in
    let net = Fppn_apps.Randgen.network params in
    let wcet p =
      if Hashtbl.hash (p, seed) mod 5 = 0 then Rat.zero
      else
        Fppn_apps.Randgen.wcet ~scale:scales.(Hashtbl.hash (seed, p) mod 4)
          (Taskgraph.Derive.const_wcet Rat.one) net p
    in
    return (Taskgraph.Derive.derive_exn ~wcet net).Taskgraph.Derive.graph)

(* DAGs of up to 10 jobs with forward edges and times on small grids:
   small ranges make equal ratios, equal ASAP/ALAP values and jobs that
   cannot fit common *)
let random_dag =
  QCheck2.Gen.(
    let* n = int_range 1 10 in
    let* den = oneofl [ 1; 2; 3; 7; 10 ] in
    let* den_c = oneofl [ 1; 2; 5 ] in
    let* times =
      list_size (return n)
        (triple (int_range 0 20) (int_range 1 30) (int_range 0 10))
    in
    let* edges = list_size (return (n * n)) (int_range 0 3) in
    let edges = Array.of_list edges in
    let jobs =
      Array.of_list
        (List.mapi
           (fun i (a, len, c) ->
             job i ~proc:i (Rat.make a den) (Rat.make (a + len) den)
               (Rat.make c (den * den_c)))
           times)
    in
    let succs =
      Array.init n (fun i ->
          List.filter (fun j -> j > i && edges.((i * n) + j) = 0)
            (List.init n Fun.id))
    in
    return (Graph.of_succs jobs succs))

let prop name gen count =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen matches_oracle)

(* [a·d] against [c·b] on 31-bit limbs, for operands below 2^62 *)
let limb_product x y =
  let mask = (1 lsl 31) - 1 in
  let x0 = x land mask and x1 = x lsr 31 and y0 = y land mask and y1 = y lsr 31 in
  let p00 = x0 * y0 and p01 = x0 * y1 and p10 = x1 * y0 and p11 = x1 * y1 in
  let t1 = (p00 lsr 31) + (p01 land mask) + (p10 land mask) in
  let t2 = (t1 lsr 31) + (p01 lsr 31) + (p10 lsr 31) + (p11 land mask) in
  [ (t2 lsr 31) + (p11 lsr 31); t2 land mask; t1 land mask; p00 land mask ]

let ratio_operand =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun k -> max_int - k) (int_range 0 1000));
        (2, int_range (max_int / 2) max_int);
        (2, map (fun k -> (1 lsl 31) + k) (int_range (-1000) 1000));
        (1, int_range 1 1_000_000);
      ])

let prop_compare_ratios =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"compare_ratios = limb-wise products" ~count:2000
       QCheck2.Gen.(
         quad (oneof [ return 0; ratio_operand ]) ratio_operand
           (oneof [ return 0; ratio_operand ]) ratio_operand)
       (fun (a, b, c, d) ->
         Analysis.compare_ratios a b c d
         = compare (limb_product a d) (limb_product c b)
         && Analysis.compare_ratios a b a b = 0))

let () =
  Alcotest.run "analysis"
    [
      ( "asap-alap",
        [
          Alcotest.test_case "recursive times" `Quick test_asap_alap;
          Alcotest.test_case "b-level / critical path" `Quick test_b_level_critical_path;
        ] );
      ( "load",
        [
          Alcotest.test_case "hand computation" `Quick test_load;
          Alcotest.test_case "empty graph" `Quick test_load_empty;
          Alcotest.test_case "necessary condition" `Quick test_necessary_condition;
          Alcotest.test_case "load exceeds processors" `Quick test_load_exceeds;
          Alcotest.test_case "10^-16 ms WCET on a 10^16 grid" `Quick
            test_tiny_wcet;
          Alcotest.test_case "no int grid raises Rat.Overflow" `Quick
            test_no_grid;
          Alcotest.test_case "windows closer than a double" `Quick
            test_subfloat_windows;
        ] );
      ( "oracle",
        [
          prop "Randgen graphs = the rational oracle" randgen_graph 300;
          prop "random DAGs = the rational oracle" random_dag 1000;
          prop_compare_ratios;
        ] );
      ( "paper",
        [
          Alcotest.test_case "fft load 0.93" `Quick test_fft_load_matches_paper;
          Alcotest.test_case "fft overhead load >1" `Quick
            test_fft_overhead_load_matches_paper;
        ] );
    ]
