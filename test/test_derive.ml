module Rat = Rt_util.Rat
module Network = Fppn.Network
module Process = Fppn.Process
module Event = Fppn.Event
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Derive = Taskgraph.Derive

let ms = Rat.of_int
let rat = Alcotest.testable Rat.pp Rat.equal

let fig1_derived () =
  Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet (Fppn_apps.Fig1.network ())

let label g i = Job.label (Graph.job g i)

let find g lbl =
  let n = Graph.n_jobs g in
  let rec scan i =
    if i >= n then Alcotest.failf "job %s not found" lbl
    else if label g i = lbl then i
    else scan (i + 1)
  in
  scan 0

(* --- Fig. 3 reproduction ---------------------------------------------- *)

let test_fig3_job_set () =
  let d = fig1_derived () in
  let g = d.Derive.graph in
  Alcotest.check rat "hyperperiod 200" (ms 200) d.Derive.hyperperiod;
  Alcotest.(check int) "10 jobs as in Fig. 3" 10 (Graph.n_jobs g);
  let labels = List.sort String.compare (List.init 10 (label g)) in
  Alcotest.(check (list string)) "job labels"
    (List.sort String.compare
       [
         "InputA[1]"; "FilterA[1]"; "FilterA[2]"; "FilterB[1]"; "OutputA[1]";
         "NormA[1]"; "CoefB[1]"; "CoefB[2]"; "OutputB[1]"; "OutputB[2]";
       ])
    labels

let test_fig3_job_params () =
  let d = fig1_derived () in
  let g = d.Derive.graph in
  let check lbl a dl =
    let j = Graph.job g (find g lbl) in
    Alcotest.check rat (lbl ^ " arrival") (ms a) j.Job.arrival;
    Alcotest.check rat (lbl ^ " deadline") (ms dl) j.Job.deadline;
    Alcotest.check rat (lbl ^ " wcet") (ms 25) j.Job.wcet
  in
  (* exactly the (A_i, D_i, C_i) annotations of Fig. 3 *)
  check "InputA[1]" 0 200;
  check "FilterA[1]" 0 100;
  check "FilterA[2]" 100 200;
  check "OutputA[1]" 0 200;
  check "NormA[1]" 0 200;
  check "FilterB[1]" 0 200;
  check "OutputB[1]" 0 100;
  check "OutputB[2]" 100 200;
  (* CoefB's server deadline d_p − T_u = 500 truncated to H = 200 *)
  check "CoefB[1]" 0 200;
  check "CoefB[2]" 0 200

let test_fig3_server_info () =
  let d = fig1_derived () in
  let net = Fppn_apps.Fig1.network () in
  match d.Derive.servers with
  | [ s ] ->
    Alcotest.(check string) "server is CoefB" "CoefB"
      (Process.name (Network.process net s.Derive.sporadic));
    Alcotest.(check string) "user is FilterB" "FilterB"
      (Process.name (Network.process net s.Derive.user));
    Alcotest.check rat "server period = user period" (ms 200) s.Derive.server_period;
    Alcotest.check rat "corrected deadline 700-200" (ms 500)
      s.Derive.server_relative_deadline;
    Alcotest.(check bool) "CoefB -> FilterB means closed-right window" true
      s.Derive.boundary_closed_right
  | l -> Alcotest.failf "expected 1 server, got %d" (List.length l)

let test_fig3_edges () =
  let d = fig1_derived () in
  let g = d.Derive.graph in
  let e a b = Graph.has_edge g (find g a) (find g b) in
  (* edges present in Fig. 3 *)
  Alcotest.(check bool) "InputA->FilterA" true (e "InputA[1]" "FilterA[1]");
  Alcotest.(check bool) "InputA->FilterB" true (e "InputA[1]" "FilterB[1]");
  Alcotest.(check bool) "CoefB[1]->CoefB[2]" true (e "CoefB[1]" "CoefB[2]");
  Alcotest.(check bool) "server jobs precede the user job" true
    (e "CoefB[2]" "FilterB[1]");
  Alcotest.(check bool) "FilterB->OutputB" true (e "FilterB[1]" "OutputB[1]");
  Alcotest.(check bool) "OutputB chain" true (e "OutputB[1]" "OutputB[2]");
  (* the InputA->NormA edge is redundant (path via FilterA) and removed *)
  Alcotest.(check bool) "InputA->NormA removed by transitive reduction" false
    (e "InputA[1]" "NormA[1]");
  Alcotest.(check bool) "but reachability retained" true
    (Rt_util.Digraph.path_exists (Graph_ref.dag g) (find g "InputA[1]")
       (find g "NormA[1]"));
  Alcotest.(check bool) "reduction removed edges" true
    (d.Derive.raw_edges > Graph.n_edges g)

let test_reduce_flag () =
  let net = Fppn_apps.Fig1.network () in
  let with_red = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  let without = Derive.derive_exn ~reduce:false ~wcet:Fppn_apps.Fig1.wcet net in
  Alcotest.(check int) "raw edge count preserved" without.Derive.raw_edges
    (Graph.n_edges without.Derive.graph);
  Alcotest.(check bool) "reduced has fewer edges" true
    (Graph.n_edges with_red.Derive.graph < Graph.n_edges without.Derive.graph);
  (* same reachability *)
  let cg = Rt_util.Digraph.transitive_closure (Graph_ref.dag with_red.Derive.graph)
  and cu = Rt_util.Digraph.transitive_closure (Graph_ref.dag without.Derive.graph) in
  Alcotest.(check bool) "same transitive closure" true
    (Array.for_all2 Rt_util.Bitset.equal cg cu)

(* --- footnote 3: fractional server period ------------------------------ *)

let footnote3_net () =
  let b = Network.Builder.create "fn3" in
  let nop _ = () in
  Network.Builder.add_process b
    (Process.make ~name:"U"
       ~event:(Event.periodic ~period:(ms 200) ~deadline:(ms 200) ())
       (Process.Native nop));
  (* deadline 150 <= user period 200: the plain server deadline would be
     negative, so the server period must drop to 200/2 = 100 *)
  Network.Builder.add_process b
    (Process.make ~name:"S"
       ~event:(Event.sporadic ~min_period:(ms 300) ~deadline:(ms 150) ())
       (Process.Native nop));
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"S" ~reader:"U" "c";
  Network.Builder.add_priority b "S" "U";
  Network.Builder.finish_exn b

let test_footnote3_fractional_server () =
  let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 1)) (footnote3_net ()) in
  match d.Derive.servers with
  | [ s ] ->
    Alcotest.check rat "server period halved" (ms 100) s.Derive.server_period;
    Alcotest.check rat "positive corrected deadline" (ms 50)
      s.Derive.server_relative_deadline;
    (* two server slots per hyperperiod (200/100), burst 1 each *)
    let g = d.Derive.graph in
    let server_jobs =
      List.length (Graph.jobs_of_process g s.Derive.sporadic)
    in
    Alcotest.(check int) "two server jobs" 2 server_jobs
  | _ -> Alcotest.fail "expected one server"

let test_footnote3_boundary_deadline () =
  (* d = T_u exactly: the plain correction would be zero, so the server
     period halves; with burst 2 the slot count doubles accordingly *)
  let b = Network.Builder.create "fn3b" in
  let nop _ = () in
  Network.Builder.add_process b
    (Process.make ~name:"U"
       ~event:(Event.periodic ~period:(ms 200) ~deadline:(ms 200) ())
       (Process.Native nop));
  Network.Builder.add_process b
    (Process.make ~name:"S"
       ~event:(Event.sporadic ~burst:2 ~min_period:(ms 400) ~deadline:(ms 200) ())
       (Process.Native nop));
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"S" ~reader:"U" "c";
  Network.Builder.add_priority b "U" "S";
  let net = Network.Builder.finish_exn b in
  let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 1)) net in
  match d.Derive.servers with
  | [ s ] ->
    Alcotest.check rat "server period 100 (= 200/2)" (ms 100) s.Derive.server_period;
    Alcotest.check rat "corrected deadline 100" (ms 100) s.Derive.server_relative_deadline;
    Alcotest.(check bool) "U -> S means open-right window" false
      s.Derive.boundary_closed_right;
    (* burst 2 x (200/100) slots *)
    Alcotest.(check int) "four server jobs" 4
      (List.length (Graph.jobs_of_process d.Derive.graph s.Derive.sporadic))
  | _ -> Alcotest.fail "expected one server"

(* --- errors ------------------------------------------------------------ *)

let test_subclass_error () =
  let b = Network.Builder.create "bad" in
  let nop _ = () in
  Network.Builder.add_process b
    (Process.make ~name:"P"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native nop));
  Network.Builder.add_process b
    (Process.make ~name:"S"
       ~event:(Event.sporadic ~min_period:(ms 500) ~deadline:(ms 1000) ())
       (Process.Native nop));
  let net = Network.Builder.finish_exn b in
  match Derive.derive ~wcet:(Derive.const_wcet Rat.one) net with
  | Error (Derive.Subclass _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected a Subclass error"

(* Four coprime periods near 10^6: their lcm (~10^24) does not fit the
   rationals, and derivation says so instead of raising. *)
let test_hyperperiod_overflow () =
  let b = Network.Builder.create "coprime" in
  List.iteri
    (fun i t ->
      Network.Builder.add_process b
        (Process.make ~name:(Printf.sprintf "P%d" i)
           ~event:(Event.periodic ~period:(ms t) ~deadline:(ms t) ())
           (Process.Native ignore)))
    [ 999983; 999979; 999961; 999959 ];
  let net = Network.Builder.finish_exn b in
  match Derive.derive ~wcet:(Derive.const_wcet Rat.one) net with
  | Error Derive.Hyperperiod_overflow -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected a Hyperperiod_overflow error"

(* --- total order and edge-rule invariants ------------------------------ *)

let test_order_is_sorted () =
  let d = fig1_derived () in
  let g = d.Derive.graph in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "ascending arrival along <J" true
        Rat.((Graph.job g a).Job.arrival <= (Graph.job g b).Job.arrival);
      check rest
    | [ _ ] | [] -> ()
  in
  check d.Derive.order

let qprop name ?(count = 40) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let random_net_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000 in
    let* n_periodic = int_range 1 6 in
    let* n_sporadic = int_range 0 3 in
    return
      {
        Fppn_apps.Randgen.default_params with
        seed;
        n_periodic;
        n_sporadic;
        channel_density = 0.5;
      })

let derive_random params =
  let net = Fppn_apps.Randgen.network params in
  let wcet =
    Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 10) (Derive.const_wcet Rat.one) net
  in
  (net, Derive.derive_exn ~wcet net)

let prop_jobs_within_hyperperiod =
  qprop "all jobs arrive within [0,H) and deadlines are truncated"
    random_net_gen (fun params ->
      let _, d = derive_random params in
      let g = d.Derive.graph in
      Array.for_all
        (fun j ->
          Rat.sign j.Job.arrival >= 0
          && Rat.(j.Job.arrival < d.Derive.hyperperiod)
          && Rat.(j.Job.deadline <= d.Derive.hyperperiod)
          && Rat.(j.Job.arrival < j.Job.deadline))
        (Graph.jobs g))

let prop_job_counts =
  qprop "every process contributes burst * H/T jobs" random_net_gen
    (fun params ->
      let net, d = derive_random params in
      let g = d.Derive.graph in
      List.for_all
        (fun p ->
          let proc = Network.process net p in
          let expected =
            let period =
              match Derive.server_of d p with
              | Some s -> s.Derive.server_period
              | None -> Process.period proc
            in
            Process.burst proc
            * Rat.to_int_exn (Rat.div d.Derive.hyperperiod period)
          in
          List.length (Graph.jobs_of_process g p) = expected)
        (List.init (Network.n_processes net) Fun.id))

let prop_edges_follow_the_total_order =
  qprop "edges point forward in <J; same-process jobs stay chained"
    random_net_gen (fun params ->
      let net, d = derive_random params in
      let g = d.Derive.graph in
      (* job ids are assigned along <J, so every edge must go forward *)
      List.for_all (fun (a, b) -> a < b) (Graph.edges g)
      &&
      (* same-process jobs are totally ordered by reachability *)
      List.for_all
        (fun p ->
          let rec chain = function
            | a :: (b :: _ as rest) ->
              Rt_util.Digraph.path_exists (Graph_ref.dag g) a b && chain rest
            | [ _ ] | [] -> true
          in
          chain (Graph.jobs_of_process g p))
        (List.init (Network.n_processes net) Fun.id))

let prop_graph_acyclic =
  qprop "derived task graph is a DAG" random_net_gen (fun params ->
      let _, d = derive_random params in
      Rt_util.Digraph.is_acyclic (Graph_ref.dag d.Derive.graph))

(* step 3 links each job to the next job of every related column only;
   the reduced graph must still be exactly the transitive reduction of
   the full <J relation, in the same adjacency order, with the same raw
   edge count *)
let dense_net_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* n_periodic = int_range 1 8 in
    let* n_sporadic = int_range 0 4 in
    let* channel_density = oneofl [ 0.2; 0.5; 0.9 ] in
    let* max_burst = int_range 1 3 in
    return
      {
        Fppn_apps.Randgen.default_params with
        seed;
        n_periodic;
        n_sporadic;
        channel_density;
        max_burst;
      })

let prop_reduction_of_full_relation =
  qprop "derive = transitive reduction of derive ~reduce:false" ~count:200
    dense_net_gen (fun params ->
      let net = Fppn_apps.Randgen.network params in
      let wcet =
        Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 10) (Derive.const_wcet Rat.one) net
      in
      let d = Derive.derive_exn ~wcet net in
      let full = Derive.derive_exn ~reduce:false ~wcet net in
      let reference = Graph_ref.transitive_reduction (Graph_ref.dag full.Derive.graph) in
      let g = d.Derive.graph in
      let rec sorted cmp = function
        | a :: (b :: _ as rest) -> cmp a b < 0 && sorted cmp rest
        | [ _ ] | [] -> true
      in
      d.Derive.raw_edges = full.Derive.raw_edges
      && full.Derive.raw_edges = Graph.n_edges full.Derive.graph
      && Graph.edges g = Graph_ref.edges reference
      && List.for_all
           (fun i ->
             Graph.preds g i = Rt_util.Digraph.preds reference i
             && Graph.succs g i = Rt_util.Digraph.succs reference i
             (* the full relation is built in ascending id order, so its
                reduction lists successors in descending order *)
             && sorted Int.compare (Graph.succs full.Derive.graph i)
             && sorted (fun a b -> Int.compare b a) (Graph.succs g i))
           (List.init (Graph.n_jobs g) Fun.id))

(* --- differential: the hash-set derivation as the oracle --------------- *)

module Digraph = Rt_util.Digraph

(* Steps 3 and 5 as derivation ran them before it built the frozen graph
   directly: the step-3 relation inserted edge by edge into a hash-set
   digraph, [Graph_ref.transitive_reduction], then [Graph_ref.make].  It reads
   the job sequence and the servers of the derivation under test, and
   rebuilds FP' from them as step 1 does. *)
let oracle_graph ~reduce net (d : Derive.t) =
  let n = Network.n_processes net in
  let users = Array.make n None in
  List.iter
    (fun s -> users.(s.Derive.sporadic) <- Some s.Derive.user)
    d.Derive.servers;
  let fp' = Digraph.create n in
  List.iter
    (fun (hi, lo) ->
      let dropped =
        (match users.(hi) with Some u -> u = lo | None -> false)
        || (match users.(lo) with Some u -> u = hi | None -> false)
      in
      if not dropped then Digraph.add_edge fp' hi lo)
    (Network.fp_edges net);
  List.iter
    (fun s -> Digraph.add_edge fp' s.Derive.sporadic s.Derive.user)
    d.Derive.servers;
  let jobs_arr = Graph.jobs d.Derive.graph in
  let m = Array.length jobs_arr in
  let dag = Digraph.create m in
  let cols = Array.make n [] in
  for a = m - 1 downto 0 do
    let p = jobs_arr.(a).Job.proc in
    cols.(p) <- a :: cols.(p)
  done;
  let cols = Array.map Array.of_list cols in
  let nbrs =
    Array.init n (fun p ->
        p
        :: List.filter
             (fun q -> q <> p)
             (List.sort_uniq Int.compare
                (Digraph.succs fp' p @ Digraph.preds fp' p)))
  in
  let cur = Array.make n 0 in
  let raw_edges = ref 0 in
  for a = 0 to m - 1 do
    let targets = ref [] in
    List.iter
      (fun q ->
        let col = cols.(q) in
        let len = Array.length col in
        while cur.(q) < len && col.(cur.(q)) <= a do
          cur.(q) <- cur.(q) + 1
        done;
        raw_edges := !raw_edges + (len - cur.(q));
        if not reduce then
          for i = cur.(q) to len - 1 do
            targets := col.(i) :: !targets
          done
        else if cur.(q) < len then targets := col.(cur.(q)) :: !targets)
      nbrs.(jobs_arr.(a).Job.proc);
    List.iter (Digraph.add_edge dag a) (List.sort Int.compare !targets)
  done;
  let dag = if reduce then Graph_ref.transitive_reduction dag else dag in
  (Graph_ref.make jobs_arr dag, !raw_edges)

let bursty_net_gen =
  QCheck2.Gen.(
    let* params = dense_net_gen in
    let* reduce = bool in
    return (params, reduce))

let prop_derive_equals_oracle =
  qprop "derive = the hash-set oracle, reduced and not" ~count:200
    bursty_net_gen (fun (params, reduce) ->
      let net = Fppn_apps.Randgen.network params in
      let wcet =
        Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 10) (Derive.const_wcet Rat.one) net
      in
      let d = Derive.derive_exn ~reduce ~wcet net in
      let g = d.Derive.graph in
      let o, raw_edges = oracle_graph ~reduce net d in
      let ids = List.init (Graph.n_jobs g) Fun.id in
      d.Derive.raw_edges = raw_edges
      && Graph.n_edges g = Graph.n_edges o
      && Graph.edges g = Graph.edges o
      && Graph.topo_order g = Graph.topo_order o
      && Graph.sources g = Graph.sources o
      && Graph.sinks g = Graph.sinks o
      && List.for_all
           (fun i -> Graph.succs g i = Graph.succs o i && Graph.preds g i = Graph.preds o i)
           ids
      && List.for_all
           (fun p -> Graph.jobs_of_process g p = Graph.jobs_of_process o p)
           (List.init (Network.n_processes net + 1) Fun.id))

(* a random DAG whose ids are not a topological order: edges follow a
   random permutation, inserted in random order *)
let shuffled_dag_gen =
  QCheck2.Gen.(
    let* n = int_range 1 24 in
    let* perm = shuffle_a (Array.init n Fun.id) in
    let* pairs = list_size (int_range 0 (3 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    let* procs = array_size (return n) (int_bound 3) in
    return (perm, pairs, procs))

let shuffled_graph (perm, pairs, procs) =
  let n = Array.length perm in
  let dag = Digraph.create n in
  List.iter
    (fun (x, y) -> if x < y then Digraph.add_edge dag perm.(x) perm.(y))
    pairs;
  let jobs =
    Array.init n (fun i ->
        {
          Job.id = i;
          proc = procs.(i);
          proc_name = Printf.sprintf "P%d" procs.(i);
          k = 1 + ((7 * i) mod 5);
          arrival = Rat.zero;
          deadline = Rat.one;
          wcet = Rat.zero;
          is_server = false;
        })
  in
  (jobs, dag)

let succs_of dag = Array.init (Digraph.n_nodes dag) (Digraph.succs dag)

let prop_of_succs_agrees_with_digraph =
  qprop "Graph.of_succs = its Digraph on ids out of topological order" ~count:300
    shuffled_dag_gen (fun ((perm, _, _) as case) ->
      let jobs, dag = shuffled_graph case in
      let n = Array.length jobs in
      let g = Graph.of_succs jobs (succs_of dag) in
      let ids = List.init n Fun.id in
      let cyclic =
        (* the first and last jobs of the permutation linked both ways
           (a self-loop when they are one job) *)
        let c = Digraph.create n in
        List.iter (fun (u, v) -> Digraph.add_edge c u v) (Graph_ref.edges dag);
        Digraph.add_edge c perm.(0) perm.(n - 1);
        Digraph.add_edge c perm.(n - 1) perm.(0);
        match Graph.of_succs jobs (succs_of c) with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Graph.n_edges g = Digraph.n_edges dag
      && Graph.edges g = Graph_ref.edges dag
      && Graph_ref.edges (Graph_ref.dag g) = Graph_ref.edges dag
      && Some (Graph.topo_order g) = Digraph.topo_sort dag
      && List.for_all
           (fun i ->
             Graph.succs g i = Digraph.succs dag i
             && Graph.preds g i = List.sort Int.compare (Digraph.preds dag i)
             && List.for_all (fun j -> Graph.has_edge g i j = Digraph.has_edge dag i j) ids)
           ids
      && cyclic)

(* Random DAGs of up to 150 jobs (rows of three words), their ids in
   topological order half of the time, as in every derived graph, and
   shuffled otherwise. *)
let dag_gen =
  QCheck2.Gen.(
    let* n = int_range 1 150 in
    let* shuffled = bool in
    let* perm =
      if shuffled then shuffle_a (Array.init n Fun.id) else return (Array.init n Fun.id)
    in
    let* pairs =
      list_size (int_range 0 (3 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    in
    let* procs = array_size (return n) (int_bound 3) in
    return (perm, pairs, procs))

(* [g]'s adjacency equals the digraph's, both lists of every job in
   order, and so do its edge count and topological order. *)
let same_as_digraph g d =
  Graph.n_jobs g = Digraph.n_nodes d
  && Graph.n_edges g = Digraph.n_edges d
  && Some (Graph.topo_order g) = Digraph.topo_sort d
  && List.for_all
       (fun i ->
         Graph.succs g i = Digraph.succs d i && Graph.preds g i = Digraph.preds d i)
       (List.init (Graph.n_jobs g) Fun.id)

let prop_reduction_equals_oracle =
  qprop "Graph.reduction = the Digraph reduction, repeats merged" ~count:300
    dag_gen (fun case ->
      let jobs, dag = shuffled_graph case in
      let reference = Graph_ref.transitive_reduction dag in
      same_as_digraph (Graph.reduction jobs (succs_of dag)) reference
      && same_as_digraph
           (Graph.reduction jobs (Array.map (fun l -> l @ l) (succs_of dag)))
           reference)

let prop_reach_equals_closure =
  qprop "Graph.reach = the Digraph closure" ~count:300 dag_gen (fun case ->
      let jobs, dag = shuffled_graph case in
      let r = Graph.reach (Graph_ref.make jobs dag) in
      let closure = Digraph.transitive_closure dag in
      let ids = List.init (Array.length jobs) Fun.id in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> Graph.reaches r a b = Rt_util.Bitset.mem closure.(a) b)
            ids)
        ids)

let prop_induced_equals_oracle =
  qprop "Graph.induced = the Digraph closure, reduced" ~count:300
    QCheck2.Gen.(
      pair dag_gen
        (frequency
           [ (1, return (Array.make 150 false)); (9, array_size (return 150) bool) ]))
    (fun (case, keep) ->
      let jobs, dag = shuffled_graph case in
      let g = Graph_ref.make jobs dag in
      let keep j = keep.(j.Job.id) in
      let result f = match f () with v -> Some v | exception Invalid_argument _ -> None in
      match
        ( result (fun () -> Graph.induced ~keep g),
          result (fun () -> Graph_ref.induced ~keep g) )
      with
      | Some (g', map), Some (jobs', d', map') ->
        Graph.jobs g' = jobs' && map = map' && same_as_digraph g' d'
      | None, None -> true (* no job kept *)
      | Some _, None | None, Some _ -> false)

let prop_disjoint_union_equals_oracle =
  qprop "Graph.disjoint_union = one Digraph fed each member's edges" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 1 3) dag_gen) bool)
    (fun (cases, prefixed) ->
      let gs =
        List.map
          (fun case ->
            let jobs, dag = shuffled_graph case in
            Graph_ref.make jobs dag)
          cases
      in
      let prefixes =
        if prefixed then
          Some (Array.of_list (List.mapi (fun i _ -> Printf.sprintf "m%d/" i) gs))
        else None
      in
      let u, owner = Graph.disjoint_union ?prefixes gs in
      let jobs', d', owner' = Graph_ref.disjoint_union ?prefixes gs in
      Graph.jobs u = jobs' && owner = owner' && same_as_digraph u d')

let test_of_succs_checks () =
  let jobs =
    Array.init 3 (fun i ->
        {
          Job.id = i;
          proc = 0;
          proc_name = "P";
          k = i + 1;
          arrival = Rat.zero;
          deadline = Rat.one;
          wcet = Rat.zero;
          is_server = false;
        })
  in
  let refused succs =
    match Graph.of_succs jobs succs with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let g = Graph.of_succs jobs [| [ 2; 1 ]; [ 2 ]; [] |] in
  Alcotest.(check (list int)) "successors as given" [ 2; 1 ] (Graph.succs g 0);
  Alcotest.(check (list int)) "predecessors ascending" [ 0; 1 ] (Graph.preds g 2);
  Alcotest.(check (list (pair int int))) "edges: reverse successor order"
    [ (0, 1); (0, 2); (1, 2) ] (Graph.edges g);
  Alcotest.(check (list int)) "identity order" [ 0; 1; 2 ] (Graph.topo_order g);
  let back = Graph.of_succs jobs [| []; [ 0 ]; [ 1 ] |] in
  Alcotest.(check (list int)) "least order by id" [ 2; 1; 0 ] (Graph.topo_order back);
  Alcotest.(check bool) "cycle" true (refused [| [ 1 ]; [ 0 ]; [] |]);
  Alcotest.(check bool) "self loop" true (refused [| [ 0 ]; []; [] |]);
  Alcotest.(check bool) "out of range" true (refused [| [ 3 ]; []; [] |]);
  Alcotest.(check bool) "repeated successor" true (refused [| [ 1; 1 ]; []; [] |]);
  Alcotest.(check bool) "length" true (refused [| []; [] |]);
  Alcotest.(check bool) "has_edge out of range" true
    (match Graph.has_edge g 0 3 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "derive"
    [
      ( "fig3",
        [
          Alcotest.test_case "job set" `Quick test_fig3_job_set;
          Alcotest.test_case "job parameters" `Quick test_fig3_job_params;
          Alcotest.test_case "server transformation" `Quick test_fig3_server_info;
          Alcotest.test_case "edges" `Quick test_fig3_edges;
          Alcotest.test_case "reduce flag" `Quick test_reduce_flag;
        ] );
      ( "servers",
        [
          Alcotest.test_case "footnote-3 fractional period" `Quick
            test_footnote3_fractional_server;
          Alcotest.test_case "footnote-3 boundary deadline" `Quick
            test_footnote3_boundary_deadline;
          Alcotest.test_case "subclass violation" `Quick test_subclass_error;
          Alcotest.test_case "hyperperiod overflow" `Quick
            test_hyperperiod_overflow;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "total order sorted" `Quick test_order_is_sorted;
          prop_jobs_within_hyperperiod;
          prop_job_counts;
          prop_edges_follow_the_total_order;
          prop_graph_acyclic;
          prop_reduction_of_full_relation;
        ] );
      ( "frozen",
        [
          prop_derive_equals_oracle;
          prop_of_succs_agrees_with_digraph;
          Alcotest.test_case "of_succs orders and checks" `Quick test_of_succs_checks;
          prop_reduction_equals_oracle;
          prop_reach_equals_closure;
          prop_induced_equals_oracle;
          prop_disjoint_union_equals_oracle;
        ] );
    ]
