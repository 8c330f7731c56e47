(* Hash-set oracles of the task-graph substrate.  Before [Taskgraph.Graph]
   held its own reduction and reachability sweep, task graphs were
   reduced, restricted, merged and searched through [Rt_util.Digraph]:
   this module keeps that route as the reference the differential
   properties compare the library with.  [make] and [dag] convert between
   the two representations. *)

module Digraph = Rt_util.Digraph
module Bitset = Rt_util.Bitset
module Rat = Rt_util.Rat
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job

(* Every edge, by ascending source node; each node's successors in the
   reverse of their insertion order, unlike [Digraph.succs]. *)
let edges d =
  let acc = ref [] in
  for u = Digraph.n_nodes d - 1 downto 0 do
    List.iter (fun v -> acc := (u, v) :: !acc) (Digraph.succs d u)
  done;
  !acc

(* The smallest subgraph with the same reachability (unique for a DAG),
   its kept edges inserted in [edges] order: reducing successors
   inserted in ascending id yields them in descending id. *)
let transitive_reduction d =
  let closure = Digraph.transitive_closure d in
  let reduced = Digraph.create (Digraph.n_nodes d) in
  List.iter
    (fun (u, v) ->
      (* (u,v) is redundant iff some other successor of u reaches v *)
      let redundant =
        List.exists (fun s -> s <> v && Bitset.mem closure.(s) v) (Digraph.succs d u)
      in
      if not redundant then Digraph.add_edge reduced u v)
    (edges d);
  reduced

(* The graph with [dag]'s edges, each job's successors in insertion
   order; its predecessors come out ascending. *)
let make jobs dag =
  if Digraph.n_nodes dag <> Array.length jobs then
    invalid_arg "Graph_ref.make: job count and node count differ";
  Graph.of_succs jobs (Array.init (Array.length jobs) (Digraph.succs dag))

(* A fresh digraph with [g]'s edges, in [Graph.succs] order. *)
let dag g =
  let d = Digraph.create (Graph.n_jobs g) in
  for u = 0 to Graph.n_jobs g - 1 do
    List.iter (Digraph.add_edge d u) (Graph.succs g u)
  done;
  d

(* [Graph.induced] through the digraph closure: the kept jobs, the
   reduced digraph over them and the map back to old ids. *)
let induced ~keep g =
  let n = Graph.n_jobs g in
  let kept = List.filter (fun i -> keep (Graph.job g i)) (List.init n Fun.id) in
  if kept = [] then invalid_arg "Graph_ref.induced: no jobs kept";
  let old_of_new = Array.of_list kept in
  let new_of_old = Array.make n (-1) in
  Array.iteri (fun n o -> new_of_old.(o) <- n) old_of_new;
  let jobs' = Array.mapi (fun n o -> { (Graph.job g o) with Job.id = n }) old_of_new in
  let closure = Digraph.transitive_closure (dag g) in
  let dag' = Digraph.create (Array.length old_of_new) in
  Array.iteri
    (fun na oa ->
      Bitset.iter
        (fun ob -> if new_of_old.(ob) >= 0 then Digraph.add_edge dag' na new_of_old.(ob))
        closure.(oa))
    old_of_new;
  (jobs', transitive_reduction dag', old_of_new)

(* [Graph.disjoint_union] through one digraph fed each member's [edges]:
   the merged jobs, the digraph and the owner map. *)
let disjoint_union ?prefixes gs =
  let total = List.fold_left (fun acc g -> acc + Graph.n_jobs g) 0 gs in
  let d = Digraph.create total in
  let jobs = ref [] and owner = ref [] in
  let off = ref 0 and proc_off = ref 0 in
  List.iteri
    (fun gi g ->
      let max_proc =
        Array.fold_left (fun m j -> max m j.Job.proc) (-1) (Graph.jobs g)
      in
      Array.iteri
        (fun i j ->
          let proc_name =
            match prefixes with
            | Some ps -> ps.(gi) ^ j.Job.proc_name
            | None -> j.Job.proc_name
          in
          jobs :=
            { j with Job.id = !off + i; proc = j.Job.proc + !proc_off; proc_name }
            :: !jobs;
          owner := (gi, i) :: !owner)
        (Graph.jobs g);
      List.iter (fun (u, v) -> Digraph.add_edge d (!off + u) (!off + v)) (Graph.edges g);
      off := !off + Graph.n_jobs g;
      proc_off := !proc_off + max_proc + 1)
    gs;
  (Array.of_list (List.rev !jobs), d, Array.of_list (List.rev !owner))

(* [Runtime.Latency.analyse] with each sink job's source ancestors read
   from the digraph closure. *)
let latency g ~source ~sink trace =
  let module Exec_trace = Runtime.Exec_trace in
  let module Latency = Runtime.Latency in
  let jobs_of name =
    List.filter
      (fun i -> (Graph.job g i).Job.proc_name = name)
      (List.init (Graph.n_jobs g) Fun.id)
  in
  let src_jobs = jobs_of source and snk_jobs = jobs_of sink in
  if src_jobs = [] then
    invalid_arg (Printf.sprintf "Latency.analyse: no jobs of source %S" source);
  if snk_jobs = [] then
    invalid_arg (Printf.sprintf "Latency.analyse: no jobs of sink %S" sink);
  let closure = Digraph.transitive_closure (dag g) in
  let ancestors_of snk_id =
    List.filter (fun s -> Bitset.mem closure.(s) snk_id) src_jobs
  in
  if not (List.exists (fun j -> ancestors_of j <> []) snk_jobs) then
    invalid_arg
      (Printf.sprintf
         "Latency.analyse: no precedence path from %S to %S — the pair has no \
          defined end-to-end constraint"
         source sink);
  let invoked = Hashtbl.create 64 in
  List.iter
    (fun (r : Exec_trace.record) ->
      if not r.skipped then Hashtbl.replace invoked (r.job, r.frame) r.invoked)
    trace;
  let samples =
    List.filter_map
      (fun (r : Exec_trace.record) ->
        if r.skipped || (Graph.job g r.job).Job.proc_name <> sink then None
        else
          match
            List.filter_map
              (fun s -> Hashtbl.find_opt invoked (s, r.frame))
              (ancestors_of r.job)
          with
          | [] -> None
          | first :: rest ->
            let latest = List.fold_left Rat.max first rest in
            let earliest = List.fold_left Rat.min first rest in
            Some
              {
                Latency.sink_label = r.label;
                frame = r.frame;
                reaction = Rat.sub r.finish latest;
                age = Rat.sub r.finish earliest;
              })
      trace
  in
  let max_reaction =
    List.fold_left (fun acc s -> Rat.max acc s.Latency.reaction) Rat.zero samples
  in
  let max_age =
    List.fold_left (fun acc s -> Rat.max acc s.Latency.age) Rat.zero samples
  in
  let mean_reaction_ms =
    match samples with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun acc s -> acc +. Rat.to_float s.Latency.reaction) 0.0 samples
      /. float_of_int (List.length samples)
  in
  { Latency.source; sink; samples; max_reaction; mean_reaction_ms; max_age }
