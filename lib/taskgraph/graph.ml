module Rat = Rt_util.Rat
module Digraph = Rt_util.Digraph

type t = {
  jobs : Job.t array;
  succ : int list array; (* insertion order *)
  pred : int list array; (* insertion order *)
  n_edges : int;
  topo : int list;
  by_proc : int list array; (* proc -> job ids ascending k *)
}

let check_ids who jobs =
  Array.iteri
    (fun i j ->
      if j.Job.id <> i then invalid_arg (who ^ ": job ids must be positional");
      if j.Job.proc < 0 then invalid_arg (who ^ ": negative process index"))
    jobs

(* The least topological order by id.  When every edge points forward it
   is the identity; otherwise Kahn's algorithm, smallest ready id first. *)
let topo_of who succ pred =
  let n = Array.length succ in
  let forward = ref true in
  Array.iteri
    (fun u vs -> if !forward then forward := List.for_all (fun v -> v > u) vs)
    succ;
  if !forward then List.init n Fun.id
  else begin
    let indeg = Array.map List.length pred in
    let ready = Rt_util.Iheap.create ~capacity:n () in
    Array.iteri
      (fun v d -> if d = 0 then Rt_util.Iheap.push ready ~key:v ~pay:v)
      indeg;
    let order = ref [] and count = ref 0 in
    while not (Rt_util.Iheap.is_empty ready) do
      let u = Rt_util.Iheap.top_pay ready in
      Rt_util.Iheap.drop ready;
      order := u :: !order;
      incr count;
      List.iter
        (fun v ->
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Rt_util.Iheap.push ready ~key:v ~pay:v)
        succ.(u)
    done;
    if !count < n then invalid_arg (who ^ ": precedence graph is cyclic");
    List.rev !order
  end

let by_proc_of jobs =
  let n_procs = 1 + Array.fold_left (fun m j -> max m j.Job.proc) (-1) jobs in
  let by_proc = Array.make n_procs [] in
  for i = Array.length jobs - 1 downto 0 do
    let p = jobs.(i).Job.proc in
    by_proc.(p) <- i :: by_proc.(p)
  done;
  (* ascending k, equal k by descending id; derived graphs number each
     process's jobs in ascending k already *)
  let cmp a b =
    let c = Int.compare jobs.(a).Job.k jobs.(b).Job.k in
    if c <> 0 then c else Int.compare b a
  in
  let rec sorted = function
    | a :: (b :: _ as rest) -> cmp a b < 0 && sorted rest
    | [ _ ] | [] -> true
  in
  Array.map (fun ids -> if sorted ids then ids else List.sort cmp ids) by_proc

let build who jobs succ pred n_edges =
  { jobs; succ; pred; n_edges; topo = topo_of who succ pred; by_proc = by_proc_of jobs }

let make jobs dag =
  let who = "Taskgraph.Graph.make" in
  let n = Array.length jobs in
  if n <> Digraph.n_nodes dag then
    invalid_arg (who ^ ": job count and node count differ");
  check_ids who jobs;
  build who jobs
    (Array.init n (Digraph.succs dag))
    (Array.init n (Digraph.preds dag))
    (Digraph.n_edges dag)

let of_succs jobs succ =
  let who = "Taskgraph.Graph.of_succs" in
  let n = Array.length jobs in
  if Array.length succ <> n then
    invalid_arg (who ^ ": job count and successor list count differ");
  check_ids who jobs;
  (* last.(v) = the source that last listed v: a repeat is a duplicate *)
  let last = Array.make n (-1) in
  let pred = Array.make n [] and n_edges = ref 0 in
  for u = n - 1 downto 0 do
    List.iter
      (fun v ->
        if v < 0 || v >= n then invalid_arg (who ^ ": successor out of range");
        if last.(v) = u then invalid_arg (who ^ ": duplicate edge");
        last.(v) <- u;
        pred.(v) <- u :: pred.(v);
        incr n_edges)
      succ.(u)
  done;
  build who jobs succ pred !n_edges

let n_jobs t = Array.length t.jobs
let n_edges t = t.n_edges
let job t i = t.jobs.(i)
let jobs t = t.jobs

let dag t =
  let d = Digraph.create (n_jobs t) in
  Array.iteri (fun u vs -> List.iter (Digraph.add_edge d u) vs) t.succ;
  d

let preds t i = t.pred.(i)
let succs t i = t.succ.(i)

let edges t =
  let acc = ref [] in
  for u = n_jobs t - 1 downto 0 do
    List.iter (fun v -> acc := (u, v) :: !acc) t.succ.(u)
  done;
  !acc

let has_edge t i j =
  let n = n_jobs t in
  if i < 0 || i >= n || j < 0 || j >= n then
    invalid_arg
      (Printf.sprintf "Taskgraph.Graph.has_edge: job %d or %d out of [0,%d)" i j n);
  List.mem j t.succ.(i)

let topo_order t = t.topo

let sources t =
  List.filter (fun i -> t.pred.(i) = []) (List.init (n_jobs t) Fun.id)

let sinks t =
  List.filter (fun i -> t.succ.(i) = []) (List.init (n_jobs t) Fun.id)

let jobs_of_process t p =
  if p < 0 || p >= Array.length t.by_proc then [] else t.by_proc.(p)

let find_job t ~proc ~k =
  match
    List.find_opt (fun i -> t.jobs.(i).Job.k = k) (jobs_of_process t proc)
  with
  | Some i -> i
  | None -> raise Not_found

let total_wcet t =
  Array.fold_left (fun acc j -> Rat.add acc j.Job.wcet) Rat.zero t.jobs

let induced ~keep t =
  let kept =
    List.filter (fun i -> keep t.jobs.(i)) (List.init (n_jobs t) Fun.id)
  in
  if kept = [] then invalid_arg "Taskgraph.Graph.induced: no jobs kept";
  let old_of_new = Array.of_list kept in
  let new_of_old = Array.make (n_jobs t) (-1) in
  Array.iteri (fun n o -> new_of_old.(o) <- n) old_of_new;
  let jobs' =
    Array.mapi (fun n o -> { t.jobs.(o) with Job.id = n }) old_of_new
  in
  (* connect kept jobs that were joined by any path, then minimize *)
  let closure = Digraph.transitive_closure (dag t) in
  let dag' = Digraph.create (Array.length old_of_new) in
  Array.iteri
    (fun na oa ->
      Rt_util.Bitset.iter
        (fun ob -> if new_of_old.(ob) >= 0 then Digraph.add_edge dag' na new_of_old.(ob))
        closure.(oa))
    old_of_new;
  (make jobs' (Digraph.transitive_reduction dag'), old_of_new)

let disjoint_union ?prefixes gs =
  if gs = [] then invalid_arg "Taskgraph.Graph.disjoint_union: no graphs";
  let gs = Array.of_list gs in
  (match prefixes with
  | Some ps when Array.length ps <> Array.length gs ->
    invalid_arg "Taskgraph.Graph.disjoint_union: one prefix per graph required"
  | _ -> ());
  Array.iter
    (fun g ->
      if n_jobs g = 0 then
        invalid_arg "Taskgraph.Graph.disjoint_union: member graph has no jobs")
    gs;
  let total = Array.fold_left (fun acc g -> acc + n_jobs g) 0 gs in
  let jobs' = Array.make total gs.(0).jobs.(0) in
  let owner = Array.make total (0, 0) in
  let dag' = Digraph.create total in
  let off = ref 0 and proc_off = ref 0 in
  Array.iteri
    (fun gi g ->
      let max_proc =
        Array.fold_left (fun m j -> Stdlib.max m j.Job.proc) (-1) g.jobs
      in
      Array.iteri
        (fun i j ->
          let proc_name =
            match prefixes with
            | Some ps -> ps.(gi) ^ j.Job.proc_name
            | None -> j.Job.proc_name
          in
          jobs'.(!off + i) <-
            { j with Job.id = !off + i; proc = j.Job.proc + !proc_off; proc_name };
          owner.(!off + i) <- (gi, i))
        g.jobs;
      List.iter (fun (u, v) -> Digraph.add_edge dag' (!off + u) (!off + v)) (edges g);
      off := !off + n_jobs g;
      proc_off := !proc_off + max_proc + 1)
    gs;
  (make jobs' dag', owner)

let map_wcet f t =
  { t with jobs = Array.map (fun j -> { j with Job.wcet = f j }) t.jobs }

let to_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"jobs\": [\n";
  Array.iteri
    (fun i j ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"id\":%d,\"process\":\"%s\",\"k\":%d,\"arrival\":\"%s\",\
            \"deadline\":\"%s\",\"wcet\":\"%s\",\"arrival_ms\":%g,\
            \"deadline_ms\":%g,\"wcet_ms\":%g,\"server\":%b}%s\n"
           j.Job.id j.Job.proc_name j.Job.k
           (Rat.to_string j.Job.arrival)
           (Rat.to_string j.Job.deadline)
           (Rat.to_string j.Job.wcet)
           (Rat.to_float j.Job.arrival)
           (Rat.to_float j.Job.deadline)
           (Rat.to_float j.Job.wcet)
           j.Job.is_server
           (if i = Array.length t.jobs - 1 then "" else ",")))
    t.jobs;
  Buffer.add_string buf "  ],\n  \"edges\": [\n";
  let es = edges t in
  List.iteri
    (fun i (u, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    [%d,%d]%s\n" u v
           (if i = List.length es - 1 then "" else ",")))
    es;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let to_dot t =
  let module Dot = Rt_util.Dot in
  let nodes =
    Array.to_list
      (Array.map
         (fun j ->
           let label = Format.asprintf "%a" Job.pp j in
           let style = if j.Job.is_server then "dashed" else "" in
           Dot.node ~label ~shape:"ellipse" ~style (Job.label j))
         t.jobs)
  in
  let es =
    List.map
      (fun (u, v) -> Dot.edge (Job.label t.jobs.(u)) (Job.label t.jobs.(v)))
      (edges t)
  in
  Dot.render ~name:"taskgraph" nodes es
