module Rat = Rt_util.Rat

type t = {
  jobs : Job.t array;
  succ : int list array; (* as given *)
  pred : int list array; (* ascending source id *)
  n_edges : int;
  topo : int list;
  by_proc : int list array; (* proc -> job ids ascending k *)
}

let check_input who jobs succ =
  if Array.length succ <> Array.length jobs then
    invalid_arg (who ^ ": job count and successor list count differ");
  Array.iteri
    (fun i j ->
      if j.Job.id <> i then invalid_arg (who ^ ": job ids must be positional");
      if j.Job.proc < 0 then invalid_arg (who ^ ": negative process index"))
    jobs

(* Raises unless every successor of [u] is a job id; true iff [fwd]
   holds and every one lies above [u]. *)
let rec scan who n u fwd = function
  | [] -> fwd
  | v :: vs ->
    if v < 0 || v >= n then invalid_arg (who ^ ": successor out of range");
    scan who n u (fwd && v > u) vs

(* The least topological order by id.  When every edge points forward it
   is the identity; otherwise Kahn's algorithm, smallest ready id first. *)
let topo_of who succ =
  let n = Array.length succ in
  let forward = ref true in
  for u = 0 to n - 1 do
    forward := scan who n u !forward succ.(u)
  done;
  if !forward then List.init n Fun.id
  else begin
    let indeg = Array.make n 0 in
    Array.iter (List.iter (fun v -> indeg.(v) <- indeg.(v) + 1)) succ;
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

(* Freezes checked successor lists and their topological order; the
   predecessors come out in ascending source id. *)
let build who jobs succ topo =
  let n = Array.length jobs in
  (* last.(v) = the source that last listed v: a repeat is a duplicate *)
  let last = Array.make n (-1) in
  let pred = Array.make n [] and n_edges = ref 0 in
  for u = n - 1 downto 0 do
    List.iter
      (fun v ->
        if last.(v) = u then invalid_arg (who ^ ": duplicate edge");
        last.(v) <- u;
        pred.(v) <- u :: pred.(v);
        incr n_edges)
      succ.(u)
  done;
  { jobs; succ; pred; n_edges = !n_edges; topo; by_proc = by_proc_of jobs }

let of_succs jobs succ =
  let who = "Taskgraph.Graph.of_succs" in
  check_input who jobs succ;
  build who jobs succ (topo_of who succ)

(* --- reachability: the one job-level sweep ------------------------------ *)

(* Row [a] of the [n] x [words] bit matrix holds the jobs reachable from
   [a] by a non-empty path, bit [b] for job [b]. *)
type reach = { n : int; words : int; rows : int array }

let bits = 63 (* the sign bit stays clear *)

let mem rows row b = rows.(row + (b / bits)) land (1 lsl (b mod bits)) <> 0

let add rows row b =
  let w = row + (b / bits) in
  rows.(w) <- rows.(w) lor (1 lsl (b mod bits))

let rec add_all rows row = function
  | [] -> ()
  | s :: rest ->
    add rows row s;
    add_all rows row rest

(* ORs into row [row] the row of each successor [s] whose bit is not
   set there yet: a set bit means another successor reaches [s], and
   that one's row already holds [s]'s.  With ids in topological order,
   row [s] holds only ids above [s], so the OR starts at [s]'s word. *)
let rec or_rows rows words row ordered = function
  | [] -> ()
  | s :: rest ->
    if not (mem rows row s) then begin
      let srow = s * words in
      for k = (if ordered then s / bits else 0) to words - 1 do
        rows.(row + k) <- rows.(row + k) lor rows.(srow + k)
      done
    end;
    or_rows rows words row ordered rest

(* With every successor's row ORed in, the successors whose bit is set
   are reachable through another one: the rest are the kept edges,
   consed in the reverse of their order. *)
let rec keep rows row kept = function
  | [] -> kept
  | s :: rest ->
    if mem rows row s then keep rows row kept rest
    else begin
      add rows row s;
      keep rows row (s :: kept) rest
    end

let rec is_identity i = function
  | [] -> true
  | a :: rest -> a = i && is_identity (i + 1) rest

(* Fills the rows in reverse topological order [topo], so every
   successor's row is complete before its predecessors read it.  With
   [~reduce], each successor list is overwritten with its kept edges,
   the transitive reduction (unique for a DAG); a successor listed twice
   is kept once. *)
let sweep ~reduce succ topo =
  let n = Array.length succ in
  let words = (n / bits) + 1 in
  let rows = Array.make (n * words) 0 in
  let ordered = is_identity 0 topo in
  let order = if ordered then [||] else Array.of_list topo in
  for p = n - 1 downto 0 do
    let a = if ordered then p else order.(p) in
    let row = a * words in
    or_rows rows words row ordered succ.(a);
    if reduce then succ.(a) <- keep rows row [] succ.(a)
    else add_all rows row succ.(a)
  done;
  { n; words; rows }

let reach t = sweep ~reduce:false t.succ t.topo

let reaches r a b =
  if a < 0 || a >= r.n || b < 0 || b >= r.n then
    invalid_arg
      (Printf.sprintf "Taskgraph.Graph.reaches: job %d or %d out of [0,%d)" a b r.n);
  mem r.rows (a * r.words) b

let reduction jobs succ =
  let who = "Taskgraph.Graph.reduction" in
  check_input who jobs succ;
  (* a reduction keeps the reachability relation, hence the least
     topological order *)
  let topo = topo_of who succ in
  ignore (sweep ~reduce:true succ topo);
  build who jobs succ topo

let n_jobs t = Array.length t.jobs
let n_edges t = t.n_edges
let job t i = t.jobs.(i)
let jobs t = t.jobs

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
  let n = n_jobs t in
  let kept = List.filter (fun i -> keep t.jobs.(i)) (List.init n Fun.id) in
  if kept = [] then invalid_arg "Taskgraph.Graph.induced: no jobs kept";
  let old_of_new = Array.of_list kept in
  let new_of_old = Array.make n (-1) in
  Array.iteri (fun n o -> new_of_old.(o) <- n) old_of_new;
  let jobs' =
    Array.mapi (fun n o -> { t.jobs.(o) with Job.id = n }) old_of_new
  in
  (* link each kept job to every kept job a path reaches, ascending id,
     then reduce *)
  let r = reach t in
  let reached a =
    let row = a * r.words and acc = ref [] in
    for b = n - 1 downto 0 do
      if new_of_old.(b) >= 0 && mem r.rows row b then acc := new_of_old.(b) :: !acc
    done;
    !acc
  in
  (reduction jobs' (Array.map reached old_of_new), old_of_new)

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
  let succ' = Array.make total [] in
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
          owner.(!off + i) <- (gi, i);
          (* a member's successors come out reversed, in the order of
             its [edges] *)
          succ'.(!off + i) <- List.rev_map (( + ) !off) g.succ.(i))
        g.jobs;
      off := !off + n_jobs g;
      proc_off := !proc_off + max_proc + 1)
    gs;
  (of_succs jobs' succ', owner)

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
