module Rat = Rt_util.Rat
module Digraph = Rt_util.Digraph
module Network = Fppn.Network
module Process = Fppn.Process

type wcet_map = string -> Rat.t

let const_wcet c _ = c

let wcet_of_list default assoc name =
  match List.assoc_opt name assoc with Some c -> c | None -> default

type server_info = {
  sporadic : int;
  user : int;
  server_period : Rat.t;
  server_relative_deadline : Rat.t;
  boundary_closed_right : bool;
}

type t = {
  graph : Graph.t;
  hyperperiod : Rat.t;
  servers : server_info list;
  raw_edges : int;
  order : int list;
}

type error =
  | Subclass of Network.user_error list
  | Transformed_priority_cycle of string list
  | Hyperperiod_overflow

let pp_error ppf = function
  | Subclass errs ->
    Format.fprintf ppf "scheduling subclass violated: %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         Network.pp_user_error)
      errs
  | Transformed_priority_cycle ps ->
    Format.fprintf ppf "server transformation created a priority cycle: %s"
      (String.concat " -> " ps)
  | Hyperperiod_overflow ->
    Format.fprintf ppf
      "hyperperiod not representable: the lcm of the periods overflows"

(* Per-process generator parameters in the transformed network PN'. *)
type gen' = {
  period' : Rat.t;
  burst' : int;
  rel_deadline' : Rat.t; (* relative deadline applied to each job *)
  is_server : bool;
}

let server_period ~user_period ~deadline =
  (* smallest q >= 1 with T_u / q < d, i.e. the plain user period when
     d > T_u, else footnote 3's fractional period *)
  if Rat.(deadline > user_period) then user_period
  else
    let q = Rat.fdiv user_period deadline + 1 in
    Rat.div user_period (Rat.of_int q)

let derive ?(reduce = true) ~wcet net =
  match Network.user_map net with
  | Error errs -> Error (Subclass errs)
  | Ok users ->
    let n = Network.n_processes net in
    let procs = Network.processes net in
    (* step 1: server transformation *)
    let gens =
      Array.init n (fun p ->
          let proc = procs.(p) in
          match users.(p) with
          | None ->
            {
              period' = Process.period proc;
              burst' = Process.burst proc;
              rel_deadline' = Process.deadline proc;
              is_server = false;
            }
          | Some u ->
            let tu = Process.period procs.(u) in
            let ts = server_period ~user_period:tu ~deadline:(Process.deadline proc) in
            {
              period' = ts;
              burst' = Process.burst proc;
              rel_deadline' = Rat.sub (Process.deadline proc) ts;
              is_server = true;
            })
    in
    let servers =
      List.filter_map
        (fun p ->
          match users.(p) with
          | None -> None
          | Some u ->
            Some
              {
                sporadic = p;
                user = u;
                server_period = gens.(p).period';
                server_relative_deadline = gens.(p).rel_deadline';
                boundary_closed_right = Network.higher_priority net p u;
              })
        (List.init n Fun.id)
    in
    (* FP': drop any priority edge between a sporadic and its user, then
       impose server-over-user priority p' -> u(p) *)
    let fp' = Digraph.create n in
    List.iter
      (fun (hi, lo) ->
        let dropped =
          (match users.(hi) with Some u -> u = lo | None -> false)
          || (match users.(lo) with Some u -> u = hi | None -> false)
        in
        if not dropped then Digraph.add_edge fp' hi lo)
      (Network.fp_edges net);
    List.iter (fun s -> Digraph.add_edge fp' s.sporadic s.user) servers;
    (* step 2: hyperperiod of PN', then the job sequence J *)
    let hyperperiod =
      let periods = Array.to_list (Array.map (fun g -> g.period') gens) in
      try Some (Rat.lcm_list periods) with Rat.Overflow -> None
    in
    (match (Digraph.topo_sort fp', hyperperiod) with
    | None, _ ->
      let cycle =
        match Digraph.find_cycle fp' with
        | Some vs -> List.map (fun v -> Process.name procs.(v)) vs
        | None -> []
      in
      Error (Transformed_priority_cycle cycle)
    | Some _, None -> Error Hyperperiod_overflow
    | Some order, Some hyperperiod ->
      let rank' = Array.make n 0 in
      List.iteri (fun i v -> rank'.(v) <- i) order;
      let jobs = ref [] in
      for p = n - 1 downto 0 do
        let g = gens.(p) in
        let periods = Rat.to_int_exn (Rat.div hyperperiod g.period') in
        let c = wcet (Process.name procs.(p)) in
        for k = g.burst' * periods downto 1 do
          let arrival = Rat.mul g.period' (Rat.of_int ((k - 1) / g.burst')) in
          let deadline = Rat.add arrival g.rel_deadline' in
          (* step 4 of the construction: truncate to the hyperperiod *)
          let deadline = Rat.min hyperperiod deadline in
          jobs :=
            {
              Job.id = 0 (* assigned after sorting *);
              proc = p;
              proc_name = Process.name procs.(p);
              k;
              arrival;
              deadline;
              wcet = c;
              is_server = g.is_server;
            }
            :: !jobs
        done
      done;
      let seq =
        List.stable_sort
          (fun (a : Job.t) (b : Job.t) ->
            let c = Rat.compare a.arrival b.arrival in
            if c <> 0 then c
            else
              let c = Int.compare rank'.(a.proc) rank'.(b.proc) in
              if c <> 0 then c else Int.compare a.k b.k)
          !jobs
      in
      let jobs_arr =
        Array.of_list (List.mapi (fun id j -> { j with Job.id }) seq)
      in
      let m = Array.length jobs_arr in
      (* step 3: precedence edges between <J-ordered related jobs.
         Job a relates to every later job of its own process column and
         of each directly priority-related one (per-process job-id
         arrays, ascending).  Every column is chained to itself, so
         linking a only to the next job of each related column keeps
         the reachability of the full relation, and the transitive
         reduction of either graph is the same unique DAG.  That
         generator graph has O(m * degree) edges; raw_edges counts the
         full relation from the column tail lengths without building
         it, unless the unreduced graph is asked for.  Each job's
         successors are listed in ascending id order either way. *)
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
      (* cur.(q): first position in cols.(q) holding a job id > a; each
         cursor only moves forward over the whole sweep *)
      let cur = Array.make n 0 in
      let raw_edges = ref 0 in
      let succ = Array.make m [] in
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
        succ.(a) <- List.sort Int.compare !targets
      done;
      (* step 5: transitive reduction, one sweep over the generator *)
      Ok
        {
          graph = (if reduce then Graph.reduction else Graph.of_succs) jobs_arr succ;
          hyperperiod;
          servers;
          raw_edges = !raw_edges;
          order = List.init m Fun.id;
        })

let derive_exn ?reduce ~wcet net =
  match derive ?reduce ~wcet net with
  | Ok t -> t
  | Error e -> invalid_arg (Format.asprintf "Derive.derive: %a" pp_error e)

let server_of t p = List.find_opt (fun s -> s.sporadic = p) t.servers
