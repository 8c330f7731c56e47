module Rat = Rt_util.Rat
module Pool = Rt_util.Pool
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job

type result = {
  schedule : Static_schedule.t option;
  makespan : Rat.t option;
  optimal : bool;
  nodes : int;
}

(* Search state, mutated along a DFS and restored on backtrack.  The
   parallel fan-out gives every top-level branch its own copy. *)
type state = {
  entries : Static_schedule.entry array;
  finish : Rat.t array;
  scheduled : bool array;
  missing : int array;
  proc_free : Rat.t array;
}

let copy_state st =
  {
    entries = Array.copy st.entries;
    finish = Array.copy st.finish;
    scheduled = Array.copy st.scheduled;
    missing = Array.copy st.missing;
    proc_free = Array.copy st.proc_free;
  }

let solve ?pool ?(node_budget = 2_000_000) ~n_procs g =
  let n = Graph.n_jobs g in
  if n_procs <= 0 then invalid_arg "Exact.solve: no processors";
  Fppn_obs.Trace.with_span "sched.exact" @@ fun () ->
  let jobs = Graph.jobs g in
  (* remaining critical-path length from each job (b-level): lower bound *)
  let b_level =
    let v = Taskgraph.Tick_graph.compile g in
    Array.map (Taskgraph.Tick_graph.to_rat v) (Taskgraph.Analysis.b_level v)
  in
  let total_work = Graph.total_wcet g in
  (* [bound] is the shared incumbent makespan used for pruning: safe to
     share across domains because it only ever decreases, and pruning
     against a stale (larger) value is merely less effective, never
     wrong.  Each branch additionally records its best schedule in a
     local ref, so the final winner is selected deterministically by
     branch order. *)
  let bound = Atomic.make None in
  let nodes = Atomic.make 0 in
  let exhausted = Atomic.make true in
  let beats_bound candidate =
    match Atomic.get bound with None -> true | Some b -> Rat.(candidate < b)
  in
  let rec lower_bound_to m =
    let cur = Atomic.get bound in
    match cur with
    | Some b when not Rat.(m < b) -> ()
    | _ ->
      if Atomic.compare_and_set bound cur (Some m) then
        Fppn_obs.Trace.instant "sched.exact.bound_update"
      else lower_bound_to m
  in
  let rec dfs st local n_done current_makespan remaining_work =
    if Atomic.get nodes >= node_budget then Atomic.set exhausted false
    else begin
      Atomic.incr nodes;
      if n_done = n then begin
        if beats_bound current_makespan then begin
          lower_bound_to current_makespan;
          let better =
            match !local with
            | None -> true
            | Some (b, _) -> Rat.(current_makespan < b)
          in
          if better then local := Some (current_makespan, Array.copy st.entries)
        end
      end
      else begin
        (* lower bounds: remaining work spread over all machines, and the
           deepest remaining chain from any ready-or-future job *)
        let earliest_free =
          Array.fold_left Rat.min st.proc_free.(0) st.proc_free
        in
        let work_bound =
          Rat.add earliest_free (Rat.div remaining_work (Rat.of_int n_procs))
        in
        let path_bound =
          let bound = ref Rat.zero in
          for i = 0 to n - 1 do
            if not st.scheduled.(i) then
              bound := Rat.max !bound (Rat.add jobs.(i).Job.arrival b_level.(i))
          done;
          !bound
        in
        let lower = Rat.max current_makespan (Rat.max work_bound path_bound) in
        if beats_bound lower then begin
          (* branch over every ready job × distinct processor free times *)
          for i = 0 to n - 1 do
            if (not st.scheduled.(i)) && st.missing.(i) = 0 then begin
              let ready_data =
                List.fold_left
                  (fun acc p -> Rat.max acc st.finish.(p))
                  jobs.(i).Job.arrival (Graph.preds g i)
              in
              (* symmetry breaking: among identical machines only distinct
                 free times matter; pick the first processor per time *)
              let seen_times = ref [] in
              for p = 0 to n_procs - 1 do
                if not (List.exists (Rat.equal st.proc_free.(p)) !seen_times)
                then begin
                  seen_times := st.proc_free.(p) :: !seen_times;
                  let start = Rat.max ready_data st.proc_free.(p) in
                  let e = Rat.add start jobs.(i).Job.wcet in
                  (* prune deadline misses immediately *)
                  if Rat.(e <= jobs.(i).Job.deadline) then begin
                    let saved_free = st.proc_free.(p) in
                    st.entries.(i) <- { Static_schedule.proc = p; start };
                    st.finish.(i) <- e;
                    st.scheduled.(i) <- true;
                    st.proc_free.(p) <- e;
                    List.iter
                      (fun s -> st.missing.(s) <- st.missing.(s) - 1)
                      (Graph.succs g i);
                    dfs st local (n_done + 1) (Rat.max current_makespan e)
                      (Rat.sub remaining_work jobs.(i).Job.wcet);
                    List.iter
                      (fun s -> st.missing.(s) <- st.missing.(s) + 1)
                      (Graph.succs g i);
                    st.proc_free.(p) <- saved_free;
                    st.scheduled.(i) <- false
                  end
                end
              done
            end
          done
        end
      end
    end
  in
  let init_state () =
    {
      entries = Array.make n { Static_schedule.proc = 0; start = Rat.zero };
      finish = Array.make n Rat.zero;
      scheduled = Array.make n false;
      missing = Array.init n (fun i -> List.length (Graph.preds g i));
      proc_free = Array.make n_procs Rat.zero;
    }
  in
  let best =
    if n = 0 then None
    else
      match pool with
      | Some pool when Pool.jobs pool > 1 ->
        (* fan the root's branches out over the pool: every child gets a
           private state with its first move applied, then searches its
           subtree sequentially against the shared bound *)
        let st0 = init_state () in
        if Atomic.get nodes >= node_budget then Atomic.set exhausted false
        else begin Atomic.incr nodes end;
        let moves = ref [] in
        for i = 0 to n - 1 do
          if st0.missing.(i) = 0 then begin
            let ready_data =
              List.fold_left
                (fun acc p -> Rat.max acc st0.finish.(p))
                jobs.(i).Job.arrival (Graph.preds g i)
            in
            let seen_times = ref [] in
            for p = 0 to n_procs - 1 do
              if not (List.exists (Rat.equal st0.proc_free.(p)) !seen_times)
              then begin
                seen_times := st0.proc_free.(p) :: !seen_times;
                let start = Rat.max ready_data st0.proc_free.(p) in
                let e = Rat.add start jobs.(i).Job.wcet in
                if Rat.(e <= jobs.(i).Job.deadline) then
                  moves := (i, p, start, e) :: !moves
              end
            done
          end
        done;
        let locals =
          Pool.map_list ~chunk:1 pool
            (fun (i, p, start, e) ->
              let st = copy_state st0 in
              st.entries.(i) <- { Static_schedule.proc = p; start };
              st.finish.(i) <- e;
              st.scheduled.(i) <- true;
              st.proc_free.(p) <- e;
              List.iter
                (fun s -> st.missing.(s) <- st.missing.(s) - 1)
                (Graph.succs g i);
              let local = ref None in
              dfs st local 1 e (Rat.sub total_work jobs.(i).Job.wcet);
              !local)
            (List.rev !moves)
        in
        List.fold_left
          (fun acc local ->
            match (acc, local) with
            | None, l -> l
            | acc, None -> acc
            | Some (b, _), Some (m, _) when Rat.(m < b) -> local
            | acc, _ -> acc)
          None locals
      | _ ->
        let st = init_state () in
        let local = ref None in
        dfs st local 0 Rat.zero total_work;
        !local
  in
  if Fppn_obs.Metrics.enabled () then
    Fppn_obs.Metrics.add
      (Fppn_obs.Metrics.counter "sched.exact.nodes")
      (Atomic.get nodes);
  {
    schedule =
      Option.map (fun (_, e) -> Static_schedule.make ~n_procs e) best;
    makespan = Option.map fst best;
    optimal = Atomic.get exhausted;
    nodes = Atomic.get nodes;
  }

let optimality_gap ?node_budget ~n_procs ~heuristic_makespan g =
  let r = solve ?node_budget ~n_procs g in
  match (r.makespan, r.optimal) with
  | Some opt, true ->
    Some
      ((Rat.to_float heuristic_makespan -. Rat.to_float opt)
      /. Rat.to_float opt)
  | _ -> None
