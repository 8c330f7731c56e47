module Analysis = Taskgraph.Analysis

type verdict = {
  lower_bound : int;
  found : (int * List_scheduler.attempt) option;
  searched_up_to : int;
}

let min_processors ?heuristics ?(max_procs = 16) ?analysis g =
  let analysis =
    match analysis with Some a -> a | None -> Analysis.analyse g
  in
  let lower_bound = Analysis.lower_bound analysis in
  if lower_bound = max_int then
    { lower_bound; found = None; searched_up_to = max_procs }
  else begin
    let rec search m =
      if m > max_procs then None
      else
        match snd (List_scheduler.auto ?heuristics ~n_procs:m g) with
        | Some attempt -> Some (m, attempt)
        | None -> search (m + 1)
    in
    { lower_bound; found = search lower_bound; searched_up_to = max_procs }
  end

let pp ppf v =
  if v.lower_bound = max_int then
    Format.fprintf ppf
      "infeasible: some job cannot fit its ASAP/ALAP window on any processor count"
  else
    match v.found with
    | Some (m, a) ->
      Format.fprintf ppf
        "needs %d processor(s) (lower bound %d, heuristic %a, makespan %a ms)" m
        v.lower_bound Priority.pp a.List_scheduler.heuristic Rt_util.Rat.pp
        a.List_scheduler.makespan
    | None ->
      Format.fprintf ppf
        "no feasible schedule found up to %d processors (lower bound %d)"
        v.searched_up_to v.lower_bound
