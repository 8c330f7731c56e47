module Graph = Taskgraph.Graph
module Derive = Taskgraph.Derive
module Priority = Sched.Priority
module List_scheduler = Sched.List_scheduler
module Static_schedule = Sched.Static_schedule

type hi_part = {
  hi_graph : Graph.t;
  hi_to_full : int array;
  hi_schedule : Static_schedule.t;
}

type t = {
  derived : Derive.t;
  lo_schedule : Static_schedule.t;
  hi : hi_part option;
  heuristic : Priority.heuristic;
}

type error =
  | Derivation of Derive.error
  | Inverted_budgets of string
  | Lo_infeasible
  | Hi_infeasible

let pp_error ppf = function
  | Derivation e -> Derive.pp_error ppf e
  | Inverted_budgets name ->
    Format.fprintf ppf "HI process %S has C_HI < C_LO" name
  | Lo_infeasible ->
    Format.pp_print_string ppf "no feasible LO-mode schedule (optimistic budgets)"
  | Hi_infeasible ->
    Format.pp_print_string ppf
      "no feasible HI-mode schedule (conservative budgets, HI jobs only)"

(* the first HI process, in network order, whose C_HI is below its C_LO:
   the one [Spec.wcet_hi] rejects *)
let inverted_budgets spec net =
  List.find_opt
    (fun name ->
      Spec.criticality spec name = Spec.Hi
      &&
      match Spec.wcet_hi spec name with
      | _ -> false
      | exception Invalid_argument _ -> true)
    (List.init (Fppn.Network.n_processes net) (fun p ->
         Fppn.Process.name (Fppn.Network.process net p)))

let build ?(heuristics = Priority.all) ~n_procs ~spec net =
  match inverted_budgets spec net with
  | Some name -> Error (Inverted_budgets name)
  | None ->
  match Derive.derive ~wcet:(Spec.wcet_lo spec) net with
  | Error e -> Error (Derivation e)
  | Ok derived ->
    let full = derived.Derive.graph in
    let any_hi = Array.exists (Spec.is_hi spec) (Graph.jobs full) in
    let hi_side =
      if not any_hi then None
      else begin
        let hi_graph_lo, hi_to_full = Graph.induced ~keep:(Spec.is_hi spec) full in
        let hi_graph =
          Graph.map_wcet
            (fun j -> Spec.wcet_hi spec j.Taskgraph.Job.proc_name)
            hi_graph_lo
        in
        Some (hi_graph, hi_to_full)
      end
    in
    let rec try_heuristics = function
      | [] -> None
      | heuristic :: rest ->
        let lo = List_scheduler.schedule_with ~heuristic ~n_procs full in
        let hi =
          match hi_side with
          | None -> None
          | Some (hi_graph, hi_to_full) ->
            let hi_schedule =
              List_scheduler.schedule_with ~heuristic ~n_procs hi_graph
            in
            Some { hi_graph; hi_to_full; hi_schedule }
        in
        let hi_ok =
          match hi with
          | None -> true
          | Some part ->
            Static_schedule.is_feasible part.hi_graph part.hi_schedule
        in
        if Static_schedule.is_feasible full lo && hi_ok then
          Some (heuristic, lo, hi)
        else try_heuristics rest
    in
    (match try_heuristics heuristics with
    | Some (heuristic, lo_schedule, hi) ->
      Ok { derived; lo_schedule; hi; heuristic }
    | None ->
      (* report the blocking side for the first heuristic, for diagnosis *)
      let h = List.hd heuristics in
      let lo = List_scheduler.schedule_with ~heuristic:h ~n_procs full in
      if not (Static_schedule.is_feasible full lo) then Error Lo_infeasible
      else Error Hi_infeasible)

let build_exn ?heuristics ~n_procs ~spec net =
  match build ?heuristics ~n_procs ~spec net with
  | Ok t -> t
  | Error e -> invalid_arg (Format.asprintf "Dual_schedule.build: %a" pp_error e)
