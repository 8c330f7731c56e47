(* Multi-application co-scheduling (Sec. III-B generalized to N task
   graphs sharing M processors, after the F-MHEFT family).  Both
   variants bottom out in List_scheduler.schedule so a single
   application co-schedules bit-identically to the plain scheduler. *)

module Rat = Rt_util.Rat
module Graph = Taskgraph.Graph
module Analysis = Taskgraph.Analysis
module Trace = Fppn_obs.Trace
module Metrics = Fppn_obs.Metrics

type app = { app_name : string; app_priority : int; graph : Graph.t }

type variant = Fair | Slots

let variant_to_string = function Fair -> "fair" | Slots -> "slots"

let variant_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "fair" -> Some Fair
  | "slots" | "slot" -> Some Slots
  | _ -> None

type app_report = {
  name : string;
  priority : int;
  schedule : Static_schedule.t;
  makespan : Rat.t;
  feasible : bool;
  utilization : Rat.t;
  lower_bound : int;
  slots : int list;
}

type t = {
  variant : variant;
  heuristic : Priority.heuristic;
  n_procs : int;
  union : Graph.t;
  owner : (int * int) array;
  combined : Static_schedule.t;
  reports : app_report list;
  feasible : bool;
  makespan : Rat.t;
}

let check_apps ~variant ~n_procs apps =
  if apps = [] then invalid_arg "Sched.Cosched: no applications";
  if n_procs <= 0 then invalid_arg "Sched.Cosched: n_procs must be positive";
  List.iter
    (fun a ->
      if Graph.n_jobs a.graph = 0 then
        invalid_arg
          (Printf.sprintf "Sched.Cosched: application %S has no jobs" a.app_name))
    apps;
  if variant = Slots && List.length apps > n_procs then
    invalid_arg
      (Printf.sprintf
         "Sched.Cosched: slots variant needs one processor per application \
          (%d applications, %d processors)"
         (List.length apps) n_procs)

let union_of apps =
  let prefixes = Array.of_list (List.map (fun a -> a.app_name ^ "/") apps) in
  Graph.disjoint_union ~prefixes (List.map (fun a -> a.graph) apps)

(* Application indices from most to least important: ascending priority
   value, ties broken by input position. *)
let priority_order apps =
  let arr = Array.of_list apps in
  let idx = Array.init (Array.length arr) Fun.id in
  Array.sort
    (fun a b ->
      let c = Int.compare arr.(a).app_priority arr.(b).app_priority in
      if c <> 0 then c else Int.compare a b)
    idx;
  idx

(* The fair variant's common ready queue: a global rank over the union
   graph ordered by (app priority, per-app heuristic rank, union id).
   For a single application the positions collapse to Priority.rank. *)
let fair_rank ~heuristic apps union owner =
  let arr = Array.of_list apps in
  let local_rank = Array.map (fun a -> Priority.rank a.graph heuristic) arr in
  let n = Graph.n_jobs union in
  let ids = Array.init n Fun.id in
  Array.sort
    (fun x y ->
      let ax, lx = owner.(x) and ay, ly = owner.(y) in
      let c = Int.compare arr.(ax).app_priority arr.(ay).app_priority in
      if c <> 0 then c
      else
        let c = Int.compare local_rank.(ax).(lx) local_rank.(ay).(ly) in
        if c <> 0 then c else Int.compare x y)
    ids;
  let rank = Array.make n 0 in
  Array.iteri (fun pos id -> rank.(id) <- pos) ids;
  rank

(* Per-app view of a union schedule: local job ids, global processors. *)
let slice apps union_sched owner =
  let arr = Array.of_list apps in
  let per =
    Array.map
      (fun a ->
        Array.make (Graph.n_jobs a.graph)
          { Static_schedule.proc = 0; start = Rat.zero })
      arr
  in
  Array.iteri
    (fun gid (ai, li) -> per.(ai).(li) <- Static_schedule.entry union_sched gid)
    owner;
  Array.to_list
    (Array.map
       (Static_schedule.make ~n_procs:(Static_schedule.n_procs union_sched))
       per)

(* Slot budgets: everyone gets one processor (capacity permitting —
   check_apps enforced that), then spare capacity goes to applications
   in priority order up to their Prop. 3.1 lower bound; any processors
   still left over are dealt out round-robin in the same order, so the
   allocation is work-conserving (no processor sits idle by
   construction, and a single application receives all of them —
   keeping the single-app case bit-identical to List_scheduler).
   Concrete processor ids are contiguous blocks, in priority order. *)
let allocate_slots ~n_procs apps requests =
  let order = priority_order apps in
  let n_apps = Array.length order in
  let alloc = Array.make n_apps 1 in
  let remaining = ref (n_procs - n_apps) in
  let progress = ref true in
  while !remaining > 0 && !progress do
    progress := false;
    Array.iter
      (fun i ->
        if !remaining > 0 && alloc.(i) < requests.(i) then begin
          alloc.(i) <- alloc.(i) + 1;
          decr remaining;
          progress := true
        end)
      order
  done;
  while !remaining > 0 do
    Array.iter
      (fun i ->
        if !remaining > 0 then begin
          alloc.(i) <- alloc.(i) + 1;
          decr remaining
        end)
      order
  done;
  let slots = Array.make n_apps [] in
  let next = ref 0 in
  Array.iter
    (fun i ->
      slots.(i) <- List.init alloc.(i) (fun k -> !next + k);
      next := !next + alloc.(i))
    order;
  slots

let report_of ~name ~priority ~slots app (analysis : Analysis.t) sched =
  {
    name;
    priority;
    schedule = sched;
    makespan = Static_schedule.makespan app.graph sched;
    feasible = Static_schedule.is_feasible app.graph sched;
    utilization = analysis.load.value;
    lower_bound = Analysis.lower_bound analysis;
    slots;
  }

(* [schedule_with] on the applications' analyses, in input order *)
let schedule_analysed ~heuristic ~variant ~n_procs apps analyses =
  Trace.with_span ("sched.cosched." ^ variant_to_string variant) @@ fun () ->
  let union, owner = union_of apps in
  let result =
    match variant with
    | Fair ->
      let rank = fair_rank ~heuristic apps union owner in
      let combined = List_scheduler.schedule ~rank ~n_procs union in
      let slices = slice apps combined owner in
      let reports =
        List.mapi
          (fun ai (app, sched) ->
            Trace.with_span ("sched.cosched.app." ^ app.app_name) @@ fun () ->
            report_of ~name:app.app_name ~priority:app.app_priority ~slots:[]
              app analyses.(ai) sched)
          (List.combine apps slices)
      in
      {
        variant;
        heuristic;
        n_procs;
        union;
        owner;
        combined;
        reports;
        feasible = List.for_all (fun (r : app_report) -> r.feasible) reports;
        makespan = Static_schedule.makespan union combined;
      }
    | Slots ->
      let arr = Array.of_list apps in
      let requests =
        Array.map
          (fun a ->
            let lb = Analysis.lower_bound a in
            if lb = max_int then n_procs else max 1 (min n_procs lb))
          analyses
      in
      let slots = allocate_slots ~n_procs apps requests in
      let reports =
        Array.to_list
          (Array.mapi
             (fun ai app ->
               Trace.with_span ("sched.cosched.app." ^ app.app_name)
               @@ fun () ->
               let my_slots = Array.of_list slots.(ai) in
               let local =
                 List_scheduler.schedule_with ~heuristic
                   ~n_procs:(Array.length my_slots) app.graph
               in
               let entries =
                 Array.init (Graph.n_jobs app.graph) (fun i ->
                     let e = Static_schedule.entry local i in
                     { e with Static_schedule.proc = my_slots.(e.proc) })
               in
               let sched = Static_schedule.make ~n_procs entries in
               report_of ~name:app.app_name ~priority:app.app_priority
                 ~slots:slots.(ai) app analyses.(ai) sched)
             arr)
      in
      let per = Array.of_list reports in
      let combined =
        Static_schedule.make ~n_procs
          (Array.map
             (fun (ai, li) -> Static_schedule.entry per.(ai).schedule li)
             owner)
      in
      {
        variant;
        heuristic;
        n_procs;
        union;
        owner;
        combined;
        reports;
        feasible = List.for_all (fun (r : app_report) -> r.feasible) reports;
        makespan = Static_schedule.makespan union combined;
      }
  in
  if Metrics.enabled () then begin
    Metrics.incr (Metrics.counter "cosched.schedules");
    Metrics.add (Metrics.counter "cosched.apps") (List.length apps);
    Metrics.add
      (Metrics.counter "cosched.infeasible_apps")
      (List.length (List.filter (fun (r : app_report) -> not r.feasible) result.reports))
  end;
  result

let analyse apps =
  Array.of_list (List.map (fun a -> Analysis.analyse a.graph) apps)

let schedule_with ?(heuristic = Priority.Alap_edf) ~variant ~n_procs apps =
  check_apps ~variant ~n_procs apps;
  schedule_analysed ~heuristic ~variant ~n_procs apps (analyse apps)

type attempt = { heuristic : Priority.heuristic; result : t }

let auto ?pool ?(heuristics = Priority.all) ~variant ~n_procs apps =
  check_apps ~variant ~n_procs apps;
  Trace.with_span "sched.cosched.auto" @@ fun () ->
  (* one analysis per application, read by every attempt *)
  let analyses = analyse apps in
  let attempt h =
    {
      heuristic = h;
      result = schedule_analysed ~heuristic:h ~variant ~n_procs apps analyses;
    }
  in
  let attempts =
    match pool with
    | None -> List.map attempt heuristics
    | Some pool -> Rt_util.Pool.map_list ~chunk:1 pool attempt heuristics
  in
  (attempts, List.find_opt (fun a -> a.result.feasible) attempts)

type admission =
  | Admitted of t
  | Rejected of { app : string; reason : string }

let admit ?pool ?heuristics ?(variant = Fair) ~n_procs ~admitted candidate =
  Trace.with_span "sched.cosched.admit" @@ fun () ->
  let apps = admitted @ [ candidate ] in
  let result =
    if variant = Slots && List.length apps > n_procs then
      Rejected
        {
          app = candidate.app_name;
          reason =
            Printf.sprintf
              "no free processor slot (%d applications on %d processors)"
              (List.length apps) n_procs;
        }
    else begin
      (* Prop. 3.1 on the union: a cheap necessary condition before the
         constructive search. *)
      let union, _ = union_of apps in
      let lb = Analysis.lower_bound (Analysis.analyse union) in
      if lb > n_procs then
        Rejected
          {
            app = candidate.app_name;
            reason =
              (if lb = max_int then
                 "some job cannot fit its ASAP/ALAP window (Prop. 3.1)"
               else
                 Printf.sprintf
                   "Prop. 3.1 load bound needs %d processor(s), platform has %d"
                   lb n_procs);
          }
      else
        match snd (auto ?pool ?heuristics ~variant ~n_procs apps) with
        | Some a -> Admitted a.result
        | None ->
          Rejected
            {
              app = candidate.app_name;
              reason =
                "no schedule-priority heuristic yields a deadline-feasible \
                 co-schedule";
            }
    end
  in
  if Metrics.enabled () then
    Metrics.incr
      (Metrics.counter
         (match result with
         | Admitted _ -> "cosched.admit.accepted"
         | Rejected _ -> "cosched.admit.rejected"));
  result

let sections t =
  List.map
    (fun r ->
      {
        Schedule_io.sec_name = r.name;
        sec_priority = r.priority;
        sec_slots = r.slots;
        sec_schedule = r.schedule;
      })
    t.reports

let to_json t =
  Schedule_io.sections_to_json
    ~variant:(variant_to_string t.variant)
    ~n_procs:t.n_procs (sections t)

let save path t =
  Schedule_io.save_sections
    ~variant:(variant_to_string t.variant)
    ~n_procs:t.n_procs path (sections t)

let pp ppf t =
  Format.fprintf ppf "@[<v>co-schedule (%s, %a, %d processors)@,"
    (variant_to_string t.variant) Priority.pp t.heuristic t.n_procs;
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-16s prio %d  load %a  lb %s  makespan %a ms  %s%s@,"
        r.name r.priority Rat.pp r.utilization
        (if r.lower_bound = max_int then "inf" else string_of_int r.lower_bound)
        Rat.pp r.makespan
        (if r.feasible then "feasible" else "INFEASIBLE")
        (match r.slots with
        | [] -> ""
        | s ->
          Printf.sprintf "  slots [%s]"
            (String.concat "," (List.map string_of_int s))))
    t.reports;
  Format.fprintf ppf "  combined makespan %a ms, %s@]" Rat.pp t.makespan
    (if t.feasible then "all applications feasible"
     else "some application misses a deadline")
