module Rat = Rt_util.Rat
module Pqueue = Rt_util.Pqueue
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job

let schedule ~rank ~n_procs g =
  Fppn_obs.Trace.with_span "sched.list" @@ fun () ->
  let n = Graph.n_jobs g in
  if Array.length rank <> n then
    invalid_arg "List_scheduler.schedule: rank array size mismatch";
  if n_procs <= 0 then invalid_arg "List_scheduler.schedule: no processors";
  let entries =
    Array.make n { Static_schedule.proc = 0; start = Rat.zero }
  in
  let arrival i = (Graph.job g i).Job.arrival in
  let finish_time = Array.make n Rat.zero in
  let missing_preds = Array.init n (fun i -> List.length (Graph.preds g i)) in
  let proc_free = Array.make n_procs Rat.zero in
  let by_time time a b =
    let c = Rat.compare (time a) (time b) in
    if c <> 0 then c else Int.compare a b
  in
  (* ready queue ordered by schedule priority *)
  let ready = Pqueue.create ~cmp:(fun a b -> Int.compare rank.(a) rank.(b)) in
  (* released jobs still waiting for their arrival, by (arrival, id) *)
  let pending = Pqueue.create ~cmp:(by_time arrival) in
  (* started jobs of positive WCET, by (finish, id) *)
  let running = Pqueue.create ~cmp:(by_time (Array.get finish_time)) in
  (* started zero-WCET jobs per processor whose completion is not yet
     processed (see [settle]) *)
  let held = Array.make n_procs [] in
  let release now i =
    (* all predecessors done; becomes ready at max(now, A_i) *)
    if Rat.(arrival i <= now) then Pqueue.push ready i
    else Pqueue.push pending i
  in
  let complete now i =
    List.iter
      (fun s ->
        missing_preds.(s) <- missing_preds.(s) - 1;
        if missing_preds.(s) = 0 then release now s)
      (Graph.succs g i)
  in
  Array.iteri (fun i k -> if k = 0 then release Rat.zero i) missing_preds;
  let scheduled_count = ref 0 in
  let rec pop_due q time now f =
    match Pqueue.peek q with
    | Some i when Rat.(time i <= now) ->
      ignore (Pqueue.pop q);
      f i;
      pop_due q time now f
    | _ -> ()
  in
  let rec dispatch now =
    (* find a free processor: smallest free time <= now, lowest index *)
    let free = ref (-1) in
    for p = n_procs - 1 downto 0 do
      if Rat.(proc_free.(p) <= now) then free := p
    done;
    if !free >= 0 then
      match Pqueue.pop ready with
      | None -> ()
      | Some i ->
        let p = !free in
        entries.(i) <- { Static_schedule.proc = p; start = now };
        incr scheduled_count;
        let c = (Graph.job g i).Job.wcet in
        if Rat.sign c = 0 then held.(p) <- i :: held.(p)
        else begin
          let e = Rat.add now c in
          finish_time.(i) <- e;
          proc_free.(p) <- e;
          Pqueue.push running i;
          (* the static order breaks start ties by id, so zero-WCET jobs
             held here with larger ids move behind [i] *)
          List.iter
            (fun z ->
              if z > i then
                entries.(z) <- { Static_schedule.proc = p; start = e })
            held.(p)
        end;
        dispatch now
  in
  (* Zero-WCET jobs complete one at a time, lowest id first, each after a
     dispatch round at the same instant: a job placed later at this
     instant then has a larger id than every completed one (edges point
     forward in id), and a still-held one can move behind it. *)
  let rec settle now =
    dispatch now;
    let next = ref (-1) in
    Array.iter
      (List.iter (fun z ->
           if
             Rat.equal entries.(z).Static_schedule.start now
             && (!next < 0 || z < !next)
           then next := z))
      held;
    if !next >= 0 then begin
      let z = !next in
      let p = entries.(z).Static_schedule.proc in
      held.(p) <- List.filter (( <> ) z) held.(p);
      complete now z;
      settle now
    end
  in
  let next_event () =
    match
      ( Option.map (Array.get finish_time) (Pqueue.peek running),
        Option.map arrival (Pqueue.peek pending) )
    with
    | Some a, Some b -> Some (Rat.min a b)
    | t, None | None, t -> t
  in
  let rec run now =
    (* completions at [now] release successors, then due arrivals join
       the ready queue *)
    pop_due running (Array.get finish_time) now (complete now);
    pop_due pending arrival now (Pqueue.push ready);
    settle now;
    match next_event () with None -> () | Some t -> run t
  in
  run Rat.zero;
  assert (!scheduled_count = n || n = 0);
  Static_schedule.make ~n_procs entries

let schedule_with ~heuristic ~n_procs g =
  schedule ~rank:(Priority.rank g heuristic) ~n_procs g

type attempt = {
  heuristic : Priority.heuristic;
  schedule : Static_schedule.t;
  feasible : bool;
  makespan : Rat.t;
}

let auto ?pool ?(heuristics = Priority.all) ~n_procs g =
  let attempt heuristic =
    Fppn_obs.Trace.with_span ("sched.auto." ^ Priority.to_string heuristic)
    @@ fun () ->
    let s = schedule_with ~heuristic ~n_procs g in
    {
      heuristic;
      schedule = s;
      feasible = Static_schedule.is_feasible g s;
      makespan = Static_schedule.makespan g s;
    }
  in
  let attempts =
    match pool with
    | None -> List.map attempt heuristics
    | Some pool -> Rt_util.Pool.map_list ~chunk:1 pool attempt heuristics
  in
  (attempts, List.find_opt (fun a -> a.feasible) attempts)
