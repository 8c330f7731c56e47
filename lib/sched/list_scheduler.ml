module Rat = Rt_util.Rat
module Tick_graph = Taskgraph.Tick_graph
module Iheap = Rt_util.Iheap

let check_rank ~n rank =
  if Array.length rank <> n then
    invalid_arg "List_scheduler.schedule: rank array size mismatch";
  let seen = Bytes.make n '\000' in
  Array.iter
    (fun r ->
      if r < 0 || r >= n || Bytes.get seen r <> '\000' then
        invalid_arg "List_scheduler.schedule: rank is not a permutation";
      Bytes.set seen r '\001')
    rank

(* Per processor, its jobs ascending by (start, id).  Jobs are bucketed
   in dispatch order, which is sorted but for same-instant dispatches and
   held zero-WCET jobs moved behind a later start, so the insertion sort
   runs in about linear time. *)
let static_orders ~n_procs ~proc ~start dispatched =
  let count = Array.make n_procs 0 in
  Array.iter (fun i -> count.(proc.(i)) <- count.(proc.(i)) + 1) dispatched;
  let orders = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 n_procs 0;
  Array.iter
    (fun i ->
      let p = proc.(i) in
      let a = orders.(p) and s = start.(i) in
      let k = ref count.(p) in
      while
        !k > 0
        &&
        let j = a.(!k - 1) in
        start.(j) > s || (start.(j) = s && j > i)
      do
        a.(!k) <- a.(!k - 1);
        decr k
      done;
      a.(!k) <- i;
      count.(p) <- count.(p) + 1)
    dispatched;
  orders

let schedule_ticks ~rank ~n_procs (v : Tick_graph.t) =
  Fppn_obs.Trace.with_span "sched.list" @@ fun () ->
  let n = Tick_graph.n_jobs v in
  check_rank ~n rank;
  if n_procs <= 0 then invalid_arg "List_scheduler.schedule: no processors";
  let arrival = v.arrival and wcet = v.wcet in
  let proc = Array.make n 0 and start = Array.make n 0 in
  let dispatched = Array.make n 0 and n_dispatched = ref 0 in
  let missing_preds = Array.copy v.n_preds in
  let proc_free = Array.make n_procs 0 in
  (* ready jobs by rank, a permutation: no two keys tie *)
  let ready = Iheap.create () in
  (* released jobs still waiting for their arrival, by arrival *)
  let pending = Iheap.create () in
  (* started jobs of positive WCET, by finish *)
  let running = Iheap.create () in
  (* started zero-WCET jobs per processor whose completion is not yet
     processed (see [settle]) *)
  let held = Array.make n_procs [] in
  let release now i =
    (* all predecessors done; becomes ready at max(now, A_i) *)
    if arrival.(i) <= now then Iheap.push ready ~key:rank.(i) ~pay:i
    else Iheap.push pending ~key:arrival.(i) ~pay:i
  in
  let complete now i =
    for e = v.succ_off.(i) to v.succ_off.(i + 1) - 1 do
      let s = v.succ.(e) in
      missing_preds.(s) <- missing_preds.(s) - 1;
      if missing_preds.(s) = 0 then release now s
    done
  in
  Array.iteri (fun i k -> if k = 0 then release 0 i) missing_preds;
  let rec dispatch now =
    (* find a free processor: smallest free time <= now, lowest index *)
    let free = ref (-1) in
    for p = n_procs - 1 downto 0 do
      if proc_free.(p) <= now then free := p
    done;
    if !free >= 0 && not (Iheap.is_empty ready) then begin
      let i = Iheap.top_pay ready and p = !free in
      Iheap.drop ready;
      proc.(i) <- p;
      start.(i) <- now;
      dispatched.(!n_dispatched) <- i;
      incr n_dispatched;
      let c = wcet.(i) in
      if c = 0 then held.(p) <- i :: held.(p)
      else begin
        (* below the horizon: no overflow *)
        let e = now + c in
        proc_free.(p) <- e;
        Iheap.push running ~key:e ~pay:i;
        (* the static order breaks start ties by id, so zero-WCET jobs
           held here with larger ids move behind [i] *)
        List.iter (fun z -> if z > i then start.(z) <- e) held.(p)
      end;
      dispatch now
    end
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
           if start.(z) = now && (!next < 0 || z < !next) then next := z))
      held;
    if !next >= 0 then begin
      let z = !next in
      let p = proc.(z) in
      held.(p) <- List.filter (( <> ) z) held.(p);
      complete now z;
      settle now
    end
  in
  (* every event due at [now] is drained before the dispatch, so the
     heaps' order among equal keys does not matter *)
  let rec run now =
    (* completions at [now] release successors, then due arrivals join
       the ready queue *)
    while (not (Iheap.is_empty running)) && Iheap.top_key running <= now do
      let i = Iheap.top_pay running in
      Iheap.drop running;
      complete now i
    done;
    while (not (Iheap.is_empty pending)) && Iheap.top_key pending <= now do
      let i = Iheap.top_pay pending in
      Iheap.drop pending;
      Iheap.push ready ~key:rank.(i) ~pay:i
    done;
    settle now;
    match (Iheap.is_empty running, Iheap.is_empty pending) with
    | true, true -> ()
    | false, true -> run (Iheap.top_key running)
    | true, false -> run (Iheap.top_key pending)
    | false, false -> run (min (Iheap.top_key running) (Iheap.top_key pending))
  in
  run 0;
  assert (!n_dispatched = n);
  let entries =
    Array.init n (fun i ->
        { Static_schedule.proc = proc.(i); start = Tick_graph.to_rat v start.(i) })
  in
  Static_schedule.of_orders ~n_procs entries
    (static_orders ~n_procs ~proc ~start dispatched)

let schedule ~rank ~n_procs g =
  schedule_ticks ~rank ~n_procs (Tick_graph.compile g)

let schedule_with ~heuristic ~n_procs g =
  let v = Tick_graph.compile g in
  schedule_ticks ~rank:(Priority.rank_ticks v heuristic) ~n_procs v

type attempt = {
  heuristic : Priority.heuristic;
  schedule : Static_schedule.t;
  feasible : bool;
  makespan : Rat.t;
}

let auto ?pool ?(heuristics = Priority.all) ~n_procs g =
  (* one compiled view, read by every attempt, on any domain *)
  let v = Tick_graph.compile g in
  let attempt heuristic =
    Fppn_obs.Trace.with_span ("sched.auto." ^ Priority.to_string heuristic)
    @@ fun () ->
    let s = schedule_ticks ~rank:(Priority.rank_ticks v heuristic) ~n_procs v in
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
