module Rat = Rt_util.Rat
module Tick_graph = Taskgraph.Tick_graph
module Prng = Rt_util.Prng
module Graph = Taskgraph.Graph

type outcome = {
  rank : int array;
  schedule : Static_schedule.t;
  feasible : bool;
  makespan : Rat.t;
  iterations : int;
  improvements : int;
}

(* objective: fewer deadline misses first, then makespan *)
let score g sched =
  let misses =
    List.length
      (List.filter
         (function Static_schedule.Deadline _ -> true | _ -> false)
         (Static_schedule.check g sched))
  in
  (misses, Static_schedule.makespan g sched)

let better (m1, s1) (m2, s2) = m1 < m2 || (m1 = m2 && Rat.(s1 < s2))

let improve ?(seed = 1) ?(iterations = 400) ?(start = Priority.Alap_edf)
    ~n_procs g =
  let n = Graph.n_jobs g in
  let prng = Prng.create seed in
  (* one compiled view serves the start and every swap *)
  let v = Tick_graph.compile g in
  let rank = Priority.rank_ticks v start in
  let schedule = ref (List_scheduler.schedule_ticks ~rank ~n_procs v) in
  let best = ref (score g !schedule) in
  let improvements = ref 0 in
  let evaluated = ref 0 in
  if n >= 2 then
    for _ = 1 to iterations do
      let a = Prng.int prng n and b = Prng.int prng n in
      if a <> b then begin
        incr evaluated;
        let tmp = rank.(a) in
        rank.(a) <- rank.(b);
        rank.(b) <- tmp;
        let candidate = List_scheduler.schedule_ticks ~rank ~n_procs v in
        let s = score g candidate in
        if better s !best then begin
          best := s;
          schedule := candidate;
          incr improvements
        end
        else begin
          (* revert *)
          let tmp = rank.(a) in
          rank.(a) <- rank.(b);
          rank.(b) <- tmp
        end
      end
    done;
  let misses, makespan = !best in
  {
    rank = Array.copy rank;
    schedule = !schedule;
    feasible = misses = 0 && Static_schedule.is_feasible g !schedule;
    makespan;
    iterations = !evaluated;
    improvements = !improvements;
  }
