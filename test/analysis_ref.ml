(* The Prop. 3.1 analysis as it ran on Rt_util.Rat.t before it moved
   onto the integer tick view (Taskgraph.Analysis): kept verbatim as the
   differential oracle of the tick code, with its b-level and critical
   path. *)

module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Rat = Rt_util.Rat

type times = { asap : Rat.t array; alap : Rat.t array }

let asap_alap g =
  let n = Graph.n_jobs g in
  let asap = Array.make n Rat.zero and alap = Array.make n Rat.zero in
  let topo = Graph.topo_order g in
  List.iter
    (fun i ->
      let j = Graph.job g i in
      let from_preds =
        List.fold_left
          (fun acc p ->
            Rat.max acc (Rat.add asap.(p) (Graph.job g p).Job.wcet))
          j.Job.arrival (Graph.preds g i)
      in
      asap.(i) <- from_preds)
    topo;
  List.iter
    (fun i ->
      let j = Graph.job g i in
      let from_succs =
        List.fold_left
          (fun acc s ->
            Rat.min acc (Rat.sub alap.(s) (Graph.job g s).Job.wcet))
          j.Job.deadline (Graph.succs g i)
      in
      alap.(i) <- from_succs)
    (List.rev topo);
  { asap; alap }

type load_result = { value : Rat.t; window : Rat.t * Rat.t }

let distinct_sorted values =
  Array.of_list (List.sort_uniq Rat.compare (Array.to_list values))

let load ?times g =
  let n = Graph.n_jobs g in
  if n = 0 then { value = Rat.zero; window = (Rat.zero, Rat.one) }
  else begin
    let { asap; alap } =
      match times with Some t -> t | None -> asap_alap g
    in
    (* Candidate window bounds: t1 among ASAP starts, t2 among ALAP
       completions — shrinking a window to these values never decreases
       the ratio. *)
    let t1s = distinct_sorted asap and t2s = distinct_sorted alap in
    let q = Array.length t2s in
    let d_index = Hashtbl.create q in
    Array.iteri (fun i v -> Hashtbl.replace d_index v i) t2s;
    (* Jobs grouped by ASAP, swept from the largest t1 downward; [acc]
       accumulates per-ALAP-value WCET of jobs with A'_i >= t1. *)
    let by_asap = Hashtbl.create 64 in
    for i = 0 to n - 1 do
      let prev = try Hashtbl.find by_asap asap.(i) with Not_found -> [] in
      Hashtbl.replace by_asap asap.(i) (i :: prev)
    done;
    let acc = Array.make q Rat.zero in
    let best = ref Rat.zero and best_window = ref (Rat.zero, Rat.one) in
    for a = Array.length t1s - 1 downto 0 do
      let t1 = t1s.(a) in
      List.iter
        (fun i ->
          let d = Hashtbl.find d_index alap.(i) in
          acc.(d) <- Rat.add acc.(d) (Graph.job g i).Job.wcet)
        (try Hashtbl.find by_asap t1 with Not_found -> []);
      (* prefix sums over t2 ascending *)
      let running = ref Rat.zero in
      for d = 0 to q - 1 do
        running := Rat.add !running acc.(d);
        let t2 = t2s.(d) in
        if Rat.(t2 > t1) && Rat.sign !running > 0 then begin
          let ratio = Rat.div !running (Rat.sub t2 t1) in
          if Rat.(ratio > !best) then begin
            best := ratio;
            best_window := (t1, t2)
          end
        end
      done
    done;
    { value = !best; window = !best_window }
  end

type violation =
  | Job_infeasible of int
  | Load_exceeds of { load : Rat.t; processors : int }

let necessary_condition ?times g ~processors =
  let t = match times with Some t -> t | None -> asap_alap g in
  let violations = ref [] in
  for i = Graph.n_jobs g - 1 downto 0 do
    let j = Graph.job g i in
    if Rat.(Rat.add t.asap.(i) j.Job.wcet > t.alap.(i)) then
      violations := Job_infeasible i :: !violations
  done;
  let l = load ~times:t g in
  if Rat.ceil l.value > processors then
    violations :=
      !violations @ [ Load_exceeds { load = l.value; processors } ];
  match !violations with [] -> Ok () | vs -> Error vs

let b_level g =
  let n = Graph.n_jobs g in
  let bl = Array.make n Rat.zero in
  List.iter
    (fun i ->
      let j = Graph.job g i in
      let best_succ =
        List.fold_left (fun acc s -> Rat.max acc bl.(s)) Rat.zero (Graph.succs g i)
      in
      bl.(i) <- Rat.add j.Job.wcet best_succ)
    (List.rev (Graph.topo_order g));
  bl

let critical_path g =
  let bl = b_level g in
  let n = Graph.n_jobs g in
  if n = 0 then (Rat.zero, [])
  else begin
    let start = ref 0 in
    for i = 1 to n - 1 do
      if Rat.(bl.(i) > bl.(!start)) then start := i
    done;
    let rec walk i acc =
      let acc = i :: acc in
      let next =
        List.fold_left
          (fun best s ->
            match best with
            | None -> Some s
            | Some b -> if Rat.(bl.(s) > bl.(b)) then Some s else best)
          None (Graph.succs g i)
      in
      match next with None -> List.rev acc | Some s -> walk s acc
    in
    (bl.(!start), walk !start [])
  end
