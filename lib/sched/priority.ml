module Tick_graph = Taskgraph.Tick_graph

type heuristic =
  | Alap_edf
  | B_level
  | Deadline_monotonic
  | Edf_nominal
  | Fifo_arrival

let all = [ Alap_edf; B_level; Deadline_monotonic; Edf_nominal; Fifo_arrival ]

let to_string = function
  | Alap_edf -> "alap-edf"
  | B_level -> "b-level"
  | Deadline_monotonic -> "deadline-monotonic"
  | Edf_nominal -> "edf"
  | Fifo_arrival -> "fifo"

let of_string s =
  List.find_opt (fun h -> to_string h = String.lowercase_ascii s) all

let pp ppf h = Format.pp_print_string ppf (to_string h)

(* Keys in ticks, lower = higher priority.  [r ↦ r·D] is strictly
   increasing and commutes with [+], [−], [min] and [max], so each key
   orders the jobs as its rational definition does. *)
let keys (v : Tick_graph.t) h =
  let n = Tick_graph.n_jobs v in
  match h with
  | Alap_edf -> Taskgraph.Analysis.alap v
  | B_level ->
    (* longest WCET path to a sink, negated: descending *)
    Array.map (fun b -> -b) (Taskgraph.Analysis.b_level v)
  | Deadline_monotonic ->
    Array.init n (fun i ->
        let d = v.deadline.(i) and a = v.arrival.(i) in
        let r = d - a in
        if (d >= 0) <> (a >= 0) && (r >= 0) <> (d >= 0) then
          raise Rt_util.Rat.Overflow
        else r)
  | Edf_nominal -> v.deadline
  | Fifo_arrival -> v.arrival

let order_ticks v h =
  let keys = keys v h in
  (* stable over ascending ids: equal keys keep id order *)
  let ids = Array.init (Tick_graph.n_jobs v) Fun.id in
  Array.stable_sort (fun a b -> Int.compare keys.(a) keys.(b)) ids;
  ids

let rank_ticks v h =
  let ids = order_ticks v h in
  let r = Array.make (Array.length ids) 0 in
  Array.iteri (fun pos id -> r.(id) <- pos) ids;
  r

let order g h = order_ticks (Tick_graph.compile g) h
let rank g h = rank_ticks (Tick_graph.compile g) h
