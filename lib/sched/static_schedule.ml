module Rat = Rt_util.Rat
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job

type entry = { proc : int; start : Rat.t }

type t = {
  n_procs : int;
  entries : entry array;
  orders : int array array; (* per processor: job ids by (start, id) *)
}

let check_entries who ~n_procs entries =
  if Array.length entries = 0 then invalid_arg (who ^ ": empty schedule");
  if n_procs <= 0 then invalid_arg (who ^ ": no processors");
  Array.iter
    (fun e ->
      if e.proc < 0 || e.proc >= n_procs then
        invalid_arg (who ^ ": processor out of range");
      if Rat.sign e.start < 0 then invalid_arg (who ^ ": negative start time"))
    entries

(* Each order lists only its processor's jobs, strictly ascending by
   (start, id), so no job appears twice; with [n] entries in all, every
   job appears once. *)
let check_orders who ~n_procs entries orders =
  if Array.length orders <> n_procs then
    invalid_arg (who ^ ": one order per processor expected");
  let listed = ref 0 in
  Array.iteri
    (fun p order ->
      Array.iteri
        (fun k i ->
          if i < 0 || i >= Array.length entries || entries.(i).proc <> p then
            invalid_arg (who ^ ": order lists a job of another processor");
          if k > 0 then begin
            let prev = order.(k - 1) in
            let c = Rat.compare entries.(prev).start entries.(i).start in
            if c > 0 || (c = 0 && prev >= i) then
              invalid_arg (who ^ ": order not sorted by (start, id)")
          end)
        order;
      listed := !listed + Array.length order)
    orders;
  if !listed <> Array.length entries then
    invalid_arg (who ^ ": orders miss a job")

let of_orders ~n_procs entries orders =
  let who = "Static_schedule.of_orders" in
  check_entries who ~n_procs entries;
  check_orders who ~n_procs entries orders;
  { n_procs; entries; orders }

let make ~n_procs entries =
  let who = "Static_schedule.make" in
  check_entries who ~n_procs entries;
  let orders =
    Array.init n_procs (fun p ->
        let ids = ref [] in
        for i = Array.length entries - 1 downto 0 do
          if entries.(i).proc = p then ids := i :: !ids
        done;
        let arr = Array.of_list !ids in
        (* ids are ascending already, so sorting by start stays stable *)
        Array.sort
          (fun a b ->
            let c = Rat.compare entries.(a).start entries.(b).start in
            if c <> 0 then c else Int.compare a b)
          arr;
        arr)
  in
  check_orders who ~n_procs entries orders;
  { n_procs; entries; orders }

let n_procs t = t.n_procs
let n_jobs t = Array.length t.entries
let entry t i = t.entries.(i)
let start t i = t.entries.(i).start
let proc t i = t.entries.(i).proc

let finish g t i = Rat.add t.entries.(i).start (Graph.job g i).Job.wcet

let makespan g t =
  let best = ref Rat.zero in
  for i = 0 to n_jobs t - 1 do
    best := Rat.max !best (finish g t i)
  done;
  !best

let jobs_on t p = Array.to_list t.orders.(p)

let order_on t p = Array.copy t.orders.(p)

type violation =
  | Arrival of int
  | Deadline of int
  | Precedence of int * int
  | Overlap of int * int

let pp_violation g ppf =
  let lbl i = Job.label (Graph.job g i) in
  function
  | Arrival i -> Format.fprintf ppf "%s starts before its arrival" (lbl i)
  | Deadline i -> Format.fprintf ppf "%s finishes after its deadline" (lbl i)
  | Precedence (i, j) ->
    Format.fprintf ppf "%s must complete before %s starts" (lbl i) (lbl j)
  | Overlap (i, j) ->
    Format.fprintf ppf "%s and %s overlap on their shared processor" (lbl i)
      (lbl j)

let check g t =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  for i = 0 to n_jobs t - 1 do
    let j = Graph.job g i in
    if Rat.(start t i < j.Job.arrival) then add (Arrival i);
    if Rat.(finish g t i > j.Job.deadline) then add (Deadline i)
  done;
  List.iter
    (fun (i, j) -> if Rat.(finish g t i > start t j) then add (Precedence (i, j)))
    (Graph.edges g);
  for p = 0 to t.n_procs - 1 do
    let rec scan = function
      | a :: (b :: _ as rest) ->
        if Rat.(finish g t a > start t b) then add (Overlap (a, b));
        scan rest
      | [ _ ] | [] -> ()
    in
    scan (jobs_on t p)
  done;
  List.rev !violations

(* [check g t = []] walked in place: each finish computed once, the
   successor lists and order arrays read as stored, and the walk stops
   at the first violation *)
let is_feasible g t =
  let n = n_jobs t in
  let finish = Array.init n (finish g t) in
  let job_ok i =
    let j = Graph.job g i and e = finish.(i) in
    Rat.(start t i >= j.Job.arrival)
    && Rat.(e <= j.Job.deadline)
    && List.for_all (fun k -> Rat.(e <= start t k)) (Graph.succs g i)
  in
  let rec jobs_ok i = i >= n || (job_ok i && jobs_ok (i + 1)) in
  let order_ok o =
    let rec scan k =
      k >= Array.length o
      ||
      let prev = finish.(o.(k - 1)) in
      Rat.(prev <= start t o.(k)) && scan (k + 1)
    in
    scan 1
  in
  jobs_ok 0 && Array.for_all order_ok t.orders

let to_gantt_rows g t =
  List.init t.n_procs (fun p ->
      let segments =
        List.map
          (fun i ->
            {
              Rt_util.Gantt.start = Rat.to_float (start t i);
              finish = Rat.to_float (finish g t i);
              label = Job.label (Graph.job g i);
            })
          (jobs_on t p)
      in
      { Rt_util.Gantt.name = Printf.sprintf "M%d" (p + 1); segments })

let pp g ppf t =
  Format.fprintf ppf "%-24s %-5s %10s %10s %10s@." "job" "proc" "start"
    "finish" "deadline";
  List.iter
    (fun p ->
      List.iter
        (fun i ->
          let j = Graph.job g i in
          Format.fprintf ppf "%-24s M%-4d %10s %10s %10s@." (Job.label j)
            (p + 1)
            (Rat.to_string (start t i))
            (Rat.to_string (finish g t i))
            (Rat.to_string j.Job.deadline))
        (jobs_on t p))
    (List.init t.n_procs Fun.id)
