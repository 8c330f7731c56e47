module Rat = Rt_util.Rat
module Network = Fppn.Network
module Process = Fppn.Process
module Netstate = Fppn.Netstate
module Semantics = Fppn.Semantics

type priority_assignment =
  | Rate_monotonic
  | Explicit of (string * int) list

type policy = Edf | Fixed of priority_assignment

type config = {
  policy : policy;
  n_procs : int;
  exec : Exec_time.t;
  wcet : Taskgraph.Derive.wcet_map;
  horizon : Rat.t;
  sporadic : (string * Rat.t list) list;
  inputs : Netstate.input_feed;
}

let default_config ~policy ~n_procs ~wcet ~horizon =
  {
    policy;
    n_procs;
    exec = Exec_time.constant;
    wcet;
    horizon;
    sporadic = [];
    inputs = Netstate.no_inputs;
  }

type record = {
  process : string;
  k : int;
  released : Rat.t;
  started : Rat.t;
  finished : Rat.t;
  deadline : Rat.t;
  preemptions : int;
}

type result = {
  records : record list;
  channel_history : (string * Fppn.Value.t list) list;
  output_history : (string * Fppn.Value.t list) list;
  misses : int;
  max_response : Rat.t;
}

type live = {
  proc : int;
  seq : int;
  released_at : Rat.t;
  abs_deadline : Rat.t;
  mutable remaining : Rat.t;
  mutable started_at : Rat.t option;
  mutable flush : unit -> unit; (* deferred writes, set at start *)
  mutable body_k : int;
  mutable preempted : int;
}

(* static priority per process, smaller = higher *)
let priorities net assignment =
  let assoc =
    match assignment with
    | Explicit assoc -> assoc
    | Rate_monotonic -> Sched.Rta.rm_priorities net
  in
  Array.map
    (fun proc ->
      Option.value ~default:max_int (List.assoc_opt (Process.name proc) assoc))
    (Network.processes net)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let run net config =
  if config.n_procs < 1 then
    invalid_arg "Preemptive.run: n_procs must be >= 1";
  if Rat.sign config.horizon <= 0 then
    invalid_arg "Preemptive.run: horizon must be positive";
  let key =
    match config.policy with
    | Edf -> fun a b -> Rat.compare a.abs_deadline b.abs_deadline
    | Fixed assignment ->
      let prio = priorities net assignment in
      fun a b -> Int.compare prio.(a.proc) prio.(b.proc)
  in
  (* jobs are numbered in release order, so [seq] also orders release times *)
  let before a b =
    let c = key a b in
    if c <> 0 then c else Int.compare a.seq b.seq
  in
  let releases =
    ref
      (Semantics.invocations ~sporadic:config.sporadic ~horizon:config.horizon
         net)
  in
  let state = Netstate.create net in
  (* released, unfinished jobs in dispatch order *)
  let live = ref [] in
  let seq = ref 0 in
  let now = ref Rat.zero in
  let records = ref [] in
  let misses = ref 0 in
  let max_response = ref Rat.zero in
  let rec insert lj = function
    | x :: rest when before x lj < 0 -> x :: insert lj rest
    | l -> lj :: l
  in
  let rec release_at t =
    match !releases with
    | inv :: rest when Rat.equal inv.Semantics.time t ->
      releases := rest;
      incr seq;
      let p = inv.Semantics.process in
      live :=
        insert
          {
            proc = p;
            seq = !seq;
            released_at = t;
            abs_deadline = Rat.add t (Process.deadline (Network.process net p));
            remaining = Rat.zero;
            started_at = None;
            flush = ignore;
            body_k = 0;
            preempted = 0;
          }
          !live;
      release_at t
    | _ -> ()
  in
  let duration_of lj =
    (* a synthetic job descriptor carries the process WCET to the model *)
    let proc = Network.process net lj.proc in
    let name = Process.name proc in
    Exec_time.sample config.exec
      {
        Taskgraph.Job.id = 0;
        proc = lj.proc;
        proc_name = name;
        k = lj.body_k;
        arrival = lj.released_at;
        deadline = lj.abs_deadline;
        wcet = config.wcet name;
        is_server = Process.is_sporadic proc;
      }
  in
  let start lj =
    (* the body runs now: reads observe the current state, writes are
       deferred to completion *)
    lj.started_at <- Some !now;
    lj.body_k <- Fppn.Instance.job_count (Netstate.instance state lj.proc) + 1;
    lj.flush <-
      Netstate.run_job_deferred ~inputs:config.inputs state ~proc:lj.proc
        ~now:lj.released_at;
    lj.remaining <- duration_of lj
  in
  let complete lj =
    lj.flush ();
    let r =
      {
        process = Process.name (Network.process net lj.proc);
        k = lj.body_k;
        released = lj.released_at;
        started = Option.get lj.started_at;
        finished = !now;
        deadline = lj.abs_deadline;
        preemptions = lj.preempted;
      }
    in
    records := r :: !records;
    if Rat.(r.finished > r.deadline) then incr misses;
    max_response := Rat.max !max_response (Rat.sub r.finished r.released)
  in
  (* [running]: the jobs that held a processor up to now *)
  let rec loop running =
    let next = take config.n_procs !live in
    List.iter
      (fun lj ->
        if not (List.memq lj next) then lj.preempted <- lj.preempted + 1)
      running;
    List.iter (fun lj -> if lj.started_at = None then start lj) next;
    match (next, !releases) with
    | [], [] -> ()
    | [], inv :: _ ->
      now := inv.Semantics.time;
      release_at !now;
      loop []
    | first :: others, pending ->
      let completion =
        List.fold_left
          (fun acc lj -> Rat.min acc (Rat.add !now lj.remaining))
          (Rat.add !now first.remaining) others
      in
      let advance t =
        let elapsed = Rat.sub t !now in
        List.iter (fun lj -> lj.remaining <- Rat.sub lj.remaining elapsed) next;
        now := t
      in
      (match pending with
      | inv :: _ when Rat.(inv.Semantics.time < completion) ->
        advance inv.Semantics.time;
        release_at !now;
        loop next
      | _ ->
        advance completion;
        let finished, running =
          List.partition (fun lj -> Rat.sign lj.remaining <= 0) next
        in
        List.iter complete finished;
        live := List.filter (fun lj -> not (List.memq lj finished)) !live;
        (* the jobs released at this instant compete for the freed
           processors too *)
        release_at !now;
        loop running)
  in
  loop [];
  {
    records = List.rev !records;
    channel_history = Netstate.channel_history state;
    output_history = Netstate.output_history state;
    misses = !misses;
    max_response = !max_response;
  }

let signature r =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (r.channel_history @ r.output_history)
