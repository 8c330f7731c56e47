module Rat = Rt_util.Rat

type invocation = { time : Rat.t; process : int }
type event_trace = invocation list

let invocations ?(sporadic = []) ~horizon net =
  let n = Network.n_processes net in
  let per_process = Array.make n [] in
  for p = 0 to n - 1 do
    let proc = Network.process net p in
    if not (Process.is_sporadic proc) then
      per_process.(p) <-
        Event.periodic_invocations (Process.event proc) ~horizon
  done;
  List.iter
    (fun (name, stamps) ->
      let p =
        try Network.find net name
        with Not_found ->
          invalid_arg
            (Printf.sprintf "Semantics.invocations: unknown process %S" name)
      in
      let proc = Network.process net p in
      if not (Process.is_sporadic proc) then
        invalid_arg
          (Printf.sprintf
             "Semantics.invocations: %S is periodic; it generates its own events"
             name);
      if not (Event.is_valid_sporadic_trace (Process.event proc) stamps) then
        invalid_arg
          (Printf.sprintf
             "Semantics.invocations: trace of %S violates its sporadic constraint"
             name);
      List.iter
        (fun s ->
          if Rat.(s >= horizon) || Rat.sign s < 0 then
            invalid_arg
              (Printf.sprintf
                 "Semantics.invocations: stamp %s of %S outside [0, horizon)"
                 (Rat.to_string s) name))
        stamps;
      per_process.(p) <- stamps)
    sporadic;
  (* merge in one array: concatenate per-process runs (ascending
     process index), then one stable sort by time — stability keeps
     per-process job order within equal stamps *)
  let total =
    Array.fold_left (fun acc l -> acc + List.length l) 0 per_process
  in
  let all = Array.make total { time = Rat.zero; process = 0 } in
  let i = ref 0 in
  for p = 0 to n - 1 do
    List.iter
      (fun time ->
        all.(!i) <- { time; process = p };
        incr i)
      per_process.(p)
  done;
  Array.stable_sort (fun a b -> Rat.compare a.time b.time) all;
  Array.to_list all

type input_feed = Netstate.input_feed

let no_inputs = Netstate.no_inputs
let feed_of_list = Netstate.feed_of_list

type result = {
  trace : Trace.t;
  channel_history : (string * Value.t list) list;
  output_history : (string * Value.t list) list;
  job_counts : (string * int) list;
}

let instants net event_trace =
  (* group consecutive equal stamps, then order each group by functional
     priority.  Ranks are a permutation of [0, n), so a counting sort
     over reusable buckets replaces a per-group comparison sort *)
  let n = Network.n_processes net in
  let rank = Array.init n (Network.fp_rank net) in
  let buckets = Array.make n [] in
  let by_priority procs =
    List.iter (fun p -> buckets.(rank.(p)) <- p :: buckets.(rank.(p))) procs;
    let out = ref [] in
    for r = n - 1 downto 0 do
      match buckets.(r) with
      | [] -> ()
      | ps ->
        out := List.rev_append ps !out;
        buckets.(r) <- []
    done;
    !out
  in
  let rec loop acc current = function
    | [] -> List.rev (match current with None -> acc | Some g -> g :: acc)
    | inv :: rest -> (
      match current with
      | Some (t, ps) when Rat.equal t inv.time ->
        loop acc (Some (t, inv.process :: ps)) rest
      | Some g -> loop (g :: acc) (Some (inv.time, [ inv.process ])) rest
      | None -> loop acc (Some (inv.time, [ inv.process ])) rest)
  in
  List.map
    (fun (t, ps) -> (t, by_priority (List.rev ps)))
    (loop [] None event_trace)

let run ?(inputs = no_inputs) net event_trace =
  let state = Netstate.create net in
  let trace = ref [] in
  let recorder a = trace := a :: !trace in
  List.iter
    (fun (time, procs) ->
      recorder (Trace.Wait time);
      List.iter
        (fun p -> Netstate.run_job ~recorder ~inputs state ~proc:p ~now:time)
        procs)
    (instants net event_trace);
  let job_counts =
    Array.to_list
      (Array.mapi
         (fun p proc ->
           (Process.name proc, Instance.job_count (Netstate.instance state p)))
         (Network.processes net))
  in
  {
    trace = List.rev !trace;
    channel_history = Netstate.channel_history state;
    output_history = Netstate.output_history state;
    job_counts;
  }

let signature r =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (r.channel_history @ r.output_history)

let equal_signature a b =
  List.equal
    (fun (n1, h1) (n2, h2) -> String.equal n1 n2 && List.equal Value.equal h1 h2)
    a b
