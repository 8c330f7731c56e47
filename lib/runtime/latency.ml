module Rat = Rt_util.Rat
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job

type sample = {
  sink_label : string;
  frame : int;
  reaction : Rat.t;
  age : Rat.t;
}

type t = {
  source : string;
  sink : string;
  samples : sample list;
  max_reaction : Rat.t;
  mean_reaction_ms : float;
  max_age : Rat.t;
}

let analyse g ~source ~sink trace =
  let jobs_of name =
    List.filter
      (fun i -> (Graph.job g i).Job.proc_name = name)
      (List.init (Graph.n_jobs g) Fun.id)
  in
  let src_jobs = jobs_of source and snk_jobs = jobs_of sink in
  if src_jobs = [] then
    invalid_arg (Printf.sprintf "Latency.analyse: no jobs of source %S" source);
  if snk_jobs = [] then
    invalid_arg (Printf.sprintf "Latency.analyse: no jobs of sink %S" sink);
  let reach = Graph.reach g in
  let ancestors_of snk_id =
    List.filter (fun s -> Graph.reaches reach s snk_id) src_jobs
  in
  if not (List.exists (fun j -> ancestors_of j <> []) snk_jobs) then
    invalid_arg
      (Printf.sprintf
         "Latency.analyse: no precedence path from %S to %S — the pair has no \
          defined end-to-end constraint"
         source sink);
  (* invocation stamps per (job id, frame) from the trace *)
  let invoked = Hashtbl.create 64 and finished = Hashtbl.create 64 in
  List.iter
    (fun (r : Exec_trace.record) ->
      if not r.Exec_trace.skipped then begin
        Hashtbl.replace invoked (r.Exec_trace.job, r.Exec_trace.frame)
          r.Exec_trace.invoked;
        Hashtbl.replace finished (r.Exec_trace.job, r.Exec_trace.frame)
          r.Exec_trace.finish
      end)
    trace;
  let samples =
    List.filter_map
      (fun (r : Exec_trace.record) ->
        if r.Exec_trace.skipped || (Graph.job g r.Exec_trace.job).Job.proc_name <> sink
        then None
        else begin
          let stamps =
            List.filter_map
              (fun s -> Hashtbl.find_opt invoked (s, r.Exec_trace.frame))
              (ancestors_of r.Exec_trace.job)
          in
          match stamps with
          | [] -> None (* e.g. all contributing source slots were skipped *)
          | first :: rest ->
            let latest = List.fold_left Rat.max first rest in
            let earliest = List.fold_left Rat.min first rest in
            Some
              {
                sink_label = r.Exec_trace.label;
                frame = r.Exec_trace.frame;
                reaction = Rat.sub r.Exec_trace.finish latest;
                age = Rat.sub r.Exec_trace.finish earliest;
              }
        end)
      trace
  in
  let max_reaction =
    List.fold_left (fun acc s -> Rat.max acc s.reaction) Rat.zero samples
  in
  let max_age = List.fold_left (fun acc s -> Rat.max acc s.age) Rat.zero samples in
  let mean_reaction_ms =
    match samples with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun acc s -> acc +. Rat.to_float s.reaction) 0.0 samples
      /. float_of_int (List.length samples)
  in
  { source; sink; samples; max_reaction; mean_reaction_ms; max_age }

let pp ppf t =
  Format.fprintf ppf
    "end-to-end %s -> %s over %d sink job(s): max reaction %a ms (mean %.2f), \
     max data age %a ms@."
    t.source t.sink (List.length t.samples) Rat.pp t.max_reaction
    t.mean_reaction_ms Rat.pp t.max_age
