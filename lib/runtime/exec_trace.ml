module Rat = Rt_util.Rat

type record = {
  job : int;
  label : string;
  frame : int;
  proc : int;
  invoked : Rat.t;
  start : Rat.t;
  finish : Rat.t;
  deadline : Rat.t;
  skipped : bool;
}

type t = record list

let missed r = (not r.skipped) && Rat.(r.finish > r.deadline)
let response_time r = Rat.sub r.finish r.invoked

type stats = {
  executed : int;
  skipped : int;
  misses : int;
  max_response : Rat.t;
  frames : int;
}

let stats t =
  List.fold_left
    (fun (acc : stats) (r : record) ->
      if r.skipped then { acc with skipped = acc.skipped + 1 }
      else
        {
          acc with
          executed = acc.executed + 1;
          misses = (acc.misses + if missed r then 1 else 0);
          max_response = Rat.max acc.max_response (response_time r);
          frames = max acc.frames (r.frame + 1);
        })
    { executed = 0; skipped = 0; misses = 0; max_response = Rat.zero; frames = 0 }
    t

let misses_by_process t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if missed r then begin
        (* strip the [k] suffix to aggregate per process *)
        let name =
          match String.index_opt r.label '[' with
          | Some i -> String.sub r.label 0 i
          | None -> r.label
        in
        let prev = try Hashtbl.find tbl name with Not_found -> 0 in
        Hashtbl.replace tbl name (prev + 1)
      end)
    t;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

type process_stats = {
  process : string;
  p_executed : int;
  p_skipped : int;
  p_misses : int;
  p_max_response : Rat.t;
  p_mean_response_ms : float;
}

let by_process t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let name =
        match String.index_opt r.label '[' with
        | Some i -> String.sub r.label 0 i
        | None -> r.label
      in
      let executed, skipped, misses, max_r, sum_r =
        try Hashtbl.find tbl name with Not_found -> (0, 0, 0, Rat.zero, 0.0)
      in
      let entry =
        if r.skipped then (executed, skipped + 1, misses, max_r, sum_r)
        else
          let resp = response_time r in
          ( executed + 1,
            skipped,
            (misses + if missed r then 1 else 0),
            Rat.max max_r resp,
            sum_r +. Rat.to_float resp )
      in
      Hashtbl.replace tbl name entry)
    t;
  List.sort
    (fun a b -> String.compare a.process b.process)
    (Hashtbl.fold
       (fun process (p_executed, p_skipped, p_misses, p_max_response, sum) acc ->
         {
           process;
           p_executed;
           p_skipped;
           p_misses;
           p_max_response;
           p_mean_response_ms =
             (if p_executed = 0 then 0.0 else sum /. float_of_int p_executed);
         }
         :: acc)
       tbl [])

let pp_by_process ppf stats =
  Format.fprintf ppf "%-22s %8s %8s %7s %12s %12s@." "process" "executed"
    "skipped" "misses" "max resp ms" "mean resp ms";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-22s %8d %8d %7d %12.2f %12.2f@." s.process
        s.p_executed s.p_skipped s.p_misses
        (Rat.to_float s.p_max_response)
        s.p_mean_response_ms)
    stats

let utilization ~n_procs ~span t =
  if Rat.sign span <= 0 then
    invalid_arg "Exec_trace.utilization: span must be positive";
  let busy = Array.make n_procs Rat.zero in
  List.iter
    (fun (r : record) ->
      if (not r.skipped) && r.proc >= 0 && r.proc < n_procs then
        busy.(r.proc) <- Rat.add busy.(r.proc) (Rat.sub r.finish r.start))
    t;
  Array.map (fun b -> Rat.to_float b /. Rat.to_float span) busy

type violation =
  | Wcet_exceeded of record
  | Started_before_invocation of record
  | Precedence_violated of { pred : record; succ : record }
  | Processor_overlap of record * record

let pp_violation ppf = function
  | Wcet_exceeded r ->
    Format.fprintf ppf "%s (frame %d) ran for %a ms, beyond its WCET" r.label
      r.frame Rat.pp (Rat.sub r.finish r.start)
  | Started_before_invocation r ->
    Format.fprintf ppf "%s (frame %d) started at %a before its invocation %a"
      r.label r.frame Rat.pp r.start Rat.pp r.invoked
  | Precedence_violated { pred; succ } ->
    Format.fprintf ppf "%s started at %a before its predecessor %s finished at %a"
      succ.label Rat.pp succ.start pred.label Rat.pp pred.finish
  | Processor_overlap (a, b) ->
    Format.fprintf ppf "%s and %s overlap on processor %d" a.label b.label a.proc

let check g t =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let executed = List.filter (fun (r : record) -> not r.skipped) t in
  (* per-job-instance checks; note that skipped jobs discharge their
     precedence obligations at their (zero-length) skip instant *)
  List.iter
    (fun (r : record) ->
      let j = Taskgraph.Graph.job g r.job in
      if Rat.(Rat.sub r.finish r.start > j.Taskgraph.Job.wcet) then
        add (Wcet_exceeded r);
      if Rat.(r.start < r.invoked) then add (Started_before_invocation r))
    executed;
  (* precedence per frame, over all records (skips included as preds) *)
  let by_key = Hashtbl.create 64 in
  List.iter (fun (r : record) -> Hashtbl.replace by_key (r.job, r.frame) r) t;
  Hashtbl.iter
    (fun (job, frame) (succ : record) ->
      if not succ.skipped then
        List.iter
          (fun pred_id ->
            match Hashtbl.find_opt by_key (pred_id, frame) with
            | Some pred when Rat.(pred.finish > succ.start) ->
              add (Precedence_violated { pred; succ })
            | _ -> ())
          (Taskgraph.Graph.preds g job))
    by_key;
  (* mutual exclusion per processor *)
  let by_proc = Hashtbl.create 8 in
  List.iter
    (fun (r : record) ->
      Hashtbl.replace by_proc r.proc
        (r :: (try Hashtbl.find by_proc r.proc with Not_found -> [])))
    executed;
  Hashtbl.iter
    (fun _ records ->
      (* a zero-length execution at the instant another one starts ran
         before it, so equal starts order by finish *)
      let sorted =
        List.sort
          (fun (a : record) b ->
            let c = Rat.compare a.start b.start in
            if c <> 0 then c else Rat.compare a.finish b.finish)
          records
      in
      let rec scan = function
        | a :: (b :: _ as rest) ->
          if Rat.(a.finish > b.start) then add (Processor_overlap (a, b));
          scan rest
        | [ _ ] | [] -> ()
      in
      scan sorted)
    by_proc;
  List.rev !violations

let to_gantt_rows ?(runtime_row = []) t =
  let n_procs =
    List.fold_left (fun acc r -> max acc (r.proc + 1)) 1 t
  in
  let proc_rows =
    List.init n_procs (fun p ->
        let segments =
          List.filter_map
            (fun r ->
              if r.proc = p && not r.skipped then
                Some
                  {
                    Rt_util.Gantt.start = Rat.to_float r.start;
                    finish = Rat.to_float r.finish;
                    label = r.label;
                  }
              else None)
            t
        in
        { Rt_util.Gantt.name = Printf.sprintf "M%d" (p + 1); segments })
  in
  if runtime_row = [] then proc_rows
  else
    proc_rows
    @ [
        {
          Rt_util.Gantt.name = "runtime";
          segments =
            List.map
              (fun (frame, from, till) ->
                {
                  Rt_util.Gantt.start = Rat.to_float from;
                  finish = Rat.to_float till;
                  label = Printf.sprintf "frame%d" frame;
                })
              runtime_row;
        };
      ]

let pp_stats ppf s =
  Format.fprintf ppf
    "executed %d jobs (%d skipped) over %d frame(s): %d deadline miss(es), max response %a ms"
    s.executed s.skipped s.frames s.misses Rat.pp s.max_response
