module Rat = Rt_util.Rat
module Netstate = Fppn.Netstate
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Derive = Taskgraph.Derive
module Exec_time = Runtime.Exec_time
module Exec_trace = Runtime.Exec_trace
module Engine = Runtime.Engine

type config = {
  exec : Exec_time.t;
  frames : int;
  sporadic : (string * Rat.t list) list;
  inputs : Netstate.input_feed;
  n_procs : int;
}

let default_config ?(frames = 1) ~n_procs () =
  {
    exec = Exec_time.constant;
    frames;
    sporadic = [];
    inputs = Netstate.no_inputs;
    n_procs;
  }

type result = {
  trace : Exec_trace.t;
  channel_history : (string * Fppn.Value.t list) list;
  output_history : (string * Fppn.Value.t list) list;
  mode_switches : (int * Rat.t) list;
  dropped_lo : int;
  hi_misses : int;
  lo_misses : int;
}

let run net ~spec (dual : Dual_schedule.t) config =
  let derived = dual.Dual_schedule.derived in
  (* true durations are sampled against the criticality budget: C_HI
     for HI jobs, so jitter near the full budget overruns C_LO *)
  let budget j =
    if Spec.is_hi spec j then Spec.wcet_hi spec j.Job.proc_name
    else Spec.budget_lo spec j
  in
  let derived =
    { derived with Derive.graph = Graph.map_wcet budget derived.Derive.graph }
  in
  let switches = ref [] and dropped = ref 0 in
  let monitor =
    {
      Engine.is_hi = Spec.is_hi spec;
      budget_lo = Spec.budget_lo spec;
      on_switch = (fun frame t -> switches := (frame, t) :: !switches);
      on_drop = (fun () -> incr dropped);
    }
  in
  let r =
    Engine.run ~monitor net derived dual.Dual_schedule.lo_schedule
      {
        Engine.platform = Runtime.Platform.create ~n_procs:config.n_procs ();
        exec = config.exec;
        frames = config.frames;
        sporadic = config.sporadic;
        inputs = config.inputs;
      }
  in
  let trace = Engine.trace r in
  let miss_count keep =
    List.length
      (List.filter
         (fun (x : Exec_trace.record) ->
           Exec_trace.missed x && keep (Graph.job derived.Derive.graph x.job))
         trace)
  in
  {
    trace;
    channel_history = Engine.channel_history r;
    output_history = Engine.output_history r;
    mode_switches = List.rev !switches;
    dropped_lo = !dropped;
    hi_misses = miss_count (Spec.is_hi spec);
    lo_misses = miss_count (fun j -> not (Spec.is_hi spec j));
  }

let signature r =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (r.channel_history @ r.output_history)
