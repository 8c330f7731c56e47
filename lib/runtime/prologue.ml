(* What [Engine] and its tick core share: the run configuration, the
   result and the criticality monitor, and the prologue that validates
   a run and assigns its sporadic stamps to server windows (Sec. IV,
   Fig. 2). *)

module Rat = Rt_util.Rat
module Network = Fppn.Network
module Process = Fppn.Process
module Event = Fppn.Event
module Netstate = Fppn.Netstate
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Derive = Taskgraph.Derive
module Static_schedule = Sched.Static_schedule

type config = {
  platform : Platform.t;
  exec : Exec_time.t;
  frames : int;
  sporadic : (string * Rat.t list) list;
  inputs : Netstate.input_feed;
}

let default_config ?(frames = 1) ~n_procs () =
  {
    platform = Platform.create ~n_procs ();
    exec = Exec_time.constant;
    frames;
    sporadic = [];
    inputs = Netstate.no_inputs;
  }

(* Traces, histories and overhead segments are produced lazily: the
   compiled core keeps its records as packed int arrays and most
   consumers (benchmarks, statistics, gates) never look at the rational
   view, so materializing it per run would dominate both time and
   allocation of short simulations.  Forcing is not synchronized —
   a result is meant to be consumed by the domain that ran it. *)
type result = {
  trace : Exec_trace.t Lazy.t;
  channel_history : (string * Fppn.Value.t list) list Lazy.t;
  output_history : (string * Fppn.Value.t list) list Lazy.t;
  stats : Exec_trace.stats;
  unhandled_events : (string * Rat.t) list;
  overhead_segments : (int * Rat.t * Rat.t) list Lazy.t;
}

type monitor = {
  is_hi : Job.t -> bool;
  budget_lo : Job.t -> Rat.t;
  on_switch : int -> Rat.t -> unit;
  on_drop : unit -> unit;
}

(* Map every (server job id, frame) to the real sporadic event it
   handles, applying the Fig. 2 boundary rule.  The server windows tile
   the time line: window [w] ends at [b = w·T_s] and is slot
   [w mod S + 1] of frame [w / S] ([H = S·T_s]), so a stamp's window
   follows from [s / T_s] and its position in the window's subset is its
   rank among the ascending stamps there — one pass per server.  Returns
   the map plus the events that fall beyond the last simulated window. *)
let sporadic_assignment net (derived : Derive.t) ~frames traces =
  let g = derived.Derive.graph in
  let assigned : (int * int, Rat.t) Hashtbl.t = Hashtbl.create 64 in
  let unhandled = ref [] in
  List.iter
    (fun (s : Derive.server_info) ->
      let p = s.Derive.sporadic in
      let name = Process.name (Network.process net p) in
      let stamps =
        match List.assoc_opt name traces with Some l -> l | None -> []
      in
      let ev = Process.event (Network.process net p) in
      if not (Event.is_valid_sporadic_trace ev stamps) then
        invalid_arg
          (Printf.sprintf "Engine.run: sporadic trace of %S violates (m,T)" name);
      let ts = s.Derive.server_period in
      let burst = Process.burst (Network.process net p) in
      let slots_per_frame =
        Rat.to_int_exn (Rat.div derived.Derive.hyperperiod ts)
      in
      let windows = frames * slots_per_frame in
      (* the w with s in (b - T_s, b], respectively [b - T_s, b) *)
      let window stamp =
        let q = Rat.div stamp ts in
        if s.Derive.boundary_closed_right then Rat.ceil q else Rat.floor q + 1
      in
      if stamps <> [] then begin
        (* server jobs ascending k: job k handles position
           (k - 1) mod burst + 1 of slot (k - 1) / burst + 1 *)
        let jobs = Array.of_list (Graph.jobs_of_process g p) in
        let current = ref (-1) and rank = ref 0 in
        List.iter
          (fun stamp ->
            let w = window stamp in
            if w = !current then incr rank
            else begin
              current := w;
              rank := 1
            end;
            (* a valid trace has at most m stamps per window, as
               T_s <= T; the rank test keeps a job index in its slot *)
            if w < windows && !rank <= burst then
              let slot = w mod slots_per_frame in
              Hashtbl.replace assigned
                (jobs.((slot * burst) + !rank - 1), w / slots_per_frame)
                stamp
            else unhandled := (name, stamp) :: !unhandled)
          stamps
      end)
    derived.Derive.servers;
  (assigned, List.rev !unhandled)

(* The checks that do not read the sporadic traces. *)
let validate_shape (derived : Derive.t) sched config =
  if config.frames <= 0 then invalid_arg "Engine.run: frames must be positive";
  if Static_schedule.n_jobs sched <> Graph.n_jobs derived.Derive.graph then
    invalid_arg "Engine.run: schedule does not cover the task graph";
  if Static_schedule.n_procs sched <> config.platform.Platform.n_procs then
    invalid_arg "Engine.run: schedule and platform processor counts differ"

(* Validation + sporadic-window assignment, exported for oracles. *)
let validate_and_assign net derived sched config =
  validate_shape derived sched config;
  List.iter
    (fun (name, _) ->
      let p =
        try Network.find net name
        with Not_found ->
          invalid_arg (Printf.sprintf "Engine.run: unknown process %S" name)
      in
      if not (Process.is_sporadic (Network.process net p)) then
        invalid_arg
          (Printf.sprintf "Engine.run: %S is periodic, not sporadic" name))
    config.sporadic;
  sporadic_assignment net derived ~frames:config.frames config.sporadic

let frame_base h frame = Rat.mul h (Rat.of_int frame)

let overhead_segments_of config h =
  List.filter_map
    (fun frame ->
      let from = frame_base h frame
      and oh = Platform.frame_overhead config.platform ~frame in
      if Rat.sign oh > 0 then Some (frame, from, Rat.add from oh) else None)
    (List.init config.frames Fun.id)
