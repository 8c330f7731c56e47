(* Layer accounting for the traced run.

   Spans come from two places: the ones the library already records
   (engine.*, sched.list, one span per executed job body) and the ones
   this benchmark records around each public call it makes (lang.parse,
   taskgraph.derive, service.register, ...).  After every top-level
   operation the recorder's events are harvested and reset, so the
   per-domain rings never overflow, and each span's self time (its
   duration minus its direct children on the same domain) is charged to
   one layer.

   Closure holds on the main domain: the traced wall time is the sum of
   the main domain's layer self times plus [unattributed_s], the time
   no span covers.  Work the pool's worker domains do in parallel is
   reported beside it as [pool.worker_busy_s]. *)

module Trace = Fppn_obs.Trace

(* the layer a span's self time is charged to *)
let layer_of name =
  match name with
  | "engine.run" | "engine.run_sharded" -> "engine.sporadic_assignment_s"
  | "engine.compile" -> "engine.compile_s"
  | "engine.exec.ticks" -> "engine.exec_ticks_s"
  | "engine.replay" -> "engine.replay_s"
  | "engine.eventloop" -> "engine.eventloop_s"
  | "engine.exec.rat" -> "engine.exec_rat_s"
  | "engine.shard_plan" | "engine.certify" -> "engine.shard_setup_s"
  | "engine.exec.sharded" -> "engine.exec_sharded_s"
  | n when String.starts_with ~prefix:"sched." n -> "sched.auto_s"
  | "apps.build" | "lang.parse" | "lang.elaborate" | "lint.lint"
  | "lint.certify" | "taskgraph.derive" | "mixedcrit.build" | "mixedcrit.run"
  | "service.create" | "service.register" | "service.candidate"
  | "service.decide" | "service.interface" | "service.build_plan"
  | "service.submit" | "service.retire" ->
    name ^ "_s"
  | "service.run_epoch" -> "service.epoch_unattributed_s"
  | n when String.contains n '[' -> "engine.bodies_s"
  | _ -> "other_s"

(* every layer of the closure, in report order *)
let closure_layers =
  [
    "apps.build_s"; "lang.parse_s"; "lang.elaborate_s"; "lint.lint_s";
    "lint.certify_s"; "taskgraph.derive_s"; "sched.auto_s";
    "engine.compile_s"; "engine.sporadic_assignment_s";
    "engine.exec_ticks_s"; "engine.replay_s"; "engine.eventloop_s";
    "engine.bodies_s"; "engine.exec_rat_s"; "engine.shard_setup_s";
    "engine.exec_sharded_s"; "mixedcrit.build_s"; "mixedcrit.run_s";
    "service.create_s"; "service.register_s"; "service.candidate_s";
    "service.decide_s"; "service.interface_s"; "service.build_plan_s";
    "service.submit_s"; "service.epoch_unattributed_s"; "service.retire_s";
    "other_s";
  ]

type t = {
  self_main : (string, int) Hashtbl.t;  (** layer -> main-domain self ns *)
  calls : (string, int) Hashtbl.t;  (** span name -> calls, all domains *)
  totals : (string, int) Hashtbl.t;  (** span name -> total ns, all domains *)
  mutable worker_busy_ns : int;
  mutable epoch_engine_ns : int;
  mutable dropped : int;
  mutable window_ns : int;  (** traced wall time, harvests excluded *)
  mutable resumed : int;
}

let create () =
  {
    self_main = Hashtbl.create 32;
    calls = Hashtbl.create 64;
    totals = Hashtbl.create 64;
    worker_busy_ns = 0;
    epoch_engine_ns = 0;
    dropped = 0;
    window_ns = 0;
    resumed = 0;
  }

let bump tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)

(* Opens the traced window: tracing and metrics on, everything reset. *)
let start () =
  Trace.reset ();
  Fppn_obs.Metrics.reset ();
  Trace.set_enabled true;
  Fppn_obs.Metrics.set_enabled true;
  let t = create () in
  t.resumed <- Trace.now_ns ();
  t

let stop t =
  t.window_ns <- t.window_ns + (Trace.now_ns () - t.resumed);
  Trace.set_enabled false;
  Fppn_obs.Metrics.set_enabled false

(* Charges everything recorded since the last harvest.  Call between
   top-level operations only: no span may be open and no pool task in
   flight.  [epoch] marks the operation as a service epoch, whose
   engine.run time on every domain feeds [service.epoch_engine_s]. *)
let harvest ?(epoch = false) t =
  let paused = Trace.now_ns () in
  t.window_ns <- t.window_ns + (paused - t.resumed);
  let spans =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.kind with
        | Trace.Span { dur_ns } -> Some (e.Trace.lane, e.Trace.ts_ns, dur_ns, e.Trace.name)
        | _ -> None)
      (Trace.events ())
  in
  t.dropped <- t.dropped + Trace.dropped ();
  Trace.reset ();
  (* parents first: by domain, start time, then longest first *)
  let spans =
    List.sort
      (fun (l1, s1, d1, _) (l2, s2, d2, _) ->
        match compare l1 l2 with
        | 0 -> ( match compare s1 s2 with 0 -> compare d2 d1 | c -> c)
        | c -> c)
      spans
  in
  let charge lane name self =
    if lane = 0 then bump t.self_main (layer_of name) self
    else t.worker_busy_ns <- t.worker_busy_ns + self
  in
  (* stack of open (lane, end, name, duration, children ns) *)
  let stack = ref [] in
  let close_until lane start =
    let rec go () =
      match !stack with
      | (l, e, name, dur, kids) :: rest when l <> lane || e <= start ->
        stack := rest;
        charge l name (dur - !kids);
        go ()
      | _ -> ()
    in
    go ()
  in
  List.iter
    (fun (lane, start, dur, name) ->
      close_until lane start;
      (match !stack with
      | (_, _, _, _, kids) :: _ -> kids := !kids + dur
      | [] -> ());
      stack := (lane, start + dur, name, dur, ref 0) :: !stack;
      bump t.calls name 1;
      bump t.totals name dur;
      if epoch && name = "engine.run" then
        t.epoch_engine_ns <- t.epoch_engine_ns + dur)
    spans;
  close_until (-1) max_int;
  t.resumed <- Trace.now_ns ()

(* (layer, seconds) for every closure layer, then unattributed_s *)
let closure t =
  let parts =
    List.map (fun l -> (l, float_of_int (get t.self_main l) /. 1e9)) closure_layers
  in
  let attributed = List.fold_left (fun a (_, s) -> a +. s) 0.0 parts in
  let wall = float_of_int t.window_ns /. 1e9 in
  (parts, wall -. attributed, wall)
