module Rat = Rt_util.Rat

type step = { time : Rat.t; executed : (string * int) list }

type t = {
  net : Network.t;
  inputs : Netstate.input_feed;
  st : Netstate.t;
  mutable pending : (Rat.t * int list) list;
      (** grouped instants, ascending; processes already in FP order *)
}

let create ?sporadic ?(inputs = Netstate.no_inputs) ~horizon net =
  let pending =
    Semantics.instants net (Semantics.invocations ?sporadic ~horizon net)
  in
  { net; inputs; st = Netstate.create net; pending }

let now t = match t.pending with [] -> None | (time, _) :: _ -> Some time
let remaining t = List.length t.pending
let state t = t.st

let step t =
  match t.pending with
  | [] -> None
  | (time, procs) :: rest ->
    t.pending <- rest;
    let executed =
      List.map
        (fun p ->
          Netstate.run_job ~inputs:t.inputs t.st ~proc:p ~now:time;
          ( Process.name (Network.process t.net p),
            Instance.job_count (Netstate.instance t.st p) ))
        procs
    in
    Some { time; executed }

let run_to_end t =
  let rec loop acc =
    match step t with None -> List.rev acc | Some s -> loop (s :: acc)
  in
  loop []
