module Rat = Rt_util.Rat
module Prng = Rt_util.Prng

type t =
  | Constant
  | Uniform of { prng : Prng.t; min_fraction : float }
  | Scaled of float
  | Profile of (string -> Rat.t)

let constant = Constant

let uniform ~seed ~min_fraction =
  if min_fraction < 0.0 || min_fraction > 1.0 then
    invalid_arg "Exec_time.uniform: min_fraction must be in [0,1]";
  Uniform { prng = Prng.create seed; min_fraction }

let scaled fraction =
  if fraction < 0.0 then invalid_arg "Exec_time.scaled: negative fraction";
  Scaled fraction

let profile f = Profile f

let quantized_fraction wcet fraction =
  (* wcet * round(fraction * 1000) / 1000, keeping denominators small *)
  let milli = int_of_float (Float.round (fraction *. 1000.0)) in
  Rat.mul wcet (Rat.make milli 1000)

type durations =
  | Fixed of Rat.t array
  | Extras of Rat.t list
  | Opaque

let durations t ~jobs =
  match t with
  | Constant -> Fixed (Array.map (fun j -> j.Taskgraph.Job.wcet) jobs)
  | Scaled f -> (
    try
      Fixed (Array.map (fun j -> quantized_fraction j.Taskgraph.Job.wcet f) jobs)
    with Rat.Overflow -> Opaque)
  | Profile p -> (
    (* deterministic per process, so one setup-time sample per job
       covers the whole run; a raising profile degrades to [Opaque] *)
    try Fixed (Array.map (fun j -> p j.Taskgraph.Job.proc_name) jobs)
    with _ -> Opaque)
  (* [quantized_fraction] yields wcet·milli/1000, whose denominator
     always divides den(wcet)·1000 — covering that product per distinct
     WCET makes every possible runtime draw land on the tick grid *)
  | Uniform _ -> (
    try
      Extras
        (Array.to_list
           (Array.map
              (fun j ->
                let d = Rat.den j.Taskgraph.Job.wcet in
                if d > max_int / 1000 then raise Rat.Overflow
                else Rat.make 1 (d * 1000))
              jobs))
    with Rat.Overflow -> Opaque)

let sample t (job : Taskgraph.Job.t) =
  match t with
  | Constant -> job.Taskgraph.Job.wcet
  | Uniform { prng; min_fraction } ->
    let f = Prng.float_in prng min_fraction 1.0 in
    quantized_fraction job.Taskgraph.Job.wcet f
  | Scaled f -> quantized_fraction job.Taskgraph.Job.wcet f
  | Profile p -> p job.Taskgraph.Job.proc_name
