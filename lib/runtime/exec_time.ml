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

let sample t (job : Taskgraph.Job.t) =
  match t with
  | Constant -> job.Taskgraph.Job.wcet
  | Uniform { prng; min_fraction } ->
    let f = Prng.float_in prng min_fraction 1.0 in
    quantized_fraction job.Taskgraph.Job.wcet f
  | Scaled f -> quantized_fraction job.Taskgraph.Job.wcet f
  | Profile p -> p job.Taskgraph.Job.proc_name

type durations =
  | Fixed of Rat.t array
  | Extras of Rat.t list

let durations t ~jobs =
  match t with
  | Constant -> Fixed (Array.map (fun j -> j.Taskgraph.Job.wcet) jobs)
  | Scaled _ | Profile _ -> (
    (* deterministic per job, so one setup-time sample per job covers
       the whole run.  If a job's sample raises (a raising profile, an
       overflowing quantization), the other jobs' samples are the
       extras and the run samples per execution: it raises exactly when
       that job executes *)
    try Fixed (Array.map (sample t) jobs)
    with _ ->
      Extras
        (List.filter_map
           (fun j -> try Some (sample t j) with _ -> None)
           (Array.to_list jobs)))
  (* [quantized_fraction] yields wcet·milli/1000, whose denominator
     always divides den(wcet)·1000 — covering that product per distinct
     WCET makes every possible runtime draw land on the tick grid *)
  | Uniform _ ->
    Extras
      (Array.to_list
         (Array.map
            (fun (j : Taskgraph.Job.t) ->
              let d = Rat.den j.Taskgraph.Job.wcet in
              if d > max_int / 1000 then
                invalid_arg
                  (Format.asprintf
                     "Exec_time.durations: uniform draws over the WCET %a of \
                      %s fit no tick grid: its denominator exceeds \
                      max_int/1000"
                     Rat.pp j.Taskgraph.Job.wcet j.Taskgraph.Job.proc_name)
              else Rat.make 1 (d * 1000))
            jobs))
