module Rat = Rt_util.Rat
module Event = Fppn.Event
module Process = Fppn.Process
module Network = Fppn.Network

(* Four periodic processes whose bodies do nothing at all: no channel
   access, no value construction, no closure.  Any word the engine
   allocates while simulating a steady frame of this network is engine
   overhead, which test_tick and test_costs hold to zero. *)

let body (_ : Process.job_ctx) = ()

let network () =
  let b = Network.Builder.create "alloc_probe" in
  let period = Rat.of_int 100 in
  let add name =
    Network.Builder.add_process b
      (Process.make ~name
         ~event:(Event.periodic ~period ~deadline:period ())
         (Process.Native body))
  in
  add "P0";
  add "P1";
  add "P2";
  add "P3";
  Network.Builder.add_priority b "P0" "P1";
  Network.Builder.add_priority b "P2" "P3";
  Network.Builder.finish_exn b

let wcet = Taskgraph.Derive.const_wcet (Rat.of_int 20)
