(** A network purpose-built for the engine's allocation checks: four
    periodic processes whose job bodies perform no channel access and
    construct no value.  Every word allocated while simulating a steady
    frame is therefore engine overhead, which test_tick and test_costs
    require to be zero. *)

val network : unit -> Fppn.Network.t

val wcet : Taskgraph.Derive.wcet_map
(** 20 ms for every process (fits two per 100 ms period per core). *)
