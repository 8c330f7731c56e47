(* What every workload provides to the measuring loops in bench.ml. *)

type 'st spec = {
  name : string;
  pool_domains : int;  (** domains the workload's own pools use *)
  setup : seed:int -> Common.acc -> 'st;
      (** builds the inputs from the seed and plans them; records
          [plan_ns] samples *)
  step : 'st -> Common.acc -> harvest:([ `Op | `Epoch ] -> unit) -> unit;
      (** one iteration of the closed loop; [harvest] is called after
          each of the iteration's top-level operations, [`Epoch] after a
          service epoch (a no-op untraced) *)
  min_steps : int;  (** the untraced loop runs at least this many *)
  traced_steps : int;  (** the traced run's fixed amount of work *)
  makespan_ms : 'st -> float;
  check : 'st -> Common.acc -> unit;  (** correctness, outside timing *)
  teardown : 'st -> unit;
}

type t = W : 'st spec -> t
