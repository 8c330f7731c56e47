module A = Fppn.Automaton
module V = Fppn.Value
module Rat = Rt_util.Rat

let value = Alcotest.testable V.pp V.equal

(* The tree-walking interpreter the runtime executed automata with
   before it compiled them to slot-indexed programs, kept as the
   differential reference: names are resolved through an environment
   at every step, and each location's transitions are looked up by
   name. *)
module Ref = struct
  type env = {
    lookup : string -> V.t;
    assign : string -> V.t -> unit;
    read_channel : string -> V.t;
    write_channel : string -> V.t -> unit;
  }

  let type_error op a b =
    invalid_arg
      (Printf.sprintf "Automaton.eval: %s applied to %s and %s" op
         (V.to_string a) (V.to_string b))

  let arith op_name int_op float_op a b =
    match (a, b) with
    | V.Int x, V.Int y -> V.Int (int_op x y)
    | (V.Int _ | V.Float _), (V.Int _ | V.Float _) ->
      V.Float (float_op (V.to_float a) (V.to_float b))
    | _ -> type_error op_name a b

  let rec eval lookup = function
    | A.Const v -> v
    | A.Var x -> lookup x
    | A.Avail x -> V.Bool (not (V.is_absent (lookup x)))
    | A.Neg e -> (
      match eval lookup e with
      | V.Int n -> V.Int (-n)
      | V.Float f -> V.Float (-.f)
      | v -> type_error "neg" v v)
    | A.Not e -> V.Bool (not (V.to_bool (eval lookup e)))
    | A.Add (a, b) -> arith "+" ( + ) ( +. ) (eval lookup a) (eval lookup b)
    | A.Sub (a, b) -> arith "-" ( - ) ( -. ) (eval lookup a) (eval lookup b)
    | A.Mul (a, b) -> arith "*" ( * ) ( *. ) (eval lookup a) (eval lookup b)
    | A.Div (a, b) -> arith "/" ( / ) ( /. ) (eval lookup a) (eval lookup b)
    | A.Mod (a, b) -> (
      match (eval lookup a, eval lookup b) with
      | V.Int x, V.Int y -> V.Int (x mod y)
      | a, b -> type_error "mod" a b)
    | A.Eq (a, b) -> V.Bool (V.equal (eval lookup a) (eval lookup b))
    | A.Lt (a, b) -> V.Bool (V.compare (eval lookup a) (eval lookup b) < 0)
    | A.Le (a, b) -> V.Bool (V.compare (eval lookup a) (eval lookup b) <= 0)
    | A.And (a, b) ->
      V.Bool (V.to_bool (eval lookup a) && V.to_bool (eval lookup b))
    | A.Or (a, b) ->
      V.Bool (V.to_bool (eval lookup a) || V.to_bool (eval lookup b))

  let perform env = function
    | A.Assign (x, e) -> env.assign x (eval env.lookup e)
    | A.Read (x, c) -> env.assign x (env.read_channel c)
    | A.Write (c, e) -> env.write_channel c (eval env.lookup e)

  (* preserve declaration order within each source location *)
  let by_src t =
    let by_src = Hashtbl.create 16 in
    List.iter
      (fun tr ->
        let prev = try Hashtbl.find by_src tr.A.src with Not_found -> [] in
        Hashtbl.replace by_src tr.A.src (prev @ [ tr ]))
      (A.transitions t);
    by_src

  let run_job ?(max_steps = 10_000) t env =
    let by_src = by_src t in
    let step loc =
      let candidates = try Hashtbl.find by_src loc with Not_found -> [] in
      match
        List.find_opt
          (fun tr -> V.to_bool (eval env.lookup tr.A.guard))
          candidates
      with
      | None -> raise (A.Stuck loc)
      | Some tr ->
        List.iter (perform env) tr.A.actions;
        tr.A.dst
    in
    let rec loop loc steps =
      if steps >= max_steps then
        invalid_arg "Automaton.run_job: step bound exceeded (non-terminating job?)"
      else
        let next = step loc in
        let steps = steps + 1 in
        if next = A.initial t then steps else loop next steps
    in
    loop (A.initial t) 0
end

(* A tiny store-backed environment for direct eval/run tests. *)
let make_env ?(channels = []) vars =
  let store = Hashtbl.create 8 in
  List.iter (fun (x, v) -> Hashtbl.replace store x v) vars;
  let chans = Hashtbl.create 8 in
  List.iter (fun (c, vs) -> Hashtbl.replace chans c (ref vs)) channels;
  let written = ref [] in
  let env =
    {
      Ref.lookup = (fun x -> try Hashtbl.find store x with Not_found -> V.Absent);
      assign = (fun x v -> Hashtbl.replace store x v);
      read_channel =
        (fun c ->
          match Hashtbl.find_opt chans c with
          | Some ({ contents = v :: rest } as r) ->
            r := rest;
            v
          | _ -> V.Absent);
      write_channel = (fun c v -> written := (c, v) :: !written);
    }
  in
  (env, store, written)

let test_eval_arithmetic () =
  let lookup = function "x" -> V.Int 6 | "y" -> V.Float 0.5 | _ -> V.Absent in
  let check expr expected label =
    Alcotest.check value label expected (Ref.eval lookup expr)
  in
  check (A.Add (A.Var "x", A.Const (V.Int 1))) (V.Int 7) "int add";
  check (A.Mul (A.Var "x", A.Var "y")) (V.Float 3.0) "mixed mul widens";
  check (A.Neg (A.Var "x")) (V.Int (-6)) "neg";
  check (A.Mod (A.Var "x", A.Const (V.Int 4))) (V.Int 2) "mod";
  check (A.Lt (A.Var "y", A.Const (V.Float 1.0))) (V.Bool true) "lt";
  check (A.Avail "x") (V.Bool true) "avail on present";
  check (A.Avail "zz") (V.Bool false) "avail on absent";
  check
    (A.And (A.Const (V.Bool true), A.Not (A.Const (V.Bool false))))
    (V.Bool true) "boolean ops"

let test_eval_type_errors () =
  let lookup _ = V.Bool true in
  Alcotest.(check bool) "adding booleans raises" true
    (try
       ignore (Ref.eval lookup (A.Add (A.Var "a", A.Var "b")));
       false
     with Invalid_argument _ -> true)

(* Counter automaton: one job run increments x and emits it. *)
let counter =
  A.make ~initial:"l0"
    ~vars:[ ("x", V.Int 0) ]
    ~transitions:
      [
        {
          A.src = "l0";
          guard = A.Const (V.Bool true);
          actions =
            [ A.Assign ("x", A.Add (A.Var "x", A.Const (V.Int 1))); A.Write ("out", A.Var "x") ];
          dst = "l0";
        };
      ]

let test_run_job_counter () =
  let env, store, written = make_env [ ("x", V.Int 0) ] in
  let steps = Ref.run_job counter env in
  Alcotest.(check int) "one step per run" 1 steps;
  ignore (Ref.run_job counter env);
  ignore (Ref.run_job counter env);
  Alcotest.check value "x incremented thrice" (V.Int 3) (Hashtbl.find store "x");
  Alcotest.(check (list (pair string value)))
    "writes in order"
    [ ("out", V.Int 1); ("out", V.Int 2); ("out", V.Int 3) ]
    (List.rev !written)

(* Two-location automaton with a guarded branch: models an 'if'. *)
let brancher =
  A.make ~initial:"start"
    ~vars:[ ("x", V.Int 0); ("big", V.Bool false) ]
    ~transitions:
      [
        {
          A.src = "start";
          guard = A.Const (V.Bool true);
          actions = [ A.Read ("x", "in") ];
          dst = "decide";
        };
        {
          A.src = "decide";
          guard = A.Lt (A.Const (V.Int 10), A.Var "x");
          actions = [ A.Assign ("big", A.Const (V.Bool true)); A.Write ("out", A.Var "x") ];
          dst = "start";
        };
        {
          A.src = "decide";
          guard = A.Le (A.Var "x", A.Const (V.Int 10));
          actions = [ A.Assign ("big", A.Const (V.Bool false)) ];
          dst = "start";
        };
      ]

let test_run_job_branching () =
  let env, store, written =
    make_env ~channels:[ ("in", [ V.Int 42; V.Int 3 ]) ]
      [ ("x", V.Int 0); ("big", V.Bool false) ]
  in
  let steps = Ref.run_job brancher env in
  Alcotest.(check int) "two steps" 2 steps;
  Alcotest.check value "took the big branch" (V.Bool true) (Hashtbl.find store "big");
  Alcotest.(check int) "one write" 1 (List.length !written);
  ignore (Ref.run_job brancher env);
  Alcotest.check value "small branch on second job" (V.Bool false)
    (Hashtbl.find store "big")

let test_stuck () =
  let a =
    A.make ~initial:"l0" ~vars:[]
      ~transitions:
        [
          {
            A.src = "l0";
            guard = A.Const (V.Bool true);
            actions = [];
            dst = "dead_end";
          };
        ]
  in
  let env, _, _ = make_env [] in
  Alcotest.check_raises "stuck in dead_end" (A.Stuck "dead_end") (fun () ->
      ignore (Ref.run_job a env))

let test_step_bound () =
  (* l0 -> l1 -> l1 -> ... never returns to l0 *)
  let a =
    A.make ~initial:"l0" ~vars:[]
      ~transitions:
        [
          { A.src = "l0"; guard = A.Const (V.Bool true); actions = []; dst = "l1" };
          { A.src = "l1"; guard = A.Const (V.Bool true); actions = []; dst = "l1" };
        ]
  in
  let env, _, _ = make_env [] in
  Alcotest.check_raises "non-terminating job"
    (Invalid_argument "Automaton.run_job: step bound exceeded (non-terminating job?)")
    (fun () -> ignore (Ref.run_job ~max_steps:50 a env))

let test_static_checks () =
  Alcotest.(check bool) "undeclared variable rejected" true
    (try
       ignore
         (A.make ~initial:"l0" ~vars:[]
            ~transitions:
              [
                {
                  A.src = "l0";
                  guard = A.Var "ghost";
                  actions = [];
                  dst = "l0";
                };
              ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "initial location must have an exit" true
    (try
       ignore (A.make ~initial:"l0" ~vars:[] ~transitions:[]);
       false
     with Invalid_argument _ -> true)

let test_introspection () =
  Alcotest.(check (list string)) "locations" [ "start"; "decide" ] (A.locations brancher);
  Alcotest.(check (list string)) "channels read" [ "in" ] (A.channels_read brancher);
  Alcotest.(check (list string)) "channels written" [ "out" ] (A.channels_written brancher)

(* Automaton process embedded in a network must behave like a native
   process: this exercises Instance + Netstate with the Automaton path. *)
let test_automaton_in_network () =
  let module Network = Fppn.Network in
  let module Process = Fppn.Process in
  let module Event = Fppn.Event in
  let ms = Rt_util.Rat.of_int in
  let b = Network.Builder.create "auto-net" in
  Network.Builder.add_process b
    (Process.make ~name:"Counter"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Automaton counter));
  Network.Builder.add_process b
    (Process.make ~name:"Sink"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native
          (fun ctx -> ctx.Process.write "sunk" (ctx.Process.read "out"))));
  Network.Builder.add_channel b ~kind:Fppn.Channel.Fifo ~writer:"Counter"
    ~reader:"Sink" "out";
  Network.Builder.add_priority b "Counter" "Sink";
  Network.Builder.add_output b ~owner:"Sink" "sunk";
  let net = Network.Builder.finish_exn b in
  let inv = Fppn.Semantics.invocations ~horizon:(ms 300) net in
  let res = Fppn.Semantics.run net inv in
  Alcotest.(check (list value))
    "automaton output flows through the network"
    [ V.Int 1; V.Int 2; V.Int 3 ]
    (List.assoc "sunk" res.Fppn.Semantics.output_history)

(* --- differential: compiled programs = the tree-walking reference ------ *)

(* A drawn automaton, the samples each input channel delivers (then
   [Absent]), and how many jobs to run. *)
type case = { auto : A.t; feed : (string * V.t list) list; jobs : int }

let pool = [ "x"; "y"; "z"; "w" ]

(* Failing expressions the generator plants on purpose.  Apart from
   the two zero divisors, each raises its own exception or message, so
   a runner that evaluates two failing operands in the other order
   raises a different exception. *)
let failing =
  [
    A.Div (A.Const (V.Int 1), A.Const (V.Int 0));
    A.Mod (A.Const (V.Int 0), A.Const (V.Int 0));
    A.Neg (A.Const (V.Bool true));
    A.Not (A.Const (V.Int 1));
    A.Add (A.Const (V.Str "s"), A.Const (V.Int 1));
    A.Sub (A.Const V.Unit, A.Const (V.Int 2));
    A.Mul (A.Const V.Absent, A.Const (V.Float 0.5));
    A.Mod (A.Const (V.Float 1.5), A.Const (V.Int 2));
  ]

let gen_value =
  QCheck2.Gen.(
    frequency
      [
        (10, map (fun n -> V.Int n) (int_range (-2) 3));
        (2, map (fun b -> V.Bool b) bool);
        (2, oneofl [ V.Float 0.; V.Float 1.5; V.Float (-2.) ]);
        (1, return V.Absent);
        (1, oneofl [ V.Unit; V.Str "s"; V.Pair (V.Int 1, V.Int 2) ]);
      ])

(* All 15 constructors over the declared names [vars]; integer leaves
   are small, so [Div]/[Mod] often meet a zero divisor on either side. *)
let gen_expr vars =
  QCheck2.Gen.(
    let var = oneofl vars in
    fix
      (fun self depth ->
        let leaf =
          frequency
            [
              (12, map (fun v -> A.Const v) gen_value);
              (20, map (fun x -> A.Var x) var);
              (4, map (fun x -> A.Avail x) var);
              (1, oneofl failing);
            ]
        in
        if depth = 0 then leaf
        else
          let sub = self (depth - 1) in
          let bin f = map2 f sub sub in
          (* mostly Bool-valued operands for [Not], [And] and [Or] *)
          let logic =
            frequency
              [
                (3, map2 (fun a b -> A.Lt (a, b)) sub sub);
                (1, map (fun x -> A.Avail x) var);
                (1, map (fun b -> A.Const (V.Bool b)) bool);
                (1, sub);
              ]
          in
          frequency
            [
              (8, leaf);
              (1, map (fun e -> A.Neg e) sub);
              (1, map (fun e -> A.Not e) logic);
              (2, bin (fun a b -> A.Add (a, b)));
              (2, bin (fun a b -> A.Sub (a, b)));
              (1, bin (fun a b -> A.Mul (a, b)));
              (2, bin (fun a b -> A.Div (a, b)));
              (2, bin (fun a b -> A.Mod (a, b)));
              (1, bin (fun a b -> A.Eq (a, b)));
              (1, bin (fun a b -> A.Lt (a, b)));
              (1, bin (fun a b -> A.Le (a, b)));
              (1, map2 (fun a b -> A.And (a, b)) logic logic);
              (1, map2 (fun a b -> A.Or (a, b)) logic logic);
              (* both operands fail: which raises first is observable *)
              ( 1,
                map3
                  (fun k a b ->
                    match k with
                    | 0 -> A.Add (a, b)
                    | 1 -> A.Sub (a, b)
                    | 2 -> A.Eq (a, b)
                    | 3 -> A.Lt (a, b)
                    | _ -> A.Mod (a, b))
                  (int_bound 4) (oneofl failing) (oneofl failing) );
            ])
      2)

(* Mostly well-typed guards, so that runs get past their first step;
   the fallback draws any expression, whose [Value.to_bool] may fail. *)
let gen_guard vars =
  QCheck2.Gen.(
    let e = gen_expr vars in
    fix
      (fun self depth ->
        let sub = self (max 0 (depth - 1)) in
        let deep = if depth = 0 then 0 else 1 in
        frequency
          [
            (4, return (A.Const (V.Bool true)));
            (1, return (A.Const (V.Bool false)));
            (2, map (fun x -> A.Avail x) (oneofl vars));
            (3, map2 (fun a b -> A.Lt (a, b)) e e);
            (2, map2 (fun a b -> A.Le (a, b)) e e);
            (2, map2 (fun a b -> A.Eq (a, b)) e e);
            (deep, map (fun g -> A.Not g) sub);
            (deep, map2 (fun a b -> A.And (a, b)) sub sub);
            (deep, map2 (fun a b -> A.Or (a, b)) sub sub);
            (1, e);
          ])
      2)

let gen_action vars =
  QCheck2.Gen.(
    frequency
      [
        (3, map2 (fun x e -> A.Assign (x, e)) (oneofl vars) (gen_expr vars));
        (2, map2 (fun x c -> A.Read (x, c)) (oneofl vars) (oneofl [ "a"; "b" ]));
        (2, map2 (fun c e -> A.Write (c, e)) (oneofl [ "a"; "o" ]) (gen_expr vars));
      ])

(* Random locations [l0..], plus a [dead] location that no transition
   leaves, so runs also get stuck away from the initial location. *)
let gen_random =
  QCheck2.Gen.(
    let* decls =
      list_size (int_range 1 5) (pair (oneofl pool) gen_value)
    in
    let vars = List.sort_uniq compare (List.map fst decls) in
    let* n_locs = int_range 1 4 in
    let loc i = Printf.sprintf "l%d" i in
    let dst =
      frequency
        [
          (4, return "l0");
          (3, map loc (int_bound (n_locs - 1)));
          (1, return "dead");
        ]
    in
    let transition src =
      map3
        (fun guard actions dst -> { A.src; guard; actions; dst })
        (gen_guard vars)
        (list_size (int_range 0 3) (gen_action vars))
        dst
    in
    let* per_loc =
      flatten_l
        (List.init n_locs (fun i ->
             list_size (int_range (if i = 0 then 1 else 0) 3) (transition (loc i))))
    in
    return
      (A.make ~initial:"l0" ~vars:decls ~transitions:(List.concat per_loc)))

(* A counting loop whose job takes exactly [n] steps: one to enter,
   [n - 2] round the loop, one back to [l0].  A bound of 10 000 accepts
   [n = 10_000] and rejects [n = 10_001]. *)
let gen_bounded =
  QCheck2.Gen.(
    let* n = oneofl [ 9_999; 10_000; 10_001 ] in
    let* extra = gen_action [ "x" ] in
    let* x0 = gen_value in
    let i = A.Var "i" in
    return
      (A.make ~initial:"l0"
         ~vars:[ ("i", V.Int 7); ("x", x0); ("i", V.Int 0) ]
         ~transitions:
           [
             { A.src = "l0"; guard = A.Const (V.Bool true);
               actions = [ A.Assign ("i", A.Const (V.Int 0)); extra ]; dst = "l1" };
             { A.src = "l1"; guard = A.Lt (i, A.Const (V.Int (n - 2)));
               actions = [ A.Assign ("i", A.Add (i, A.Const (V.Int 1))) ]; dst = "l1" };
             { A.src = "l1"; guard = A.Const (V.Bool true);
               actions = [ A.Write ("o", i) ]; dst = "l0" };
           ]))

let gen_case =
  QCheck2.Gen.(
    let* auto = frequency [ (24, gen_random); (1, gen_bounded) ] in
    let* feed =
      flatten_l
        (List.map
           (fun c -> map (fun vs -> (c, vs)) (list_size (int_range 0 4) gen_value))
           [ "a"; "b" ])
    in
    let+ jobs = int_range 1 4 in
    { auto; feed; jobs })

let rec show_expr = function
  | A.Const v -> V.to_string v
  | A.Var x -> x
  | A.Avail x -> Printf.sprintf "avail(%s)" x
  | A.Neg e -> Printf.sprintf "-(%s)" (show_expr e)
  | A.Not e -> Printf.sprintf "not(%s)" (show_expr e)
  | A.Add (a, b) -> bin "+" a b
  | A.Sub (a, b) -> bin "-" a b
  | A.Mul (a, b) -> bin "*" a b
  | A.Div (a, b) -> bin "/" a b
  | A.Mod (a, b) -> bin "%" a b
  | A.Eq (a, b) -> bin "=" a b
  | A.Lt (a, b) -> bin "<" a b
  | A.Le (a, b) -> bin "<=" a b
  | A.And (a, b) -> bin "&&" a b
  | A.Or (a, b) -> bin "||" a b

and bin op a b = Printf.sprintf "(%s %s %s)" (show_expr a) op (show_expr b)

let show_case c =
  let action = function
    | A.Assign (x, e) -> Printf.sprintf "%s := %s" x (show_expr e)
    | A.Read (x, ch) -> Printf.sprintf "%s ? %s" x ch
    | A.Write (ch, e) -> Printf.sprintf "%s ! %s" (show_expr e) ch
  in
  String.concat "\n"
    (Printf.sprintf "vars %s; %d jobs"
       (String.concat ", "
          (List.map (fun (x, v) -> x ^ " = " ^ V.to_string v) (A.variables c.auto)))
       c.jobs
    :: List.map
         (fun tr ->
           Printf.sprintf "%s -> %s when %s do %s" tr.A.src tr.A.dst
             (show_expr tr.A.guard)
             (String.concat ", " (List.map action tr.A.actions)))
         (A.transitions c.auto))

type access = R of string * V.t | W of string * V.t

(* [V.equal], unlike [=], equates a NaN with itself *)
let same_access a b =
  match (a, b) with
  | R (c, v), R (c', v') | W (c, v), W (c', v') -> c = c' && V.equal v v'
  | _ -> false

let same_job (o, store, log) (o', store', log') =
  o = o' && List.equal V.equal store store' && List.equal same_access log log'

(* Channel reads pop [feed]; every access is logged. *)
let channel_world feed =
  let queues = Hashtbl.create 4 in
  List.iter (fun (c, vs) -> Hashtbl.replace queues c vs) feed;
  let log = ref [] in
  let read c =
    let v =
      match Hashtbl.find_opt queues c with
      | Some (v :: rest) ->
        Hashtbl.replace queues c rest;
        v
      | _ -> V.Absent
    in
    log := R (c, v) :: !log;
    v
  in
  let write c v = log := W (c, v) :: !log in
  (read, write, log)

let outcome f =
  match f () with () -> "ok" | exception e -> Printexc.to_string e

(* per job: the outcome, the final store (by distinct name, in
   declaration order) and every access so far *)
let reference_run c =
  let read, write, log = channel_world c.feed in
  let store = Hashtbl.create 8 in
  List.iter (fun (x, v) -> Hashtbl.replace store x v) (A.variables c.auto);
  let env =
    { Ref.lookup = Hashtbl.find store; assign = Hashtbl.replace store;
      read_channel = read; write_channel = write }
  in
  let names = Array.to_list (A.slot_names (A.variables c.auto)) in
  List.init c.jobs (fun _ ->
      let o = outcome (fun () -> ignore (Ref.run_job c.auto env)) in
      (o, List.map (Hashtbl.find store) names, List.rev !log))

let instance_run ~prepared c =
  let read, write, log = channel_world c.feed in
  let proc =
    Fppn.Process.make ~name:"P"
      ~event:(Fppn.Event.periodic ~period:Rat.one ~deadline:Rat.one ())
      (Fppn.Process.Automaton c.auto)
  in
  let inst = Fppn.Instance.create proc in
  let p = Fppn.Instance.prepare inst ~read ~write in
  let names = Array.to_list (A.slot_names (A.variables c.auto)) in
  List.init c.jobs (fun _ ->
      let o =
        outcome (fun () ->
            if prepared then Fppn.Instance.run_prepared inst p ~now:Rat.zero
            else Fppn.Instance.run_job inst ~now:Rat.zero ~read ~write)
      in
      (o, List.map (Fppn.Instance.get inst) names, List.rev !log))

let prop_compiled_equals_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"compiled automata equal the tree-walking reference"
       ~count:2000 ~print:show_case gen_case (fun c ->
         let expected = reference_run c in
         List.equal same_job (instance_run ~prepared:false c) expected
         && List.equal same_job (instance_run ~prepared:true c) expected))

(* --- golden pins ----------------------------------------------------- *)

(* The engine, [Semantics] and the timed-automata backend all run
   automata through one evaluator, so their mutual agreement no longer
   checks it.  These digests of zero-delay signatures pin its outputs
   to the values the earlier tree-walking interpreter produced. *)
let rec canon b = function
  | V.Absent -> Buffer.add_char b 'A'
  | V.Unit -> Buffer.add_char b 'U'
  | V.Bool x -> Buffer.add_string b (if x then "T" else "F")
  | V.Int n -> Printf.bprintf b "i%d" n
  | V.Float f -> Printf.bprintf b "f%h" f
  | V.Str s -> Printf.bprintf b "s%S" s
  | V.Pair (x, y) ->
    Buffer.add_char b '(';
    canon b x;
    Buffer.add_char b ',';
    canon b y;
    Buffer.add_char b ')'
  | V.List l ->
    Buffer.add_char b '[';
    List.iter (fun v -> canon b v; Buffer.add_char b ';') l;
    Buffer.add_char b ']'

let signature_digest ?sporadic ~horizon net =
  let module S = Fppn.Semantics in
  let res = S.run net (S.invocations ?sporadic ~horizon net) in
  let b = Buffer.create 4096 in
  List.iter
    (fun (c, vs) ->
      Printf.bprintf b "%s:" c;
      List.iter (fun v -> canon b v; Buffer.add_char b ' ') vs;
      Buffer.add_char b '\n')
    (S.signature res);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_sensor_fusion () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "sensor_fusion.fppn"
  in
  let src = In_channel.with_open_bin path In_channel.input_all in
  let net = Fppn_lang.Elaborate.to_network (Fppn_lang.Parser.parse src) in
  let horizon = Rat.mul (Rat.of_int 8) (Fppn.Network.hyperperiod net) in
  let operator =
    List.map Rat.of_int
      [ 120; 700; 1300; 1900; 2450; 3000; 3800; 4400; 5000; 5600; 6250; 6800; 7400 ]
  in
  Alcotest.(check string) "sensor_fusion, 8 hyperperiods"
    "4e6379f9b6c5caea7fbdc35b60f05f95"
    (signature_digest ~sporadic:[ ("Operator", operator) ] ~horizon net)

let test_golden_randgen () =
  let module Randgen = Fppn_apps.Randgen in
  List.iter
    (fun (seed, expected) ->
      let net = Randgen.network { Randgen.default_params with seed } in
      let horizon = Rat.mul (Rat.of_int 4) (Fppn.Network.hyperperiod net) in
      let sporadic =
        Randgen.random_traces ~seed:(seed + 7) ~horizon ~density:0.5 net
      in
      Alcotest.(check string)
        (Printf.sprintf "Randgen seed %d" seed)
        expected
        (signature_digest ~sporadic ~horizon net))
    [
      (1, "1a5c15fe079d3deb59dee54485720589");
      (2, "d8e8f79d5b6002ba9ec0829b634e20ee");
      (3, "df3d215bb3c5920e55838864ef2c53e6");
    ]

let () =
  Alcotest.run "automaton"
    [
      ( "eval",
        [
          Alcotest.test_case "arithmetic" `Quick test_eval_arithmetic;
          Alcotest.test_case "type errors" `Quick test_eval_type_errors;
        ] );
      ( "run",
        [
          Alcotest.test_case "counter" `Quick test_run_job_counter;
          Alcotest.test_case "branching" `Quick test_run_job_branching;
          Alcotest.test_case "stuck" `Quick test_stuck;
          Alcotest.test_case "step bound" `Quick test_step_bound;
        ] );
      ( "static",
        [
          Alcotest.test_case "checks" `Quick test_static_checks;
          Alcotest.test_case "introspection" `Quick test_introspection;
        ] );
      ( "integration",
        [ Alcotest.test_case "automaton in network" `Quick test_automaton_in_network ] );
      ("compiled", [ prop_compiled_equals_reference ]);
      ( "golden",
        [
          Alcotest.test_case "sensor_fusion signature" `Quick test_golden_sensor_fusion;
          Alcotest.test_case "Randgen signatures" `Quick test_golden_randgen;
        ] );
    ]
