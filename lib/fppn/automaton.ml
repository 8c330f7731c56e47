type loc = string

type expr =
  | Const of Value.t
  | Var of string
  | Avail of string
  | Neg of expr
  | Not of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Mod of expr * expr
  | Eq of expr * expr
  | Lt of expr * expr
  | Le of expr * expr
  | And of expr * expr
  | Or of expr * expr

type action =
  | Assign of string * expr
  | Read of string * string
  | Write of string * expr

type transition = { src : loc; guard : expr; actions : action list; dst : loc }

(* A compiled program is one array of steps per location, indexed in
   [locations] order (the initial location is 0), each holding that
   location's transitions in declaration order.  Guards, expressions
   and actions are closures over the instance's slot array. *)
type step = {
  cond : Value.t array -> bool;
  act :
    Value.t array -> (string -> Value.t) -> (string -> Value.t -> unit) -> unit;
  next : int;
}

type t = {
  initial : loc;
  vars : (string * Value.t) list;
  transitions : transition list;
  code : step array array Atomic.t; (* [[||]] until the first job *)
}

let rec expr_vars acc = function
  | Const _ -> acc
  | Var x | Avail x -> x :: acc
  | Neg e | Not e -> expr_vars acc e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Eq (a, b) | Lt (a, b) | Le (a, b) | And (a, b) | Or (a, b) ->
    expr_vars (expr_vars acc a) b

let action_vars acc = function
  | Assign (x, e) -> x :: expr_vars acc e
  | Read (x, _) -> x :: acc
  | Write (_, e) -> expr_vars acc e

let make ~initial ~vars ~transitions =
  let declared = List.map fst vars in
  let check_var x =
    if not (List.mem x declared) then
      invalid_arg (Printf.sprintf "Automaton: undeclared variable %S" x)
  in
  List.iter
    (fun tr ->
      List.iter check_var (expr_vars [] tr.guard);
      List.iter (fun a -> List.iter check_var (action_vars [] a)) tr.actions)
    transitions;
  if not (List.exists (fun tr -> tr.src = initial) transitions) then
    invalid_arg "Automaton: no transition leaves the initial location";
  { initial; vars; transitions; code = Atomic.make [||] }

let initial t = t.initial
let variables t = t.vars
let transitions t = t.transitions

let dedup l =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)

let locations t =
  dedup (t.initial :: List.concat_map (fun tr -> [ tr.src; tr.dst ]) t.transitions)

let channels_read t =
  dedup
    (List.concat_map
       (fun tr ->
         List.filter_map (function Read (_, c) -> Some c | _ -> None) tr.actions)
       t.transitions)

let channels_written t =
  dedup
    (List.concat_map
       (fun tr ->
         List.filter_map (function Write (c, _) -> Some c | _ -> None) tr.actions)
       t.transitions)

(* duplicate declarations collapse to one slot, last value winning *)
let slot_names decls =
  List.fold_left
    (fun acc (x, _) -> if List.mem x acc then acc else x :: acc)
    [] decls
  |> List.rev |> Array.of_list

let type_error op a b =
  invalid_arg
    (Printf.sprintf "Automaton.eval: %s applied to %s and %s" op
       (Value.to_string a) (Value.to_string b))

let arith op_name int_op float_op a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> Value.Int (int_op x y)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    Value.Float (float_op (Value.to_float a) (Value.to_float b))
  | _ -> type_error op_name a b

let add a b = arith "+" ( + ) ( +. ) a b
let sub a b = arith "-" ( - ) ( -. ) a b
let mul a b = arith "*" ( * ) ( *. ) a b
let div a b = arith "/" ( / ) ( /. ) a b

let neg = function
  | Value.Int n -> Value.Int (-n)
  | Value.Float f -> Value.Float (-.f)
  | v -> type_error "neg" v v

(* [op] over two compiled operands, evaluating the right one first *)
let rtl op a b =
  let f s = let y = b s in op (a s) y in
  f

let of_bool b = if b then Value.Bool true else Value.Bool false
let always _ = true
let never _ = false
let nothing _ _ _ = ()

(* Compiles [t] against the [slot_names] layout of its variables.  A
   physical memo compiles a subexpression shared between actions (a
   generated emit step writes one sum to every output) once.  Operands
   are evaluated in the tree-walking evaluator's order: right to left,
   except [Mod], which matched on a tuple and so went left to right. *)
let compile t =
  let index names x = Option.get (Array.find_index (String.equal x) names) in
  let slot = index (slot_names t.vars) in
  let memo = ref [] in
  let rec expr e =
    match List.assq_opt e !memo with
    | Some f -> f
    | None ->
      let f =
        match e with
        | Const v -> fun _ -> v
        | Var x ->
          let i = slot x in
          fun s -> s.(i)
        | Neg a ->
          let a = expr a in
          fun s -> neg (a s)
        | Add (a, b) -> rtl add (expr a) (expr b)
        | Sub (a, b) -> rtl sub (expr a) (expr b)
        | Mul (a, b) -> rtl mul (expr a) (expr b)
        | Div (a, b) -> rtl div (expr a) (expr b)
        | Mod (a, b) -> (
          let a = expr a and b = expr b in
          fun s ->
            let x = a s in
            match (x, b s) with
            | Value.Int x, Value.Int y -> Value.Int (x mod y)
            | x, y -> type_error "mod" x y)
        | Avail _ | Not _ | Eq _ | Lt _ | Le _ | And _ | Or _ ->
          let c = cond e in
          fun s -> of_bool (c s)
      in
      memo := (e, f) :: !memo;
      f
  (* [cond e s] is [Value.to_bool] of [e]'s value, unboxed *)
  and cond = function
    | Const (Value.Bool b) -> if b then always else never
    | Avail x ->
      let i = slot x in
      fun s -> not (Value.is_absent s.(i))
    | Not a ->
      let a = cond a in
      fun s -> not (a s)
    | Eq (a, b) -> rtl Value.equal (expr a) (expr b)
    | Lt (a, b) -> rtl (fun x y -> Value.compare x y < 0) (expr a) (expr b)
    | Le (a, b) -> rtl (fun x y -> Value.compare x y <= 0) (expr a) (expr b)
    | And (a, b) ->
      let a = cond a and b = cond b in
      fun s -> a s && b s
    | Or (a, b) ->
      let a = cond a and b = cond b in
      fun s -> a s || b s
    | e ->
      let e = expr e in
      fun s -> Value.to_bool (e s)
  in
  let action = function
    | Assign (x, e) ->
      let i = slot x and e = expr e in
      fun s _ _ -> s.(i) <- e s
    | Read (x, c) ->
      let i = slot x in
      fun s read _ -> s.(i) <- read c
    | Write (c, e) ->
      let e = expr e in
      fun s _ write -> write c (e s)
  in
  let seq a k = if k == nothing then a else fun s r w -> (a s r w; k s r w) in
  let actions l = List.fold_right (fun a k -> seq (action a) k) l nothing in
  let names = Array.of_list (locations t) in
  let loc = index names in
  let out = Array.make (Array.length names) [] in
  List.iter
    (fun tr ->
      let next = loc tr.dst in
      let step = { cond = cond tr.guard; act = actions tr.actions; next } in
      out.(loc tr.src) <- step :: out.(loc tr.src))
    t.transitions;
  Array.map (fun l -> Array.of_list (List.rev l)) out

(* Built on the first job and published atomically: two domains racing
   on one automaton's first job each build an equal program, and either
   may win.  A [Lazy.t] would raise when forced from two domains. *)
let program t =
  match Atomic.get t.code with
  | [||] ->
    let p = compile t in
    Atomic.set t.code p;
    p
  | p -> p

exception Stuck of loc

let rec first t l steps s i =
  if i >= Array.length steps then raise (Stuck (List.nth (locations t) l))
  else
    let st = Array.unsafe_get steps i in
    if st.cond s then st else first t l steps s (i + 1)

let rec run t p s read write l n =
  if n >= 10_000 then
    invalid_arg "Automaton.run_job: step bound exceeded (non-terminating job?)"
  else
    let st = first t l (Array.unsafe_get p l) s 0 in
    st.act s read write;
    if st.next <> 0 then run t p s read write st.next (n + 1)

let exec t slots ~read ~write = run t (program t) slots read write 0 0
