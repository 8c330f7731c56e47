module A = Fppn.Automaton
module Process = Fppn.Process
module Event = Fppn.Event
module Network = Fppn.Network

exception Error of string * Ast.pos

let rec expr_to_automaton : Ast.expr -> A.expr = function
  | Ast.Lit l -> A.Const (Ast.value_of_literal l)
  | Ast.Var x -> A.Var x
  | Ast.Avail x -> A.Avail x
  | Ast.Unop (Ast.Neg, e) -> A.Neg (expr_to_automaton e)
  | Ast.Unop (Ast.Not, e) -> A.Not (expr_to_automaton e)
  | Ast.Binop (op, a, b) ->
    let a = expr_to_automaton a and b = expr_to_automaton b in
    (match op with
    | Ast.Add -> A.Add (a, b)
    | Ast.Sub -> A.Sub (a, b)
    | Ast.Mul -> A.Mul (a, b)
    | Ast.Div -> A.Div (a, b)
    | Ast.Mod -> A.Mod (a, b)
    | Ast.Eq -> A.Eq (a, b)
    | Ast.Ne -> A.Not (A.Eq (a, b))
    | Ast.Lt -> A.Lt (a, b)
    | Ast.Le -> A.Le (a, b)
    | Ast.Gt -> A.Lt (b, a)
    | Ast.Ge -> A.Le (b, a)
    | Ast.And -> A.And (a, b)
    | Ast.Or -> A.Or (a, b))

let action_to_automaton : Ast.action -> A.action = function
  | Ast.Assign (x, e) -> A.Assign (x, expr_to_automaton e)
  | Ast.Read (x, c) -> A.Read (x, c)
  | Ast.Write (e, c) -> A.Write (c, expr_to_automaton e)

let behavior_of_machine (m : Ast.machine) =
  let initial =
    match m.Ast.locations with
    | l :: _ -> l.Ast.loc_name
    | [] -> invalid_arg "machine has no locations"
  in
  let declared = List.map (fun l -> l.Ast.loc_name) m.Ast.locations in
  let transitions =
    List.concat_map
      (fun (l : Ast.location) ->
        List.map
          (fun (t : Ast.transition) ->
            if not (List.mem t.Ast.goto declared) then
              raise
                (Error
                   ( Printf.sprintf "goto %S targets an undeclared location" t.Ast.goto,
                     t.Ast.t_pos ));
            {
              A.src = l.Ast.loc_name;
              guard = expr_to_automaton t.Ast.guard;
              actions = List.map action_to_automaton t.Ast.actions;
              dst = t.Ast.goto;
            })
          l.Ast.transitions)
      m.Ast.locations
  in
  let vars = List.map (fun (x, l) -> (x, Ast.value_of_literal l)) m.Ast.vars in
  Process.Automaton (A.make ~initial ~vars ~transitions)

let event (p : Ast.process_decl) =
  try
    match p.Ast.event with
    | Ast.Periodic { burst; period; deadline } ->
      Event.periodic ~burst ~period ~deadline ()
    | Ast.Sporadic { burst; period; deadline } ->
      Event.sporadic ~burst ~min_period:period ~deadline ()
  with Invalid_argument msg -> raise (Error (msg, p.Ast.p_pos))

(* Map each network-level validation error back to the declaration that
   caused it, so elaboration failures carry a real source position. *)
let pos_of_network_error (n : Ast.network) err =
  let default = { Ast.line = 1; col = 1 } in
  let chan_pos pred =
    match List.find_opt pred n.Ast.channels with
    | Some c -> Some c.Ast.c_pos
    | None -> None
  in
  let mentions name =
    List.filter_map
      (fun opt -> opt)
      [
        chan_pos (fun c -> c.Ast.writer = name || c.Ast.reader = name);
        (match
           List.find_opt (fun (hi, lo, _) -> hi = name || lo = name) n.Ast.priorities
         with
        | Some (_, _, p) -> Some p
        | None -> None);
        (match List.find_opt (fun io -> io.Ast.io_owner = name) n.Ast.ios with
        | Some io -> Some io.Ast.io_pos
        | None -> None);
      ]
  in
  (* duplicates anchor at the last (re-)declaration *)
  let last_pos pos_of decls =
    List.fold_left (fun _ d -> Some (pos_of d)) None decls
  in
  let pos =
    match err with
    | Network.Duplicate_process name ->
      last_pos
        (fun (p : Ast.process_decl) -> p.Ast.p_pos)
        (List.filter (fun (p : Ast.process_decl) -> p.Ast.p_name = name) n.Ast.processes)
    | Network.Unknown_process name -> (
      match mentions name with p :: _ -> Some p | [] -> None)
    | Network.Duplicate_channel name ->
      last_pos
        (fun c -> c.Ast.c_pos)
        (List.filter (fun c -> c.Ast.c_name = name) n.Ast.channels)
    | Network.Self_channel name -> chan_pos (fun c -> c.Ast.c_name = name)
    | Network.Missing_priority { channel; _ } ->
      chan_pos (fun c -> c.Ast.c_name = channel)
    | Network.Priority_cycle names -> (
      match
        List.find_opt
          (fun (hi, lo, _) -> List.mem hi names && List.mem lo names)
          n.Ast.priorities
      with
      | Some (_, _, p) -> Some p
      | None -> None)
    | Network.Duplicate_io name ->
      last_pos
        (fun io -> io.Ast.io_pos)
        (List.filter (fun io -> io.Ast.io_name = name) n.Ast.ios)
    | Network.Empty_network -> None
  in
  Option.value pos ~default

let to_network ?(externs = []) (n : Ast.network) =
  let b = Network.Builder.create n.Ast.n_name in
  List.iter
    (fun (p : Ast.process_decl) ->
      let behavior =
        match p.Ast.behavior with
        | Ast.Machine m -> (
          try behavior_of_machine m
          with Invalid_argument msg -> raise (Error (msg, p.Ast.p_pos)))
        | Ast.Extern -> (
          match List.assoc_opt p.Ast.p_name externs with
          | Some bhv -> bhv
          | None ->
            raise
              (Error
                 ( Printf.sprintf
                     "process %S is extern but no host behavior was supplied"
                     p.Ast.p_name,
                   p.Ast.p_pos )))
      in
      let proc =
        try Process.make ~name:p.Ast.p_name ~event:(event p) behavior
        with Invalid_argument msg -> raise (Error (msg, p.Ast.p_pos))
      in
      Network.Builder.add_process b proc)
    n.Ast.processes;
  List.iter
    (fun (c : Ast.channel_decl) ->
      Network.Builder.add_channel b
        ?init:(Option.map Ast.value_of_literal c.Ast.init)
        ~kind:c.Ast.kind ~writer:c.Ast.writer ~reader:c.Ast.reader c.Ast.c_name)
    n.Ast.channels;
  List.iter
    (fun (hi, lo, _) -> Network.Builder.add_priority b hi lo)
    n.Ast.priorities;
  List.iter
    (fun (io : Ast.io_decl) ->
      match io.Ast.dir with
      | Ast.In -> Network.Builder.add_input b ~owner:io.Ast.io_owner io.Ast.io_name
      | Ast.Out -> Network.Builder.add_output b ~owner:io.Ast.io_owner io.Ast.io_name)
    n.Ast.ios;
  match Network.Builder.finish b with
  | Ok net -> net
  | Error errs ->
    let pos =
      match errs with
      | e :: _ -> pos_of_network_error n e
      | [] -> { Ast.line = 1; col = 1 }
    in
    raise
      (Error
         ( Format.asprintf "invalid network: %a"
             (Format.pp_print_list
                ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
                Network.pp_error)
             errs,
           pos ))

let wcet_map ~default (n : Ast.network) name =
  match
    List.find_opt (fun (p : Ast.process_decl) -> p.Ast.p_name = name) n.Ast.processes
  with
  | Some { Ast.wcet = Some w; _ } -> w
  | _ -> default
