type severity = Error | Warning | Info

type code =
  | Source_error
  | Unknown_process_ref
  | Duplicate_process_decl
  | Self_channel_decl
  | Duplicate_channel_decl
  | Determinism_race
  | Transitive_only_order
  | Priority_cycle_found
  | Redundant_priority_edge
  | Counter_dataflow_priority
  | Sporadic_without_user
  | Sporadic_ambiguous_user
  | Sporadic_user_is_sporadic
  | User_period_exceeds
  | Channel_never_read
  | Channel_never_written
  | Fifo_rate_mismatch
  | Deadline_exceeds_period
  | Wcet_exceeds_deadline
  | Utilization_bound
  | Unordered_channel_pair
  | Sporadic_shard_hazard
  | Partition_cut_hotspot

let code_number = function
  | Source_error -> 0
  | Unknown_process_ref -> 1
  | Duplicate_process_decl -> 2
  | Self_channel_decl -> 3
  | Duplicate_channel_decl -> 4
  | Determinism_race -> 10
  | Transitive_only_order -> 11
  | Priority_cycle_found -> 20
  | Redundant_priority_edge -> 21
  | Counter_dataflow_priority -> 22
  | Sporadic_without_user -> 30
  | Sporadic_ambiguous_user -> 31
  | Sporadic_user_is_sporadic -> 32
  | User_period_exceeds -> 33
  | Channel_never_read -> 40
  | Channel_never_written -> 41
  | Fifo_rate_mismatch -> 42
  | Deadline_exceeds_period -> 50
  | Wcet_exceeds_deadline -> 51
  | Utilization_bound -> 52
  | Unordered_channel_pair -> 60
  | Sporadic_shard_hazard -> 61
  | Partition_cut_hotspot -> 62

let code_id c = Printf.sprintf "FPPN%03d" (code_number c)

let all_codes =
  [
    (Source_error, Error, "source file does not lex, parse or elaborate");
    ( Unknown_process_ref,
      Error,
      "channel, priority or external channel references an undeclared process" );
    (Duplicate_process_decl, Error, "process name declared more than once");
    (Self_channel_decl, Error, "channel connects a process to itself");
    ( Duplicate_channel_decl,
      Error,
      "channel or external channel name declared more than once" );
    ( Determinism_race,
      Error,
      "conflicting channel accessors can be invoked simultaneously but no \
       functional-priority path orders them (Prop. 2.1 precondition violated)" );
    ( Transitive_only_order,
      Warning,
      "channel pair ordered only transitively; Def. 2.1 requires a direct \
       priority edge" );
    (Priority_cycle_found, Error, "functional-priority relation has a cycle");
    ( Redundant_priority_edge,
      Warning,
      "priority edge is implied by a longer priority path and covers no channel" );
    ( Counter_dataflow_priority,
      Info,
      "priority edge runs against the channel's data-flow direction (reader \
       precedes writer: it reads previous-invocation data)" );
    (Sporadic_without_user, Error, "sporadic process has no periodic user (Sec. III-A)");
    (Sporadic_ambiguous_user, Error, "sporadic process has several users (Sec. III-A)");
    (Sporadic_user_is_sporadic, Error, "user of a sporadic process is itself sporadic");
    ( User_period_exceeds,
      Error,
      "user period exceeds the sporadic minimal inter-arrival time (T_u > T_p)" );
    (Channel_never_read, Warning, "channel is never read by its reader's behavior");
    (Channel_never_written, Warning, "channel is never written by its writer's behavior");
    ( Fifo_rate_mismatch,
      Warning,
      "FIFO writer jobs outnumber reader jobs per hyperperiod (may grow \
       without bound)" );
    (Deadline_exceeds_period, Warning, "periodic deadline exceeds the period (d > T)");
    (Wcet_exceeds_deadline, Error, "WCET exceeds the relative deadline (C > d)");
    ( Utilization_bound,
      Error,
      "total utilization exceeds the processor count (Prop. 3.1 necessary \
       bound); reported as info when no processor count is given" );
    ( Unordered_channel_pair,
      Error,
      "channel-sharing process pair has job invocations no precedence path \
       orders (witness-free pair named); the task graph alone does not fix \
       the order of their channel accesses" );
    ( Sporadic_shard_hazard,
      Warning,
      "channel ordering cannot be certified statically (sporadic-stamp shard \
       hazard: the hyperperiod fold is undefined or beyond budget)" );
    ( Partition_cut_hotspot,
      Info,
      "channel accessors jointly exceed the balanced-partition share, so any \
       balanced cut into two or more shards must separate them" );
  ]

let default_severity c =
  let rec find = function
    | [] -> Error
    | (c', s, _) :: rest -> if c' = c then s else find rest
  in
  find all_codes

type t = {
  code : code;
  severity : severity;
  subject : string;
  message : string;
  file : string option;
  pos : Fppn_lang.Ast.pos option;
}

let make ?severity ?file ?pos code ~subject message =
  let severity =
    match severity with Some s -> s | None -> default_severity code
  in
  { code; severity; subject; message; file; pos }

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let is_error d = d.severity = Error
let has_errors ds = List.exists is_error ds

let counts ds =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) ds

let sort ds =
  let key d =
    let line, col =
      match d.pos with
      | Some p -> (p.Fppn_lang.Ast.line, p.Fppn_lang.Ast.col)
      | None -> (max_int, max_int)
    in
    (line, col, code_number d.code, d.subject, d.message)
  in
  List.stable_sort (fun a b -> compare (key a) (key b)) ds

let fingerprint ds =
  List.sort_uniq compare (List.map (fun d -> (code_id d.code, d.subject)) ds)

let pp ppf d =
  (match (d.file, d.pos) with
  | Some f, Some p ->
    Format.fprintf ppf "%s:%d:%d: " f p.Fppn_lang.Ast.line p.Fppn_lang.Ast.col
  | Some f, None -> Format.fprintf ppf "%s: " f
  | None, Some p ->
    Format.fprintf ppf "%d:%d: " p.Fppn_lang.Ast.line p.Fppn_lang.Ast.col
  | None, None -> ());
  Format.fprintf ppf "%s %s (%s): %s"
    (severity_to_string d.severity)
    (code_id d.code) d.subject d.message

let pp_list ppf ds =
  let ds = sort ds in
  List.iter (fun d -> Format.fprintf ppf "%a@." pp d) ds;
  let e, w, i = counts ds in
  Format.fprintf ppf "%d error(s), %d warning(s), %d info(s)@." e w i

(* JSON rendering goes through the shared Rt_util.Json writer; the
   output is pinned byte-for-byte by test_lint's schema-stability
   test, so field order below is load-bearing. *)

let to_json ds =
  let open Rt_util.Json in
  let ds = sort ds in
  let e, w, i = counts ds in
  let diag d =
    let line, col =
      match d.pos with
      | Some p -> (Int p.Fppn_lang.Ast.line, Int p.Fppn_lang.Ast.col)
      | None -> (Null, Null)
    in
    Obj
      [
        ("code", Str (code_id d.code));
        ("severity", Str (severity_to_string d.severity));
        ("subject", Str d.subject);
        ("message", Str d.message);
        ("file", (match d.file with None -> Null | Some f -> Str f));
        ("line", line);
        ("col", col);
      ]
  in
  to_string
    (Obj
       [
         ("version", Int 1);
         ("errors", Int e);
         ("warnings", Int w);
         ("infos", Int i);
         ("diagnostics", Arr (List.map diag ds));
       ])
