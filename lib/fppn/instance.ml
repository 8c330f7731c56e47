(* Locals live in two parallel arrays laid out by
   [Automaton.slot_names]: an automaton's compiled program addresses
   [l_vals] by slot, and native bodies scan [l_names] linearly —
   processes declare a handful of variables at most, and the scan beats
   hashing the name on every [get]/[set] of the job hot path. *)
type t = {
  proc : Process.t;
  l_names : string array;
  l_vals : Value.t array;
  mutable count : int;
}

let rec local_scan names x i n =
  if i >= n then -1
  else if String.equal (Array.unsafe_get names i) x then i
  else local_scan names x (i + 1) n

let load_locals t =
  List.iter
    (fun (x, v) ->
      let i = local_scan t.l_names x 0 (Array.length t.l_names) in
      t.l_vals.(i) <- v)
    t.proc.Process.locals

let create proc =
  let names = Automaton.slot_names proc.Process.locals in
  let t =
    { proc; l_names = names; l_vals = Array.make (Array.length names) Value.Absent;
      count = 0 }
  in
  load_locals t;
  t

let process t = t.proc
let job_count t = t.count

let get t x =
  let i = local_scan t.l_names x 0 (Array.length t.l_names) in
  if i < 0 then raise Not_found else t.l_vals.(i)

let undeclared proc x =
  invalid_arg
    (Printf.sprintf "process %s: undeclared variable %S" (Process.name proc) x)

let native_ctx t ~job_index ~now ~read ~write =
  let get x =
    let i = local_scan t.l_names x 0 (Array.length t.l_names) in
    if i < 0 then undeclared t.proc x else Array.unsafe_get t.l_vals i
  in
  let set x v =
    let i = local_scan t.l_names x 0 (Array.length t.l_names) in
    if i < 0 then undeclared t.proc x else Array.unsafe_set t.l_vals i v
  in
  { Process.job_index; now; read; write; get; set }

let run_job t ~now ~read ~write =
  let k = t.count + 1 in
  (match t.proc.Process.behavior with
  | Process.Native body -> body (native_ctx t ~job_index:k ~now ~read ~write)
  | Process.Automaton a -> Automaton.exec a t.l_vals ~read ~write);
  t.count <- k

(* Hot interpreters rebind one preallocated context per invocation
   instead of rebuilding the closures and the context record above on
   every job — [prepare] pays the construction once per (instance,
   router) pair, [run_prepared] touches only mutable fields.  An
   automaton needs no context: its compiled program runs directly on
   [l_vals]. *)
type prepared =
  | Pnative of Process.job_ctx * (Process.job_ctx -> unit)
  | Pprogram of
      Automaton.t * (string -> Value.t) * (string -> Value.t -> unit)

let prepare t ~read ~write =
  match t.proc.Process.behavior with
  | Process.Native body ->
    Pnative (native_ctx t ~job_index:0 ~now:Rt_util.Rat.zero ~read ~write, body)
  | Process.Automaton a -> Pprogram (a, read, write)

let run_prepared t p ~now =
  let k = t.count + 1 in
  (match p with
  | Pnative (ctx, body) ->
    ctx.Process.job_index <- k;
    ctx.Process.now <- now;
    body ctx
  | Pprogram (a, read, write) -> Automaton.exec a t.l_vals ~read ~write);
  t.count <- k

let skip_job t = t.count <- t.count + 1

let reset t =
  load_locals t;
  t.count <- 0
