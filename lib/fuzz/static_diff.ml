module Prng = Rt_util.Prng
module Randgen = Fppn_apps.Randgen
module D = Fppn_lint.Diagnostic
module Lint = Fppn_lint.Lint

type outcome = Caught of string | Missed | Not_applicable

let sabotaged_channel base = function
  | Oracle.No_sabotage -> None
  | Oracle.Flip_channel_fp { writer; reader } ->
    Some
      (Randgen.channel_name
         (Randgen.periodic_name writer)
         (Randgen.periodic_name reader))
  | Oracle.Flip_sporadic_fp name -> (
    match
      List.find_opt
        (fun s -> s.Randgen.sp_name = name)
        base.Randgen.sporadics
    with
    | Some s ->
      Some (Randgen.channel_name name (Randgen.periodic_name s.Randgen.sp_user))
    | None -> None)

let apply base = function
  | Oracle.No_sabotage -> None
  | Oracle.Flip_channel_fp { writer; reader } ->
    Randgen.flip_channel_fp base ~writer ~reader
  | Oracle.Flip_sporadic_fp name -> Randgen.flip_sporadic_fp base name

let check ~base sabotage =
  match (sabotaged_channel base sabotage, apply base sabotage) with
  | None, _ | _, None -> Not_applicable
  | Some ch, Some sut -> (
    let subject = "channel " ^ ch in
    let shape spec =
      List.filter (fun (_, s) -> s = subject) (D.fingerprint (Lint.lint_spec spec))
    in
    let fb = shape base and fs = shape sut in
    let diff =
      List.filter (fun e -> not (List.mem e fs)) fb
      @ List.filter (fun e -> not (List.mem e fb)) fs
    in
    match diff with [] -> Missed | (code, _) :: _ -> Caught code)

let check_case (case : Oracle.case) =
  check ~base:case.Oracle.spec case.Oracle.sabotage

type summary = {
  cases : int;
  injected : int;
  caught : int;
  missed : int;
  not_applicable : int;
  clean_errors : int;
  codes : (string * int) list;
  wall_time_s : float;
}

let run ?(log = fun _ -> ()) ?(max_periodic = 6) ?(max_sporadic = 2) ~seed
    ~budget ~inject () =
  let t0 = Unix.gettimeofday () in
  let prng = Prng.create seed in
  let caught = ref 0
  and missed = ref 0
  and not_applicable = ref 0
  and clean_errors = ref 0 in
  let codes = Hashtbl.create 8 in
  for i = 1 to budget do
    let base = Campaign.draw_spec prng ~max_periodic ~max_sporadic in
    if D.has_errors (Lint.lint_spec base) then begin
      incr clean_errors;
      log (Printf.sprintf "case %d: clean spec %s lints with errors" i base.Randgen.label)
    end;
    let sabotage = Campaign.choose_sabotage inject prng base in
    (match check ~base sabotage with
    | Not_applicable -> incr not_applicable
    | Caught code ->
      incr caught;
      Hashtbl.replace codes code
        (1 + try Hashtbl.find codes code with Not_found -> 0)
    | Missed ->
      incr missed;
      log (Printf.sprintf "case %d: injection into %s not visible statically" i base.Randgen.label));
    if i mod 50 = 0 then
      log (Printf.sprintf "progress: %d/%d cases, %d caught, %d missed" i budget !caught !missed)
  done;
  {
    cases = budget;
    injected = !caught + !missed;
    caught = !caught;
    missed = !missed;
    not_applicable = !not_applicable;
    clean_errors = !clean_errors;
    codes =
      List.sort compare (Hashtbl.fold (fun c n acc -> (c, n) :: acc) codes []);
    wall_time_s = Unix.gettimeofday () -. t0;
  }

let passed ~inject s =
  match inject with
  | Campaign.No_injection -> s.clean_errors = 0
  | Campaign.Inject_channel_flip | Campaign.Inject_sporadic_flip ->
    s.injected > 0 && s.missed = 0 && s.clean_errors = 0

let pp ppf s =
  Format.fprintf ppf
    "static diff: %d case(s), %d injected, %d caught, %d missed, %d \
     inapplicable, %d clean-spec error(s) in %.3fs"
    s.cases s.injected s.caught s.missed s.not_applicable s.clean_errors
    s.wall_time_s;
  List.iter (fun (c, n) -> Format.fprintf ppf "@.  %s: %d" c n) s.codes

(* --- certificate differential ------------------------------------------ *)

module Rat = Rt_util.Rat
module Certificate = Fppn_lint.Certificate
module Model = Fppn_lint.Model
module Derive = Taskgraph.Derive
module Graph = Taskgraph.Graph
module Network = Fppn.Network

(* Per-job descendant rows of [Graph.reach]: O(J^2) bits, which is why
   the certificate's class sweep replaced it. *)
let closure_conflicts_ordered (g : Graph.t) net =
  let pairs =
    List.filter_map
      (fun (c : Network.channel_decl) ->
        let w = Network.find net c.Network.writer
        and r = Network.find net c.Network.reader in
        if w = r then None else Some (w, r))
      (Network.channels net)
  in
  pairs = []
  ||
  let reach = Graph.reach g in
  let ordered a b = Graph.reaches reach a b || Graph.reaches reach b a in
  List.for_all
    (fun (w, r) ->
      List.for_all
        (fun a -> List.for_all (ordered a) (Graph.jobs_of_process g r))
        (Graph.jobs_of_process g w))
    pairs

type certify_summary = {
  cc_cases : int;
  cc_accepts : int;
  cc_rejects : int;
  cc_unbuildable_rejects : int;
  cc_disagreements : int;
  cc_wall_time_s : float;
}

let certify ?(log = fun _ -> ()) ?(max_periodic = 6) ?(max_sporadic = 2) ~seed
    ~budget () =
  let t0 = Unix.gettimeofday () in
  let prng = Prng.create seed in
  let accepts = ref 0
  and rejects = ref 0
  and unbuildable = ref 0
  and disagreements = ref 0 in
  for i = 1 to budget do
    let base = Campaign.draw_spec prng ~max_periodic ~max_sporadic in
    (* every other case seeds a known determinism race so the
       certificate's rejecting side is exercised too *)
    let spec =
      if i mod 2 = 0 then
        match Randgen.seed_race prng base with
        | Some (raced, _) -> raced
        | None -> base
      else base
    in
    let cert = Certificate.of_model (Model.of_spec spec) in
    let ok = Certificate.shardable cert in
    if ok then incr accepts else incr rejects;
    match Randgen.build spec with
    | Error e ->
      (* the builder refuses exactly the Def. 2.1 violations, so an
         unbuildable spec is provably order-violating: the certificate
         must not accept it *)
      incr unbuildable;
      if ok then begin
        incr disagreements;
        log
          (Printf.sprintf "case %d: certificate accepts unbuildable spec %s (%s)"
             i spec.Randgen.label e)
      end
    | Ok net -> (
      let wcet =
        Randgen.wcet ~scale:(Rat.make 1 1000) (Derive.const_wcet Rat.one) net
      in
      match Derive.derive ~wcet net with
      | Error _ -> ()
      | Ok d ->
        let legacy = closure_conflicts_ordered d.Derive.graph net in
        (* the class sweep and the job-level closure must agree on every
           buildable spec (randgen never produces a fold-hazard, so there
           is no abstention to excuse), both for the spec model's
           certificate and for the built network's *)
        List.iter
          (fun (what, verdict) ->
            if verdict <> legacy then begin
              incr disagreements;
              log
                (Printf.sprintf "case %d: %s certificate %b vs job closure %b on %s"
                   i what verdict legacy spec.Randgen.label)
            end)
          [
            ("model", ok);
            ("network", Certificate.shardable (Certificate.of_network net));
          ])
  done;
  {
    cc_cases = budget;
    cc_accepts = !accepts;
    cc_rejects = !rejects;
    cc_unbuildable_rejects = !unbuildable;
    cc_disagreements = !disagreements;
    cc_wall_time_s = Unix.gettimeofday () -. t0;
  }

let certify_passed s =
  s.cc_disagreements = 0 && s.cc_accepts > 0 && s.cc_rejects > 0

let pp_certify ppf s =
  Format.fprintf ppf
    "certify diff: %d case(s), %d accept(s), %d reject(s) (%d unbuildable), \
     %d disagreement(s) in %.3fs"
    s.cc_cases s.cc_accepts s.cc_rejects s.cc_unbuildable_rejects
    s.cc_disagreements s.cc_wall_time_s
