module D = Diagnostic
module Rat = Rt_util.Rat
module G = Rt_util.Digraph
module Bitset = Rt_util.Bitset

let spf = Printf.sprintf

let lint_model ?processors (m : Model.t) =
  let diags = ref [] in
  let emit ?severity ?pos code ~subject msg =
    diags := D.make ?severity ?file:m.Model.m_file ?pos code ~subject msg :: !diags
  in
  let procs = Array.of_list m.Model.m_procs in
  let n = Array.length procs in

  (* --- structural pre-pass: name resolution ---------------------------- *)
  let proc_tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i (p : Model.proc) ->
      if Hashtbl.mem proc_tbl p.Model.p_name then
        emit ?pos:p.Model.p_pos D.Duplicate_process_decl
          ~subject:("process " ^ p.Model.p_name)
          (spf "process %s is declared more than once" p.Model.p_name)
      else Hashtbl.add proc_tbl p.Model.p_name i)
    procs;
  let known name = Hashtbl.mem proc_tbl name in
  let idx name = Hashtbl.find proc_tbl name in
  let chan_seen = Hashtbl.create 16 in
  let valid_chans =
    List.filter
      (fun (c : Model.chan) ->
        let subject = "channel " ^ c.Model.c_name in
        (if Hashtbl.mem chan_seen c.Model.c_name then
           emit ?pos:c.Model.c_pos D.Duplicate_channel_decl ~subject
             (spf "channel %s is declared more than once" c.Model.c_name)
         else Hashtbl.add chan_seen c.Model.c_name ());
        let ok = ref true in
        if not (known c.Model.c_writer) then begin
          emit ?pos:c.Model.c_pos D.Unknown_process_ref ~subject
            (spf "writer %s of channel %s is not a declared process"
               c.Model.c_writer c.Model.c_name);
          ok := false
        end;
        if not (known c.Model.c_reader) then begin
          emit ?pos:c.Model.c_pos D.Unknown_process_ref ~subject
            (spf "reader %s of channel %s is not a declared process"
               c.Model.c_reader c.Model.c_name);
          ok := false
        end;
        if !ok && c.Model.c_writer = c.Model.c_reader then begin
          emit ?pos:c.Model.c_pos D.Self_channel_decl ~subject
            (spf "channel %s connects process %s to itself" c.Model.c_name
               c.Model.c_writer);
          ok := false
        end;
        !ok)
      m.Model.m_chans
  in
  let valid_fp =
    List.filter
      (fun (hi, lo, pos) ->
        let subject = spf "priority %s -> %s" hi lo in
        let ok = ref true in
        List.iter
          (fun p ->
            if not (known p) then begin
              emit ?pos D.Unknown_process_ref ~subject
                (spf "priority %s -> %s references undeclared process %s" hi lo p);
              ok := false
            end)
          (if hi = lo then [ hi ] else [ hi; lo ]);
        !ok)
      m.Model.m_fp
  in
  let io_seen = Hashtbl.create 16 in
  List.iter
    (fun (io : Model.io) ->
      let subject = "external channel " ^ io.Model.io_name in
      if Hashtbl.mem io_seen io.Model.io_name then
        emit ?pos:io.Model.io_pos D.Duplicate_channel_decl ~subject
          (spf "external channel %s is declared more than once" io.Model.io_name)
      else Hashtbl.add io_seen io.Model.io_name ();
      if not (known io.Model.io_owner) then
        emit ?pos:io.Model.io_pos D.Unknown_process_ref ~subject
          (spf "owner %s of external channel %s is not a declared process"
             io.Model.io_owner io.Model.io_name))
    m.Model.m_ios;

  (* --- pass 2: FP graph hygiene ---------------------------------------- *)
  let g = G.create n in
  List.iter (fun (hi, lo, _) -> G.add_edge g (idx hi) (idx lo)) valid_fp;
  let acyclic = G.is_acyclic g in
  let closure = if acyclic then Some (G.transitive_closure g) else None in
  (match G.find_cycle g with
  | None -> ()
  | Some cyc ->
    let names = List.map (fun i -> procs.(i).Model.p_name) cyc in
    let pos =
      (* anchor at a declared edge lying on the cycle *)
      let on_cycle =
        match names with
        | [ v ] -> fun hi lo -> hi = v && lo = v
        | v0 :: _ ->
          let rec consecutive = function
            | a :: (b :: _ as rest) -> (a, b) :: consecutive rest
            | [ last ] -> [ (last, v0) ]
            | [] -> []
          in
          let edges = consecutive names in
          fun hi lo -> List.mem (hi, lo) edges
        | [] -> fun _ _ -> false
      in
      List.find_map
        (fun (hi, lo, pos) -> if on_cycle hi lo then pos else None)
        valid_fp
    in
    emit ?pos D.Priority_cycle_found
      ~subject:("network " ^ m.Model.m_name)
      (spf "functional priorities form a cycle: %s -> %s"
         (String.concat " -> " names)
         (match names with v :: _ -> v | [] -> "?")));
  let chans_between =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (c : Model.chan) ->
        let a = idx c.Model.c_writer and b = idx c.Model.c_reader in
        let key = (min a b, max a b) in
        let prev = try Hashtbl.find tbl key with Not_found -> [] in
        Hashtbl.replace tbl key (prev @ [ c ]))
      valid_chans;
    fun a b -> try Hashtbl.find tbl (min a b, max a b) with Not_found -> []
  in
  List.iter
    (fun (hi, lo, pos) ->
      let u = idx hi and v = idx lo in
      if u <> v then begin
        let shared = chans_between u v in
        List.iter
          (fun (c : Model.chan) ->
            if c.Model.c_writer = lo && c.Model.c_reader = hi then
              emit
                ?pos:(match pos with Some _ -> pos | None -> c.Model.c_pos)
                D.Counter_dataflow_priority
                ~subject:("channel " ^ c.Model.c_name)
                (spf
                   "priority %s -> %s runs against the data flow of channel %s \
                    (%s writes, %s reads): the reader precedes the writer and \
                    observes previous-invocation data"
                   hi lo c.Model.c_name lo hi))
          shared;
        match closure with
        | Some closure when shared = [] ->
          let redundant =
            List.exists
              (fun w -> w <> v && Bitset.mem closure.(w) v)
              (G.succs g u)
          in
          if redundant then
            emit ?pos D.Redundant_priority_edge
              ~subject:(spf "priority %s -> %s" hi lo)
              (spf
                 "priority %s -> %s is implied by a longer priority path and \
                  the pair shares no channel"
                 hi lo)
        | _ -> ()
      end)
    valid_fp;

  (* --- pass 1 (main): determinism races -------------------------------- *)
  let ordered_somehow a b =
    match closure with
    | Some closure -> Bitset.mem closure.(a) b || Bitset.mem closure.(b) a
    | None -> G.path_exists g a b || G.path_exists g b a
  in
  let coincidence a b =
    let pa = procs.(a) and pb = procs.(b) in
    if pa.Model.p_sporadic || pb.Model.p_sporadic then
      "a sporadic generator may fire at any instant, including the other \
       process' invocation times"
    else
      match Rat.lcm pa.Model.p_period pb.Model.p_period with
      | l -> spf "both are invoked simultaneously at t=0 and every %s ms" (Rat.to_string l)
      | exception Rat.Overflow -> "both are invoked simultaneously at t=0"
  in
  let pair_subject a b =
    let x = procs.(a).Model.p_name and y = procs.(b).Model.p_name in
    if String.compare x y <= 0 then spf "%s ./ %s" x y else spf "%s ./ %s" y x
  in
  let pairs = Hashtbl.create 16 in
  let add_pair a b (c : Model.chan) =
    if a <> b then begin
      let key = (min a b, max a b) in
      if not (Hashtbl.mem pairs key) then Hashtbl.add pairs key c
    end
  in
  List.iter
    (fun (c : Model.chan) -> add_pair (idx c.Model.c_writer) (idx c.Model.c_reader) c)
    valid_chans;
  (* duplicate-named channels denote the same channel: every accessor of
     one declaration conflicts with every accessor of the others *)
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (c : Model.chan) ->
      let prev = try Hashtbl.find by_name c.Model.c_name with Not_found -> [] in
      Hashtbl.replace by_name c.Model.c_name (prev @ [ c ]))
    valid_chans;
  Hashtbl.iter
    (fun _ cs ->
      match cs with
      | [] | [ _ ] -> ()
      | cs ->
        let accessors =
          List.sort_uniq compare
            (List.concat_map
               (fun (c : Model.chan) -> [ idx c.Model.c_writer; idx c.Model.c_reader ])
               cs)
        in
        List.iter
          (fun a ->
            List.iter (fun b -> if a < b then add_pair a b (List.hd cs)) accessors)
          accessors)
    by_name;
  Hashtbl.iter
    (fun (a, b) (c : Model.chan) ->
      if G.has_edge g a b || G.has_edge g b a then ()
      else if ordered_somehow a b then
        emit ?pos:c.Model.c_pos D.Transitive_only_order ~subject:(pair_subject a b)
          (spf
             "%s and %s share channel %s but are ordered only transitively; \
              Def. 2.1 requires a direct priority edge"
             procs.(a).Model.p_name procs.(b).Model.p_name c.Model.c_name)
      else
        emit ?pos:c.Model.c_pos D.Determinism_race ~subject:(pair_subject a b)
          (spf
             "%s and %s both access channel %s and can be invoked at the same \
              time stamp (%s), but no functional-priority path orders them: \
              the access order is scheduler-dependent (Prop. 2.1 precondition \
              violated)"
             procs.(a).Model.p_name procs.(b).Model.p_name c.Model.c_name
             (coincidence a b)))
    pairs;

  (* --- pass 3: Sec. III-A scheduling subclass -------------------------- *)
  let partners =
    Fppn.Network.channel_partners n
      ~keep:(fun p -> procs.(p).Model.p_sporadic)
      (fun (c : Model.chan) -> (idx c.Model.c_writer, idx c.Model.c_reader))
      valid_chans
  in
  Array.iteri
    (fun p (proc : Model.proc) ->
      if proc.Model.p_sporadic && idx proc.Model.p_name = p then begin
        let subject = "process " ^ proc.Model.p_name in
        match partners.(p) with
        | [] ->
          emit ?pos:proc.Model.p_pos D.Sporadic_without_user ~subject
            (spf
               "sporadic process %s has no channel to a user; the Sec. III-A \
                subclass requires exactly one periodic user"
               proc.Model.p_name)
        | [ u ] ->
          let uproc = procs.(u) in
          if uproc.Model.p_sporadic then
            emit ?pos:proc.Model.p_pos D.Sporadic_user_is_sporadic ~subject
              (spf "user %s of sporadic process %s is itself sporadic"
                 uproc.Model.p_name proc.Model.p_name)
          else if Rat.(uproc.Model.p_period > proc.Model.p_period) then
            emit ?pos:proc.Model.p_pos D.User_period_exceeds ~subject
              (spf
                 "user %s has period %s ms, larger than the minimal \
                  inter-arrival time %s ms of sporadic process %s (T_u > T_p)"
                 uproc.Model.p_name
                 (Rat.to_string uproc.Model.p_period)
                 (Rat.to_string proc.Model.p_period)
                 proc.Model.p_name)
        | us ->
          emit ?pos:proc.Model.p_pos D.Sporadic_ambiguous_user ~subject
            (spf "sporadic process %s has several users: %s" proc.Model.p_name
               (String.concat ", "
                  (List.map (fun u -> procs.(u).Model.p_name) us)))
      end)
    procs;

  (* --- pass 4: channel misuse ------------------------------------------ *)
  List.iter
    (fun (c : Model.chan) ->
      let subject = "channel " ^ c.Model.c_name in
      let w = procs.(idx c.Model.c_writer) and r = procs.(idx c.Model.c_reader) in
      (match r.Model.p_reads with
      | Some reads when not (List.mem c.Model.c_name reads) ->
        emit ?pos:c.Model.c_pos D.Channel_never_read ~subject
          (spf "reader %s never reads channel %s: the channel is dead%s"
             r.Model.p_name c.Model.c_name
             (if c.Model.c_kind = Fppn.Channel.Fifo then
                " and written FIFO tokens accumulate"
              else ""))
      | _ -> ());
      (match w.Model.p_writes with
      | Some writes when not (List.mem c.Model.c_name writes) ->
        emit ?pos:c.Model.c_pos D.Channel_never_written ~subject
          (spf "writer %s never writes channel %s: the reader only ever sees %s"
             w.Model.p_name c.Model.c_name
             (if c.Model.c_kind = Fppn.Channel.Fifo then "an empty FIFO"
              else "the initial blackboard value"))
      | _ -> ());
      if c.Model.c_kind = Fppn.Channel.Fifo then
        if w.Model.p_sporadic then
          (* the writer's rate is only an upper bound: no static imbalance *)
          ()
        else if r.Model.p_sporadic then
          emit ?pos:c.Model.c_pos D.Fifo_rate_mismatch ~subject
            (spf
               "periodic writer %s fills FIFO %s but sporadic reader %s has no \
                guaranteed minimum invocation rate: worst-case backlog is \
                unbounded"
               w.Model.p_name c.Model.c_name r.Model.p_name)
        else begin
          match Rat.lcm w.Model.p_period r.Model.p_period with
          | h ->
            let jobs (p : Model.proc) =
              p.Model.p_burst * Rat.to_int_exn (Rat.div h p.Model.p_period)
            in
            let wn = jobs w and rn = jobs r in
            if wn > rn then
              emit ?pos:c.Model.c_pos D.Fifo_rate_mismatch ~subject
                (spf
                   "FIFO %s gains %d writer jobs but only %d reader jobs every \
                    %s ms: the backlog grows without bound unless each reader \
                    job drains several tokens"
                   c.Model.c_name wn rn (Rat.to_string h))
          | exception Rat.Overflow -> ()
        end)
    valid_chans;

  (* --- pass 5: timing sanity -------------------------------------------- *)
  Array.iter
    (fun (p : Model.proc) ->
      let subject = "process " ^ p.Model.p_name in
      if (not p.Model.p_sporadic) && Rat.(p.Model.p_deadline > p.Model.p_period)
      then
        emit ?pos:p.Model.p_pos D.Deadline_exceeds_period ~subject
          (spf "deadline %s ms exceeds period %s ms: invocations overlap"
             (Rat.to_string p.Model.p_deadline)
             (Rat.to_string p.Model.p_period));
      match p.Model.p_wcet with
      | Some c when Rat.(c > p.Model.p_deadline) ->
        emit ?pos:p.Model.p_pos D.Wcet_exceeds_deadline ~subject
          (spf "WCET %s ms exceeds the relative deadline %s ms: process %s can \
                never meet its deadline"
             (Rat.to_string c)
             (Rat.to_string p.Model.p_deadline)
             p.Model.p_name)
      | _ -> ())
    procs;
  let all_wcet =
    n > 0 && Array.for_all (fun (p : Model.proc) -> p.Model.p_wcet <> None) procs
  in
  (if all_wcet then
     let subject = "network " ^ m.Model.m_name in
     match
       Array.fold_left
         (fun acc (p : Model.proc) ->
           Rat.add acc
             (Rat.div
                (Rat.mul (Rat.of_int p.Model.p_burst) (Option.get p.Model.p_wcet))
                p.Model.p_period))
         Rat.zero procs
     with
     | u -> (
       match processors with
       | Some np ->
         if Rat.(u > of_int np) then
           emit D.Utilization_bound ~subject
             (spf
                "total utilization %s exceeds the %d available processor(s): \
                 the Prop. 3.1 necessary schedulability bound fails"
                (Rat.to_string u) np)
       | None ->
         (* the bound only says something once it rules out M=1 *)
         let need = Stdlib.max 1 (Rat.ceil u) in
         if need > 1 then
           emit ~severity:D.Info D.Utilization_bound ~subject
             (spf
                "total utilization %s needs at least %d processor(s) \
                 (Prop. 3.1 necessary bound)"
                (Rat.to_string u) need))
     | exception Rat.Overflow -> ());

  D.sort !diags

let lint_network ?file ?wcet ?processors net =
  lint_model ?processors (Model.of_network ?file ?wcet net)

let lint_ast ?file ?processors ast =
  lint_model ?processors (Model.of_ast ?file ast)

let lint_spec ?processors spec = lint_model ?processors (Model.of_spec spec)
