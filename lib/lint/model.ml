module Rat = Rt_util.Rat
module Ast = Fppn_lang.Ast

type proc = {
  p_name : string;
  p_sporadic : bool;
  p_burst : int;
  p_period : Rat.t;
  p_deadline : Rat.t;
  p_wcet : Rat.t option;
  p_reads : string list option;
  p_writes : string list option;
  p_pos : Ast.pos option;
}

type chan = {
  c_name : string;
  c_kind : Fppn.Channel.kind;
  c_writer : string;
  c_reader : string;
  c_pos : Ast.pos option;
}

type io = { io_name : string; io_owner : string; io_pos : Ast.pos option }

type t = {
  m_name : string;
  m_file : string option;
  m_procs : proc list;
  m_chans : chan list;
  m_fp : (string * string * Ast.pos option) list;
  m_ios : io list;
}

let of_network ?file ?(wcet = fun _ -> None) net =
  let module N = Fppn.Network in
  let module P = Fppn.Process in
  let module A = Fppn.Automaton in
  let procs =
    Array.to_list (N.processes net)
    |> List.map (fun p ->
           let reads, writes =
             match p.P.behavior with
             | P.Native _ -> (None, None)
             | P.Automaton a ->
               (Some (A.channels_read a), Some (A.channels_written a))
           in
           {
             p_name = P.name p;
             p_sporadic = P.is_sporadic p;
             p_burst = P.burst p;
             p_period = P.period p;
             p_deadline = P.deadline p;
             p_wcet = wcet (P.name p);
             p_reads = reads;
             p_writes = writes;
             p_pos = None;
           })
  in
  let chans =
    List.map
      (fun (c : N.channel_decl) ->
        {
          c_name = c.N.ch_name;
          c_kind = c.N.ch_kind;
          c_writer = c.N.writer;
          c_reader = c.N.reader;
          c_pos = None;
        })
      (N.channels net)
  in
  let name_of i = P.name (N.process net i) in
  let fp =
    List.map (fun (hi, lo) -> (name_of hi, name_of lo, None)) (N.fp_edges net)
  in
  let ios =
    List.map
      (fun (io : N.io_decl) ->
        { io_name = io.N.io_name; io_owner = io.N.owner; io_pos = None })
      (N.inputs net @ N.outputs net)
  in
  {
    m_name = N.name net;
    m_file = file;
    m_procs = procs;
    m_chans = chans;
    m_fp = fp;
    m_ios = ios;
  }

let machine_accesses (m : Ast.machine) =
  let reads = ref [] and writes = ref [] in
  let add r c = if not (List.mem c !r) then r := c :: !r in
  List.iter
    (fun (l : Ast.location) ->
      List.iter
        (fun (t : Ast.transition) ->
          List.iter
            (function
              | Ast.Assign _ -> ()
              | Ast.Read (_, c) -> add reads c
              | Ast.Write (_, c) -> add writes c)
            t.Ast.actions)
        l.Ast.transitions)
    m.Ast.locations;
  (List.rev !reads, List.rev !writes)

let of_ast ?file (n : Ast.network) =
  let procs =
    List.map
      (fun (p : Ast.process_decl) ->
        let reads, writes =
          match p.Ast.behavior with
          | Ast.Extern -> (None, None)
          | Ast.Machine m ->
            (* elaboration's machine check, before its event check, so
               every subcommand reports the same first error *)
            (try ignore (Fppn_lang.Elaborate.behavior_of_machine m)
             with Invalid_argument msg ->
               raise (Fppn_lang.Elaborate.Error (msg, p.Ast.p_pos)));
            let r, w = machine_accesses m in
            (Some r, Some w)
        in
        let ev = Fppn_lang.Elaborate.event p in
        {
          p_name = p.Ast.p_name;
          p_sporadic = Fppn.Event.is_sporadic ev;
          p_burst = ev.Fppn.Event.burst;
          p_period = ev.Fppn.Event.period;
          p_deadline = ev.Fppn.Event.deadline;
          p_wcet = p.Ast.wcet;
          p_reads = reads;
          p_writes = writes;
          p_pos = Some p.Ast.p_pos;
        })
      n.Ast.processes
  in
  let chans =
    List.map
      (fun (c : Ast.channel_decl) ->
        {
          c_name = c.Ast.c_name;
          c_kind = c.Ast.kind;
          c_writer = c.Ast.writer;
          c_reader = c.Ast.reader;
          c_pos = Some c.Ast.c_pos;
        })
      n.Ast.channels
  in
  let fp = List.map (fun (hi, lo, p) -> (hi, lo, Some p)) n.Ast.priorities in
  let ios =
    List.map
      (fun (io : Ast.io_decl) ->
        {
          io_name = io.Ast.io_name;
          io_owner = io.Ast.io_owner;
          io_pos = Some io.Ast.io_pos;
        })
      n.Ast.ios
  in
  {
    m_name = n.Ast.n_name;
    m_file = file;
    m_procs = procs;
    m_chans = chans;
    m_fp = fp;
    m_ios = ios;
  }

let of_spec (s : Fppn_apps.Randgen.spec) =
  let module R = Fppn_apps.Randgen in
  let ins = Hashtbl.create 16 and outs = Hashtbl.create 16 in
  let push tbl key v =
    let prev = try Hashtbl.find tbl key with Not_found -> [] in
    Hashtbl.replace tbl key (prev @ [ v ])
  in
  List.iter
    (fun (c : R.chan_spec) ->
      let w = R.periodic_name c.R.cw and r = R.periodic_name c.R.cr in
      push outs w (R.channel_name w r);
      push ins r (R.channel_name w r))
    s.R.chans;
  List.iter
    (fun (sp : R.sporadic_spec) ->
      let u = R.periodic_name sp.R.sp_user in
      push outs sp.R.sp_name (R.channel_name sp.R.sp_name u);
      push ins u (R.channel_name sp.R.sp_name u))
    s.R.sporadics;
  let accesses tbl name = try Hashtbl.find tbl name with Not_found -> [] in
  let periodic_procs =
    Array.to_list
      (Array.mapi
         (fun i t ->
           let name = R.periodic_name i in
           {
             p_name = name;
             p_sporadic = false;
             p_burst = 1;
             p_period = Rat.of_int t;
             p_deadline = Rat.of_int t;
             p_wcet = None;
             p_reads = Some (accesses ins name);
             p_writes = Some (accesses outs name);
             p_pos = None;
           })
         s.R.periods)
  in
  let sporadic_procs =
    List.map
      (fun (sp : R.sporadic_spec) ->
        {
          p_name = sp.R.sp_name;
          p_sporadic = true;
          p_burst = sp.R.sp_burst;
          p_period = Rat.of_int sp.R.sp_min_period;
          p_deadline = Rat.of_int (2 * sp.R.sp_min_period);
          p_wcet = None;
          p_reads = Some (accesses ins sp.R.sp_name);
          p_writes = Some (accesses outs sp.R.sp_name);
          p_pos = None;
        })
      s.R.sporadics
  in
  let chans =
    List.map
      (fun (c : R.chan_spec) ->
        let w = R.periodic_name c.R.cw and r = R.periodic_name c.R.cr in
        {
          c_name = R.channel_name w r;
          c_kind = (if c.R.fifo then Fppn.Channel.Fifo else Fppn.Channel.Blackboard);
          c_writer = w;
          c_reader = r;
          c_pos = None;
        })
      s.R.chans
    @ List.map
        (fun (sp : R.sporadic_spec) ->
          let u = R.periodic_name sp.R.sp_user in
          {
            c_name = R.channel_name sp.R.sp_name u;
            c_kind = Fppn.Channel.Blackboard;
            c_writer = sp.R.sp_name;
            c_reader = u;
            c_pos = None;
          })
        s.R.sporadics
  in
  let fp =
    List.filter_map
      (fun (c : R.chan_spec) ->
        if c.R.no_fp then None
        else
          let w = R.periodic_name c.R.cw and r = R.periodic_name c.R.cr in
          Some (if c.R.rev_fp then (r, w, None) else (w, r, None)))
      s.R.chans
    @ List.map
        (fun (sp : R.sporadic_spec) ->
          let u = R.periodic_name sp.R.sp_user in
          if sp.R.sp_higher then (sp.R.sp_name, u, None) else (u, sp.R.sp_name, None))
        s.R.sporadics
  in
  {
    m_name = s.R.label;
    m_file = None;
    m_procs = periodic_procs @ sporadic_procs;
    m_chans = chans;
    m_fp = fp;
    m_ios = [];
  }
