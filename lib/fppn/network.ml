module Rat = Rt_util.Rat
module Digraph = Rt_util.Digraph

type channel_decl = {
  ch_name : string;
  ch_kind : Channel.kind;
  writer : string;
  reader : string;
  init : Value.t option;
}

type io_dir = In | Out

type io_decl = { io_name : string; owner : string; dir : io_dir }

type t = {
  net_name : string;
  procs : Process.t array;
  proc_index : (string, int) Hashtbl.t;
  chans : channel_decl list;
  fp : (int * int) list;
  fp_dag : Digraph.t;
  rank : int array; (* topological rank in fp_dag *)
  ios : io_decl list;
}

type error =
  | Duplicate_process of string
  | Unknown_process of string
  | Duplicate_channel of string
  | Self_channel of string
  | Priority_cycle of string list
  | Missing_priority of { channel : string; writer : string; reader : string }
  | Duplicate_io of string
  | Empty_network

let pp_error ppf = function
  | Duplicate_process p -> Format.fprintf ppf "duplicate process %S" p
  | Unknown_process p -> Format.fprintf ppf "unknown process %S" p
  | Duplicate_channel c -> Format.fprintf ppf "duplicate channel %S" c
  | Self_channel c -> Format.fprintf ppf "channel %S connects a process to itself" c
  | Priority_cycle ps ->
    Format.fprintf ppf "functional priority cycle: %s" (String.concat " -> " ps)
  | Missing_priority { channel; writer; reader } ->
    Format.fprintf ppf
      "channel %S: no functional priority between %S and %S (Def. 2.1 requires one)"
      channel writer reader
  | Duplicate_io c -> Format.fprintf ppf "duplicate external channel %S" c
  | Empty_network -> Format.fprintf ppf "network has no processes"

module Builder = struct
  type net = t

  type b = {
    b_name : string;
    mutable b_procs : Process.t list; (* reversed *)
    mutable b_chans : channel_decl list; (* reversed *)
    mutable b_fp : (string * string) list; (* reversed *)
    mutable b_ios : io_decl list; (* reversed *)
  }

  let create b_name = { b_name; b_procs = []; b_chans = []; b_fp = []; b_ios = [] }
  let add_process b p = b.b_procs <- p :: b.b_procs

  let add_channel b ?init ~kind ~writer ~reader ch_name =
    b.b_chans <- { ch_name; ch_kind = kind; writer; reader; init } :: b.b_chans

  let add_priority b hi lo = b.b_fp <- (hi, lo) :: b.b_fp
  let add_input b ~owner io_name = b.b_ios <- { io_name; owner; dir = In } :: b.b_ios
  let add_output b ~owner io_name = b.b_ios <- { io_name; owner; dir = Out } :: b.b_ios

  let finish b =
    let procs = Array.of_list (List.rev b.b_procs) in
    let chans = List.rev b.b_chans in
    let fp_names =
      (* the first of duplicate declarations, in declaration order *)
      let seen = Hashtbl.create (List.length b.b_fp) in
      List.filter
        (fun e ->
          let fresh = not (Hashtbl.mem seen e) in
          if fresh then Hashtbl.add seen e ();
          fresh)
        (List.rev b.b_fp)
    in
    let ios = List.rev b.b_ios in
    let errors = ref [] in
    let err e = errors := e :: !errors in
    if Array.length procs = 0 then err Empty_network;
    let proc_index = Hashtbl.create 16 in
    Array.iteri
      (fun i p ->
        let n = Process.name p in
        if Hashtbl.mem proc_index n then err (Duplicate_process n)
        else Hashtbl.add proc_index n i)
      procs;
    let known n = Hashtbl.mem proc_index n in
    let check_known n = if not (known n) then err (Unknown_process n) in
    (* channels *)
    let seen_ch = Hashtbl.create 16 in
    List.iter
      (fun c ->
        if Hashtbl.mem seen_ch c.ch_name then err (Duplicate_channel c.ch_name)
        else Hashtbl.add seen_ch c.ch_name ();
        check_known c.writer;
        check_known c.reader;
        if c.writer = c.reader then err (Self_channel c.ch_name))
      chans;
    (* priority edges *)
    List.iter
      (fun (hi, lo) ->
        check_known hi;
        check_known lo)
      fp_names;
    (* external channels *)
    let seen_io = Hashtbl.create 16 in
    List.iter
      (fun io ->
        if Hashtbl.mem seen_io io.io_name then err (Duplicate_io io.io_name)
        else Hashtbl.add seen_io io.io_name ();
        check_known io.owner)
      ios;
    if !errors <> [] then Error (List.rev !errors)
    else begin
      let n = Array.length procs in
      let fp_dag = Digraph.create n in
      let fp =
        List.map
          (fun (hi, lo) -> (Hashtbl.find proc_index hi, Hashtbl.find proc_index lo))
          fp_names
      in
      List.iter (fun (hi, lo) -> Digraph.add_edge fp_dag hi lo) fp;
      (* channel pairs must carry a direct priority edge *)
      List.iter
        (fun c ->
          let w = Hashtbl.find proc_index c.writer
          and r = Hashtbl.find proc_index c.reader in
          if not (Digraph.has_edge fp_dag w r || Digraph.has_edge fp_dag r w) then
            err
              (Missing_priority
                 { channel = c.ch_name; writer = c.writer; reader = c.reader }))
        chans;
      (match Digraph.topo_sort fp_dag with
      | None ->
        let cycle =
          match Digraph.find_cycle fp_dag with
          | Some vs -> List.map (fun v -> Process.name procs.(v)) vs
          | None -> []
        in
        err (Priority_cycle cycle);
        Error (List.rev !errors)
      | Some order ->
        if !errors <> [] then Error (List.rev !errors)
        else begin
          let rank = Array.make n 0 in
          List.iteri (fun i v -> rank.(v) <- i) order;
          Ok { net_name = b.b_name; procs; proc_index; chans; fp; fp_dag; rank; ios }
        end)
    end

  let finish_exn b =
    match finish b with
    | Ok net -> net
    | Error errs ->
      invalid_arg
        (Format.asprintf "Network.Builder.finish: %a"
           (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_error)
           errs)
end

let name t = t.net_name
let n_processes t = Array.length t.procs
let processes t = t.procs
let process t i = t.procs.(i)
let find t n = Hashtbl.find t.proc_index n
let channels t = t.chans
let inputs t = List.filter (fun io -> io.dir = In) t.ios
let outputs t = List.filter (fun io -> io.dir = Out) t.ios
let io_of t pname = List.filter (fun io -> io.owner = pname) t.ios
let fp_edges t = t.fp
let fp_graph t = Digraph.copy t.fp_dag

let related t p q = Digraph.has_edge t.fp_dag p q || Digraph.has_edge t.fp_dag q p
let higher_priority t p q = Digraph.has_edge t.fp_dag p q
let fp_rank t p = t.rank.(p)

let channels_between t p q =
  let np = Process.name t.procs.(p) and nq = Process.name t.procs.(q) in
  List.filter
    (fun c -> (c.writer = np && c.reader = nq) || (c.writer = nq && c.reader = np))
    t.chans

let in_channels_of t p =
  let np = Process.name t.procs.(p) in
  List.filter (fun c -> c.reader = np) t.chans

let out_channels_of t p =
  let np = Process.name t.procs.(p) in
  List.filter (fun c -> c.writer = np) t.chans

let hyperperiod t =
  Rat.lcm_list (Array.to_list (Array.map Process.period t.procs))

type user_error =
  | No_user of string
  | Ambiguous_user of string * string list
  | Sporadic_user of { sporadic : string; user : string }
  | User_period_too_large of { sporadic : string; user : string }

let pp_user_error ppf = function
  | No_user p -> Format.fprintf ppf "sporadic process %S has no channel to a user" p
  | Ambiguous_user (p, us) ->
    Format.fprintf ppf "sporadic process %S has several users: %s" p
      (String.concat ", " us)
  | Sporadic_user { sporadic; user } ->
    Format.fprintf ppf "user %S of sporadic %S is itself sporadic" user sporadic
  | User_period_too_large { sporadic; user } ->
    Format.fprintf ppf "user %S has a larger period than sporadic %S" user sporadic

let channel_partners n ~keep ends chans =
  let partners = Array.make n [] in
  let rec any p = p < n && (keep p || any (p + 1)) in
  if any 0 then begin
    List.iter
      (fun c ->
        let w, r = ends c in
        if keep w then partners.(w) <- r :: partners.(w);
        if keep r && r <> w then partners.(r) <- w :: partners.(r))
      chans;
    Array.map_inplace (List.sort_uniq Int.compare) partners
  end;
  partners

let user_map t =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let n = Array.length t.procs in
  let result = Array.make n None in
  let partners =
    channel_partners n
      ~keep:(fun p -> Process.is_sporadic t.procs.(p))
      (fun c -> (Hashtbl.find t.proc_index c.writer, Hashtbl.find t.proc_index c.reader))
      t.chans
  in
  for p = 0 to n - 1 do
    let proc = t.procs.(p) in
    if Process.is_sporadic proc then begin
      match partners.(p) with
      | [] -> err (No_user (Process.name proc))
      | [ u ] ->
        let uproc = t.procs.(u) in
        if Process.is_sporadic uproc then
          err
            (Sporadic_user
               { sporadic = Process.name proc; user = Process.name uproc })
        else if Rat.(Process.period uproc > Process.period proc) then
          err
            (User_period_too_large
               { sporadic = Process.name proc; user = Process.name uproc })
        else result.(p) <- Some u
      | us ->
        err
          (Ambiguous_user
             (Process.name proc, List.map (fun u -> Process.name t.procs.(u)) us))
    end
  done;
  if !errors = [] then Ok result else Error (List.rev !errors)

let to_dot t =
  let module Dot = Rt_util.Dot in
  let nodes =
    Array.to_list
      (Array.map
         (fun p ->
           let label =
             Format.asprintf "%s\n%a" (Process.name p) Event.pp (Process.event p)
           in
           let style = if Process.is_sporadic p then "dashed" else "" in
           Dot.node ~label ~shape:"box" ~style (Process.name p))
         t.procs)
  in
  let io_nodes =
    List.map
      (fun io -> Dot.node ~label:io.io_name ~shape:"ellipse" io.io_name)
      t.ios
  in
  let chan_edges =
    List.map
      (fun c ->
        Dot.edge
          ~label:(Printf.sprintf "%s (%s)" c.ch_name (Channel.kind_to_string c.ch_kind))
          c.writer c.reader)
      t.chans
  in
  let covered hi lo =
    List.exists
      (fun c ->
        (c.writer = hi && c.reader = lo) || (c.writer = lo && c.reader = hi))
      t.chans
  in
  let fp_only_edges =
    List.filter_map
      (fun (hi, lo) ->
        let nh = Process.name t.procs.(hi) and nl = Process.name t.procs.(lo) in
        if covered nh nl then None
        else Some (Dot.edge ~label:"priority" ~style:"dashed" nh nl))
      t.fp
  in
  let io_edges =
    List.map
      (fun io ->
        match io.dir with
        | In -> Dot.edge ~style:"bold" io.io_name io.owner
        | Out -> Dot.edge ~style:"bold" io.owner io.io_name)
      t.ios
  in
  Dot.render ~name:t.net_name (nodes @ io_nodes)
    (chan_edges @ fp_only_edges @ io_edges)
