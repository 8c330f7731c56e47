module Rat = Rt_util.Rat
module Digraph = Rt_util.Digraph
module Derive = Taskgraph.Derive

type offending = {
  off_proc_a : string;
  off_k_a : int;
  off_proc_b : string;
  off_k_b : int;
}

type verdict =
  | Ordered of string list
  | Unordered of offending
  | Sporadic_hazard of string

type channel_verdict = {
  cv_channel : string;
  cv_writer : string;
  cv_reader : string;
  cv_verdict : verdict;
}

type hotspot = {
  hs_channel : string;
  hs_writer : string;
  hs_reader : string;
  hs_pair_utilization : Rat.t;
  hs_total_utilization : Rat.t;
}

type t = {
  network : string;
  hyperperiod : Rat.t option;
  classes : int;
  channels : channel_verdict list;
  hotspots : hotspot list;
}

let max_sweep_classes = 1 lsl 20

let shardable t =
  List.for_all
    (fun c -> match c.cv_verdict with Ordered _ -> true | _ -> false)
    t.channels

let analyse (m : Model.t) =
  let procs = Array.of_list m.Model.m_procs in
  let n = Array.length procs in
  let index = Hashtbl.create 16 in
  Array.iteri
    (fun i (p : Model.proc) ->
      if not (Hashtbl.mem index p.Model.p_name) then
        Hashtbl.add index p.Model.p_name i)
    procs;
  let name i = procs.(i).Model.p_name in
  let resolve s = Hashtbl.find_opt index s in
  let valid =
    List.filter_map
      (fun (c : Model.chan) ->
        match (resolve c.Model.c_writer, resolve c.Model.c_reader) with
        | Some w, Some r -> Some (c, w, r)
        | _ -> None)
      m.Model.m_chans
  in
  (* The fold mirrors Derive.derive exactly: it is valid only when every
     generator is positive and every sporadic process has the unique
     periodic user the server transformation needs (Network.user_map). *)
  let fold_error = ref None in
  let fail reason = if !fold_error = None then fold_error := Some reason in
  Array.iter
    (fun (p : Model.proc) ->
      if p.Model.p_burst <= 0 || Rat.sign p.Model.p_period <= 0 then
        fail
          (Printf.sprintf "process %s has a non-positive period or burst"
             p.Model.p_name)
      else if p.Model.p_sporadic && Rat.sign p.Model.p_deadline <= 0 then
        fail
          (Printf.sprintf "sporadic process %s has a non-positive deadline"
             p.Model.p_name))
    procs;
  let users = Array.make (max n 1) None in
  for p = 0 to n - 1 do
    let proc = procs.(p) in
    if proc.Model.p_sporadic then begin
      let partners =
        List.sort_uniq Int.compare
          (List.concat_map
             (fun (_, w, r) ->
               if w = p then [ r ] else if r = p then [ w ] else [])
             valid)
      in
      match partners with
      | [ u ]
        when (not procs.(u).Model.p_sporadic)
             && Rat.(procs.(u).Model.p_period <= proc.Model.p_period) ->
        users.(p) <- Some u
      | _ ->
        fail
          (Printf.sprintf
             "sporadic process %s has no foldable periodic user (Sec. III-A)"
             proc.Model.p_name)
    end
  done;
  (* FP' exactly as the derivation builds it: declared edges minus
     sporadic<->user pairs, plus the server-over-user edges. *)
  let fp' = Digraph.create (max n 1) in
  List.iter
    (fun (hi_name, lo_name, _) ->
      match (resolve hi_name, resolve lo_name) with
      | Some hi, Some lo when hi <> lo ->
        let dropped =
          (match users.(hi) with Some u -> u = lo | None -> false)
          || match users.(lo) with Some u -> u = hi | None -> false
        in
        if not dropped then Digraph.add_edge fp' hi lo
      | _ -> ())
    m.Model.m_fp;
  Array.iteri
    (fun s u -> match u with Some u -> Digraph.add_edge fp' s u | None -> ())
    users;
  let rank = Array.make (max n 1) 0 in
  (match Digraph.topo_sort fp' with
  | Some order -> List.iteri (fun i v -> rank.(v) <- i) order
  | None -> fail "transformed functional-priority relation has a cycle");
  let period' = Array.make (max n 1) Rat.one in
  (try
     for p = 0 to n - 1 do
       period'.(p) <-
         (match users.(p) with
         | Some u ->
           Derive.server_period ~user_period:procs.(u).Model.p_period
             ~deadline:procs.(p).Model.p_deadline
         | None -> procs.(p).Model.p_period)
     done
   with Rat.Overflow | Invalid_argument _ ->
     fail "server-period arithmetic overflow");
  let hyperperiod, counts =
    match !fold_error with
    | Some _ -> (None, [||])
    | None when n = 0 -> (None, [||])
    | None -> (
      try
        let h =
          Rat.lcm_list (List.init n (fun p -> period'.(p)))
        in
        let counts =
          Array.init n (fun p ->
              procs.(p).Model.p_burst * Rat.to_int_exn (Rat.div h period'.(p)))
        in
        (Some h, counts)
      with Rat.Overflow | Invalid_argument _ ->
        fail "hyperperiod arithmetic overflow";
        (None, [||]))
  in
  let classes_total = Array.fold_left ( + ) 0 counts in
  let rel =
    Array.init (max n 1) (fun p ->
        if p >= n then []
        else
          List.sort_uniq Int.compare (Digraph.succs fp' p @ Digraph.preds fp' p))
  in
  (* The (process, phase) classes over one hyperperiod, in the total
     invocation order <J = (arrival, transformed priority rank, k) —
     exactly the derived job sequence, built without the O(J^2) graph. *)
  let classes_arr =
    lazy
      (let cls = ref [] in
       for p = n - 1 downto 0 do
         let burst = procs.(p).Model.p_burst in
         for k = counts.(p) downto 1 do
           let arrival = Rat.mul period'.(p) (Rat.of_int ((k - 1) / burst)) in
           cls := (arrival, p, k) :: !cls
         done
       done;
       let arr = Array.of_list !cls in
       Array.stable_sort
         (fun (a1, p1, k1) (a2, p2, k2) ->
           let c = Rat.compare a1 a2 in
           if c <> 0 then c
           else
             let c = Int.compare rank.(p1) rank.(p2) in
             if c <> 0 then c else Int.compare k1 k2)
         arr;
       arr)
  in
  (* One monotone pass deciding "every src job preceding a dst job
     reaches it".  mark.(q) is the greatest src-class ordinal reachable
     from some already-seen class of q; a dst class is covered iff its
     best mark equals the ordinal of the latest src class seen, because
     earlier src classes reach later ones through their own process
     chain.  wit.(q) is the witness process chain, head = q. *)
  let sweep_dir seq src dst =
    let mark = Array.make n (-1) in
    let wit = Array.make n [] in
    let latest = ref (-1) and latest_k = ref 0 in
    let xcount = ref 0 in
    let final_wit = ref [] in
    let result = ref None in
    let len = Array.length seq in
    let i = ref 0 in
    while !result = None && !i < len do
      let _, p, k = seq.(!i) in
      let l = ref mark.(p) and lw = ref wit.(p) in
      List.iter
        (fun q ->
          if mark.(q) > !l then begin
            l := mark.(q);
            lw := wit.(q)
          end)
        rel.(p);
      if p = src && !xcount > !l then begin
        l := !xcount;
        lw := [ src ]
      end;
      if p = dst && !latest >= 0 then begin
        if !l < !latest then
          result :=
            Some
              (Error
                 {
                   off_proc_a = name src;
                   off_k_a = !latest_k;
                   off_proc_b = name dst;
                   off_k_b = k;
                 })
        else
          final_wit := (match !lw with h :: _ when h = dst -> !lw | w -> dst :: w)
      end;
      if !l > mark.(p) then begin
        mark.(p) <- !l;
        wit.(p) <- (match !lw with h :: _ when h = p -> !lw | w -> p :: w)
      end;
      if p = src then begin
        latest := !xcount;
        latest_k := k;
        incr xcount
      end;
      incr i
    done;
    match !result with
    | Some r -> r
    | None -> Ok (List.rev_map name !final_wit)
  in
  let pair_memo = Hashtbl.create 16 in
  let decide w r =
    match Hashtbl.find_opt pair_memo (w, r) with
    | Some v -> v
    | None ->
      let v =
        match !fold_error with
        | Some reason -> Sporadic_hazard reason
        | None ->
          if classes_total > max_sweep_classes then
            Sporadic_hazard
              (Printf.sprintf
                 "quotient has %d classes, beyond the %d-class sweep budget"
                 classes_total max_sweep_classes)
          else begin
            let seq = Lazy.force classes_arr in
            match sweep_dir seq w r with
            | Error off -> Unordered off
            | Ok wit_wr -> (
              match sweep_dir seq r w with
              | Error off -> Unordered off
              | Ok wit_rw ->
                Ordered (if wit_wr <> [] then wit_wr else List.rev wit_rw))
          end
      in
      Hashtbl.add pair_memo (w, r) v;
      v
  in
  let channels =
    List.map
      (fun (c : Model.chan) ->
        let v =
          match (resolve c.Model.c_writer, resolve c.Model.c_reader) with
          | None, _ | _, None ->
            Sporadic_hazard "channel endpoint is not a declared process"
          | Some w, Some r ->
            if w = r then Ordered [ name w ]
            else if Digraph.has_edge fp' w r || Digraph.has_edge fp' r w then
              (* direct FP relation: every job pair lies on a <J chain *)
              Ordered [ name w; name r ]
            else decide w r
        in
        {
          cv_channel = c.Model.c_name;
          cv_writer = c.Model.c_writer;
          cv_reader = c.Model.c_reader;
          cv_verdict = v;
        })
      m.Model.m_chans
  in
  let hotspots =
    try
      if n < 2 then []
      else begin
        let utils =
          Array.map
            (fun (p : Model.proc) ->
              match p.Model.p_wcet with
              | Some c when Rat.sign p.Model.p_period > 0 ->
                Some (Rat.div (Rat.mul (Rat.of_int p.Model.p_burst) c) p.Model.p_period)
              | _ -> None)
            procs
        in
        if Array.exists (fun u -> u = None) utils then []
        else begin
          let util p = match utils.(p) with Some u -> u | None -> Rat.zero in
          let total =
            Array.fold_left
              (fun acc u -> match u with Some u -> Rat.add acc u | None -> acc)
              Rat.zero utils
          in
          if Rat.sign total <= 0 then []
          else
            List.filter_map
              (fun ((c : Model.chan), w, r) ->
                if w = r then None
                else
                  let pair = Rat.add (util w) (util r) in
                  (* pair > 1.1 * total / 2, the balance cap *)
                  if
                    Rat.compare
                      (Rat.mul pair (Rat.of_int 20))
                      (Rat.mul total (Rat.of_int 11))
                    > 0
                  then
                    Some
                      {
                        hs_channel = c.Model.c_name;
                        hs_writer = c.Model.c_writer;
                        hs_reader = c.Model.c_reader;
                        hs_pair_utilization = pair;
                        hs_total_utilization = total;
                      }
                  else None)
              valid
        end
      end
    with Rat.Overflow -> []
  in
  {
    network = m.Model.m_name;
    hyperperiod;
    classes = classes_total;
    channels;
    hotspots;
  }
