module Rat = Rt_util.Rat
module Json = Rt_util.Json
module I = Interference
module D = Diagnostic

type t = {
  version : int;
  network : string;
  hyperperiod : string option;
  classes : int;
  shardable : bool;
  channels : I.channel_verdict list;
  hotspots : I.hotspot list;
}

let version = 1

let make (a : I.t) =
  {
    version;
    network = a.I.network;
    hyperperiod = Option.map Rat.to_string a.I.hyperperiod;
    classes = a.I.classes;
    shardable = I.shardable a;
    channels = a.I.channels;
    hotspots = a.I.hotspots;
  }

let of_model m = make (I.analyse m)

let of_network ?wcet net =
  let wcet = match wcet with Some f -> f | None -> fun _ -> None in
  of_model (Model.of_network ~wcet net)

let shardable t = t.shardable

let pair_subject x y =
  if String.compare x y <= 0 then Printf.sprintf "%s ./ %s" x y
  else Printf.sprintf "%s ./ %s" y x

let diagnostics t =
  let spf = Printf.sprintf in
  let of_channel (c : I.channel_verdict) =
    match c.I.cv_verdict with
    | I.Ordered _ -> None
    | I.Unordered off ->
      Some
        (D.make D.Unordered_channel_pair
           ~subject:(pair_subject c.I.cv_writer c.I.cv_reader)
           (spf
              "invocations %s#%d and %s#%d share channel %s but no precedence \
               path orders them"
              off.I.off_proc_a off.I.off_k_a off.I.off_proc_b off.I.off_k_b
              c.I.cv_channel))
    | I.Sporadic_hazard reason ->
      Some
        (D.make D.Sporadic_shard_hazard
           ~subject:("channel " ^ c.I.cv_channel)
           (spf "ordering of %s and %s cannot be certified statically: %s"
              c.I.cv_writer c.I.cv_reader reason))
  in
  let of_hotspot (h : I.hotspot) =
    D.make D.Partition_cut_hotspot
      ~subject:("channel " ^ h.I.hs_channel)
      (spf
         "accessors %s and %s carry utilization %s of %s total, beyond the \
          balanced-partition share; any balanced cut into >= 2 shards \
          separates them"
         h.I.hs_writer h.I.hs_reader
         (Rat.to_string h.I.hs_pair_utilization)
         (Rat.to_string h.I.hs_total_utilization))
  in
  List.filter_map of_channel t.channels @ List.map of_hotspot t.hotspots

(* The JSON schema below is pinned byte-for-byte by test_certify, so
   field order is load-bearing. *)

let to_json t =
  let open Json in
  let channel (c : I.channel_verdict) =
    let base =
      [
        ("channel", Str c.I.cv_channel);
        ("writer", Str c.I.cv_writer);
        ("reader", Str c.I.cv_reader);
      ]
    in
    Obj
      (base
      @
      match c.I.cv_verdict with
      | I.Ordered w ->
        [
          ("verdict", Str "ordered");
          ("witness", Arr (List.map (fun p -> Str p) w));
        ]
      | I.Unordered off ->
        [
          ("verdict", Str "unordered");
          ("proc_a", Str off.I.off_proc_a);
          ("k_a", Int off.I.off_k_a);
          ("proc_b", Str off.I.off_proc_b);
          ("k_b", Int off.I.off_k_b);
        ]
      | I.Sporadic_hazard reason ->
        [ ("verdict", Str "sporadic-hazard"); ("reason", Str reason) ])
  in
  let hotspot (h : I.hotspot) =
    Obj
      [
        ("channel", Str h.I.hs_channel);
        ("writer", Str h.I.hs_writer);
        ("reader", Str h.I.hs_reader);
        ("pair_utilization", Str (Rat.to_string h.I.hs_pair_utilization));
        ("total_utilization", Str (Rat.to_string h.I.hs_total_utilization));
      ]
  in
  to_string
    (Obj
       [
         ("version", Int t.version);
         ("network", Str t.network);
         ( "hyperperiod",
           match t.hyperperiod with None -> Null | Some h -> Str h );
         ("classes", Int t.classes);
         ("shardable", Bool t.shardable);
         ("channels", Arr (List.map channel t.channels));
         ("hotspots", Arr (List.map hotspot t.hotspots));
       ])

let of_json s =
  let ( let* ) r f = Result.bind r f in
  let field name conv ctx j =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "certificate %s: missing %s" ctx name)
  in
  let rec map_m f = function
    | [] -> Ok []
    | x :: rest ->
      let* y = f x in
      let* ys = map_m f rest in
      Ok (y :: ys)
  in
  match Json.parse_opt s with
  | None -> Error "certificate: not valid JSON"
  | Some j ->
    let* v = field "version" Json.as_int "header" j in
    if v <> version then
      Error (Printf.sprintf "certificate: unsupported version %d" v)
    else
      let* network = field "network" Json.as_string "header" j in
      let hyperperiod =
        match Json.member "hyperperiod" j with
        | Some (Json.Str h) -> Some h
        | _ -> None
      in
      let* classes = field "classes" Json.as_int "header" j in
      let* shardable = field "shardable" Json.as_bool "header" j in
      let* chan_list = field "channels" Json.as_list "header" j in
      let channel cj =
        let* cv_channel = field "channel" Json.as_string "channel" cj in
        let ctx = Printf.sprintf "channel %s" cv_channel in
        let* cv_writer = field "writer" Json.as_string ctx cj in
        let* cv_reader = field "reader" Json.as_string ctx cj in
        let* verdict = field "verdict" Json.as_string ctx cj in
        let* cv_verdict =
          match verdict with
          | "ordered" ->
            let* w = field "witness" Json.as_list ctx cj in
            let* w =
              map_m
                (fun x ->
                  match Json.as_string x with
                  | Some s -> Ok s
                  | None ->
                    Error
                      (Printf.sprintf "certificate %s: non-string witness" ctx))
                w
            in
            Ok (I.Ordered w)
          | "unordered" ->
            let* off_proc_a = field "proc_a" Json.as_string ctx cj in
            let* off_k_a = field "k_a" Json.as_int ctx cj in
            let* off_proc_b = field "proc_b" Json.as_string ctx cj in
            let* off_k_b = field "k_b" Json.as_int ctx cj in
            Ok (I.Unordered { I.off_proc_a; off_k_a; off_proc_b; off_k_b })
          | "sporadic-hazard" ->
            let* reason = field "reason" Json.as_string ctx cj in
            Ok (I.Sporadic_hazard reason)
          | v ->
            Error (Printf.sprintf "certificate %s: unknown verdict %S" ctx v)
        in
        Ok { I.cv_channel; cv_writer; cv_reader; cv_verdict }
      in
      let* channels = map_m channel chan_list in
      let* hot_list = field "hotspots" Json.as_list "header" j in
      let hotspot hj =
        let* hs_channel = field "channel" Json.as_string "hotspot" hj in
        let ctx = Printf.sprintf "hotspot %s" hs_channel in
        let* hs_writer = field "writer" Json.as_string ctx hj in
        let* hs_reader = field "reader" Json.as_string ctx hj in
        let* pair = field "pair_utilization" Json.as_string ctx hj in
        let* total = field "total_utilization" Json.as_string ctx hj in
        match (Rat.of_string pair, Rat.of_string total) with
        | p, t ->
          Ok
            {
              I.hs_channel;
              hs_writer;
              hs_reader;
              hs_pair_utilization = p;
              hs_total_utilization = t;
            }
        | exception _ ->
          Error (Printf.sprintf "certificate %s: bad utilization" ctx)
      in
      let* hotspots = map_m hotspot hot_list in
      Ok { version = v; network; hyperperiod; classes; shardable; channels; hotspots }

let validate t (m : Model.t) =
  (* independent structural checks on the stated witnesses, then full
     agreement with a fresh analysis *)
  let witness_err =
    List.find_map
      (fun (c : I.channel_verdict) ->
        match c.I.cv_verdict with
        | I.Ordered (first :: _ as w) ->
          let last = List.nth w (List.length w - 1) in
          if first <> c.I.cv_writer || last <> c.I.cv_reader then
            Some
              (Printf.sprintf
                 "channel %s: witness endpoints %s..%s do not match accessors \
                  %s -> %s"
                 c.I.cv_channel first last c.I.cv_writer c.I.cv_reader)
          else None
        | _ -> None)
      t.channels
  in
  match witness_err with
  | Some e -> Error e
  | None ->
    let fresh = of_model m in
    if t.shardable <> fresh.shardable then
      Error
        (Printf.sprintf "shardable bit disagrees: stated %b, computed %b"
           t.shardable fresh.shardable)
    else if t.channels <> fresh.channels then
      Error "per-channel verdicts disagree with a fresh analysis"
    else if t <> fresh then Error "certificate metadata disagrees"
    else Ok ()

let pp ppf t =
  Format.fprintf ppf "certificate %s: %s, %d classes%a@." t.network
    (if t.shardable then "shardable" else "NOT shardable")
    t.classes
    (fun ppf -> function
      | Some h -> Format.fprintf ppf ", hyperperiod %s" h
      | None -> ())
    t.hyperperiod;
  List.iter
    (fun (c : I.channel_verdict) ->
      match c.I.cv_verdict with
      | I.Ordered w ->
        Format.fprintf ppf "  channel %s (%s -> %s): ordered%s@." c.I.cv_channel
          c.I.cv_writer c.I.cv_reader
          (match w with [] | [ _ ] -> "" | w -> " via " ^ String.concat " -> " w)
      | I.Unordered off ->
        Format.fprintf ppf
          "  channel %s (%s -> %s): UNORDERED at %s#%d vs %s#%d@."
          c.I.cv_channel c.I.cv_writer c.I.cv_reader off.I.off_proc_a
          off.I.off_k_a off.I.off_proc_b off.I.off_k_b
      | I.Sporadic_hazard reason ->
        Format.fprintf ppf "  channel %s (%s -> %s): hazard (%s)@."
          c.I.cv_channel c.I.cv_writer c.I.cv_reader reason)
    t.channels;
  List.iter
    (fun (h : I.hotspot) ->
      Format.fprintf ppf "  hotspot %s: %s + %s carry %s of %s@." h.I.hs_channel
        h.I.hs_writer h.I.hs_reader
        (Rat.to_string h.I.hs_pair_utilization)
        (Rat.to_string h.I.hs_total_utilization))
    t.hotspots
