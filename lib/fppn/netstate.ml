type input_feed = string -> int -> Value.t

let no_inputs _ _ = Value.Absent

(* compile each feed list to an array once; looking up sample [k] is
   then O(1) instead of an O(k) [List.nth] per access *)
let feed_of_list feeds =
  let compiled =
    List.map (fun (c, samples) -> (c, Array.of_list samples)) feeds
  in
  fun channel k ->
    match List.assoc_opt channel compiled with
    | None -> Value.Absent
    | Some samples ->
      if k >= 1 && k <= Array.length samples then samples.(k - 1)
      else Value.Absent

type route =
  | Internal of Channel.t
  | Ext_input
  | Ext_output of Channel.t

(* A process touches a handful of channels, so per-process parallel
   name/route arrays resolved once at [create] beat hashing a
   (proc, name) pair on every access: routing in [run_job] becomes a
   short scan over strings that usually differ in the first character. *)
type t = {
  net : Network.t;
  instances : Instance.t array;
  chan_states : (string * Channel.t) list; (* internal, sorted by name *)
  out_states : (string * Channel.t) list; (* external outputs, sorted *)
  read_names : string array array; (* per process *)
  read_targets : route array array;
  write_names : string array array;
  write_targets : route array array;
  (* the zero-allocation job path: one prepared context per process,
     whose closures route against [cur_inputs] instead of taking a feed
     and a recorder per call.  Two variants exist: one bumps
     [access_count] per channel access (needed only when the platform
     charges a per-access overhead), the other doesn't pay the store.
     [fast] aliases whichever {!set_access_counting} selected; the
     counting variant is built on its first selection ([[||]] until
     then), as most platforms never charge per access. *)
  mutable fast : Instance.prepared array;
  mutable fast_count : Instance.prepared array;
  mutable fast_plain : Instance.prepared array;
  mutable cur_inputs : input_feed;
  mutable access_count : int;
}

let make_state net =
  let instances =
    Array.map Instance.create (Network.processes net)
  in
  let chan_states =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map
         (fun c ->
           ( c.Network.ch_name,
             Channel.create ?init:c.Network.init c.Network.ch_kind ))
         (Network.channels net))
  in
  let out_states =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map
         (fun io -> (io.Network.io_name, Channel.create Channel.Fifo))
         (Network.outputs net))
  in
  (* name -> state, so wiring is linear in the channel count; names
     are unique per kind (the network builder rejects duplicates) *)
  let table states =
    let h = Hashtbl.create (List.length states) in
    List.iter (fun (name, st) -> Hashtbl.replace h name st) states;
    Hashtbl.find h
  in
  let chan_state = table chan_states and out_state = table out_states in
  let n = Network.n_processes net in
  let reads = Array.make n [] and writes = Array.make n [] in
  List.iter
    (fun c ->
      let state = chan_state c.Network.ch_name in
      let r = Network.find net c.Network.reader
      and w = Network.find net c.Network.writer in
      reads.(r) <- (c.Network.ch_name, Internal state) :: reads.(r);
      writes.(w) <- (c.Network.ch_name, Internal state) :: writes.(w))
    (Network.channels net);
  List.iter
    (fun io ->
      let owner = Network.find net io.Network.owner in
      match io.Network.dir with
      | Network.In ->
        reads.(owner) <- (io.Network.io_name, Ext_input) :: reads.(owner)
      | Network.Out ->
        let state = out_state io.Network.io_name in
        writes.(owner) <-
          (io.Network.io_name, Ext_output state) :: writes.(owner))
    (Network.inputs net @ Network.outputs net);
  let names table = Array.map (fun l -> Array.of_list (List.map fst l)) table in
  let targets table =
    Array.map (fun l -> Array.of_list (List.map snd l)) table
  in
  {
    net;
    instances;
    chan_states;
    out_states;
    read_names = names reads;
    read_targets = targets reads;
    write_names = names writes;
    write_targets = targets writes;
    fast = [||];
    fast_count = [||];
    fast_plain = [||];
    cur_inputs = no_inputs;
    access_count = 0;
  }

(* top-level tail recursion: the fast-path closures call this on every
   channel access, so it must allocate nothing — no inner closure, no
   option; [-1] = not found *)
let rec route_scan names c i n =
  if i >= n then -1
  else if String.equal (Array.unsafe_get names i) c then i
  else route_scan names c (i + 1) n

(* Call-site cache scan: process bodies name channels with string
   literals, so the very same string *object* recurs at each call site.
   A physical-equality probe over the few objects seen so far resolves
   the route without touching the string bytes; [-1] = not cached. *)
let rec cache_scan cache_names cache_idx c i n =
  if i >= n then -1
  else if Array.unsafe_get cache_names i == c then Array.unsafe_get cache_idx i
  else cache_scan cache_names cache_idx c (i + 1) n

let find_route names targets c =
  let i = route_scan names c 0 (Array.length names) in
  if i < 0 then None else Some targets.(i)

let prepare_variant t ~counting p =
  let inst = t.instances.(p) in
  let pname = Process.name (Instance.process inst) in
  let unknown dir c =
    invalid_arg
      (Printf.sprintf "process %s: %s to unattached channel %S" pname dir c)
  in
  let rnames = t.read_names.(p) and rtargets = t.read_targets.(p) in
  let wnames = t.write_names.(p) and wtargets = t.write_targets.(p) in
  (* per-direction call-site caches (see [cache_scan]); capped so
     dynamically-built names degrade to [route_scan], never grow.
     Slot 0/1 probes are hand-inlined in the closures below: almost
     every process touches at most two channels per direction, so the
     common access resolves in one or two pointer compares without a
     single out-of-line call.  The [""] filler can never alias a
     caller's string, so unused slots never match. *)
  let rc_names = Array.make 8 "" and rc_idx = Array.make 8 0 in
  let rc_n = ref 0 in
  let wc_names = Array.make 8 "" and wc_idx = Array.make 8 0 in
  let wc_n = ref 0 in
  let resolve names cn ci cnt c =
    let i = cache_scan cn ci c 2 !cnt in
    if i >= 0 then i
    else begin
      let i = route_scan names c 0 (Array.length names) in
      (if i >= 0 && !cnt < Array.length cn then begin
         Array.unsafe_set cn !cnt c;
         Array.unsafe_set ci !cnt i;
         incr cnt
       end);
      i
    end
  in
  let do_read c i =
    if i < 0 then unknown "read" c
    else
      match Array.unsafe_get rtargets i with
      | Internal state -> Channel.read state
      | Ext_input -> t.cur_inputs c (Instance.job_count inst + 1)
      | Ext_output _ -> unknown "read" c
  in
  let do_write c v i =
    if i < 0 then unknown "write" c
    else
      match Array.unsafe_get wtargets i with
      | Internal state | Ext_output state -> Channel.write state v
      | Ext_input -> unknown "write" c
  in
  let read c =
    if Array.unsafe_get rc_names 0 == c then
      match Array.unsafe_get rtargets (Array.unsafe_get rc_idx 0) with
      | Internal state -> Channel.read state
      | Ext_input -> t.cur_inputs c (Instance.job_count inst + 1)
      | Ext_output _ -> unknown "read" c
    else if Array.unsafe_get rc_names 1 == c then
      match Array.unsafe_get rtargets (Array.unsafe_get rc_idx 1) with
      | Internal state -> Channel.read state
      | Ext_input -> t.cur_inputs c (Instance.job_count inst + 1)
      | Ext_output _ -> unknown "read" c
    else do_read c (resolve rnames rc_names rc_idx rc_n c)
  in
  let write c v =
    if Array.unsafe_get wc_names 0 == c then
      match Array.unsafe_get wtargets (Array.unsafe_get wc_idx 0) with
      | Internal state | Ext_output state -> Channel.write state v
      | Ext_input -> unknown "write" c
    else if Array.unsafe_get wc_names 1 == c then
      match Array.unsafe_get wtargets (Array.unsafe_get wc_idx 1) with
      | Internal state | Ext_output state -> Channel.write state v
      | Ext_input -> unknown "write" c
    else do_write c v (resolve wnames wc_names wc_idx wc_n c)
  in
  (* the counting variant, cold unless the platform prices accesses,
     bumps the counter around the plain router *)
  if counting then
    Instance.prepare inst
      ~read:(fun c ->
        t.access_count <- t.access_count + 1;
        read c)
      ~write:(fun c v ->
        t.access_count <- t.access_count + 1;
        write c v)
  else Instance.prepare inst ~read ~write

let prepare_all t ~counting =
  Array.init (Array.length t.instances) (prepare_variant t ~counting)

let create net =
  let t = make_state net in
  t.fast_plain <- prepare_all t ~counting:false;
  t.fast <- t.fast_plain;
  t

let set_inputs t inputs = t.cur_inputs <- inputs

let set_access_counting t b =
  if b && Array.length t.fast_count <> Array.length t.instances then
    t.fast_count <- prepare_all t ~counting:true;
  t.fast <- (if b then t.fast_count else t.fast_plain)

let access_count t = t.access_count

let run_job_fast t ~proc ~now =
  Instance.run_prepared t.instances.(proc) t.fast.(proc) ~now

(* the replay inner loop of the tick engine: job [i] runs process
   [procs.(i)] at instant [nows.(now_idx.(i))].  Hosting the loop here
   keeps the per-job work to two unchecked loads and one call — the
   callers guarantee indices in range ([procs]/[now_idx] come from the
   captured template, [now_idx] indexes [nows]). *)
let run_jobs_fast t ~procs ~now_idx ~nows ~count =
  let instances = t.instances and fast = t.fast in
  for i = 0 to count - 1 do
    let p = Array.unsafe_get procs i in
    Instance.run_prepared
      (Array.unsafe_get instances p)
      (Array.unsafe_get fast p)
      ~now:(Array.unsafe_get nows (Array.unsafe_get now_idx i))
  done

let network t = t.net
let instance t i = t.instances.(i)

(* [recorder] stays optional all the way down so the unrecorded path
   never even allocates the [Trace.action] values — each construction is
   guarded by the option match, which matters in simulation hot loops *)
let run_job ?recorder ?(inputs = no_inputs) t ~proc ~now =
  let inst = t.instances.(proc) in
  let pname = Process.name (Instance.process inst) in
  let k = Instance.job_count inst + 1 in
  let unknown dir c =
    invalid_arg
      (Printf.sprintf "process %s: %s to unattached channel %S" pname dir c)
  in
  let read c =
    let v =
      match find_route t.read_names.(proc) t.read_targets.(proc) c with
      | Some (Internal state) -> Channel.read state
      | Some Ext_input -> inputs c k
      | Some (Ext_output _) | None -> unknown "read" c
    in
    (match recorder with
    | Some r -> r (Trace.Read { process = pname; k; channel = c; value = v })
    | None -> ());
    v
  in
  let write c v =
    (match find_route t.write_names.(proc) t.write_targets.(proc) c with
    | Some (Internal state) | Some (Ext_output state) -> Channel.write state v
    | Some Ext_input | None -> unknown "write" c);
    match recorder with
    | Some r -> r (Trace.Write { process = pname; k; channel = c; value = v })
    | None -> ()
  in
  (match recorder with
  | Some r -> r (Trace.Job_start { process = pname; k })
  | None -> ());
  Instance.run_job inst ~now ~read ~write;
  match recorder with
  | Some r -> r (Trace.Job_end { process = pname; k })
  | None -> ()

let run_job_deferred ?(recorder = fun _ -> ()) ?(inputs = no_inputs) t ~proc ~now =
  let inst = t.instances.(proc) in
  let pname = Process.name (Instance.process inst) in
  let k = Instance.job_count inst + 1 in
  let unknown dir c =
    invalid_arg
      (Printf.sprintf "process %s: %s to unattached channel %S" pname dir c)
  in
  let read c =
    let v =
      match find_route t.read_names.(proc) t.read_targets.(proc) c with
      | Some (Internal state) -> Channel.read state
      | Some Ext_input -> inputs c k
      | Some (Ext_output _) | None -> unknown "read" c
    in
    recorder (Trace.Read { process = pname; k; channel = c; value = v });
    v
  in
  let buffered = ref [] in
  let write c v =
    (match find_route t.write_names.(proc) t.write_targets.(proc) c with
    | Some (Internal state) | Some (Ext_output state) ->
      buffered := (state, c, v) :: !buffered
    | Some Ext_input | None -> unknown "write" c);
    recorder (Trace.Write { process = pname; k; channel = c; value = v })
  in
  recorder (Trace.Job_start { process = pname; k });
  Instance.run_job inst ~now ~read ~write;
  let to_flush = List.rev !buffered in
  fun () ->
    List.iter (fun (state, _, v) -> Channel.write state v) to_flush;
    recorder (Trace.Job_end { process = pname; k })

let histories states = List.map (fun (n, st) -> (n, Channel.history st)) states
let channel_history t = histories t.chan_states
let output_history t = histories t.out_states

(* O(#channels) capture decoupled from the state's lifetime: the engine
   snapshots at run end, so the state can be reset and reused for the
   next run while earlier results still materialize their histories *)
let snapshots states = List.map (fun (n, st) -> (n, Channel.snapshot st)) states
let channel_snapshot t = snapshots t.chan_states
let output_snapshot t = snapshots t.out_states

let channel_state t name =
  match List.assoc_opt name t.chan_states with
  | Some st -> st
  | None -> (
    match List.assoc_opt name t.out_states with
    | Some st -> st
    | None -> raise Not_found)

let reset t =
  Array.iter Instance.reset t.instances;
  List.iter (fun (_, st) -> Channel.reset st) t.chan_states;
  List.iter (fun (_, st) -> Channel.reset st) t.out_states;
  t.cur_inputs <- no_inputs;
  t.access_count <- 0
