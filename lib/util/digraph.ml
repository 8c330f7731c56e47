type t = {
  n : int;
  succ : int list array; (* reversed insertion order; normalized on read *)
  pred : int list array;
  edge_set : (int * int, unit) Hashtbl.t;
  mutable m : int;
}

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  { n; succ = Array.make n []; pred = Array.make n []; edge_set = Hashtbl.create 64; m = 0 }

let n_nodes t = t.n
let n_edges t = t.m

let check t v =
  if v < 0 || v >= t.n then
    invalid_arg (Printf.sprintf "Digraph: node %d out of [0,%d)" v t.n)

let has_edge t u v =
  check t u;
  check t v;
  Hashtbl.mem t.edge_set (u, v)

let add_edge t u v =
  if not (has_edge t u v) then begin
    Hashtbl.replace t.edge_set (u, v) ();
    t.succ.(u) <- v :: t.succ.(u);
    t.pred.(v) <- u :: t.pred.(v);
    t.m <- t.m + 1
  end

let remove_edge t u v =
  if has_edge t u v then begin
    Hashtbl.remove t.edge_set (u, v);
    t.succ.(u) <- List.filter (fun w -> w <> v) t.succ.(u);
    t.pred.(v) <- List.filter (fun w -> w <> u) t.pred.(v);
    t.m <- t.m - 1
  end

let succs t v =
  check t v;
  List.rev t.succ.(v)

let preds t v =
  check t v;
  List.rev t.pred.(v)

let topo_sort t =
  let indeg = Array.init t.n (fun v -> List.length t.pred.(v)) in
  (* min-heap on node index for a deterministic order *)
  let ready = Iheap.create ~capacity:t.n () in
  Array.iteri (fun v d -> if d = 0 then Iheap.push ready ~key:v ~pay:v) indeg;
  let rec loop acc count =
    if Iheap.is_empty ready then
      if count = t.n then Some (List.rev acc) else None
    else begin
      let v = Iheap.top_pay ready in
      Iheap.drop ready;
      List.iter
        (fun w ->
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then Iheap.push ready ~key:w ~pay:w)
        t.succ.(v);
      loop (v :: acc) (count + 1)
    end
  in
  loop [] 0

let is_acyclic t = topo_sort t <> None

let find_cycle t =
  (* iterative DFS with colors; returns the cycle found on a back edge *)
  let white = 0 and gray = 1 and black = 2 in
  let color = Array.make t.n white in
  let parent = Array.make t.n (-1) in
  let result = ref None in
  let rec dfs v =
    color.(v) <- gray;
    List.iter
      (fun w ->
        if !result = None then
          if color.(w) = white then begin
            parent.(w) <- v;
            dfs w
          end
          else if color.(w) = gray then begin
            (* back edge v -> w: walk parents from v up to w *)
            let rec collect u acc = if u = w then u :: acc else collect parent.(u) (u :: acc) in
            result := Some (collect v [])
          end)
      (List.rev t.succ.(v));
    color.(v) <- black
  in
  let v = ref 0 in
  while !result = None && !v < t.n do
    if color.(!v) = white then dfs !v;
    incr v
  done;
  !result

let reachable_from t src =
  check t src;
  let seen = Bitset.create t.n in
  let stack = ref t.succ.(src) in
  let rec loop () =
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      if not (Bitset.mem seen v) then begin
        Bitset.add seen v;
        stack := t.succ.(v) @ !stack
      end;
      loop ()
  in
  loop ();
  seen

let transitive_closure t =
  match topo_sort t with
  | None -> invalid_arg "Digraph.transitive_closure: graph is cyclic"
  | Some order ->
    let closure = Array.init t.n (fun _ -> Bitset.create t.n) in
    (* reverse topological order: successors are finished first *)
    List.iter
      (fun v ->
        List.iter
          (fun w ->
            Bitset.add closure.(v) w;
            Bitset.union_into closure.(v) closure.(w))
          t.succ.(v))
      (List.rev order);
    closure

let path_exists t u v = Bitset.mem (reachable_from t u) v
