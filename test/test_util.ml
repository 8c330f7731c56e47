module Iheap = Rt_util.Iheap
module Bitset = Rt_util.Bitset
module Digraph = Rt_util.Digraph
module Prng = Rt_util.Prng
module Mpsc_ring = Rt_util.Mpsc_ring
module Json = Rt_util.Json
module Table = Rt_util.Table
module Gantt = Rt_util.Gantt
module Dot = Rt_util.Dot

let qprop name ?(count = 300) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- Pqueue ---------------------------------------------------------- *)

let test_pqueue_basic () =
  let q = Pqueue.create ~cmp:Int.compare in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  List.iter (Pqueue.push q) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "length" 5 (Pqueue.length q);
  Alcotest.(check (option int)) "peek min" (Some 1) (Pqueue.peek q);
  Alcotest.(check (list int)) "drain sorted" [ 1; 1; 3; 4; 5 ] (Pqueue.drain q);
  Alcotest.(check bool) "empty after drain" true (Pqueue.is_empty q);
  Alcotest.check_raises "pop_exn on empty"
    (Invalid_argument "Pqueue.pop_exn: empty queue") (fun () ->
      ignore (Pqueue.pop_exn q))

let prop_pqueue_sorts =
  qprop "pqueue drains in sorted order"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range (-1000) 1000))
    (fun l ->
      let q = Pqueue.of_list ~cmp:Int.compare l in
      Pqueue.drain q = List.sort Int.compare l)

let prop_pqueue_interleaved =
  qprop "pqueue interleaved push/pop preserves heap property"
    QCheck2.Gen.(list_size (int_range 1 100) (int_range 0 100))
    (fun ops ->
      let q = Pqueue.create ~cmp:Int.compare in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun x ->
          if x mod 3 = 0 && not (Pqueue.is_empty q) then begin
            let top = Pqueue.pop_exn q in
            let expected = List.fold_left min (List.hd !model) !model in
            if top <> expected then ok := false;
            model :=
              (let removed = ref false in
               List.filter (fun y ->
                   if (not !removed) && y = expected then begin
                     removed := true;
                     false
                   end
                   else true) !model)
          end
          else begin
            Pqueue.push q x;
            model := x :: !model
          end)
        ops;
      !ok)

let prop_pqueue_stable =
  (* Equal keys must drain in insertion order: push (key, stamp) pairs
     ordered only on key; within a key the stamps are an increasing run. *)
  qprop "pqueue stable under duplicate keys"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 5))
    (fun keys ->
      let cmp (a, _) (b, _) = Int.compare a b in
      let q = Pqueue.create ~cmp in
      List.iteri (fun i k -> Pqueue.push q (k, i)) keys;
      let drained = Pqueue.drain q in
      (* same multiset, keys nondecreasing, stamps increasing within a key *)
      let rec ordered = function
        | (k, i) :: ((k', i') :: _ as rest) ->
          k <= k' && (k <> k' || i < i') && ordered rest
        | _ -> true
      in
      List.sort compare drained
      = List.sort compare (List.mapi (fun i k -> (k, i)) keys)
      && ordered drained)

(* --- Iheap ------------------------------------------------------------ *)

let iheap_drain h =
  let rec go acc =
    if Iheap.is_empty h then List.rev acc
    else begin
      let k = Iheap.top_key h and p = Iheap.top_pay h in
      Iheap.drop h;
      go ((k, p) :: acc)
    end
  in
  go []

let test_iheap_basic () =
  let h = Iheap.create ~capacity:1 () in
  Alcotest.(check bool) "empty" true (Iheap.is_empty h);
  List.iter (fun k -> Iheap.push h ~key:k ~pay:(k * 7)) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "length" 5 (Iheap.length h);
  Alcotest.(check int) "top key" 1 (Iheap.top_key h);
  Alcotest.(check int) "top pay rides its key" 7 (Iheap.top_pay h);
  Alcotest.(check (list (pair int int)))
    "drains in key order"
    [ (1, 7); (1, 7); (3, 21); (4, 28); (5, 35) ]
    (iheap_drain h);
  Alcotest.(check bool) "empty after drain" true (Iheap.is_empty h);
  Alcotest.check_raises "top_key on empty"
    (Invalid_argument "Iheap.top_key: empty heap") (fun () ->
      ignore (Iheap.top_key h));
  Iheap.push h ~key:9 ~pay:0;
  Iheap.clear h;
  Alcotest.(check int) "clear empties" 0 (Iheap.length h)

let prop_iheap_sorts =
  qprop "iheap drains keys in sorted order with payloads attached"
    QCheck2.Gen.(list_size (int_range 0 300) (int_range (-1000) 1000))
    (fun keys ->
      (* capacity 1 forces the backing arrays through every doubling *)
      let h = Iheap.create ~capacity:1 () in
      List.iter (fun k -> Iheap.push h ~key:k ~pay:(k lxor 0x2a)) keys;
      let drained = iheap_drain h in
      List.map fst drained = List.sort Int.compare keys
      && List.for_all (fun (k, p) -> p = k lxor 0x2a) drained)

let prop_iheap_interleaved =
  (* pushes interleaved with pops, mirrored against a sorted-list model *)
  qprop "iheap matches a sorted-list model under interleaving"
    QCheck2.Gen.(list_size (int_range 0 200) (option (int_range 0 1000)))
    (fun ops ->
      let h = Iheap.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some k ->
            Iheap.push h ~key:k ~pay:k;
            model := List.sort Int.compare (k :: !model);
            true
          | None -> (
            match !model with
            | [] -> Iheap.is_empty h
            | m :: rest ->
              let ok = (not (Iheap.is_empty h)) && Iheap.top_key h = m in
              if ok then Iheap.drop h;
              model := rest;
              ok))
        ops
      && Iheap.length h = List.length !model)

(* --- Bitset ---------------------------------------------------------- *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "fresh is empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "not mem 62" false (Bitset.mem s 62);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 64; 99 ] (Bitset.to_list s);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset: index 100 out of [0,100)") (fun () ->
      ignore (Bitset.mem s 100))

let test_bitset_union_inter () =
  let a = Bitset.create 20 and b = Bitset.create 20 in
  List.iter (Bitset.add a) [ 1; 2; 3 ];
  List.iter (Bitset.add b) [ 2; 3; 4 ];
  let u = Bitset.copy a in
  Bitset.union_into u b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.to_list u);
  let i = Bitset.copy a in
  Bitset.inter_into i b;
  Alcotest.(check (list int)) "inter" [ 2; 3 ] (Bitset.to_list i)

module IntSet = Set.Make (Int)

let prop_bitset_vs_set =
  qprop "bitset agrees with Set on random operations"
    QCheck2.Gen.(list_size (int_range 0 300) (int_range 0 199))
    (fun ops ->
      let bs = Bitset.create 200 in
      let set = ref IntSet.empty in
      List.iteri
        (fun i x ->
          if i mod 4 = 3 then begin
            Bitset.remove bs x;
            set := IntSet.remove x !set
          end
          else begin
            Bitset.add bs x;
            set := IntSet.add x !set
          end)
        ops;
      Bitset.to_list bs = IntSet.elements !set
      && Bitset.cardinal bs = IntSet.cardinal !set)

(* --- Digraph --------------------------------------------------------- *)

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3, plus the redundant 0 -> 3 *)
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 1 3;
  Digraph.add_edge g 2 3;
  Digraph.add_edge g 0 3;
  g

let test_digraph_basic () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 4 (Digraph.n_nodes g);
  Alcotest.(check int) "edges" 5 (Digraph.n_edges g);
  Alcotest.(check bool) "has 0->3" true (Digraph.has_edge g 0 3);
  Digraph.add_edge g 0 3;
  Alcotest.(check int) "add is idempotent" 5 (Digraph.n_edges g);
  Digraph.remove_edge g 0 3;
  Alcotest.(check bool) "removed" false (Digraph.has_edge g 0 3);
  Alcotest.(check int) "edges after removal" 4 (Digraph.n_edges g);
  Alcotest.(check (list int)) "succs of 0" [ 1; 2 ] (Digraph.succs g 0);
  Alcotest.(check (list int)) "preds of 3" [ 1; 2 ] (List.sort Int.compare (Digraph.preds g 3))

let test_digraph_topo () =
  let g = diamond () in
  Alcotest.(check (option (list int))) "topo order" (Some [ 0; 1; 2; 3 ])
    (Digraph.topo_sort g);
  Alcotest.(check bool) "acyclic" true (Digraph.is_acyclic g);
  Digraph.add_edge g 3 0;
  Alcotest.(check (option (list int))) "cyclic -> None" None (Digraph.topo_sort g);
  match Digraph.find_cycle g with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
    Alcotest.(check bool) "cycle is non-empty" true (List.length cycle >= 2)

let test_transitive_reduction () =
  let g = diamond () in
  let r = Graph_ref.transitive_reduction g in
  Alcotest.(check int) "redundant edge removed" 4 (Digraph.n_edges r);
  Alcotest.(check bool) "0->3 gone" false (Digraph.has_edge r 0 3);
  Alcotest.(check bool) "0->1 kept" true (Digraph.has_edge r 0 1);
  (* reachability is preserved *)
  Alcotest.(check bool) "0 still reaches 3" true (Digraph.path_exists r 0 3)

let test_transitive_closure_cyclic_rejected () =
  let g = Digraph.create 2 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 0;
  Alcotest.check_raises "closure of cyclic"
    (Invalid_argument "Digraph.transitive_closure: graph is cyclic") (fun () ->
      ignore (Digraph.transitive_closure g))

let random_dag_gen =
  QCheck2.Gen.(
    let* n = int_range 2 25 in
    let* edges =
      list_size (int_range 0 80) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    return (n, List.filter_map (fun (a, b) -> if a < b then Some (a, b) else None) edges))

let build_dag (n, edges) =
  let g = Digraph.create n in
  List.iter (fun (a, b) -> Digraph.add_edge g a b) edges;
  g

let prop_reduction_preserves_reachability =
  qprop "transitive reduction preserves reachability" random_dag_gen
    (fun spec ->
      let g = build_dag spec in
      let r = Graph_ref.transitive_reduction g in
      let n = Digraph.n_nodes g in
      let ok = ref true in
      for u = 0 to n - 1 do
        let from_g = Digraph.reachable_from g u
        and from_r = Digraph.reachable_from r u in
        if not (Bitset.equal from_g from_r) then ok := false
      done;
      !ok)

let prop_reduction_minimal =
  qprop "every kept edge is non-redundant" random_dag_gen (fun spec ->
      let g = build_dag spec in
      let r = Graph_ref.transitive_reduction g in
      let kept = Graph_ref.edges r in
      List.for_all
        (fun e ->
          (* removing (u,v) must lose reachability *)
          let r' = build_dag (fst spec, List.filter (( <> ) e) kept) in
          not (Digraph.path_exists r' (fst e) (snd e)))
        kept)

let prop_topo_respects_edges =
  qprop "topological order respects edges" random_dag_gen (fun spec ->
      let g = build_dag spec in
      match Digraph.topo_sort g with
      | None -> false
      | Some order ->
        let pos = Array.make (Digraph.n_nodes g) 0 in
        List.iteri (fun i v -> pos.(v) <- i) order;
        List.for_all (fun (u, v) -> pos.(u) < pos.(v)) (snd spec))

(* --- Prng ------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 123 and b = Prng.create 123 in
  let seq g = List.init 20 (fun _ -> Prng.int g 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq a) (seq b);
  let c = Prng.create 124 in
  Alcotest.(check bool) "different seed, different stream" true
    (seq (Prng.create 123) <> seq c)

let test_prng_copy_split () =
  let g = Prng.create 7 in
  let g' = Prng.copy g in
  Alcotest.(check int) "copy continues identically" (Prng.int g 1_000_000)
    (Prng.int g' 1_000_000);
  let s1 = Prng.split g in
  let xs = List.init 10 (fun _ -> Prng.int s1 100) in
  Alcotest.(check int) "split stream has expected length" 10 (List.length xs)

let test_prng_bounds () =
  let g = Prng.create 99 in
  for _ = 1 to 1000 do
    let x = Prng.int g 7 in
    Alcotest.(check bool) "int in bounds" true (x >= 0 && x < 7);
    let f = Prng.float g 2.5 in
    Alcotest.(check bool) "float in bounds" true (f >= 0.0 && f < 2.5);
    let y = Prng.int_in g 3 9 in
    Alcotest.(check bool) "int_in inclusive" true (y >= 3 && y <= 9)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0))

let test_prng_shuffle_pick () =
  let g = Prng.create 5 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  Alcotest.(check (list int)) "shuffle is a permutation"
    (List.init 50 Fun.id)
    (List.sort Int.compare (Array.to_list a));
  let x = Prng.pick g [ 1; 2; 3 ] in
  Alcotest.(check bool) "pick member" true (List.mem x [ 1; 2; 3 ]);
  Alcotest.check_raises "pick empty" (Invalid_argument "Prng.pick: empty list")
    (fun () -> ignore (Prng.pick g []))

(* --- Mpsc_ring -------------------------------------------------------- *)

let test_mpsc_basic () =
  let r = Mpsc_ring.create ~capacity:5 in
  Alcotest.(check int) "capacity rounds up to a power of two" 8
    (Mpsc_ring.capacity r);
  Alcotest.(check int) "minimum capacity" 2
    (Mpsc_ring.capacity (Mpsc_ring.create ~capacity:1));
  Alcotest.(check (option int)) "pop on empty" None (Mpsc_ring.pop r);
  List.iter (fun i -> Alcotest.(check bool) "push" true (Mpsc_ring.try_push r i))
    [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Mpsc_ring.length r);
  Alcotest.(check (option int)) "FIFO" (Some 1) (Mpsc_ring.pop r);
  Alcotest.(check (list int)) "drain oldest first" [ 2; 3 ] (Mpsc_ring.drain r);
  Alcotest.(check int) "empty after drain" 0 (Mpsc_ring.length r);
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Mpsc_ring.create: capacity <= 0") (fun () ->
      ignore (Mpsc_ring.create ~capacity:0))

let test_mpsc_backpressure () =
  let r = Mpsc_ring.create ~capacity:4 in
  for i = 1 to 4 do
    Alcotest.(check bool) "fills" true (Mpsc_ring.try_push r i)
  done;
  Alcotest.(check bool) "full ring refuses" false (Mpsc_ring.try_push r 5);
  Alcotest.(check (option int)) "consumer frees a slot" (Some 1)
    (Mpsc_ring.pop r);
  Alcotest.(check bool) "freed slot accepts" true (Mpsc_ring.try_push r 5);
  Alcotest.(check (list int)) "order preserved across wrap" [ 2; 3; 4; 5 ]
    (Mpsc_ring.drain r);
  Alcotest.(check int) "pushed counts successes only" 5 (Mpsc_ring.pushed r);
  Alcotest.(check int) "popped matches" 5 (Mpsc_ring.popped r)

let test_mpsc_concurrent () =
  (* 4 producer domains, 1000 items each, spinning on a ring much
     smaller than the item count while the main domain drains: every
     item must arrive exactly once, and per-producer order must hold *)
  let producers = 4 and per = 1000 in
  let r = Mpsc_ring.create ~capacity:64 in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              while not (Mpsc_ring.try_push r ((p * per) + i)) do
                Domain.cpu_relax ()
              done
            done))
  in
  let seen = Array.make (producers * per) 0 in
  let last = Array.make producers (-1) in
  let total = ref 0 in
  while !total < producers * per do
    match Mpsc_ring.pop r with
    | None -> Domain.cpu_relax ()
    | Some x ->
      seen.(x) <- seen.(x) + 1;
      let p = x / per in
      Alcotest.(check bool) "per-producer FIFO" true (x mod per > last.(p));
      last.(p) <- x mod per;
      incr total
  done;
  List.iter Domain.join doms;
  Alcotest.(check bool) "exactly once" true (Array.for_all (( = ) 1) seen);
  Alcotest.(check int) "nothing left" 0 (Mpsc_ring.length r)

(* --- Json escaping ----------------------------------------------------- *)

let test_json_escape_pinned () =
  Alcotest.(check string) "two-char escapes + control escapes"
    "a\\\"b\\\\c\\nd\\te\\rf\\bg\\fh\\u0001i"
    (Json.escape "a\"b\\c\nd\te\rf\bg\012h\001i");
  Alcotest.(check string) "valid UTF-8 copied verbatim" "caf\xc3\xa9"
    (Json.escape "caf\xc3\xa9");
  Alcotest.(check string) "stray high bytes become \\u00XX" "\\u00ff\\u00fe"
    (Json.escape "\xff\xfe");
  Alcotest.(check string) "truncated UTF-8 lead byte escaped" "\\u00c3"
    (Json.escape "\xc3");
  Alcotest.(check string) "4-byte emoji verbatim" "\xf0\x9f\x99\x82"
    (Json.escape "\xf0\x9f\x99\x82");
  Alcotest.(check string) "UTF-8-encoded surrogate is not valid UTF-8"
    "\\u00ed\\u00a0\\u0080"
    (Json.escape "\xed\xa0\x80")

let test_json_roundtrip_pinned () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "round-trips %S" s)
        true
        (Json.parse (Json.to_string (Json.Str s)) = Json.Str s))
    [
      "";
      "plain";
      "a\"b\\c\nd\te\rf\bg\012h\001i";
      "\x00\x1f\x7f";
      "caf\xc3\xa9";
      "\xff\xfe";
      "\xc3";
      "\xc3\x28";
      "\xf0\x9f\x99\x82";
      "\xed\xa0\x80";
      "\xe2\x82";
    ]

let prop_json_string_roundtrip =
  qprop "parse (to_string (Str s)) = Str s for arbitrary bytes"
    QCheck2.Gen.(string_size (int_range 0 64) ~gen:char)
    (fun s -> Json.parse (Json.to_string (Json.Str s)) = Json.Str s)

let prop_json_escape_ascii_clean =
  qprop "escaped output never contains raw quotes, backslashes or controls"
    QCheck2.Gen.(string_size (int_range 0 64) ~gen:char)
    (fun s ->
      let e = Json.escape s in
      let n = String.length e in
      (* consume escape sequences so the backslash that *introduces* an
         escape is distinguished from escaped content *)
      let rec scan i =
        if i >= n then true
        else
          match e.[i] with
          | '"' -> false
          | c when Char.code c < 0x20 -> false
          | '\\' -> (
            if i + 1 >= n then false
            else
              match e.[i + 1] with
              | '"' | '\\' | 'n' | 't' | 'r' | 'b' | 'f' -> scan (i + 2)
              | 'u' -> i + 6 <= n && scan (i + 6)
              | _ -> false)
          | _ -> scan (i + 1)
      in
      scan 0)

(* --- Table / Gantt / Dot rendering ----------------------------------- *)

let test_table_render () =
  let s =
    Table.render
      ~aligns:[ Table.Left; Table.Right ]
      ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.index_opt s 'n' <> None);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  (* right-aligned numbers line up on the last column *)
  Alcotest.(check bool) "rule present" true
    (List.exists (fun l -> String.length l > 0 && l.[0] = '-') lines)

let test_gantt_render () =
  let rows =
    [
      {
        Gantt.name = "M1";
        segments =
          [
            { Gantt.start = 0.0; finish = 50.0; label = "a" };
            { Gantt.start = 50.0; finish = 100.0; label = "b" };
          ];
      };
      { Gantt.name = "M2"; segments = [ { Gantt.start = 25.0; finish = 75.0; label = "c" } ] };
    ]
  in
  let s = Gantt.render ~width:40 rows in
  Alcotest.(check bool) "mentions M1" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> String.length l >= 2 && String.sub l 0 2 = "M1") lines);
  Alcotest.(check bool) "draws bars" true (String.contains s '#')

let test_gantt_empty () =
  let s = Gantt.render [ { Gantt.name = "M1"; segments = [] } ] in
  Alcotest.(check bool) "renders without segments" true (String.length s > 0)

let test_dot_render () =
  let s =
    Dot.render ~name:"g"
      [ Dot.node ~label:"A \"quoted\"" "a"; Dot.node "b" ]
      [ Dot.edge ~label:"x" "a" "b" ]
  in
  Alcotest.(check bool) "digraph header" true
    (String.sub s 0 7 = "digraph");
  Alcotest.(check bool) "escapes quotes" true
    (let rec contains i =
       i + 2 <= String.length s
       && (String.sub s i 2 = "\\\"" || contains (i + 1))
     in
     contains 0)

let () =
  Alcotest.run "util"
    [
      ( "pqueue",
        [
          Alcotest.test_case "basic" `Quick test_pqueue_basic;
          prop_pqueue_sorts;
          prop_pqueue_interleaved;
          prop_pqueue_stable;
        ] );
      ( "iheap",
        [
          Alcotest.test_case "basic" `Quick test_iheap_basic;
          prop_iheap_sorts;
          prop_iheap_interleaved;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "union/inter" `Quick test_bitset_union_inter;
          prop_bitset_vs_set;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "basic" `Quick test_digraph_basic;
          Alcotest.test_case "topo/cycles" `Quick test_digraph_topo;
          Alcotest.test_case "transitive reduction" `Quick test_transitive_reduction;
          Alcotest.test_case "closure rejects cycles" `Quick
            test_transitive_closure_cyclic_rejected;
          prop_reduction_preserves_reachability;
          prop_reduction_minimal;
          prop_topo_respects_edges;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "copy/split" `Quick test_prng_copy_split;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "shuffle/pick" `Quick test_prng_shuffle_pick;
        ] );
      ( "mpsc_ring",
        [
          Alcotest.test_case "basic" `Quick test_mpsc_basic;
          Alcotest.test_case "backpressure" `Quick test_mpsc_backpressure;
          Alcotest.test_case "concurrent producers" `Quick test_mpsc_concurrent;
        ] );
      ( "json",
        [
          Alcotest.test_case "escape pinned" `Quick test_json_escape_pinned;
          Alcotest.test_case "round-trip pinned" `Quick test_json_roundtrip_pinned;
          prop_json_string_roundtrip;
          prop_json_escape_ascii_clean;
        ] );
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "gantt" `Quick test_gantt_render;
          Alcotest.test_case "gantt empty" `Quick test_gantt_empty;
          Alcotest.test_case "dot" `Quick test_dot_render;
        ] );
    ]
