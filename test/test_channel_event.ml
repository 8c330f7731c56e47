module Rat = Rt_util.Rat
module V = Fppn.Value
module Channel = Fppn.Channel
module Event = Fppn.Event

let value = Alcotest.testable V.pp V.equal

let qprop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- Value ------------------------------------------------------------ *)

let test_value_equal_compare () =
  Alcotest.(check bool) "pair equal" true
    (V.equal (V.Pair (V.Int 1, V.Bool true)) (V.Pair (V.Int 1, V.Bool true)));
  Alcotest.(check bool) "different constructors differ" false
    (V.equal (V.Int 0) (V.Float 0.0));
  Alcotest.(check bool) "compare is consistent with equal" true
    (V.compare (V.List [ V.Int 1 ]) (V.List [ V.Int 1 ]) = 0);
  Alcotest.(check bool) "list ordering lexicographic" true
    (V.compare (V.List [ V.Int 1 ]) (V.List [ V.Int 2 ]) < 0)

let test_value_coercions () =
  Alcotest.(check int) "to_int" 5 (V.to_int (V.Int 5));
  Alcotest.(check (float 1e-9)) "to_float widens int" 5.0 (V.to_float (V.Int 5));
  let re, im = V.to_complex (V.complex 1.5 (-2.0)) in
  Alcotest.(check (float 1e-9)) "complex re" 1.5 re;
  Alcotest.(check (float 1e-9)) "complex im" (-2.0) im;
  Alcotest.check_raises "bad coercion"
    (Invalid_argument "Value: expected Int, got true") (fun () ->
      ignore (V.to_int (V.Bool true)))

let rec value_gen depth =
  let open QCheck2.Gen in
  if depth = 0 then
    oneof
      [
        return V.Absent;
        return V.Unit;
        map (fun b -> V.Bool b) bool;
        map (fun n -> V.Int n) (int_range (-50) 50);
        map (fun f -> V.Float f) (float_bound_inclusive 10.0);
        map (fun s -> V.Str s) (string_size (int_range 0 5));
      ]
  else
    oneof
      [
        value_gen 0;
        map2 (fun a b -> V.Pair (a, b)) (value_gen (depth - 1)) (value_gen (depth - 1));
        map (fun l -> V.List l) (list_size (int_range 0 3) (value_gen (depth - 1)));
      ]

let prop_value_compare_total_order =
  qprop "Value.compare is a total order consistent with equal"
    QCheck2.Gen.(triple (value_gen 2) (value_gen 2) (value_gen 2))
    (fun (a, b, c) ->
      let sgn x = compare x 0 in
      sgn (V.compare a b) = -sgn (V.compare b a)
      && (V.equal a b = (V.compare a b = 0))
      && ((not (V.compare a b <= 0 && V.compare b c <= 0)) || V.compare a c <= 0))

let prop_value_pp_roundtrips_equality =
  qprop "equal values print identically" QCheck2.Gen.(pair (value_gen 2) (value_gen 2))
    (fun (a, b) -> (not (V.equal a b)) || String.equal (V.to_string a) (V.to_string b))

(* --- Channel: FIFO ---------------------------------------------------- *)

let test_fifo_order () =
  let c = Channel.create Channel.Fifo in
  Alcotest.check value "empty read is Absent" V.Absent (Channel.read c);
  Channel.write c (V.Int 1);
  Channel.write c (V.Int 2);
  Channel.write c (V.Int 3);
  Alcotest.(check int) "occupancy" 3 (Channel.occupancy c);
  Alcotest.check value "fifo pops in order" (V.Int 1) (Channel.read c);
  Alcotest.check value "peek does not consume" (V.Int 2) (Channel.peek c);
  Alcotest.check value "next is still 2" (V.Int 2) (Channel.read c);
  Alcotest.check value "then 3" (V.Int 3) (Channel.read c);
  Alcotest.check value "exhausted" V.Absent (Channel.read c)

let test_fifo_history () =
  let c = Channel.create Channel.Fifo in
  Channel.write c (V.Int 1);
  ignore (Channel.read c);
  Channel.write c (V.Int 2);
  Alcotest.(check (list value)) "history keeps consumed writes"
    [ V.Int 1; V.Int 2 ] (Channel.history c)

let test_fifo_init_reset () =
  let c = Channel.create ~init:(V.Str "seed") Channel.Fifo in
  Alcotest.check value "initial token readable" (V.Str "seed") (Channel.read c);
  Alcotest.(check (list value)) "init not in history" [] (Channel.history c);
  Channel.write c (V.Int 9);
  Channel.reset c;
  Alcotest.check value "reset restores init" (V.Str "seed") (Channel.read c);
  Alcotest.(check (list value)) "reset clears history" [] (Channel.history c)

(* --- Channel: Blackboard ---------------------------------------------- *)

let test_blackboard () =
  let c = Channel.create Channel.Blackboard in
  Alcotest.check value "uninitialized is Absent" V.Absent (Channel.read c);
  Channel.write c (V.Int 1);
  Channel.write c (V.Int 2);
  Alcotest.check value "remembers last write" (V.Int 2) (Channel.read c);
  Alcotest.check value "read does not consume" (V.Int 2) (Channel.read c);
  Alcotest.(check int) "occupancy is 1" 1 (Channel.occupancy c);
  Alcotest.(check (list value)) "history has both writes" [ V.Int 1; V.Int 2 ]
    (Channel.history c)

let prop_fifo_is_queue =
  qprop "fifo behaves as a queue"
    QCheck2.Gen.(list_size (int_range 0 100) (int_range 0 1000))
    (fun writes ->
      let c = Channel.create Channel.Fifo in
      List.iter (fun x -> Channel.write c (V.Int x)) writes;
      let reads = List.map (fun _ -> Channel.read c) writes in
      reads = List.map (fun x -> V.Int x) writes
      && Channel.read c = V.Absent)

let prop_blackboard_last_wins =
  qprop "blackboard returns the last write"
    QCheck2.Gen.(list_size (int_range 1 50) (int_range 0 1000))
    (fun writes ->
      let c = Channel.create Channel.Blackboard in
      List.iter (fun x -> Channel.write c (V.Int x)) writes;
      Channel.read c = V.Int (List.nth writes (List.length writes - 1)))

(* --- Event generators -------------------------------------------------- *)

let ms = Rat.of_int
let rat = Alcotest.testable Rat.pp Rat.equal

let test_event_validation () =
  Alcotest.check_raises "zero period"
    (Invalid_argument "Event: period must be positive") (fun () ->
      ignore (Event.periodic ~period:Rat.zero ~deadline:Rat.one ()));
  Alcotest.check_raises "zero burst" (Invalid_argument "Event: burst must be >= 1")
    (fun () ->
      ignore (Event.periodic ~burst:0 ~period:Rat.one ~deadline:Rat.one ()))

let test_periodic_invocations () =
  let e = Event.periodic ~period:(ms 100) ~deadline:(ms 100) () in
  Alcotest.(check (list rat)) "simple periodic"
    [ ms 0; ms 100; ms 200 ]
    (Event.periodic_invocations e ~horizon:(ms 300));
  let e2 = Event.periodic ~burst:2 ~period:(ms 200) ~deadline:(ms 200) () in
  Alcotest.(check (list rat)) "bursts duplicated"
    [ ms 0; ms 0; ms 200; ms 200 ]
    (Event.periodic_invocations e2 ~horizon:(ms 400));
  Alcotest.(check int) "count matches" 4
    (Event.count_periodic_jobs e2 ~horizon:(ms 400));
  Alcotest.check_raises "sporadic rejected"
    (Invalid_argument "Event.periodic_invocations: sporadic generator")
    (fun () ->
      ignore
        (Event.periodic_invocations
           (Event.sporadic ~min_period:(ms 100) ~deadline:(ms 100) ())
           ~horizon:(ms 300)))

let test_sporadic_trace_validity () =
  (* CoefB of Fig. 1: 2 per 700 ms *)
  let e = Event.sporadic ~burst:2 ~min_period:(ms 700) ~deadline:(ms 700) () in
  Alcotest.(check bool) "empty ok" true (Event.is_valid_sporadic_trace e []);
  Alcotest.(check bool) "two inside a window ok" true
    (Event.is_valid_sporadic_trace e [ ms 50; ms 200 ]);
  Alcotest.(check bool) "three inside a window rejected" false
    (Event.is_valid_sporadic_trace e [ ms 50; ms 200; ms 550 ]);
  Alcotest.(check bool) "spread out ok" true
    (Event.is_valid_sporadic_trace e [ ms 0; ms 100; ms 800; ms 900 ]);
  Alcotest.(check bool) "window is half-closed: 0 and 700 may join 2 others"
    true
    (Event.is_valid_sporadic_trace e [ ms 0; ms 100; ms 800 ]);
  Alcotest.(check bool) "descending rejected" false
    (Event.is_valid_sporadic_trace e [ ms 100; ms 50 ]);
  Alcotest.(check bool) "negative rejected" false
    (Event.is_valid_sporadic_trace e [ Rat.neg (ms 1) ])

let test_random_sporadic_trace () =
  let e = Event.sporadic ~burst:2 ~min_period:(ms 200) ~deadline:(ms 400) () in
  let prng = Rt_util.Prng.create 11 in
  let t = Event.random_sporadic_trace e prng ~horizon:(ms 5000) ~density:0.8 in
  Alcotest.(check bool) "non-trivial" true (List.length t > 5);
  Alcotest.(check bool) "valid" true (Event.is_valid_sporadic_trace e t);
  Alcotest.(check bool) "within horizon" true
    (List.for_all (fun s -> Rat.(s < ms 5000) && Rat.sign s >= 0) t)

let prop_random_traces_valid =
  qprop "random sporadic traces always satisfy (m,T)" ~count:100
    QCheck2.Gen.(
      triple (int_range 1 3) (int_range 50 400) (int_range 0 10_000))
    (fun (burst, period, seed) ->
      let e =
        Event.sporadic ~burst ~min_period:(ms period) ~deadline:(ms (2 * period)) ()
      in
      let prng = Rt_util.Prng.create seed in
      let t = Event.random_sporadic_trace e prng ~horizon:(ms 3000) ~density:1.0 in
      Event.is_valid_sporadic_trace e t)

(* The (m,T) check as it was before it became linear: every stamp's
   window (s - T, s] is counted by a scan of all earlier stamps.  Kept
   verbatim as the differential reference. *)
let reference_is_valid_sporadic_trace (t : Event.t) stamps =
  let rec ascending = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> Rat.(a <= b) && ascending rest
  in
  let non_negative = List.for_all (fun s -> Rat.sign s >= 0) stamps in
  (* window check: for the i-th stamp s, the stamps in (s - T, s] must
     number at most m.  Checking windows anchored at each stamp is
     sufficient because a maximal violating window can always be slid
     right until its right edge hits a stamp. *)
  let arr = Array.of_list stamps in
  let n = Array.length arr in
  let window_ok i =
    let s = arr.(i) in
    let lo = Rat.sub s t.period in
    let count = ref 0 in
    for j = 0 to i do
      if Rat.(arr.(j) > lo) then incr count
    done;
    !count <= t.burst
  in
  let rec all_windows i = i >= n || (window_ok i && all_windows (i + 1)) in
  ascending stamps && non_negative && all_windows 0

(* Traces around the (m,T) boundary: stamps on a grid of 1/den, mostly
   ascending with repeats, sometimes shuffled or shifted negative; the
   period is a small rational too, so windows end exactly on stamps. *)
let validity_case =
  QCheck2.Gen.(
    let* burst = int_range 1 4 in
    let* period = map2 Rat.make (int_range 1 12) (int_range 1 4) in
    let* den = int_range 1 4 in
    let* steps = list_size (int_range 0 14) (int_range 0 6) in
    let* shape = int_range 0 9 in
    let* shift = int_range (-3) 3 in
    let ascending =
      List.rev
        (snd
           (List.fold_left
              (fun (at, acc) step -> (at + step, Rat.make (at + step) den :: acc))
              (0, []) steps))
    in
    let stamps =
      match shape with
      | 0 -> List.rev ascending
      | 1 -> List.map (fun s -> Rat.add s (Rat.make shift den)) ascending
      | 2 -> ascending @ ascending
      | _ -> ascending
    in
    return (Event.sporadic ~burst ~min_period:period ~deadline:period (), stamps))

let print_validity_case ((e : Event.t), stamps) =
  Printf.sprintf "m=%d T=%s [%s]" e.burst (Rat.to_string e.period)
    (String.concat "; " (List.map Rat.to_string stamps))

let prop_validity_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~print:print_validity_case
       ~name:"linear (m,T) check = quadratic reference" validity_case
       (fun (e, stamps) ->
         Event.is_valid_sporadic_trace e stamps
         = reference_is_valid_sporadic_trace e stamps))

let test_pp () =
  let s = Format.asprintf "%a" Event.pp (Event.periodic ~period:(ms 200) ~deadline:(ms 200) ()) in
  Alcotest.(check string) "periodic pp" "periodic 200ms" s;
  let s2 =
    Format.asprintf "%a" Event.pp
      (Event.sporadic ~burst:2 ~min_period:(ms 700) ~deadline:(ms 700) ())
  in
  Alcotest.(check string) "sporadic pp" "sporadic 2 per 700ms" s2

let () =
  Alcotest.run "channel-event"
    [
      ( "value",
        [
          Alcotest.test_case "equal/compare" `Quick test_value_equal_compare;
          Alcotest.test_case "coercions" `Quick test_value_coercions;
          prop_value_compare_total_order;
          prop_value_pp_roundtrips_equality;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "order" `Quick test_fifo_order;
          Alcotest.test_case "history" `Quick test_fifo_history;
          Alcotest.test_case "init/reset" `Quick test_fifo_init_reset;
          prop_fifo_is_queue;
        ] );
      ( "blackboard",
        [ Alcotest.test_case "semantics" `Quick test_blackboard; prop_blackboard_last_wins ] );
      ( "event",
        [
          Alcotest.test_case "validation" `Quick test_event_validation;
          Alcotest.test_case "periodic invocations" `Quick test_periodic_invocations;
          Alcotest.test_case "sporadic validity" `Quick test_sporadic_trace_validity;
          Alcotest.test_case "random trace" `Quick test_random_sporadic_trace;
          Alcotest.test_case "pretty printing" `Quick test_pp;
          prop_random_traces_valid;
          prop_validity_matches_reference;
        ] );
    ]
