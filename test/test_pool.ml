module Pool = Rt_util.Pool

let qprop name ?(count = 100) ?print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen f)

let test_map_preserves_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let input = Array.init 100 (fun i -> i) in
      let out = Pool.parallel_map pool (fun i -> i * i) input in
      Alcotest.(check (array int))
        "squares in input order"
        (Array.init 100 (fun i -> i * i))
        out)

let test_jobs_one_is_sequential () =
  (* jobs:1 must call the body left to right on the caller's domain *)
  let order = ref [] in
  Pool.with_pool ~jobs:1 (fun pool ->
      let out =
        Pool.parallel_map pool
          (fun i ->
            order := i :: !order;
            i + 1)
          (Array.init 10 (fun i -> i))
      in
      Alcotest.(check (list int))
        "visited left to right"
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
        (List.rev !order);
      Alcotest.(check (array int))
        "results" (Array.init 10 (fun i -> i + 1)) out)

let test_map_matches_sequential () =
  let input = Array.init 500 (fun i -> i) in
  let f i = (i * 7919) mod 104729 in
  let expect = Array.map f input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d equals sequential" jobs)
            expect
            (Pool.parallel_map pool f input)))
    [ 1; 2; 4; 8 ]

let test_map_list () =
  Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list string))
        "list mapped in order"
        [ "0"; "1"; "2"; "3"; "4" ]
        (Pool.map_list pool string_of_int [ 0; 1; 2; 3; 4 ]))

let test_parallel_for () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let hits = Array.make 257 0 in
      Pool.parallel_for pool 257 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int))
        "every index visited exactly once" (Array.make 257 1) hits)

let test_empty_and_singleton () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (array int))
        "empty input" [||]
        (Pool.parallel_map pool (fun i -> i) [||]);
      Alcotest.(check (array int))
        "single element" [| 42 |]
        (Pool.parallel_map pool (fun i -> i * 2) [| 21 |]))

exception Boom of int

let test_exception_propagates_smallest_index () =
  (* index 2 sits in the first chunk, which is always fetched before any
     error can abort the run, so the winning exception is deterministic *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          match
            Pool.parallel_map pool
              (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
              (Array.init 50 (fun i -> i))
          with
          | _ -> Alcotest.fail "expected Boom"
          | exception Boom i ->
            Alcotest.(check int) "smallest failing index wins" 2 i))
    [ 1; 4 ]

let test_late_unit_still_runs_smallest_failure () =
  (* two units over [0, 16) with one-index claims: the caller's unit
     holds index 0 until the worker's unit has failed at 8 (and has had
     time to record it), then must still reach index 1 and report its
     smaller failure *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let failed = Atomic.make false in
      let deadline = Unix.gettimeofday () +. 5.0 in
      match
        Pool.parallel_for ~chunk:1 pool 16 (fun i ->
            if i = 0 then begin
              while
                (not (Atomic.get failed)) && Unix.gettimeofday () < deadline
              do
                Domain.cpu_relax ()
              done;
              Unix.sleepf 0.02
            end
            else if i = 1 then raise (Boom 1)
            else if i = 8 then begin
              Atomic.set failed true;
              raise (Boom 8)
            end)
      with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        Alcotest.(check int) "index 1 fails first in index order" 1 i)

let test_nested_maps () =
  (* a task body may itself use the pool: waiters help drain the queue,
     so this must not deadlock even with a single worker *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let out =
            Pool.map_list ~chunk:1 pool
              (fun i ->
                Array.to_list
                  (Pool.parallel_map pool (fun j -> (10 * i) + j)
                     (Array.init 4 (fun j -> j))))
              [ 0; 1; 2 ]
          in
          Alcotest.(check (list (list int)))
            (Printf.sprintf "nested map, jobs=%d" jobs)
            [ [ 0; 1; 2; 3 ]; [ 10; 11; 12; 13 ]; [ 20; 21; 22; 23 ] ]
            out))
    [ 1; 2; 4 ]

let test_pool_reuse_and_shutdown () =
  let pool = Pool.create ~jobs:2 in
  Alcotest.(check int) "jobs clamp" 2 (Pool.jobs pool);
  for _ = 1 to 5 do
    ignore (Pool.parallel_map pool succ (Array.init 20 (fun i -> i)))
  done;
  Pool.shutdown pool;
  (* idempotent *)
  Pool.shutdown pool;
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

let test_chunking () =
  Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun chunk ->
          Alcotest.(check (array int))
            (Printf.sprintf "chunk=%d" chunk)
            (Array.init 33 (fun i -> i + 100))
            (Pool.parallel_map ~chunk pool (fun i -> i + 100)
               (Array.init 33 (fun i -> i))))
        [ 1; 2; 7; 33; 100 ])

(* --- order preservation under stealing --------------------------------- *)

let pool_case_gen =
  QCheck2.Gen.(
    let* n = int_range 0 500 in
    let* jobs = int_range 1 8 in
    let+ chunk = int_range 1 7 in
    (n, jobs, chunk))

let pool_case_print (n, jobs, chunk) =
  Printf.sprintf "{n=%d; jobs=%d; chunk=%d}" n jobs chunk

(* work-stealing may run blocks on any worker in any order; results
   must still land at their input index, for any grain *)
let prop_pool_order =
  qprop "parallel_map preserves input order under stealing" ~count:60
    ~print:pool_case_print pool_case_gen
    (fun (n, jobs, chunk) ->
      let input = Array.init n (fun i -> (i * 7919) lxor 0x2a) in
      let f x = (x * x) + (x lsr 3) in
      let expected = Array.map f input in
      Pool.with_pool ~jobs (fun pool ->
          Pool.parallel_map ~chunk pool f input = expected
          && Pool.map_list ~chunk pool f (Array.to_list input)
             = Array.to_list expected))

let prop_pool_for =
  qprop "parallel_for writes every index exactly once" ~count:40
    ~print:pool_case_print pool_case_gen
    (fun (n, jobs, chunk) ->
      let hits = Array.make (max 1 n) 0 in
      Pool.with_pool ~jobs (fun pool ->
          Pool.parallel_for ~chunk pool n (fun i ->
              hits.(i) <- hits.(i) + 1));
      Array.for_all (fun h -> h = 1) (Array.sub hits 0 n) || n = 0)

let test_steal_counter_monotone () =
  let s0 = Pool.steals () in
  Pool.with_pool ~jobs:4 (fun pool ->
      for _ = 1 to 5 do
        ignore
          (Pool.parallel_map ~chunk:1 pool
             (fun x ->
               (* uneven work invites steals; the counter must only grow *)
               let acc = ref x in
               for _ = 1 to (x mod 7) * 400 do
                 acc := (!acc * 31) land 0xffffff
               done;
               !acc)
             (Array.init 200 Fun.id))
      done);
  Alcotest.(check bool) "steal counter monotone" true (Pool.steals () >= s0)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
          Alcotest.test_case "jobs=1 is sequential" `Quick test_jobs_one_is_sequential;
          Alcotest.test_case "parallel equals sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "map_list" `Quick test_map_list;
          Alcotest.test_case "parallel_for" `Quick test_parallel_for;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "smallest-index exception" `Quick
            test_exception_propagates_smallest_index;
          Alcotest.test_case "late unit still runs the smallest failure" `Quick
            test_late_unit_still_runs_smallest_failure;
          Alcotest.test_case "nested maps" `Quick test_nested_maps;
          Alcotest.test_case "reuse and shutdown" `Quick test_pool_reuse_and_shutdown;
          Alcotest.test_case "chunk sizes" `Quick test_chunking;
          prop_pool_order;
          prop_pool_for;
          Alcotest.test_case "steal counter monotone" `Quick
            test_steal_counter_monotone;
        ] );
    ]
