type task = unit -> unit

type t = {
  jobs : int;
  queue : task Queue.t;
  mutex : Mutex.t;
  cond : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

(* ------------------------------------------------------------------ *)
(* Host capacity detection                                             *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Some (String.trim s)
  | exception _ -> None

(* Container CPU quota, ceil(quota/period), when one is set.  Both
   cgroup layouts are probed: v2 exposes "quota period" (or "max") in
   one file, v1 splits them across two.  Absent files, "max", or a
   negative quota all mean "no limit". *)
let cgroup_cpu_limit () =
  let parse_pair q p =
    match (int_of_string q, int_of_string p) with
    | q, p when q > 0 && p > 0 -> Some ((q + p - 1) / p)
    | _ -> None
    | exception _ -> None
  in
  match read_file "/sys/fs/cgroup/cpu.max" with
  | Some s -> (
    match String.split_on_char ' ' s with
    | [ "max"; _ ] -> None
    | [ q; p ] -> parse_pair q p
    | _ -> None)
  | None -> (
    match
      ( read_file "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
        read_file "/sys/fs/cgroup/cpu/cpu.cfs_period_us" )
    with
    | Some q, Some p -> parse_pair q p
    | _ -> None)

(* Memoized: the quota files do not change within a run, and callers
   consult this per combinator invocation. *)
let recommended_memo = ref 0

let recommended_domains () =
  let v = !recommended_memo in
  if v > 0 then v
  else begin
    let d = Domain.recommended_domain_count () in
    let v =
      match cgroup_cpu_limit () with
      | Some c -> Stdlib.max 1 (Stdlib.min d c)
      | None -> Stdlib.max 1 d
    in
    recommended_memo := v;
    v
  end

let default_jobs = recommended_domains

(* Stable per-domain worker id: the calling domain is worker 0, spawned
   workers are 1 .. jobs-1 in spawn order.  Stored in domain-local
   state so observability layers (trace lanes, per-case timing
   attribution) can ask "which worker am I?" from inside a task without
   threading the pool handle through every combinator. *)
let self_key = Domain.DLS.new_key (fun () -> 0)
let self_id () = Domain.DLS.get self_key

(* Oversubscribing domains is a reliable slowdown (a fuzz campaign ran
   at 0.37x the jobs=1 rate at jobs=4 on a 1-domain box), so user-facing
   tools clamp their --jobs to what the host can actually run in
   parallel. *)
let clamp_jobs requested = Stdlib.max 1 (Stdlib.min requested (recommended_domains ()))

let jobs t = t.jobs

let pending t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n

(* Cumulative successful steals across all pools in this process.
   [Rt_util] sits below the observability layer, so the counter is
   exposed as a plain reading; callers that publish metrics sample a
   delta around the region they attribute. *)
let steal_counter = Atomic.make 0
let steals () = Atomic.get steal_counter

(* Workers sleep on [cond] when the queue is empty.  Every enqueue and
   every call completion broadcasts, so sleeping workers and helping
   callers re-check their predicates; spurious wakeups are harmless. *)
let worker_loop pool =
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    let rec next () =
      match Queue.take_opt pool.queue with
      | Some task ->
        Mutex.unlock pool.mutex;
        task ()
      | None ->
        if pool.closed then begin
          Mutex.unlock pool.mutex;
          running := false
        end
        else begin
          Condition.wait pool.cond pool.mutex;
          next ()
        end
    in
    next ()
  done

let create ~jobs =
  let jobs = max 1 jobs in
  let pool =
    {
      jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      closed = false;
      workers = [];
    }
  in
  pool.workers <-
    List.init (jobs - 1) (fun i ->
        Domain.spawn (fun () ->
            Domain.DLS.set self_key (i + 1);
            worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  let ws = pool.workers in
  pool.closed <- true;
  pool.workers <- [];
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mutex;
  List.iter Domain.join ws

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Record the failure with the smallest input index, so the exception
   the caller sees does not depend on scheduling. *)
let record_error errors i e bt =
  let rec go () =
    let cur = Atomic.get errors in
    let better = match cur with None -> true | Some (j, _, _) -> i < j in
    if better && not (Atomic.compare_and_set errors cur (Some (i, e, bt))) then
      go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Work-stealing index distribution                                    *)
(*                                                                     *)
(* Each work unit owns a contiguous index range packed into a single   *)
(* atomic word ([lo] in the low 31 bits, [hi] above), claimed from the *)
(* front in adaptively sized blocks: a claim takes an eighth of what   *)
(* remains (never below the grain), so early claims are large and CAS  *)
(* traffic low while tail claims shrink toward the grain for balance.  *)
(* A unit whose range runs dry steals the upper half of the fullest    *)
(* victim range into its own slot (classic steal-half), so a straggler *)
(* sheds work without any shared queue or lock on the index path.      *)
(* Ranges only ever migrate between slots through a CAS that removes   *)
(* them from exactly one slot, so every index is executed exactly once *)
(* and results keyed by input index assemble in input order.           *)
(* ------------------------------------------------------------------ *)

let pack lo hi = lo lor (hi lsl 31)
let unpack_lo r = r land 0x7fffffff
let unpack_hi r = r asr 31

let run_indexed pool ~grain n body =
  if n > 0x7fffffff then invalid_arg "Pool: too many items";
  let units = min pool.jobs (max 1 ((n + grain - 1) / grain)) in
  let ranges =
    Array.init units (fun u -> Atomic.make (pack (u * n / units) ((u + 1) * n / units)))
  in
  let errors = Atomic.make None in
  (* a failure abandons the indices past it, but every smaller index
     still runs: units start in any order, and a late one must not skip
     the smallest failing index because a later one failed first *)
  let below_failure i =
    match Atomic.get errors with None -> true | Some (j, _, _) -> i < j
  in
  let unit_body u =
    let own = ranges.(u) in
    let continue = ref true in
    while !continue do
      (* claim an adaptive block from the front of our own range *)
      let rec claim () =
        let r = Atomic.get own in
        let lo = unpack_lo r and hi = unpack_hi r in
        if lo >= hi then -1
        else begin
          let b = min (hi - lo) (max grain ((hi - lo) / 8)) in
          if Atomic.compare_and_set own r (pack (lo + b) hi) then pack lo (lo + b)
          else claim ()
        end
      in
      let block = claim () in
      if block >= 0 then begin
        let stop = unpack_hi block in
        for i = unpack_lo block to stop - 1 do
          if below_failure i then
            try body i
            with e -> record_error errors i e (Printexc.get_raw_backtrace ())
        done
      end
      else begin
        (* own range dry: steal the upper half of the fullest victim *)
        let victim = ref (-1) and best = ref 0 in
        for v = 0 to units - 1 do
          if v <> u then begin
            let r = Atomic.get ranges.(v) in
            let rem = unpack_hi r - unpack_lo r in
            if rem > !best then begin
              best := rem;
              victim := v
            end
          end
        done;
        if !victim < 0 then continue := false
        else begin
          let slot = ranges.(!victim) in
          let r = Atomic.get slot in
          let lo = unpack_lo r and hi = unpack_hi r in
          if hi > lo then begin
            let mid = hi - ((hi - lo + 1) / 2) in
            if Atomic.compare_and_set slot r (pack lo mid) then begin
              Atomic.set own (pack mid hi);
              Atomic.incr steal_counter
            end
          end
          (* contended or drained meanwhile: rescan *)
        end
      end
    done
  in
  let pending = Atomic.make units in
  let finish_one () =
    if Atomic.fetch_and_add pending (-1) = 1 then begin
      Mutex.lock pool.mutex;
      Condition.broadcast pool.cond;
      Mutex.unlock pool.mutex
    end
  in
  Mutex.lock pool.mutex;
  if pool.closed then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Pool: pool is shut down"
  end;
  for u = 2 to units do
    let u = u - 1 in
    Queue.push
      (fun () ->
        unit_body u;
        finish_one ())
      pool.queue
  done;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mutex;
  unit_body 0;
  finish_one ();
  (* Help with queued tasks (possibly other calls' units) while our
     units drain; blocking only when there is nothing to steal. *)
  Mutex.lock pool.mutex;
  let rec wait () =
    if Atomic.get pending > 0 then begin
      match Queue.take_opt pool.queue with
      | Some task ->
        Mutex.unlock pool.mutex;
        task ();
        Mutex.lock pool.mutex;
        wait ()
      | None ->
        Condition.wait pool.cond pool.mutex;
        wait ()
    end
  in
  wait ();
  Mutex.unlock pool.mutex;
  match Atomic.get errors with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let default_grain pool n = max 1 (n / (4 * pool.jobs))

let parallel_for ?chunk pool n body =
  if n <= 0 then ()
  else if pool.jobs = 1 || n = 1 then
    for i = 0 to n - 1 do
      body i
    done
  else
    let grain = match chunk with Some c -> max 1 c | None -> default_grain pool n in
    run_indexed pool ~grain n body

let parallel_map ?chunk pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if pool.jobs = 1 || n = 1 then begin
    (* exact sequential path: left-to-right applications *)
    let res = Array.make n (f arr.(0)) in
    for i = 1 to n - 1 do
      res.(i) <- f arr.(i)
    done;
    res
  end
  else begin
    let results = Array.make n None in
    let grain = match chunk with Some c -> max 1 c | None -> default_grain pool n in
    run_indexed pool ~grain n (fun i -> results.(i) <- Some (f arr.(i)));
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list ?chunk pool f l =
  Array.to_list (parallel_map ?chunk pool f (Array.of_list l))
