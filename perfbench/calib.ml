(* Host-speed calibration of the untraced run's clock.

   The shared host this benchmark runs on changes speed by up to 2x in
   spells of seconds to minutes.  A dependent chain of integer
   operations keeps its speed; allocation, pointer chasing, hashing and
   sweeps over a few MiB slow down.  The process's CPU time moves with
   its wall time and the kernel reports no steal time, so the same
   instructions run slower, and no statistic inside one run removes a
   spell that lasts the whole run.

   So the untraced run measures on a virtual clock that runs at the
   host's reference speed.  Every [interval_ns], at a point between
   operations, [tick] times a fixed reference kernel (it does not call
   the library, so no change to the program moves it) and sets the
   clock's rate to the kernel's reference time over its measured time:
   while the host runs at half speed, the virtual clock runs at twice
   the rate of the real one.  The calibration itself is left out of the
   virtual clock, so a timed span that contains one does not pay for it.

   The kernel has three parts that together slow down like the
   measured code: inserting into an integer map (small allocations and
   short pointer chases), summing an 8 MiB array outside the OCaml heap
   (memory bandwidth), and hash-table lookups (hashing and branches on
   data in the L1 and L2 caches).  Of the candidates tried against
   logged step times of the periodic and service loops (a list sort,
   random walks over 1 and 8 MiB, an integer chain, small-list
   allocation), this mix tracked the steps through the host's slow
   spells best.  They use no state of the workload's: with every
   workload, the median rate of a run in the fast mode is close to 1.
   Each part keeps the fastest of [reps] timings,
   so an interrupt during one does not count; the kernel's speed is the
   geometric mean of the three parts' speeds, and the rate follows the
   median of the last three calibrations. *)

let real_ns = Fppn_obs.Trace.now_ns

module IM = Map.Make (Int)

let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

let map_part () =
  let m = ref IM.empty and s = ref 7 in
  for _ = 1 to 2_000 do
    s := lcg !s;
    m := IM.add (!s land 0xFFFF) !s !m
  done;
  IM.cardinal !m

let swept = Bigarray.(Array1.init int c_layout (1 lsl 20) (fun i -> i))

let sweep_part () =
  let s = ref 0 in
  for i = 0 to Bigarray.Array1.dim swept - 1 do
    s := !s + Bigarray.Array1.unsafe_get swept i
  done;
  !s

let table = Hashtbl.create 2048

let hash_part () =
  let s = ref 3 and hits = ref 0 in
  for _ = 1 to 20_000 do
    s := lcg !s;
    match Hashtbl.find_opt table (!s land 1023) with
    | Some v -> hits := !hits + v
    | None -> Hashtbl.replace table (!s land 1023) 1
  done;
  !hits

(* each part with its time, in ns, at the host's fast speed *)
let parts = [ (map_part, 385_000.0); (sweep_part, 750_000.0); (hash_part, 380_000.0) ]
let reps = 3
let interval_ns = 100_000_000

type clock = {
  mutable on : bool;  (** calibrating: set by [start] *)
  mutable rate : float;  (** virtual ns per real ns *)
  mutable real0 : int;  (** real time of the last anchor *)
  mutable virt0 : float;  (** virtual time at the last anchor *)
  mutable speeds : float list;  (** every calibration, latest first *)
}

let clock = { on = false; rate = 1.0; real0 = real_ns (); virt0 = 0.0; speeds = [] }

(* the virtual time, in ns; it runs at the real rate until [start] *)
let now_ns () =
  int_of_float (clock.virt0 +. (float_of_int (real_ns () - clock.real0) *. clock.rate))

(* Each timing starts from an empty minor heap, and no part allocates
   enough to fill it, so no collection runs inside a timing and the
   kernel's speed does not depend on what the workload has allocated. *)
let fastest f =
  let best = ref infinity in
  for _ = 1 to reps do
    Gc.minor ();
    let t0 = real_ns () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (float_of_int (real_ns () - t0))
  done;
  !best

let median xs = List.nth (List.sort Float.compare xs) (List.length xs / 2)

let calibrate () =
  let virt = float_of_int (now_ns ()) in
  let log_speed =
    List.fold_left (fun a (f, ref_ns) -> a +. log (ref_ns /. fastest f)) 0.0 parts
  in
  clock.speeds <- exp (log_speed /. float_of_int (List.length parts)) :: clock.speeds;
  clock.rate <- median (List.filteri (fun i _ -> i < 3) clock.speeds);
  clock.real0 <- real_ns ();
  clock.virt0 <- virt

(* Starts calibrating; until then the clock is the real one and [tick]
   does nothing, so the traced run never calibrates. *)
let start () =
  clock.on <- true;
  calibrate ()

(* Calibrates when [interval_ns] of real time has passed since the last
   calibration.  Call it between top-level operations only, never while
   a pool task is in flight. *)
let tick () = if clock.on && real_ns () - clock.real0 >= interval_ns then calibrate ()

(* Runs [f] off the clock: once [f] returns, the virtual clock reads
   on from where it stood when [f] started, so a timed span around it
   does not count it.  For side work between a workload's operations;
   spans inside [f] are timed as usual. *)
let off_clock f =
  let virt = float_of_int (now_ns ()) in
  let r = f () in
  clock.real0 <- real_ns ();
  clock.virt0 <- virt;
  r

(* [timed f] for an operation long enough that the host may change
   speed during it, where no [tick] can run: calibrates twice right
   before and twice right after it, and rates its real time at the mean
   of the two rates, as if the speed moved evenly from one to the
   other.  The clock reads on from there. *)
let bracket f =
  let t0 = now_ns () in
  if not clock.on then
    let r = f () in
    (r, now_ns () - t0)
  else begin
    calibrate ();
    calibrate ();
    let before = clock.rate and virt0 = clock.virt0 and real0 = clock.real0 in
    let r = f () in
    let real = float_of_int (real_ns () - real0) in
    calibrate ();
    calibrate ();
    let d = real *. (before +. clock.rate) /. 2.0 in
    clock.virt0 <- virt0 +. d;
    (r, int_of_float d)
  end

(* calibrations so far, and the median rate *)
let calibrations () = List.length clock.speeds
let median_rate () = if clock.speeds = [] then 1.0 else median clock.speeds
