open Rt_util

let on = ref false
let set_enabled b = on := b
let enabled () = !on

(* Counters are striped per domain and merged on read: an increment
   lands in the stripe indexed by the caller's domain id, so concurrent
   workers (fuzz cases, service tenants) never bounce one cache line or
   CAS word between domains on the hot path.  Totals are exact — every
   increment is in exactly one stripe — so counter values stay
   deterministic across worker counts as long as the set of increments
   is.  [stripes] is a power of two; distinct live domains may share a
   stripe (ids are masked), which costs contention, never counts. *)
let stripes = 16

type counter = int Atomic.t array (* length [stripes] *)
type gauge = float Atomic.t

let stripe () = (Domain.self () :> int) land (stripes - 1)

type histogram = {
  bounds : float array;
  counts : int Atomic.t array;  (* bounds + 1, last = overflow *)
  hcount : int Atomic.t;
  mu : Mutex.t;  (* guards [sum]: no atomic float add *)
  mutable sum : float;
}

let reg_mu = Mutex.create ()
let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 16

let registered tbl name make =
  Mutex.lock reg_mu;
  let v =
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
      let v = make () in
      Hashtbl.add tbl name v;
      v
  in
  Mutex.unlock reg_mu;
  v

let counter name =
  registered counters_tbl name (fun () ->
      Array.init stripes (fun _ -> Atomic.make 0))

let incr c = ignore (Atomic.fetch_and_add (Array.unsafe_get c (stripe ())) 1)
let add c n = ignore (Atomic.fetch_and_add (Array.unsafe_get c (stripe ())) n)
let counter_value c = Array.fold_left (fun acc s -> acc + Atomic.get s) 0 c

let gauge name = registered gauges_tbl name (fun () -> Atomic.make 0.0)
let set_gauge g v = Atomic.set g v
let gauge_value g = Atomic.get g

let histogram name ~buckets =
  let h =
    registered histograms_tbl name (fun () ->
        {
          bounds = Array.copy buckets;
          counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
          hcount = Atomic.make 0;
          mu = Mutex.create ();
          sum = 0.0;
        })
  in
  if Array.length h.bounds <> Array.length buckets then
    invalid_arg ("Metrics.histogram: bucket mismatch for " ^ name);
  h

let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  ignore (Atomic.fetch_and_add h.counts.(bucket_index h.bounds v) 1);
  ignore (Atomic.fetch_and_add h.hcount 1);
  Mutex.lock h.mu;
  h.sum <- h.sum +. v;
  Mutex.unlock h.mu

let bucket_counts h = Array.map Atomic.get h.counts
let histogram_count h = Atomic.get h.hcount

let histogram_sum h =
  Mutex.lock h.mu;
  let s = h.sum in
  Mutex.unlock h.mu;
  s

let sorted_bindings tbl =
  Mutex.lock reg_mu;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  Mutex.unlock reg_mu;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let counters () =
  List.map (fun (k, c) -> (k, counter_value c)) (sorted_bindings counters_tbl)

let reset () =
  Mutex.lock reg_mu;
  Hashtbl.iter (fun _ c -> Array.iter (fun s -> Atomic.set s 0) c) counters_tbl;
  Hashtbl.iter (fun _ g -> Atomic.set g 0.0) gauges_tbl;
  Hashtbl.iter
    (fun _ h ->
      Array.iter (fun c -> Atomic.set c 0) h.counts;
      Atomic.set h.hcount 0;
      Mutex.lock h.mu;
      h.sum <- 0.0;
      Mutex.unlock h.mu)
    histograms_tbl;
  Mutex.unlock reg_mu

let snapshot () =
  let counters =
    List.map (fun (k, c) -> (k, Json.Int (counter_value c))) (sorted_bindings counters_tbl)
  in
  let gauges =
    List.map (fun (k, g) -> (k, Json.Float (Atomic.get g))) (sorted_bindings gauges_tbl)
  in
  let histograms =
    List.map
      (fun (k, h) ->
        ( k,
          Json.Obj
            [
              ("bounds", Json.Arr (Array.to_list (Array.map (fun b -> Json.Float b) h.bounds)));
              ( "counts",
                Json.Arr
                  (Array.to_list (Array.map (fun c -> Json.Int (Atomic.get c)) h.counts)) );
              ("count", Json.Int (Atomic.get h.hcount));
              ("sum", Json.Float (histogram_sum h));
            ] ))
      (sorted_bindings histograms_tbl)
  in
  Json.Obj
    [ ("counters", Json.Obj counters); ("gauges", Json.Obj gauges); ("histograms", Json.Obj histograms) ]
