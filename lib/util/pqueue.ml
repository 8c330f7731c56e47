(* Binary min-heap with insertion-order tie-breaking: every pushed
   element carries a sequence stamp, and [cmp] ties are resolved by
   ascending stamp, so equal-key elements pop FIFO.  Stability makes
   every discrete-event loop built on this queue deterministic even
   when distinct payloads compare equal. *)

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable seq : int array;  (* parallel to [data]: insertion stamps *)
  mutable size : int;
  mutable next_seq : int;
}

let create ~cmp = { cmp; data = [||]; seq = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 8 else 2 * cap in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata;
    let nseq = Array.make ncap 0 in
    Array.blit t.seq 0 nseq 0 t.size;
    t.seq <- nseq
  end

(* [cmp] order, ties broken by insertion stamp *)
let before t i j =
  let c = t.cmp t.data.(i) t.data.(j) in
  if c <> 0 then c < 0 else t.seq.(i) < t.seq.(j)

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp;
  let s = t.seq.(i) in
  t.seq.(i) <- t.seq.(j);
  t.seq.(j) <- s

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t l !smallest then smallest := l;
  if r < t.size && before t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.seq.(t.size) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some t.data.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      t.seq.(0) <- t.seq.(t.size);
      sift_down t 0
    end;
    Some top
  end

let pop_exn t =
  match pop t with
  | Some x -> x
  | None -> invalid_arg "Pqueue.pop_exn: empty queue"

let clear t =
  t.data <- [||];
  t.seq <- [||];
  t.size <- 0

let to_list t = Array.to_list (Array.sub t.data 0 t.size)

let of_list ~cmp l =
  let t = create ~cmp in
  List.iter (push t) l;
  t

let drain t =
  let rec loop acc = match pop t with None -> List.rev acc | Some x -> loop (x :: acc) in
  loop []
