(* Binary min-heap specialized to immediate-int keys with an int
   payload, held in two parallel arrays.  It is neither polymorphic nor
   stable: the tick-engine drains every event of an instant into a
   worklist before acting on any of them, so same-key pop order is
   immaterial and needs no per-element sequence stamp (nor a
   closure-based comparator).  Nothing here allocates after the backing
   arrays reach their high-water capacity. *)

type t = {
  mutable key : int array;
  mutable pay : int array;
  mutable size : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { key = Array.make capacity 0; pay = Array.make capacity 0; size = 0 }

let length t = t.size
let is_empty t = t.size = 0
let clear t = t.size <- 0

let grow t =
  let cap = Array.length t.key in
  if t.size = cap then begin
    let ncap = 2 * cap in
    let nkey = Array.make ncap 0 and npay = Array.make ncap 0 in
    Array.blit t.key 0 nkey 0 t.size;
    Array.blit t.pay 0 npay 0 t.size;
    t.key <- nkey;
    t.pay <- npay
  end

let push t ~key ~pay =
  grow t;
  let k = t.key and p = t.pay in
  (* sift up by hole-shifting: one store per level instead of a swap *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if Array.unsafe_get k parent > key then begin
      Array.unsafe_set k !i (Array.unsafe_get k parent);
      Array.unsafe_set p !i (Array.unsafe_get p parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set k !i key;
  Array.unsafe_set p !i pay

let top_key t =
  if t.size = 0 then invalid_arg "Iheap.top_key: empty heap";
  Array.unsafe_get t.key 0

let top_pay t =
  if t.size = 0 then invalid_arg "Iheap.top_pay: empty heap";
  Array.unsafe_get t.pay 0

let drop t =
  if t.size = 0 then invalid_arg "Iheap.drop: empty heap";
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let k = t.key and p = t.pay in
    let key = Array.unsafe_get k n and pay = Array.unsafe_get p n in
    (* sift the former last element down from the root *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && Array.unsafe_get k r < Array.unsafe_get k l then r
          else l
        in
        if Array.unsafe_get k c < key then begin
          Array.unsafe_set k !i (Array.unsafe_get k c);
          Array.unsafe_set p !i (Array.unsafe_get p c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set k !i key;
    Array.unsafe_set p !i pay
  end
