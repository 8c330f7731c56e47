type t = { den : int }

exception Inexact

(* The engine adds tick values along a run (durations accumulate toward
   the horizon, deadlines sit one relative deadline past it).  Capping
   magnitudes well below [max_int] keeps every such sum exact without
   per-addition checks. *)
let magnitude_cap = 1 lsl 55

let checked_mul a b =
  if a = 0 || b = 0 then Some 0
  else
    let p = a * b in
    if p / b = a && Stdlib.abs p < magnitude_cap then Some p else None

let create times =
  let rec fold acc = function
    | [] -> Some { den = acc }
    | r :: rest ->
      let d = Rat.den r in
      let g = Rat.gcd_int acc d in
      (match checked_mul (acc / g) d with
      | Some l -> fold l rest
      | None -> None)
  in
  fold 1 times

let den t = t.den

let ticks t r =
  let d = Rat.den r in
  if t.den mod d <> 0 then raise Inexact
  else
    match checked_mul (Rat.num r) (t.den / d) with
    | Some n -> n
    | None -> raise Rat.Overflow

let ticks_opt t r =
  match ticks t r with
  | n -> Some n
  | exception (Inexact | Rat.Overflow) -> None

let of_ticks t n = if t.den = 1 then Rat.of_int n else Rat.make n t.den

let representable t r = ticks_opt t r <> None
