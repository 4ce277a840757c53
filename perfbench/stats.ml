(* Order statistics for the benchmark's reports. *)

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = Array.copy a in
    Array.sort compare s;
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [p] % of
   the samples at or below it. [s] is sorted and non-empty. *)
let rank n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float n -. 1e-9)))
let percentile s p = s.(rank (Array.length s) p - 1)

(* Samples strictly above the nearest-rank position of [p]. *)
let beyond n p = n - rank n p

type tail = { pct : float; value : int; beyond : int; samples : int }

(* The highest percentile of [ladder] that still leaves at least ten
   samples above it, read from the sorted [s]. A tail is only worth
   reporting when enough samples lie past it. *)
let tail ~ladder s =
  let n = Array.length s in
  let ok p = n > 0 && beyond n p >= 10 in
  match List.filter ok (List.sort (fun a b -> compare b a) ladder) with
  | [] -> None
  | p :: _ -> Some { pct = p; value = percentile s p; beyond = beyond n p; samples = n }

let tail_to_string t =
  Printf.sprintf "p%g = %d (n=%d, %d beyond)" t.pct t.value t.samples t.beyond
