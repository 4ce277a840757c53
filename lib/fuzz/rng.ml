(* SplitMix64 (Steele/Lea/Flood), with the gamma-based [split] of the
   original paper: each stream is (state, gamma) where gamma is an odd
   increment; splitting draws a new state and a new well-mixed gamma
   from the parent, giving an independent stream. No global state — a
   seed fully determines every draw, which is what makes fuzz reports
   bit-reproducible. *)

type t = { mutable state : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A gamma must be odd; degenerate bit patterns (too few 01/10
   transitions) get stirred once more, as in the reference algorithm. *)
let popcount v =
  let n = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then incr n
  done;
  !n

let mix_gamma z =
  let z = Int64.logor (mix64 z) 1L in
  if popcount (Int64.logxor z (Int64.shift_right_logical z 1)) < 24 then
    Int64.logxor z 0xAAAAAAAAAAAAAAAAL
  else z

let of_seed seed = { state = seed; gamma = golden_gamma }

let next t =
  t.state <- Int64.add t.state t.gamma;
  mix64 t.state

let split t =
  let state = next t in
  let gamma = mix_gamma (next t) in
  { state; gamma }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* mask to 62 bits so the Int64 -> int conversion stays non-negative *)
  let v = Int64.to_int (Int64.logand (next t) 0x3FFF_FFFF_FFFF_FFFFL) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next t) 1L = 1L

let chance t k n = int t n < k

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let byte t = Char.chr (int t 256)

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (byte t)
  done;
  b
