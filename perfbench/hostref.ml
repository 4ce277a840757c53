(* A host reference: a fixed amount of host work that no change to the
   program can speed up. The host this benchmark runs on may be shared,
   and its speed then swings by up to 1.7x for tens of seconds at a
   time, which no number of repetitions inside one run averages out.
   Timing this work right before and right after every measured
   instance gives the host's speed at that moment, and host costs
   divided by it stay steady across such swings.

   The work mixes what the simulator spends its time on: an
   interpreter-like loop of closure dispatch over an L1-sized array
   (about three quarters of the time) and a pass of loads and stores
   over a 4 MiB buffer, beyond the private caches (about a quarter). *)

let words = 4096
let words_mem = Array.make words 0
let stream_mem = Bytes.make (4 lsl 20) '\000'

let ops =
  [| (fun a b -> a + b); (fun a b -> a lxor b); (fun a b -> (a * 31) + b);
     (fun a b -> a - (b lsr 1)) |]

let dispatch () =
  let x = ref 12345 and acc = ref 0 in
  for k = 1 to 2_500_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let a = !x land (words - 1) in
    acc := ops.(k land 3) !acc words_mem.(a);
    words_mem.((a + 64) land (words - 1)) <- !acc land 0xffff
  done;
  !acc

let stream () =
  let mask = Bytes.length stream_mem - 1 and acc = ref 0 in
  for i = 1 to 1_500_000 do
    let j = (i * 64) land mask in
    acc := !acc + Char.code (Bytes.unsafe_get stream_mem j);
    Bytes.unsafe_set stream_mem ((j + 4096) land mask) (Char.unsafe_chr (!acc land 255))
  done;
  !acc

(* Seconds the host takes for one pass of the reference work now. *)
let seconds () =
  let t = Spans.now_ns () in
  ignore (Sys.opaque_identity (dispatch () + stream ()));
  float (Spans.now_ns () - t) /. 1e9

(* Host seconds are reported scaled to a nominal host on which one
   reference pass takes this long (passes take 24-70 ms on a shared
   2-vCPU x86-64 host with OCaml 5.1.1): a time [t] measured next to a
   pass of [rf] seconds reads [t /. rf *. nominal_s]. *)
let nominal_s = 0.03

(* [f ()] between two reference passes; also returns their mean. *)
let around f =
  let a = seconds () in
  let r = f () in
  let b = seconds () in
  (r, (a +. b) /. 2.)
