(* Seeded inputs for the four workloads.

   Every input of a run is a pure function of the workload seed and the
   sizes. Sizes fix the operation count (pipeline rounds, source lines,
   responses, bytes per group); the seed moves only how that work is
   spread, so two seeds give different inputs of the same size and
   simulated statistics that differ by a small amount. *)

module Prng = Occlum_util.Prng

type sizes = {
  fish_rounds : int;  (** gen | tr | filter | wc pipelines *)
  fish_lines : int;  (** mean lines per round *)
  gcc_lines : int;  (** source lines *)
  c10k_clients : int;  (** closed-loop keep-alive clients *)
  c10k_rounds : int;  (** mean requests per client *)
  hb_groups : int;  (** writer/reader pairs *)
  hb_bytes : int;  (** bytes streamed per group *)
}

let default_sizes =
  {
    fish_rounds = 50;
    fish_lines = 60;
    gcc_lines = 3000;
    c10k_clients = 5000;
    c10k_rounds = 3;
    hb_groups = 10;
    hb_bytes = 1 lsl 20;
  }

(* Small enough for unit tests. *)
let tiny_sizes =
  {
    fish_rounds = 4;
    fish_lines = 30;
    gcc_lines = 40;
    c10k_clients = 40;
    c10k_rounds = 3;
    hb_groups = 3;
    hb_bytes = 16 * 1024;
  }

let shuffle rng a =
  for k = Array.length a - 1 downto 1 do
    let j = Prng.int rng (k + 1) in
    let x = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- x
  done

(* [n] values around [mean], drawn in pairs (mean + d, mean - d) so the
   sum stays n * mean; with [odd_bump] the second of a pair may get one
   more, so seeds also differ in the total by up to n / 2. *)
let paired rng ~n ~mean ~spread ~odd_bump =
  let a = Array.make n mean in
  let k = ref 0 in
  while !k + 1 < n do
    let d = Prng.int rng ((2 * spread) + 1) - spread in
    a.(!k) <- mean + d;
    a.(!k + 1) <- mean - d + (if odd_bump then Prng.int rng 2 else 0);
    k := !k + 2
  done;
  a

(* Distinct streams per workload, so one seed does not correlate them. *)
let rng seed salt = Prng.create ((seed * 1_000_003) + salt)

(* fish: lines per round, mean ± half the mean. *)
let fish_lines ~seed s =
  paired (rng seed 1) ~n:s.fish_rounds ~mean:s.fish_lines
    ~spread:(s.fish_lines / 2) ~odd_bump:true

(* gcc: a C-like source of exactly [gcc_lines] lines after a header line.
   Every tenth line is a directive that cpp drops; the constants are
   drawn with 1 to 5 digits, so the byte count varies a little. *)
let gcc_source ~seed s =
  let r = rng seed 2 in
  let num () =
    let digits = 1 + Prng.int r 5 in
    let lim = int_of_float (10. ** float digits) in
    Prng.int r lim
  in
  let b = Buffer.create (s.gcc_lines * 28) in
  Buffer.add_string b "#include <stdio.h>\n";
  for k = 1 to s.gcc_lines do
    if k mod 10 = 0 then Printf.bprintf b "#define K%d %d\n" k (num ())
    else Printf.bprintf b "int v%d = f(%d) + %d;\n" k (num ()) (num ())
  done;
  Buffer.contents b

type c10k = {
  order : int array;  (** client ids in connect order *)
  requests : int array;  (** requests per client; sums to clients * rounds *)
}

let c10k ~seed s =
  let r = rng seed 3 in
  let requests =
    paired r ~n:s.c10k_clients ~mean:s.c10k_rounds ~spread:1 ~odd_bump:false
  in
  let order = Array.init s.c10k_clients Fun.id in
  shuffle r order;
  { order; requests }

(* hackbench: one write size per group. The sizes are a geometric ladder
   from 64 to 1,024 bytes, each plus 0-3 bytes of jitter, dealt to the
   groups in seeded order — the same total syscall count to within a
   fraction of a percent for every seed. *)
let hb_write_sizes ~seed s =
  let r = rng seed 4 in
  let g = s.hb_groups in
  let sizes =
    Array.init g (fun k ->
        let f = if g = 1 then 0. else float k /. float (g - 1) in
        int_of_float (Float.round (64. *. (16. ** f))) + Prng.int r 4)
  in
  shuffle r sizes;
  sizes
