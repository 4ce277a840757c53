(* Expected outputs, computed in OCaml from the seeded inputs alone —
   independent of the simulated system the timed runs exercise. *)

(* fish: wc prints the bytes of the gen lines that survive the filter.
   gen line n starts with 'a' + n mod 26, tr uppercases it, and the
   filter keeps the 'A' lines: ceil(lines / 26) lines of 33 bytes. *)
let fish_round lines = Printf.sprintf "%d\n" (33 * ((lines + 25) / 26))

(* gcc: the four phases of [Occlum_workloads.Gcc_pipeline], restated.
   cpp drops lines that start with '#'. cc1 folds each byte into a
   64-bit accumulator through 12 xorshift-multiply rounds and emits the
   accumulator (little-endian) after every 8th byte of each 4 KiB read.
   as xors every byte with 90. ld prepends "OEXE" and prints the byte
   count it copied. *)
let cpp src =
  let b = Buffer.create (String.length src) in
  let skip = ref false and bol = ref true in
  String.iter
    (fun c ->
      if !bol && c = '#' then skip := true;
      if not !skip then Buffer.add_char b c;
      bol := c = '\n';
      if c = '\n' then skip := false)
    src;
  Buffer.contents b

let cc1 s =
  let out = Buffer.create (String.length s) in
  let acc = ref 0L in
  let n = String.length s in
  let chunk = 4096 in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk (n - !pos) in
    for k = 0 to len - 1 do
      let x = ref (Int64.add !acc (Int64.of_int (Char.code s.[!pos + k]))) in
      for _ = 1 to 12 do
        x := Int64.logxor !x (Int64.shift_left !x 13);
        x := Int64.logxor !x (Int64.shift_right_logical !x 7);
        x := Int64.add (Int64.mul !x 31L) 17L
      done;
      acc := !x;
      if k land 7 = 7 then Buffer.add_int64_le out !acc
    done;
    pos := !pos + len
  done;
  Buffer.contents out

let as_ s = String.map (fun c -> Char.chr (Char.code c lxor 90)) s

(* (a.out contents, ld's console line) *)
let gcc src =
  let o = as_ (cc1 (cpp src)) in
  ("OEXE" ^ o, Printf.sprintf "%d\n" (String.length o))

(* c10k: every response is the HTTP header and a 10 KiB page whose byte
   k is 'a' + k mod 26. *)
let response =
  Occlum_workloads.Httpd.response_header
  ^ String.init Occlum_workloads.Httpd.page_size (fun k ->
        Char.chr (97 + (k mod 26)))

(* hackbench: a writer sends [bufsz]-byte writes, some of them partial
   when the pipe is nearly full, until it has sent at least [bytes]; so
   its reader must print a total in [bytes, bytes + bufsz). Readers
   print in the order they finish, without separators; totals of one
   width are cut apart, then matched to the groups' write sizes
   (smallest total to smallest size is the best matching for intervals
   that share their start). Returns the totals, or None. *)
let hackbench_totals ~bytes sizes console =
  let width = String.length (string_of_int bytes) in
  let g = Array.length sizes in
  if Array.exists (fun b -> String.length (string_of_int (bytes + b - 1)) <> width) sizes
     || String.length console <> g * width
  then None
  else
    match
      Array.init g (fun k -> int_of_string_opt (String.sub console (k * width) width))
    with
    | tot when Array.exists Option.is_none tot -> None
    | tot ->
        let tot = Array.map Option.get tot in
        let st = Array.copy tot and sb = Array.copy sizes in
        Array.sort compare st;
        Array.sort compare sb;
        let ok = ref true in
        Array.iteri (fun k t -> if t < bytes || t >= bytes + sb.(k) then ok := false) st;
        if !ok then Some tot else None
