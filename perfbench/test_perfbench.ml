(* Tests of the benchmark's own logic: percentile selection, span self
   time, seeded inputs and the determinism of simulated statistics. *)

open Perfbench

let sorted n = Array.init n (fun k -> k + 1)

let test_tail () =
  let ladder = [ 50.; 90.; 99. ] in
  let t = Option.get (Stats.tail ~ladder (sorted 15_000)) in
  Alcotest.(check (float 0.)) "p99 at 15k" 99. t.Stats.pct;
  Alcotest.(check int) "150 beyond p99" 150 t.Stats.beyond;
  Alcotest.(check int) "p99 value" 14_850 t.Stats.value;
  Alcotest.(check string) "printed with its count"
    "p99 = 14850 (n=15000, 150 beyond)" (Stats.tail_to_string t);
  (* exactly ten beyond still qualifies *)
  let t = Option.get (Stats.tail ~ladder (sorted 1000)) in
  Alcotest.(check (float 0.)) "p99 at 1000" 99. t.Stats.pct;
  Alcotest.(check int) "10 beyond" 10 t.Stats.beyond;
  (* nine beyond does not: fall back to p90 *)
  let t = Option.get (Stats.tail ~ladder (sorted 999)) in
  Alcotest.(check (float 0.)) "p90 at 999" 90. t.Stats.pct;
  Alcotest.(check int) "99 beyond" 99 t.Stats.beyond;
  Alcotest.(check bool) "too few samples" true (Stats.tail ~ladder (sorted 15) = None);
  Alcotest.(check int) "median" 50 (Stats.percentile (sorted 100) 50.)

let test_self_time () =
  let sp = Spans.create ~enabled:true in
  let add ?(parent = Spans.root) name a b =
    Spans.push sp name ~parent ~req:(-1) ~start:a ~stop:b ~words:0.
  in
  let root = add "bench.measure" 0 100 in
  (* two overlapping children count once; one sticks out of the parent *)
  let c1 = add ~parent:root "libos.step" 10 30 in
  let _ = add ~parent:root "net.client_recv" 20 50 in
  let _ = add ~parent:root "net.client_send" 90 120 in
  (* a grandchild is the child's, not the root's *)
  let _ = add ~parent:c1 "obs.sample" 12 16 in
  Spans.add_async sp "loadgen.request" ~req:7 ~start:0 ~stop:100;
  let s = Spans.self sp in
  Alcotest.(check int) "root self = 100 - |[10,50] u [90,100]|" 50 (fst s.(root));
  Alcotest.(check int) "child self excludes grandchild" 16 (fst s.(c1));
  Alcotest.(check int) "async spans have no self time" 0 (fst s.(Spans.length sp - 1));
  let rows = Spans.table sp in
  Alcotest.(check (list string)) "table by self time"
    [ "bench.measure"; "net.client_recv"; "net.client_send"; "libos.step"; "obs.sample" ]
    (List.map (fun r -> r.Spans.r_name) rows)

let test_spans_nest () =
  let sp = Spans.create ~enabled:true in
  let a = Spans.enter sp "bench.measure" in
  let b = Spans.enter sp "libos.step" in
  Spans.leave sp b;
  let c = Spans.enter sp "net.client_recv" in
  Spans.unwind sp a;
  Alcotest.(check int) "parent of b" a (Spans.parent sp b);
  Alcotest.(check int) "parent of c" a (Spans.parent sp c);
  Alcotest.(check bool) "unwound" true (sp.Spans.stack = []);
  Alcotest.(check int) "disabled enter" (-1) (Spans.enter Spans.disabled "x")

let sizes = Inputs.tiny_sizes

let test_same_seed () =
  Alcotest.(check (array int)) "fish" (Inputs.fish_lines ~seed:5 sizes)
    (Inputs.fish_lines ~seed:5 sizes);
  Alcotest.(check string) "gcc" (Inputs.gcc_source ~seed:5 sizes)
    (Inputs.gcc_source ~seed:5 sizes);
  Alcotest.(check bool) "c10k" true (Inputs.c10k ~seed:5 sizes = Inputs.c10k ~seed:5 sizes);
  Alcotest.(check (array int)) "hackbench" (Inputs.hb_write_sizes ~seed:5 sizes)
    (Inputs.hb_write_sizes ~seed:5 sizes)

let lines s = List.length (String.split_on_char '\n' s)
let sum = Array.fold_left ( + ) 0

let test_other_seed () =
  let f1 = Inputs.fish_lines ~seed:1 sizes and f2 = Inputs.fish_lines ~seed:2 sizes in
  Alcotest.(check bool) "fish differs" true (f1 <> f2);
  Alcotest.(check int) "same rounds" (Array.length f1) (Array.length f2);
  let g1 = Inputs.gcc_source ~seed:1 sizes and g2 = Inputs.gcc_source ~seed:2 sizes in
  Alcotest.(check bool) "gcc differs" true (g1 <> g2);
  Alcotest.(check int) "same source lines" (lines g1) (lines g2);
  let c1 = Inputs.c10k ~seed:1 sizes and c2 = Inputs.c10k ~seed:2 sizes in
  Alcotest.(check bool) "c10k order differs" true (c1.Inputs.order <> c2.Inputs.order);
  Alcotest.(check int) "same responses" (sum c1.Inputs.requests) (sum c2.Inputs.requests);
  Alcotest.(check int) "responses = clients * rounds"
    (sizes.Inputs.c10k_clients * sizes.Inputs.c10k_rounds) (sum c1.Inputs.requests);
  let h1 = Inputs.hb_write_sizes ~seed:1 sizes and h2 = Inputs.hb_write_sizes ~seed:2 sizes in
  Alcotest.(check bool) "hackbench differs" true (h1 <> h2);
  Alcotest.(check int) "same groups" (Array.length h1) (Array.length h2);
  Array.iter (fun b -> Alcotest.(check bool) "64..1027 B" true (b >= 64 && b < 1028)) h1

let run ?(sp = Spans.disabled) ?(obs = false) ?(pool = false) w seed =
  Drive.iteration { Drive.sp; obs; sizes; seed; pool } w

let test_simulated_repeat () =
  List.iter
    (fun w ->
      let name = Drive.name w in
      let a = run w 3 in
      let b = run ~sp:(Spans.create ~enabled:true) ~obs:true w 3 in
      Alcotest.(check (list string)) (name ^ " no failures") [] (a.Drive.why @ b.Drive.why);
      Alcotest.(check bool) (name ^ " checked") true (a.Drive.checked > 0);
      Alcotest.(check bool) (name ^ " traced = untraced") true (a.Drive.sim = b.Drive.sim);
      let c = run w 4 in
      Alcotest.(check (list string)) (name ^ " other seed ok") [] c.Drive.why;
      Alcotest.(check bool) (name ^ " other seed, other simulation") true
        (c.Drive.sim <> a.Drive.sim);
      Alcotest.(check (float 0.)) (name ^ " other seed, same op count") a.Drive.ops c.Drive.ops)
    Drive.all

let test_pool_matches_steps () =
  let a = run Drive.Hackbench 2 and b = run ~pool:true Drive.Hackbench 2 in
  Alcotest.(check (list string)) "no failures" [] (a.Drive.why @ b.Drive.why);
  Alcotest.(check bool) "Os.run = Os.step" true (a.Drive.sim = b.Drive.sim)

let test_oracles () =
  Alcotest.(check string) "wc of 30 lines" "66\n" (Oracle.fish_round 30);
  Alcotest.(check string) "wc of 26 lines" "33\n" (Oracle.fish_round 26);
  Alcotest.(check string) "cpp drops directives" "a\nc\n" (Oracle.cpp "a\n#b\nc\n");
  Alcotest.(check int) "cc1: 8 bytes per 8" 16 (String.length (Oracle.cc1 (String.make 17 'x')));
  Alcotest.(check bool) "totals in any order" true
    (Oracle.hackbench_totals ~bytes:100 [| 64; 30 |] "120110" <> None);
  Alcotest.(check bool) "a total out of range" true
    (Oracle.hackbench_totals ~bytes:100 [| 64; 30 |] "170110" = None);
  Alcotest.(check bool) "a missing total" true
    (Oracle.hackbench_totals ~bytes:100 [| 64; 30 |] "120" = None)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "tail percentile, >= 10 beyond" `Quick test_tail;
          Alcotest.test_case "span self time, nested and overlapping" `Quick test_self_time;
          Alcotest.test_case "span nesting and unwind" `Quick test_spans_nest;
          Alcotest.test_case "same seed, same inputs" `Quick test_same_seed;
          Alcotest.test_case "other seed, other inputs, same size" `Quick test_other_seed;
          Alcotest.test_case "simulated statistics repeat" `Quick test_simulated_repeat;
          Alcotest.test_case "Os.run matches Os.step" `Quick test_pool_matches_steps;
          Alcotest.test_case "oracles" `Quick test_oracles;
        ] );
    ]
