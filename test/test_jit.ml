(* Block-JIT tier tests: the compiled tier must be observationally
   identical to both the decode-cache tier and the uncached loop — same
   registers, flags, counters, fault payloads and stop boundaries — and
   its extras must hold: per-page invalidation after writes to JIT'd
   pages, mid-block fault deopt with bit-identical CPU state, quantum
   expiry on every original-instruction boundary even inside fused
   superinstructions, translation-time guard elision matching the
   statically elided binary's dynamic check counts, and multi-core
   LibOS determinism with the JIT on. *)

open Occlum_machine
open Occlum_isa
module Native_run = Occlum_baseline.Native_run
module Elide = Occlum_analysis.Elide
module Os = Occlum_libos.Os
module Harness = Occlum_workloads.Harness
module Compile = Occlum_toolchain.Compile
module Codegen = Occlum_toolchain.Codegen
module Parser = Occlum_toolchain.Parser

let setup = Test_machine.setup

let enc_len insns =
  List.fold_left (fun a i -> a + String.length (Codec.encode i)) 0 insns

(* Everything observable about a stopped machine (jit counters excluded:
   the whole point is that runs with different tiers enabled agree on
   the architectural part). *)
let state_str stop cpu =
  Printf.sprintf
    "stop=%s pc=%d eq=%b lt=%b cycles=%d insns=%d loads=%d stores=%d bnd=%d regs=%s"
    (Interp.stop_to_string stop)
    cpu.Cpu.pc cpu.Cpu.flag_eq cpu.Cpu.flag_lt cpu.Cpu.cycles cpu.Cpu.insns
    cpu.Cpu.loads cpu.Cpu.stores cpu.Cpu.bound_checks
    (String.concat ","
       (List.init Reg.count (fun i ->
            Int64.to_string (Cpu.get cpu (Reg.of_int i)))))

(* A counted loop ending in a syscall gate (fixed-point displacement as
   in the decode-cache tests) — hot enough to promote. With [~store] the
   body also guards, stores and reloads the running sum on the data page
   (the default bounds admit every address), so on RWX code the loop
   block has a write to revalidate after. *)
let loop_prog ?(store = false) iters =
  let slot : Insn.mem = Sib { base = Reg.r7; index = None; scale = 1; disp = 0 } in
  let body =
    [ Insn.Alu (Add, Reg.r2, O_imm 3L) ]
    @ (if store then
         [
           Insn.Bndcl (Reg.bnd0, Ea_mem slot);
           Insn.Bndcu (Reg.bnd0, Ea_mem slot);
           Insn.Store { dst = slot; src = Reg.r2; size = 8 };
           Insn.Load { dst = Reg.r5; src = slot; size = 8 };
         ]
       else [])
    @ [ Insn.Alu (Sub, Reg.r1, O_imm 1L); Insn.Cmp (Reg.r1, O_imm 0L) ]
  in
  let body_len = enc_len body in
  let rec fix d =
    let len = String.length (Codec.encode (Insn.Jcc (Ne, d))) in
    if -(body_len + len) = d then Insn.Jcc (Ne, d) else fix (-(body_len + len))
  in
  (Insn.Mov_imm (Reg.r1, Int64.of_int iters)
   :: Insn.Mov_imm (Reg.r2, 0L)
   :: Insn.Mov_imm (Reg.r7, Int64.of_int Test_machine.data)
   :: body)
  @ [ fix (-body_len); Insn.Syscall_gate ]

let disasm_exn oelf =
  match Occlum_verifier.Verify.verify oelf with
  | Ok d -> d
  | Error rs ->
      Alcotest.fail
        ("unexpected rejection: "
        ^ Occlum_verifier.Verify.rejection_to_string (List.hd rs))

(* --- 3-way differential over the SPEC kernels ----------------------------- *)

let native_summary (r : Native_run.result) =
  Printf.sprintf "exit=%Ld cycles=%d insns=%d loads=%d stores=%d bnd=%d out=%S"
    r.exit_code r.cycles r.insns r.loads r.stores r.bound_checks r.stdout

let test_spec_differential_3way () =
  let engaged = ref false in
  List.iter
    (fun (name, prog) ->
      let oelf = Compile.compile_exn ~config:Codegen.sfi prog in
      let u = Native_run.run ~decode_cache:false oelf in
      let c = Native_run.run oelf in
      let j = Native_run.run ~jit:true ~jit_threshold:2 oelf in
      Alcotest.(check string)
        (name ^ ": jit = uncached")
        (native_summary u) (native_summary j);
      Alcotest.(check string)
        (name ^ ": jit = cached")
        (native_summary c) (native_summary j);
      if j.jit_compiles > 0 && j.jit_hits > 0 then engaged := true)
    (Occlum_workloads.Spec.all ~scale:1);
  Alcotest.(check bool) "JIT compiled and replayed on some kernel" true
    !engaged

(* --- translation-time guard elision on guard_heavy ------------------------- *)

let guard_heavy_src () =
  let path =
    List.find Sys.file_exists
      [
        "../examples/guard_heavy.ol";
        "examples/guard_heavy.ol";
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../examples/guard_heavy.ol";
      ]
  in
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_guard_heavy_elide_parity () =
  let naive =
    Compile.compile_exn ~config:Codegen.sfi_naive
      (Parser.parse (guard_heavy_src ()))
  in
  let report = Elide.analyze naive (disasm_exn naive) in
  let offsets =
    List.filter_map
      (fun (g : Elide.guard) ->
        match g.Elide.cls with
        | Elide.Dominated_redundant | Elide.Range_proven -> Some g.Elide.addr
        | Elide.Required -> None)
      report.Elide.guards
  in
  Alcotest.(check bool) "elision facts available" true (offsets <> []);
  let base = Native_run.run naive in
  (* without facts the JIT is a pure accelerator: bit-identical, checks
     included (threshold 0 = every block compiled from first entry) *)
  let jit_plain = Native_run.run ~jit:true ~jit_threshold:0 naive in
  Alcotest.(check string) "jit without facts = interpreter"
    (native_summary base) (native_summary jit_plain);
  (* with facts, the dynamic check count must match the statically
     elided, re-verified binary exactly *)
  let elided =
    match Elide.run naive with
    | Ok (o, _) -> o
    | Error e -> Alcotest.fail (Elide.error_to_string e)
  in
  let re = Native_run.run elided in
  let jf = Native_run.run ~jit:true ~jit_threshold:0 ~jit_elide_offsets:offsets naive in
  Alcotest.(check int64) "same exit code" base.exit_code jf.exit_code;
  Alcotest.(check string) "expected output" "sum 231\n" jf.stdout;
  Alcotest.(check int) "jit bound checks = statically elided binary's"
    re.bound_checks jf.bound_checks;
  Alcotest.(check bool) "fewer checks than the naive interpreter" true
    (jf.bound_checks < base.bound_checks);
  Alcotest.(check bool) "translation-time elisions recorded" true
    (jf.jit_elisions > 0);
  (* elision drops the comparison and its counter, nothing else: the
     unelided instruction/cycle/memory charges stay those of the input *)
  Alcotest.(check int) "same insns as the naive binary" base.insns jf.insns;
  Alcotest.(check int) "same cycles as the naive binary" base.cycles jf.cycles;
  Alcotest.(check int) "same loads" base.loads jf.loads;
  Alcotest.(check int) "same stores" base.stores jf.stores

(* --- per-page invalidation -------------------------------------------------- *)

let test_smc_user_store_invalidates () =
  (* a store rewrites a nop ahead of the pc into a syscall gate, inside
     the block's own page: the JIT must observe the new byte at its
     fetch, exactly like the uncached loop *)
  let gate = Codec.encode Insn.Syscall_gate in
  Alcotest.(check int) "gate is a 1-byte opcode" 1 (String.length gate);
  let rec fix target =
    let pre =
      [
        Insn.Mov_imm (Reg.r3, Int64.of_int target);
        Insn.Mov_imm (Reg.r4, Int64.of_int (Char.code gate.[0]));
        Insn.Store
          { dst = Sib { base = Reg.r3; index = None; scale = 1; disp = 0 };
            src = Reg.r4; size = 1 };
      ]
    in
    if 4096 + enc_len pre = target then pre else fix (4096 + enc_len pre)
  in
  let prog =
    fix 4200 @ [ Insn.Nop; Insn.Mov_imm (Reg.r1, 99L); Insn.Syscall_gate ]
  in
  let mem, cpu = setup prog in
  let su = Interp.run mem cpu ~fuel:200 in
  let mem_j, cpu_j = setup prog in
  let j = Jit.create ~threshold:0 () in
  let sj = Interp.run ~cache:(Decode_cache.create ()) ~jit:j mem_j cpu_j ~fuel:200 in
  Alcotest.(check string) "self-modifying: jit = uncached" (state_str su cpu)
    (state_str sj cpu_j);
  Alcotest.(check int64) "stopped before mov r1" 0L (Cpu.get cpu_j Reg.r1);
  Alcotest.(check bool) "block was compiled" true (cpu_j.Cpu.jit_compiles > 0);
  let _, _, inv = Jit.stats j in
  Alcotest.(check bool) "write to the JIT'd page invalidated or deopted" true
    (inv + cpu_j.Cpu.jit_deopts >= 1)

let test_priv_write_invalidates () =
  (* the loader path: privileged rewrite of a compiled page (domain-slot
     reuse) must drop the compiled block *)
  let mem, cpu = setup [ Insn.Mov_imm (Reg.r1, 1L); Insn.Syscall_gate ] in
  let cache = Decode_cache.create () in
  let j = Jit.create ~threshold:0 () in
  (match Interp.run ~cache ~jit:j mem cpu ~fuel:100 with
  | Interp.Stop_syscall -> ()
  | s -> Alcotest.fail ("first run: " ^ Interp.stop_to_string s));
  Alcotest.(check int64) "first immediate" 1L (Cpu.get cpu Reg.r1);
  Alcotest.(check bool) "compiled on first entry" true
    (cpu.Cpu.jit_compiles > 0);
  let patched, _ =
    Codec.encode_program [ Insn.Mov_imm (Reg.r1, 2L); Insn.Syscall_gate ]
  in
  Mem.write_bytes_priv mem ~addr:4096 patched;
  cpu.Cpu.pc <- 4096;
  (match Interp.run ~cache ~jit:j mem cpu ~fuel:100 with
  | Interp.Stop_syscall -> ()
  | s -> Alcotest.fail ("second run: " ^ Interp.stop_to_string s));
  Alcotest.(check int64) "patched immediate observed" 2L (Cpu.get cpu Reg.r1);
  let _, _, inv = Jit.stats j in
  Alcotest.(check bool) "stale compiled block dropped" true (inv >= 1)

(* --- mid-block fault deopt -------------------------------------------------- *)

let test_midblock_fault_identity () =
  (* r-x code compiles to fused multi-instruction units; a store that
     faults mid-unit must deopt with the CPU bit-identical to the
     uncached loop at the fault (partial charges included) *)
  let prog =
    [
      Insn.Mov_imm (Reg.r1, Int64.of_int (13 * 4096));
      Insn.Alu (Add, Reg.r2, O_imm 7L);
      Insn.Store
        { dst = Sib { base = Reg.r1; index = None; scale = 1; disp = 0 };
          src = Reg.r2; size = 8 };
      Insn.Syscall_gate;
    ]
  in
  let mem, cpu = setup ~code_perm:Mem.perm_rx prog in
  let su = Interp.run mem cpu ~fuel:100 in
  (match su with
  | Interp.Stop_fault (Fault.Page_fault { addr; access = Fault.Write })
    when addr = 13 * 4096 ->
      ()
  | s -> Alcotest.fail ("expected write fault, got " ^ Interp.stop_to_string s));
  let mem_j, cpu_j = setup ~code_perm:Mem.perm_rx prog in
  let j = Jit.create ~threshold:0 () in
  let sj = Interp.run ~cache:(Decode_cache.create ()) ~jit:j mem_j cpu_j ~fuel:100 in
  Alcotest.(check string) "mid-block fault: jit = uncached"
    (state_str su cpu) (state_str sj cpu_j);
  Alcotest.(check bool) "fault deopted out of compiled code" true
    (cpu_j.Cpu.jit_deopts >= 1)

(* --- RWX code: the mapping SIPs run on ---------------------------------------- *)

(* SGX1 fixes page permissions at EADD, so SIP code is RWX and every
   block is fragile. Fragile blocks still fuse: only a memory write ends
   a unit early. *)
let test_rwx_guard_heavy_fuses () =
  let at disp : Insn.mem =
    Sib { base = Reg.r1; index = None; scale = 1; disp }
  in
  let guard disp = [ Insn.Bndcl (Reg.bnd0, Ea_mem (at disp));
                     Insn.Bndcu (Reg.bnd0, Ea_mem (at disp)) ] in
  let prog =
    [ Insn.Mov_imm (Reg.r1, Int64.of_int Test_machine.data) ]
    @ guard 0
    @ [ Insn.Load { dst = Reg.r2; src = at 0; size = 8 };
        Insn.Alu (Add, Reg.r2, O_imm 5L) ]
    @ [ Insn.Bndcu (Reg.bnd0, Ea_mem (at 8));
        Insn.Store { dst = at 8; src = Reg.r2; size = 8 } ]
    @ guard 16
    @ [ Insn.Load { dst = Reg.r3; src = at 16; size = 1 };
        Insn.Alu (Xor, Reg.r3, O_reg Reg.r2);
        Insn.Cmp (Reg.r3, O_imm 0L);
        Insn.Syscall_gate ]
  in
  let bounds cpu =
    Cpu.set_bnd cpu Reg.bnd0
      { Cpu.lower = Int64.of_int Test_machine.data;
        upper = Int64.of_int (Test_machine.data + 4096 - 1) }
  in
  let mem, cpu = setup prog in
  bounds cpu;
  let b =
    match Decode_cache.build (Decode_cache.create ()) mem 4096 with
    | Some b -> b
    | None -> Alcotest.fail "block did not build"
  in
  Alcotest.(check bool) "RWX block is fragile" true b.Decode_cache.fragile;
  let c = Jit.compile (Jit.create ()) b in
  let units = Array.length c.Jit.units_fast in
  Alcotest.(check bool)
    (Printf.sprintf "%d units for %d instructions" units
       (Array.length b.Decode_cache.insns))
    true
    (units < Array.length b.Decode_cache.insns);
  Alcotest.(check int) "one unit ends at the store, and is revalidated after"
    1
    (Array.fold_left (fun n r -> if r then n + 1 else n) 0 c.Jit.revalidate);
  let su = Interp.run mem cpu ~fuel:100 in
  let mem_j, cpu_j = setup prog in
  bounds cpu_j;
  let sj =
    Interp.run ~cache:(Decode_cache.create ()) ~jit:(Jit.create ~threshold:0 ())
      mem_j cpu_j ~fuel:100
  in
  Alcotest.(check string) "fused RWX block: jit = uncached" (state_str su cpu)
    (state_str sj cpu_j)

let test_rwx_store_rewrites_next () =
  (* store, load, load: on r-x code this would chain into one unit. On
     RWX code the store rewrites the first load's opcode into a syscall
     gate, so the very next fetch must see the gate *)
  let gate = Codec.encode Insn.Syscall_gate in
  let load r : Insn.t =
    Load { dst = r; src = Sib { base = Reg.r7; index = None; scale = 1; disp = 0 };
           size = 8 }
  in
  let rec fix target =
    let pre =
      [
        Insn.Mov_imm (Reg.r7, Int64.of_int Test_machine.data);
        Insn.Mov_imm (Reg.r3, Int64.of_int target);
        Insn.Mov_imm (Reg.r4, Int64.of_int (Char.code gate.[0]));
        Insn.Store
          { dst = Sib { base = Reg.r3; index = None; scale = 1; disp = 0 };
            src = Reg.r4; size = 1 };
      ]
    in
    if 4096 + enc_len pre = target then pre else fix (4096 + enc_len pre)
  in
  let prog =
    fix 4200 @ [ load Reg.r5; load Reg.r6; Insn.Mov_imm (Reg.r1, 99L);
                 Insn.Syscall_gate ]
  in
  let mem, cpu = setup prog in
  let su = Interp.run mem cpu ~fuel:200 in
  Alcotest.(check string) "uncached stops at the rewritten gate" "syscall"
    (Interp.stop_to_string su);
  let mem_j, cpu_j = setup prog in
  let sj =
    Interp.run ~cache:(Decode_cache.create ()) ~jit:(Jit.create ~threshold:0 ())
      mem_j cpu_j ~fuel:200
  in
  Alcotest.(check string) "store rewriting its next insn: jit = uncached"
    (state_str su cpu) (state_str sj cpu_j);
  Alcotest.(check bool) "ran compiled, then deopted" true
    (cpu_j.Cpu.jit_compiles > 0 && cpu_j.Cpu.jit_deopts >= 1);
  let mem_c, cpu_c = setup prog in
  let sc = Interp.run ~cache:(Decode_cache.create ()) mem_c cpu_c ~fuel:200 in
  Alcotest.(check string) "store rewriting its next insn: cached = uncached"
    (state_str su cpu) (state_str sc cpu_c)

(* --- quantum expiry at every boundary ---------------------------------------- *)

(* The fuzz harness injects AEX by fuel slicing, so quantum expiry must
   land on every original-instruction boundary even inside the fused
   units a zero-threshold JIT runs from the first execution: (a) for
   every boundary i, a run with [~fuel:i] must stop bit-identically to
   the uncached loop and resume to the same completion, and (b) a
   period-1 slicing run must match the uncached loop after every stop. *)
let quantum_every_boundary ~code_perm prog =
  let tier ~jit =
    let mem, cpu = setup ~code_perm prog in
    let cache = if jit then Some (Decode_cache.create ()) else None in
    let j = if jit then Some (Jit.create ~threshold:0 ()) else None in
    ((fun fuel -> Interp.run ?cache ?jit:j mem cpu ~fuel), cpu)
  in
  let split ~jit i =
    let run, cpu = tier ~jit in
    let s1 = run i in
    let mid = state_str s1 cpu in
    let s2 = if s1 = Interp.Stop_syscall then s1 else run 100_000 in
    (mid, state_str s2 cpu)
  in
  let n =
    let run, cpu = tier ~jit:false in
    ignore (run 100_000);
    cpu.Cpu.insns
  in
  for i = 0 to n do
    let mu, fu = split ~jit:false i in
    let mj, fj = split ~jit:true i in
    Alcotest.(check string)
      (Printf.sprintf "quantum at boundary %d: identical stop" i)
      mu mj;
    Alcotest.(check string)
      (Printf.sprintf "quantum at boundary %d: identical completion" i)
      fu fj
  done;
  let run_u, cpu_u = tier ~jit:false and run_j, cpu_j = tier ~jit:true in
  let rec slice k =
    let su = run_u 1 and sj = run_j 1 in
    Alcotest.(check string)
      (Printf.sprintf "period-1 slice %d" k)
      (state_str su cpu_u) (state_str sj cpu_j);
    if su = Interp.Stop_quantum && k < n then slice (k + 1)
  in
  slice 0;
  Alcotest.(check int) "period-1 slicing reached the syscall" n
    cpu_j.Cpu.insns;
  Alcotest.(check bool) "ran compiled" true (cpu_j.Cpu.jit_compiles > 0)

let test_quantum_every_boundary () =
  quantum_every_boundary ~code_perm:Mem.perm_rx (loop_prog 20)

let test_quantum_every_boundary_rwx () =
  quantum_every_boundary ~code_perm:Mem.perm_rwx (loop_prog ~store:true 20)

(* --- zero allocation in steady state ----------------------------------------- *)

(* The deterministic host-cost proxy: once the hot loop is compiled, the
   JIT retires instructions without touching the minor heap — registers
   live unboxed in [Cpu.regs] and no compiled closure boxes an int64. *)
let test_jit_steady_state_no_alloc () =
  List.iter
    (fun (name, code_perm, prog) ->
      let mem, cpu = setup ~code_perm prog in
      let cache = Decode_cache.create () and jit = Jit.create () in
      ignore (Interp.run ~cache ~jit mem cpu ~fuel:1_000);
      Alcotest.(check bool) (name ^ ": compiled") true
        (cpu.Cpu.jit_compiles > 0);
      let i0 = cpu.Cpu.insns and w0 = Gc.minor_words () in
      ignore (Interp.run ~cache ~jit mem cpu ~fuel:200_000);
      let words = Gc.minor_words () -. w0 in
      let per_insn = words /. float_of_int (cpu.Cpu.insns - i0) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f minor words/insn < 0.01" name per_insn)
        true (per_insn < 0.01))
    [
      ("r-x loop", Mem.perm_rx, loop_prog 100_000);
      ("RWX loop", Mem.perm_rwx, loop_prog 100_000);
      ("RWX loop with guard, store, load", Mem.perm_rwx, loop_prog ~store:true 100_000);
    ]

(* --- LibOS: multi-core determinism and stats -------------------------------- *)

let test_libos_jit_on_off_identical () =
  let run jit =
    let config = { Os.default_config with Os.jit } in
    let os = Os.boot ~config () in
    Os.install_binary os "/bin/compute"
      (Harness.build_for Harness.Occlum Harness.compute_prog);
    ignore (Os.spawn os ~parent_pid:0 ~path:"/bin/compute" ~args:[ "20000" ]);
    (match Os.run ~max_steps:5_000_000 os with
    | Os.All_exited -> ()
    | _ -> Alcotest.fail "compute SIP did not exit");
    os
  in
  let os_j = run true in
  let os_i = run false in
  Alcotest.(check string) "digest identical with the JIT on/off"
    (Os.state_digest os_i) (Os.state_digest os_j);
  (match Os.jit_stats os_j with
  | Some (c, h, _) ->
      Alcotest.(check bool) "compiled and replayed under the LibOS" true
        (c > 0 && h > 0)
  | None -> Alcotest.fail "jit stats missing with the JIT enabled");
  Alcotest.(check bool) "stats absent when disabled" true
    (Os.jit_stats os_i = None)

let test_multicore_digest_with_jit () =
  (* default config: decode cache + JIT on, per-core code caches *)
  let digest cores =
    let r =
      Harness.run_compute_scaling ~sips:6 ~iters:12_000 ~cores Harness.Occlum
    in
    Alcotest.(check bool)
      (Printf.sprintf "cores=%d completes" cores)
      true
      (r.Harness.sc_status = Os.All_exited);
    r.Harness.sc_digest
  in
  Alcotest.(check string) "cores=4 == cores=1 with the JIT on" (digest 1)
    (digest 4)

let suite =
  [
    Alcotest.test_case "differential: SPEC kernels, 3 tiers" `Quick
      test_spec_differential_3way;
    Alcotest.test_case "guard_heavy: elision parity" `Quick
      test_guard_heavy_elide_parity;
    Alcotest.test_case "self-modifying store invalidates" `Quick
      test_smc_user_store_invalidates;
    Alcotest.test_case "privileged write invalidates" `Quick
      test_priv_write_invalidates;
    Alcotest.test_case "mid-block fault deopts bit-identically" `Quick
      test_midblock_fault_identity;
    Alcotest.test_case "quantum at every boundary" `Quick
      test_quantum_every_boundary;
    Alcotest.test_case "RWX: guard-heavy block fuses" `Quick
      test_rwx_guard_heavy_fuses;
    Alcotest.test_case "RWX: store rewrites the next insn" `Quick
      test_rwx_store_rewrites_next;
    Alcotest.test_case "RWX: quantum at every boundary, store in loop" `Quick
      test_quantum_every_boundary_rwx;
    Alcotest.test_case "steady state allocates nothing" `Quick
      test_jit_steady_state_no_alloc;
    Alcotest.test_case "LibOS: jit on/off identical + stats" `Quick
      test_libos_jit_on_off_identical;
    Alcotest.test_case "multi-core digest with jit" `Quick
      test_multicore_digest_with_jit;
  ]
