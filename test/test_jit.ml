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
   the architectural part). [~bounds:false] leaves out the bound-check
   count, which guard elision legitimately lowers. *)
let state_str ?(bounds = true) stop cpu =
  Printf.sprintf
    "stop=%s pc=%d eq=%b lt=%b cycles=%d insns=%d loads=%d stores=%d bnd=%s regs=%s"
    (Interp.stop_to_string stop)
    cpu.Cpu.pc cpu.Cpu.flag_eq cpu.Cpu.flag_lt cpu.Cpu.cycles cpu.Cpu.insns
    cpu.Cpu.loads cpu.Cpu.stores
    (if bounds then string_of_int cpu.Cpu.bound_checks else "-")
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

(* A tiny assembler for code at fixed addresses: [J (mk, target)] is a
   pc-relative transfer [mk rel] to the absolute [target], its
   displacement found by fixed point (the encoding length depends on
   it). *)
type item = I of Insn.t | J of (int -> Insn.t) * int

let assemble ~at items =
  let buf = Buffer.create 64 in
  List.iter
    (fun it ->
      let pc = at + Buffer.length buf in
      let insn =
        match it with
        | I i -> i
        | J (mk, target) ->
            let rec fix rel =
              let len = String.length (Codec.encode (mk rel)) in
              let rel' = target - (pc + len) in
              if rel' = rel then mk rel else fix rel'
            in
            fix 0
      in
      Codec.encode_into buf insn)
    items;
  Buffer.to_bytes buf

let jmp t = J ((fun r -> Insn.Jmp r), t)
let jne t = J ((fun r -> Insn.Jcc (Ne, r)), t)
let call t = J ((fun r -> Insn.Call r), t)

(* [Test_machine.setup] with code pages 1 and 2 and each piece of code
   at its own address *)
let setup_pieces ?(code_perm = Mem.perm_rwx) pieces =
  let mem, cpu = setup ~code_perm [] in
  Mem.map mem ~addr:8192 ~len:4096 ~perm:code_perm;
  List.iter (fun (addr, code) -> Mem.write_bytes_priv mem ~addr code) pieces;
  (mem, cpu)

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

(* A loop body over three blocks, one of them a called function: every
   block exit (call, ret, loop branch) chains to the block it took last
   time, so the steady state allocates nothing at block entry either. *)
let multi_block_prog iters =
  let f = 4096 + 2048 in
  let init =
    [ I (Insn.Mov_imm (Reg.r1, Int64.of_int iters));
      I (Insn.Mov_imm (Reg.r2, 0L));
      I (Insn.Mov_imm (Reg.r7, Int64.of_int Test_machine.data)) ]
  in
  let l = 4096 + Bytes.length (assemble ~at:4096 init) in
  let slot : Insn.mem = Sib { base = Reg.r7; index = None; scale = 1; disp = 0 } in
  [
    ( 4096,
      assemble ~at:4096
        (init
        @ [ I (Insn.Alu (Add, Reg.r2, O_imm 3L)); call f;
            I (Insn.Alu (Sub, Reg.r1, O_imm 1L)); I (Insn.Cmp (Reg.r1, O_imm 0L));
            jne l; I Insn.Syscall_gate ]) );
    ( f,
      assemble ~at:f
        [ I (Insn.Alu (Add, Reg.r2, O_imm 1L));
          I (Insn.Store { dst = slot; src = Reg.r2; size = 8 });
          I (Insn.Load { dst = Reg.r5; src = slot; size = 8 });
          I Insn.Ret ] );
  ]

let test_jit_multi_block_no_alloc () =
  List.iter
    (fun (name, code_perm) ->
      let pieces = multi_block_prog 100_000 in
      let mem, cpu = setup_pieces ~code_perm pieces in
      let cache = Decode_cache.create () and jit = Jit.create () in
      ignore (Interp.run ~cache ~jit mem cpu ~fuel:1_000);
      Alcotest.(check int) (name ^ ": three blocks compiled") 3
        cpu.Cpu.jit_compiles;
      let i0 = cpu.Cpu.insns and w0 = Gc.minor_words () in
      ignore (Interp.run ~cache ~jit mem cpu ~fuel:200_000);
      let words = Gc.minor_words () -. w0 in
      let per_insn = words /. float_of_int (cpu.Cpu.insns - i0) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f minor words/insn < 0.01" name per_insn)
        true (per_insn < 0.01);
      let mem_u, cpu_u = setup_pieces ~code_perm pieces in
      let mem_j, cpu_j = setup_pieces ~code_perm pieces in
      let su = Interp.run mem_u cpu_u ~fuel:10_000_000 in
      let sj = Interp.run ~cache:(Decode_cache.create ()) ~jit:(Jit.create ())
          mem_j cpu_j ~fuel:10_000_000 in
      Alcotest.(check string) (name ^ ": jit = uncached") (state_str su cpu_u)
        (state_str sj cpu_j))
    [ ("r-x call/ret loop", Mem.perm_rx); ("RWX call/ret loop", Mem.perm_rwx) ]

(* --- the inline fast path: same faults, marks and counts ------------------------ *)

(* A loop that loads and stores 10 cold data pages (and one 8-byte span
   across a page boundary) through an 8-frame EPC pool, re-reading a hot
   page between each, so the reclaimer clears reference bits, spares the
   hot page only if every access set its bit again, and evicts pages
   mid-run; each [Epc_miss] reloads the page and resumes. The JIT tier
   must take exactly the uncached tier's faults and EWB/ELDU traffic.
   The tiers may differ in the code page's reference bit (only a fetch
   sets it, and compiled code does not fetch), so a victim policy keeps
   the code page out of the sweep. *)
let paged_loop_prog iters =
  let at k : Insn.mem =
    Sib { base = Reg.r7; index = None; scale = 1; disp = (k * 4096) + 64 }
  in
  let straddle : Insn.mem =
    Sib { base = Reg.r7; index = None; scale = 1; disp = (3 * 4096) - 4 }
  in
  let body =
    List.concat_map
      (fun k ->
        [ Insn.Load { dst = Reg.r5; src = at k; size = 8 };
          Insn.Alu (Add, Reg.r5, O_reg Reg.r1);
          Insn.Store { dst = at k; src = Reg.r5; size = 8 };
          Insn.Load { dst = Reg.r9; src = at 0; size = 8 };
          Insn.Alu (Add, Reg.r10, O_reg Reg.r9) ])
      (List.init 10 (fun k -> k + 1))
    @ [ Insn.Load { dst = Reg.r6; src = straddle; size = 8 };
        Insn.Alu (Add, Reg.r6, O_imm 1L);
        Insn.Store { dst = straddle; src = Reg.r6; size = 8 };
        Insn.Alu (Sub, Reg.r1, O_imm 1L); Insn.Cmp (Reg.r1, O_imm 0L) ]
  in
  let init =
    [ I (Insn.Mov_imm (Reg.r1, Int64.of_int iters));
      I (Insn.Mov_imm (Reg.r7, Int64.of_int Test_machine.data)) ]
  in
  let l = 4096 + Bytes.length (assemble ~at:4096 init) in
  assemble ~at:4096 (init @ List.map (fun i -> I i) body @ [ jne l; I Insn.Syscall_gate ])

let run_paged ~jit code =
  let module Epc = Occlum_sgx.Epc in
  let pool = Epc.create ~size:(8 * 4096) () in
  Epc.enable_paging pool;
  let mem = Mem.create ~size:(64 * 4096) in
  Epc.register_client pool ~cid:1 ~mem;
  Epc.set_victim_policy pool (Some (fun () ~cid:_ ~page -> page = 1));
  Mem.map mem ~addr:4096 ~len:4096 ~perm:Mem.perm_rwx;
  Mem.map mem ~addr:Test_machine.data ~len:(14 * 4096) ~perm:Mem.perm_rw;
  Mem.write_bytes_priv mem ~addr:4096 code;
  let cpu = Cpu.create () in
  cpu.Cpu.pc <- 4096;
  let cache = if jit then Some (Decode_cache.create ()) else None in
  let j = if jit then Some (Jit.create ~threshold:0 ()) else None in
  let misses = Buffer.create 256 in
  let rec go n =
    if n > 100_000 then Alcotest.fail "paged loop made no progress";
    match Interp.run ?cache ?jit:j mem cpu ~fuel:1_000 with
    | Interp.Stop_fault (Fault.Epc_miss { addr; access }) ->
        Printf.bprintf misses "%x:%s " addr (Fault.access_to_string access);
        Epc.eldu pool ~cid:1 ~page:(addr / 4096);
        go (n + 1)
    | Interp.Stop_quantum -> go (n + 1)
    | s -> s
  in
  let stop = go 0 in
  let st =
    match Epc.paging_stats pool with
    | Some st -> st
    | None -> Alcotest.fail "paging stats missing"
  in
  let data = Mem.read_bytes_priv mem ~addr:Test_machine.data ~len:(14 * 4096) in
  (state_str stop cpu, Buffer.contents misses, st, Digest.bytes data, cpu)

let test_fast_path_paged_equivalence () =
  let code = paged_loop_prog 30 in
  let su, mu, stu, du, _ = run_paged ~jit:false code in
  let sj, mj, stj, dj, cpu_j = run_paged ~jit:true code in
  Alcotest.(check string) "final state: jit = uncached" su sj;
  Alcotest.(check string) "same Epc_miss faults, in order" mu mj;
  Alcotest.(check int) "same EWB count" stu.Occlum_sgx.Epc.ewb stj.Occlum_sgx.Epc.ewb;
  Alcotest.(check int) "same ELDU count" stu.Occlum_sgx.Epc.eldu stj.Occlum_sgx.Epc.eldu;
  Alcotest.(check string) "same data pages" (Digest.to_hex du) (Digest.to_hex dj);
  (* both tiers share the inline test, so also check it against the
     clock itself: every access to the hot page sets its reference bit
     again, so second chance spares it more often than any cold page *)
  let misses_of page =
    let prefix = Printf.sprintf "%x:" (Test_machine.data + (page * 4096)) in
    List.length
      (List.filter (String.starts_with ~prefix) (String.split_on_char ' ' mj))
  in
  let hot = misses_of 0 in
  let coldest = List.fold_left min max_int (List.init 10 (fun k -> misses_of (k + 1))) in
  Alcotest.(check bool)
    (Printf.sprintf "hot page missed %d times, each cold page >= %d" hot coldest)
    true (hot < coldest);
  Alcotest.(check bool)
    (Printf.sprintf "pages were evicted (%d) and reloaded (%d)"
       stj.Occlum_sgx.Epc.ewb stj.Occlum_sgx.Epc.eldu)
    true
    (stj.Occlum_sgx.Epc.ewb > 30 && stj.Occlum_sgx.Epc.eldu > 30);
  Alcotest.(check bool) "ran compiled" true (cpu_j.Cpu.jit_compiles > 0)

let test_fast_store_marks_clean_page_dirty () =
  (* the data page starts clean; the compiled loop's stores must dirty
     it, or the slot-reuse scrub would skip it and leak its bytes *)
  let mem, cpu = setup (loop_prog ~store:true 50) in
  let page = Test_machine.data / 4096 in
  Alcotest.(check bool) "data page clean before" false (Mem.page_dirty mem page);
  let j = Jit.create ~threshold:0 () in
  (match Interp.run ~cache:(Decode_cache.create ()) ~jit:j mem cpu ~fuel:10_000 with
  | Interp.Stop_syscall -> ()
  | s -> Alcotest.fail ("loop: " ^ Interp.stop_to_string s));
  Alcotest.(check bool) "ran compiled" true (cpu.Cpu.jit_compiles > 0);
  Alcotest.(check bool) "stored sum is there" true
    (Mem.read_u64_priv mem Test_machine.data <> 0L);
  Alcotest.(check bool) "data page dirty after" true (Mem.page_dirty mem page);
  Mem.zero_dirty_priv mem ~addr:Test_machine.data ~len:(4 * 4096);
  Alcotest.(check int64) "scrub zeroed it" 0L
    (Mem.read_u64_priv mem Test_machine.data)

let test_fast_store_into_code_moves_gen () =
  (* every compiled store into an RWX code page moves its generation,
     and invalidates a block there that had just validated (an O(1)
     revalidation would miss it if the store left the epoch alone) *)
  let iters = 20 in
  let target = 8192 + 256 in
  let init =
    [ I (Insn.Mov_imm (Reg.r1, Int64.of_int iters));
      I (Insn.Mov_imm (Reg.r3, Int64.of_int target)) ]
  in
  let l = 4096 + Bytes.length (assemble ~at:4096 init) in
  let main =
    assemble ~at:4096
      (init
      @ [ I (Insn.Store
               { dst = Sib { base = Reg.r3; index = None; scale = 1; disp = 0 };
                 src = Reg.r1; size = 8 });
          I (Insn.Alu (Sub, Reg.r1, O_imm 1L)); I (Insn.Cmp (Reg.r1, O_imm 0L));
          jne l; I Insn.Syscall_gate ])
  in
  let other = assemble ~at:8192 [ I Insn.Nop; I Insn.Syscall_gate ] in
  let mem, cpu = setup_pieces [ (4096, main); (8192, other) ] in
  let b =
    match Decode_cache.build (Decode_cache.create ()) mem 8192 with
    | Some b -> b
    | None -> Alcotest.fail "block did not build"
  in
  Alcotest.(check bool) "other block valid" true (Decode_cache.block_valid mem b);
  let g0 = Mem.page_gen mem 2 in
  (match
     Interp.run ~cache:(Decode_cache.create ()) ~jit:(Jit.create ~threshold:0 ())
       mem cpu ~fuel:10_000
   with
  | Interp.Stop_syscall -> ()
  | s -> Alcotest.fail ("loop: " ^ Interp.stop_to_string s));
  Alcotest.(check bool) "ran compiled" true (cpu.Cpu.jit_compiles > 0);
  Alcotest.(check int) "one generation per store" iters (Mem.page_gen mem 2 - g0);
  Alcotest.(check bool) "other block invalidated" false
    (Decode_cache.block_valid mem b)

(* --- chained exits see invalidation ---------------------------------------------- *)

(* Block A (page 1) and block B (page 2) jump to each other; after some
   iterations B is A's chained successor. Each case then changes B and
   the run must re-decode it, exactly as the uncached loop sees it. *)
let b_at = 8192

let chain_pieces ~a_body ~b_body =
  let init =
    [ I (Insn.Mov_imm (Reg.r1, 40L));
      I (Insn.Mov_imm (Reg.r6, Int64.of_int Test_machine.data)) ]
  in
  let a = 4096 + Bytes.length (assemble ~at:4096 (init @ [ jmp b_at ])) in
  [
    (4096, assemble ~at:4096 (init @ [ jmp b_at ] @ a_body @ [ jmp b_at ]));
    ( b_at,
      assemble ~at:b_at
        (b_body
        @ [ I (Insn.Alu (Sub, Reg.r1, O_imm 1L)); I (Insn.Cmp (Reg.r1, O_imm 0L));
            jne a; I Insn.Syscall_gate ]) );
  ]

let test_chain_store_into_successor () =
  (* A stores through a table entry indexed by the loop counter: into
     the data page, except at r1 = 10, where it overwrites B's leading
     nop with a syscall gate — after B has been A's successor for 29
     iterations *)
  let gate = Codec.encode Insn.Syscall_gate in
  let a_body =
    [ I (Insn.Load
           { dst = Reg.r3; src = Sib { base = Reg.r6; index = Some Reg.r1; scale = 8; disp = 0 };
             size = 8 });
      I (Insn.Store
           { dst = Sib { base = Reg.r3; index = None; scale = 1; disp = 0 };
             src = Reg.r4; size = 1 }) ]
  in
  let b_body = [ I Insn.Nop; I (Insn.Alu (Add, Reg.r8, O_imm 1L)) ] in
  let pieces = chain_pieces ~a_body ~b_body in
  let machine () =
    let mem, cpu = setup_pieces pieces in
    for k = 0 to 40 do
      let dst = if k = 10 then b_at else Test_machine.data + 2048 in
      Mem.write_u64_priv mem (Test_machine.data + (8 * k)) (Int64.of_int dst)
    done;
    Cpu.set cpu Reg.r4 (Int64.of_int (Char.code gate.[0]));
    (mem, cpu)
  in
  let mem_u, cpu_u = machine () in
  let su = Interp.run mem_u cpu_u ~fuel:100_000 in
  Alcotest.(check int) "uncached stops at B's rewritten entry" (b_at + 1)
    cpu_u.Cpu.pc;
  let mem_j, cpu_j = machine () in
  let sj =
    Interp.run ~cache:(Decode_cache.create ()) ~jit:(Jit.create ~threshold:0 ())
      mem_j cpu_j ~fuel:100_000
  in
  Alcotest.(check string) "store into the successor: jit = uncached"
    (state_str su cpu_u) (state_str sj cpu_j);
  Alcotest.(check bool) "A chained to B before" true (cpu_j.Cpu.jit_hits > 40);
  Alcotest.(check bool) "stale B dropped and re-decoded" true
    (cpu_j.Cpu.jit_invalidations >= 1 && cpu_j.Cpu.dcache_invalidations >= 1)

(* Run [pieces] for [fuel] instructions on the uncached loop and on a
   zero-threshold JIT, apply [change] to both machines, and run both to
   completion. *)
let chain_change ?(jit = Jit.create ~threshold:0 ()) ~fuel ~change pieces =
  let mem_u, cpu_u = setup_pieces pieces in
  let mem_j, cpu_j = setup_pieces pieces in
  let cache = Decode_cache.create () in
  let s1u = Interp.run mem_u cpu_u ~fuel in
  let s1j = Interp.run ~cache ~jit mem_j cpu_j ~fuel in
  Alcotest.(check string) "first leg stops alike" (Interp.stop_to_string s1u)
    (Interp.stop_to_string s1j);
  Alcotest.(check bool) "first leg ran compiled and chained" true
    (cpu_j.Cpu.jit_compiles > 0 && cpu_j.Cpu.jit_hits > 10);
  change ~jit:false mem_u cpu_u;
  change ~jit:true mem_j cpu_j;
  let su = Interp.run mem_u cpu_u ~fuel:100_000 in
  let sj = Interp.run ~cache ~jit mem_j cpu_j ~fuel:100_000 in
  (su, cpu_u, sj, cpu_j)

let test_chain_elide_facts_change () =
  (* B's guard is elided while A chains to it; then the facts drop it
     and the bounds exclude the address: the next entry into B must
     check, and fault, as the uncached loop does *)
  let slot : Insn.mem = Sib { base = Reg.r6; index = None; scale = 1; disp = 0 } in
  let b_body =
    [ I (Insn.Bndcl (Reg.bnd0, Ea_mem slot)); I (Insn.Bndcu (Reg.bnd0, Ea_mem slot));
      I (Insn.Alu (Add, Reg.r8, O_imm 1L)) ]
  in
  let pieces =
    chain_pieces ~a_body:[ I (Insn.Alu (Add, Reg.r9, O_imm 1L)) ] ~b_body
  in
  let jit = Jit.create ~threshold:0 () in
  Jit.elide_fact jit ~addr:b_at;
  let change ~jit:on mem cpu =
    Cpu.set_bnd cpu Reg.bnd0
      { Cpu.lower = Int64.of_int (Test_machine.data + 4096); upper = -1L };
    if on then Jit.set_elide_facts jit mem ~lo:b_at ~hi:(b_at + 4096) []
  in
  let su, cpu_u, sj, cpu_j = chain_change ~jit ~fuel:150 ~change pieces in
  (match su with
  | Interp.Stop_fault (Fault.Bound_fault _) -> ()
  | s -> Alcotest.fail ("uncached: expected a bound fault, got " ^ Interp.stop_to_string s));
  Alcotest.(check bool) "guards were elided" true (Jit.elisions jit > 0);
  Alcotest.(check string) "facts changed under a chained exit: jit = uncached"
    (state_str ~bounds:false su cpu_u)
    (state_str ~bounds:false sj cpu_j);
  Alcotest.(check bool) "stale B dropped" true (cpu_j.Cpu.jit_invalidations >= 1)

let test_chain_replacement () =
  (* a re-placement rewrites B's increment while A chains to it *)
  let a_body = [ I (Insn.Alu (Add, Reg.r9, O_imm 1L)) ] in
  let b_body k = [ I (Insn.Alu (Add, Reg.r8, O_imm k)) ] in
  let pieces = chain_pieces ~a_body ~b_body:(b_body 1L) in
  let b' = List.assoc b_at (chain_pieces ~a_body ~b_body:(b_body 7L)) in
  let change ~jit:_ mem _ = Mem.place_priv mem ~addr:b_at b' in
  let su, cpu_u, sj, cpu_j = chain_change ~fuel:100 ~change pieces in
  Alcotest.(check string) "uncached ran to the gate" "syscall"
    (Interp.stop_to_string su);
  Alcotest.(check string) "re-placed successor: jit = uncached"
    (state_str su cpu_u) (state_str sj cpu_j);
  Alcotest.(check bool) "stale B dropped and re-decoded" true
    (cpu_j.Cpu.jit_invalidations >= 1 && cpu_j.Cpu.dcache_invalidations >= 1)

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
    Alcotest.test_case "steady state allocates nothing: call/ret blocks" `Quick
      test_jit_multi_block_no_alloc;
    Alcotest.test_case "fast path: paged loop = uncached" `Quick
      test_fast_path_paged_equivalence;
    Alcotest.test_case "fast path: store dirties a clean page" `Quick
      test_fast_store_marks_clean_page_dirty;
    Alcotest.test_case "fast path: store into code moves its gen" `Quick
      test_fast_store_into_code_moves_gen;
    Alcotest.test_case "chain: store into the successor" `Quick
      test_chain_store_into_successor;
    Alcotest.test_case "chain: elide facts change" `Quick
      test_chain_elide_facts_change;
    Alcotest.test_case "chain: re-placed successor" `Quick
      test_chain_replacement;
    Alcotest.test_case "LibOS: jit on/off identical + stats" `Quick
      test_libos_jit_on_off_identical;
    Alcotest.test_case "multi-core digest with jit" `Quick
      test_multicore_digest_with_jit;
  ]
