(* Architectural state of one simulated hardware thread: 16 GPRs, four
   MPX bound registers, comparison flags, a program counter, and cycle /
   instruction counters used by the benchmarks.

   The GPRs live unboxed in a [Bytes.t], 8 little-endian bytes each:
   [Bytes.get_int64_le]/[set_int64_le] compile to plain loads and stores,
   where an [int64 array] would box every value written. *)

type bound = { lower : int64; upper : int64 } (* inclusive range *)

type t = {
  regs : Bytes.t; (* GPR i at byte offset 8 * i *)
  bnds : bound array;
  mutable pc : int;
  mutable flag_eq : bool;
  mutable flag_lt : bool; (* signed a < b of the last cmp *)
  mutable cycles : int;
  mutable insns : int;
  mutable loads : int;
  mutable stores : int;
  mutable bound_checks : int;
  (* decoded-block cache statistics; purely observational, never part of
     the architectural state captured by [save]/[restore] *)
  mutable dcache_hits : int;
  mutable dcache_misses : int;
  mutable dcache_invalidations : int;
  (* block-JIT tier statistics; observational like the dcache_* fields *)
  mutable jit_compiles : int;
  mutable jit_hits : int;
  mutable jit_invalidations : int;
  mutable jit_deopts : int;
}

let create () =
  {
    regs = Bytes.make (8 * Occlum_isa.Reg.count) '\x00';
    bnds = Array.make Occlum_isa.Reg.bnd_count { lower = 0L; upper = -1L };
    pc = 0;
    flag_eq = false;
    flag_lt = false;
    cycles = 0;
    insns = 0;
    loads = 0;
    stores = 0;
    bound_checks = 0;
    dcache_hits = 0;
    dcache_misses = 0;
    dcache_invalidations = 0;
    jit_compiles = 0;
    jit_hits = 0;
    jit_invalidations = 0;
    jit_deopts = 0;
  }

let get t r = Bytes.get_int64_le t.regs (8 * Occlum_isa.Reg.to_int r)
let set t r v = Bytes.set_int64_le t.regs (8 * Occlum_isa.Reg.to_int r) v
let get_bnd t b = t.bnds.(Occlum_isa.Reg.bnd_to_int b)
let set_bnd t b range = t.bnds.(Occlum_isa.Reg.bnd_to_int b) <- range

(* Snapshot / restore for AEX: SGX saves GPRs and MPX bound registers to
   the SSA on an asynchronous exit and restores them on resume (§2.1,
   §2.3). The LibOS also uses this to context-switch between SIPs. *)
type snapshot = {
  s_regs : Bytes.t;
  s_bnds : bound array;
  s_pc : int;
  s_flag_eq : bool;
  s_flag_lt : bool;
}

let save t =
  {
    s_regs = Bytes.copy t.regs;
    s_bnds = Array.copy t.bnds;
    s_pc = t.pc;
    s_flag_eq = t.flag_eq;
    s_flag_lt = t.flag_lt;
  }

let restore t s =
  Bytes.blit s.s_regs 0 t.regs 0 (Bytes.length t.regs);
  Array.blit s.s_bnds 0 t.bnds 0 (Array.length t.bnds);
  t.pc <- s.s_pc;
  t.flag_eq <- s.s_flag_eq;
  t.flag_lt <- s.s_flag_lt
