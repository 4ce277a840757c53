(* Block-JIT execution tier: compile hot decoded basic blocks into
   pre-built OCaml closure chains.

   The decode cache (tier 2) removed per-execution decoding but still
   dispatches a full-ISA [match] per instruction. This tier removes the
   dispatch too: each instruction of a hot block is translated once into
   a specialized closure with its operands pre-resolved (register
   indices, immediates, cycle cost, target pcs), and consecutive
   instructions are fused into superinstruction units — guard+load /
   guard+store / guard+guard pairs share one effective-address
   computation, and straight-line runs are chained so the per-
   instruction loop overhead is amortized over up to four instructions.

   Equivalence contract (checked by fuzz property #8 and test_jit):
   every closure replicates [Interp.exec_decoded]'s architectural
   effects exactly — the same counter charges in the same order, the
   same fault payloads and fault-atomicity, the same pc parking. Two
   closure variants exist per unit: [fast] (no internal checks; run only
   when the remaining fuel covers the whole unit) and [safe] (re-checks
   fuel at every internal instruction boundary, so quantum expiry — the
   modelled timer interrupt, and the way the fuzz harness injects AEX by
   fuel slicing — parks the pc on the same boundary as the interpreter).

   Invalidation mirrors the decode cache: a compiled block keeps its
   source block's page-generation snapshot (revalidated in O(1) through
   [Mem]'s code epoch) and is dropped when a lookup finds the
   generations moved. Each block also keeps a one-entry successor slot:
   the block its exit entered last time, which the interpreter enters
   again directly while it is still valid. Blocks spanning a
   writable+executable page ("fragile" — every SIP's code region, since
   SGX1 fixes page permissions at EADD and the LibOS maps code RWX) are
   fused like any other, except that a unit never continues past an
   instruction that writes memory; the interpreter revalidates the block
   after each such unit, so self-modifying code deopts back to the
   decoded-block tier before the next instruction runs.

   Guard elision: translation consults a table of guard addresses that
   [Occlum_analysis.Elide] classified dominated-redundant or
   range-proven. Such a bndcl/bndcu compiles to a charge-only body: the
   bound comparison and the [bound_checks] counter are skipped, giving
   the memory behavior of the statically elided, re-verified binary
   while keeping the unelided binary's instruction and cycle counts (the
   virtual clock is unchanged, so digests and schedules are stable). *)

open Occlum_isa

type stop =
  | Stop_syscall
  | Stop_fault of Fault.t
  | Stop_quantum

type ustat = U_fall | U_stop of stop

type body = Mem.t -> Cpu.t -> ustat
(* one translated instruction: charge, execute, park pc; faults raise *)

type unit_fn = Mem.t -> Cpu.t -> int -> ustat
(* a unit with internal boundary checks, given the fuel remaining
   before the unit's first instruction *)

type compiled = {
  entry : int;
  src : Decode_cache.block; (* carries the generation snapshot *)
  units_fast : body array;
  units_safe : unit_fn array;
  unit_insns : int array; (* original instructions per unit *)
  revalidate : bool array;
      (* unit u ends at a write in a fragile block: revalidate [src]
         before unit u + 1 *)
  mutable next_pc : int; (* successor slot: the pc this exit took last *)
  mutable next : compiled; (* ... and the compiled block found there *)
}

(* The code cache: buckets of compiled blocks keyed by entry pc, one
   bucket per block it may hold, so a lookup walks about one block and
   allocates nothing. *)
type t = {
  buckets : compiled list array; (* length a power of two *)
  mutable count : int;
  threshold : int;
  max_blocks : int;
  elidable : (int, unit) Hashtbl.t; (* absolute guard pcs safe to skip *)
  mutable compiles : int;
  mutable hits : int;
  mutable invalidations : int;
  mutable elisions : int; (* guards compiled away, lifetime *)
}

(* [lookup]'s two answers other than a valid block, compared by
   physical equality; neither is ever entered *)
let rec miss =
  {
    entry = -1;
    src =
      {
        Decode_cache.entry = -1;
        insns = [||];
        pages = [||];
        gens = [||];
        fragile = false;
        writes = [||];
        hot = 0;
        stamp = -1;
      };
    units_fast = [||];
    units_safe = [||];
    unit_insns = [||];
    revalidate = [||];
    next_pc = -1;
    next = miss;
  }

let stale = { miss with entry = -2 }

let create ?(threshold = 16) ?(max_blocks = 4096) ?elide () =
  let rec pow2 n = if n >= max_blocks then n else pow2 (2 * n) in
  {
    buckets = Array.make (pow2 16) [];
    count = 0;
    threshold;
    max_blocks;
    elidable = (match elide with Some h -> h | None -> Hashtbl.create 16);
    compiles = 0;
    hits = 0;
    invalidations = 0;
    elisions = 0;
  }

let elide_fact t ~addr = Hashtbl.replace t.elidable addr ()

(* A compiled unit bakes in the facts of the binary it was compiled
   for, but it is keyed on pc and page generations only — and a
   byte-identical page keeps its generation when another binary is
   placed over it. So every page where a fact appears or disappears
   moves its generation: no unit outlives the facts it was compiled
   with, in this JIT or any other sharing the table. *)
let set_elide_facts t mem ~lo ~hi addrs =
  let fresh = Hashtbl.create 64 in
  List.iter (fun a -> if a >= lo && a < hi then Hashtbl.replace fresh a ()) addrs;
  let gone =
    Hashtbl.fold
      (fun a () acc ->
        if a >= lo && a < hi && not (Hashtbl.mem fresh a) then a :: acc
        else acc)
      t.elidable []
  in
  let added =
    Hashtbl.fold
      (fun a () acc -> if Hashtbl.mem t.elidable a then acc else a :: acc)
      fresh []
  in
  List.iter (fun a -> Hashtbl.remove t.elidable a) gone;
  List.iter (fun a -> Hashtbl.replace t.elidable a ()) added;
  List.iter (fun a -> Mem.bump_gen mem ~addr:a ~len:1) (gone @ added)

(* ---- translation helpers (must mirror Interp exactly) ---- *)

(* No closure below returns an [int64] or passes one to a function in
   another module: an [int64] crossing a call that is not inlined is
   boxed, and under [-opaque] (dune's dev profile) no cross-module call
   is inlined. Registers are read and written in place in [Cpu.regs],
   guest memory in place in [Mem.t.data]. An access whose first and
   last page carry the fast bit needs no bookkeeping and is made
   directly; any other goes through [Mem.check_access]/[check_write]
   first, which raise every fault and make every mark. *)

let addr_mask = 0xFF_FFFF_FFFFL

let[@inline] unsigned_lt a b = Int64.unsigned_compare a b < 0

(* byte offset of a GPR in [Cpu.regs] *)
let slot r = 8 * Reg.to_int r
let sp_o = slot Reg.sp
let[@inline] reg (cpu : Cpu.t) o = Bytes.get_int64_le cpu.Cpu.regs o
let[@inline] set_reg (cpu : Cpu.t) o v = Bytes.set_int64_le cpu.Cpu.regs o v

let page_shift = 12
let () = assert (1 lsl page_shift = Mem.page_size)

(* the span [a, a + len) is in range and both its end pages carry [bit] *)
let[@inline] fast (mem : Mem.t) a len bit =
  let last = a + len - 1 in
  a >= 0 && last < mem.size
  && Char.code (Bytes.unsafe_get mem.fast (a lsr page_shift))
     land Char.code (Bytes.unsafe_get mem.fast (last lsr page_shift))
     land bit
     <> 0

let[@inline] load64 (mem : Mem.t) a =
  if not (fast mem a 8 Mem.fast_read) then Mem.check_access mem a 8 Fault.Read;
  Bytes.get_int64_le mem.data a

let[@inline] store64 (mem : Mem.t) a v =
  if not (fast mem a 8 Mem.fast_write) then Mem.check_write mem a 8;
  Bytes.set_int64_le mem.data a v

let[@inline] read_u8 (mem : Mem.t) a =
  if not (fast mem a 1 Mem.fast_read) then Mem.check_access mem a 1 Fault.Read;
  Char.code (Bytes.get mem.data a)

let[@inline] write_u8 (mem : Mem.t) a v =
  if not (fast mem a 1 Mem.fast_write) then Mem.check_write mem a 1;
  Bytes.set mem.data a (Char.unsafe_chr (v land 0xFF))

let[@inline] to_addr v = Int64.to_int (Int64.logand v addr_mask)

let[@inline] clamp v =
  if Int64.compare (Int64.logand v addr_mask) v <> 0 then Int64.to_int addr_mask
  else Int64.to_int v

(* [Int64.unsigned_div]/[unsigned_rem], restated so they inline *)
let[@inline] udiv n d =
  if Int64.compare d 0L < 0 then if unsigned_lt n d then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    let r = Int64.sub n (Int64.mul q d) in
    if unsigned_lt r d then q else Int64.succ q

let[@inline] alu_apply (op : Insn.alu_op) ~pc a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Divu ->
      if b = 0L then raise (Fault.Fault (Div_by_zero { addr = pc }))
      else udiv a b
  | Remu ->
      if b = 0L then raise (Fault.Fault (Div_by_zero { addr = pc }))
      else Int64.sub a (Int64.mul (udiv a b) b)
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | Shr -> Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))

(* MPX check of [v] against bound register [bi]; payload as the
   interpreter's [bound_check] *)
let[@inline] check_bound (cpu : Cpu.t) bi ~lower v =
  cpu.Cpu.bound_checks <- cpu.Cpu.bound_checks + 1;
  let bd = cpu.Cpu.bnds.(bi) in
  if if lower then unsigned_lt v bd.Cpu.lower else unsigned_lt bd.Cpu.upper v
  then raise (Fault.Fault (Bound_fault { bnd = bi; value = v }))

(* Effective address, pre-resolved. Sib/Abs do not depend on end_pc;
   Rip_rel folds to a constant. Mirrors [Interp.effective_address]. *)
let compile_ea (m : Insn.mem) ~end_pc : Cpu.t -> int =
  match m with
  | Sib { base; index = None; scale = _; disp } ->
      let bo = slot base and d = Int64.of_int disp in
      fun cpu -> clamp (Int64.add (reg cpu bo) d)
  | Sib { base; index = Some r; scale; disp } ->
      let bo = slot base and io = slot r in
      let s = Int64.of_int scale and d = Int64.of_int disp in
      fun cpu ->
        clamp (Int64.add (Int64.add (reg cpu bo) (Int64.mul (reg cpu io) s)) d)
  | Rip_rel disp ->
      let a = clamp (Int64.of_int (end_pc + disp)) in
      fun _ -> a
  | Abs v ->
      let a = clamp v in
      fun _ -> a

let compile_cond (c : Insn.cond) : bool -> bool -> bool =
  match c with
  | Eq -> fun eq _ -> eq
  | Ne -> fun eq _ -> not eq
  | Lt -> fun _ lt -> lt
  | Le -> fun eq lt -> lt || eq
  | Gt -> fun eq lt -> not (lt || eq)
  | Ge -> fun _ lt -> not lt

(* The register effect of [Alu (op, d, o)]: the common operations get a
   closure of their own, the rest dispatch on [op] inside one. Divu and
   Remu can fault, so they never join a bulk-charged pure run. *)
let alu_core (op : Insn.alu_op) ~pc d (o : Insn.operand) : Cpu.t -> unit =
  let di = slot d in
  match (op, o) with
  | Add, O_imm v -> fun cpu -> set_reg cpu di (Int64.add (reg cpu di) v)
  | Sub, O_imm v -> fun cpu -> set_reg cpu di (Int64.sub (reg cpu di) v)
  | Mul, O_imm v -> fun cpu -> set_reg cpu di (Int64.mul (reg cpu di) v)
  | And, O_imm v -> fun cpu -> set_reg cpu di (Int64.logand (reg cpu di) v)
  | Or, O_imm v -> fun cpu -> set_reg cpu di (Int64.logor (reg cpu di) v)
  | Xor, O_imm v -> fun cpu -> set_reg cpu di (Int64.logxor (reg cpu di) v)
  | Add, O_reg r ->
      let ri = slot r in
      fun cpu -> set_reg cpu di (Int64.add (reg cpu di) (reg cpu ri))
  | Sub, O_reg r ->
      let ri = slot r in
      fun cpu -> set_reg cpu di (Int64.sub (reg cpu di) (reg cpu ri))
  | Mul, O_reg r ->
      let ri = slot r in
      fun cpu -> set_reg cpu di (Int64.mul (reg cpu di) (reg cpu ri))
  | And, O_reg r ->
      let ri = slot r in
      fun cpu -> set_reg cpu di (Int64.logand (reg cpu di) (reg cpu ri))
  | Or, O_reg r ->
      let ri = slot r in
      fun cpu -> set_reg cpu di (Int64.logor (reg cpu di) (reg cpu ri))
  | Xor, O_reg r ->
      let ri = slot r in
      fun cpu -> set_reg cpu di (Int64.logxor (reg cpu di) (reg cpu ri))
  | _, O_imm v -> fun cpu -> set_reg cpu di (alu_apply op ~pc (reg cpu di) v)
  | _, O_reg r ->
      let ri = slot r in
      fun cpu -> set_reg cpu di (alu_apply op ~pc (reg cpu di) (reg cpu ri))

(* Translate one instruction spanning [pc, pc+len). Total: every opcode
   compiles (privileged ones to a charge-then-fault stub, exactly as the
   interpreter charges before classifying them). *)
let compile_body ?(elided = false) t (insn : Insn.t) ~pc ~len : body =
  let end_pc = pc + len in
  let cost = Cost.of_insn insn in
  let priv name =
    fun _ (cpu : Cpu.t) ->
      cpu.Cpu.insns <- cpu.Cpu.insns + 1;
      cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
      U_stop (Stop_fault (Privileged { addr = pc; insn = name }))
  in
  let guard lower b ea =
    if elided || Hashtbl.mem t.elidable pc then begin
      t.elisions <- t.elisions + 1;
      (* elided: proved redundant by Elide; charge but skip the check *)
      fun _ (cpu : Cpu.t) ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.pc <- end_pc;
        U_fall
    end
    else
      let bi = Reg.bnd_to_int b in
      match (ea : Insn.ea) with
      | Ea_reg r ->
          let ri = slot r in
          fun _ (cpu : Cpu.t) ->
            cpu.Cpu.insns <- cpu.Cpu.insns + 1;
            cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
            check_bound cpu bi ~lower (reg cpu ri);
            cpu.Cpu.pc <- end_pc;
            U_fall
      | Ea_mem m ->
          let ea_f = compile_ea m ~end_pc in
          fun _ (cpu : Cpu.t) ->
            cpu.Cpu.insns <- cpu.Cpu.insns + 1;
            cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
            check_bound cpu bi ~lower (Int64.of_int (ea_f cpu));
            cpu.Cpu.pc <- end_pc;
            U_fall
  in
  match insn with
  | Nop | Cfi_label _ ->
      fun _ cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Mov_imm (r, v) ->
      let ri = slot r in
      fun _ cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        set_reg cpu ri v;
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Mov_reg (d, s) ->
      let di = slot d and si = slot s in
      fun _ cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        set_reg cpu di (reg cpu si);
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Load { dst; src; size } ->
      let di = slot dst in
      let ea_f = compile_ea src ~end_pc in
      if size = 1 then
        fun mem cpu ->
          cpu.Cpu.insns <- cpu.Cpu.insns + 1;
          cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
          cpu.Cpu.loads <- cpu.Cpu.loads + 1;
          set_reg cpu di (Int64.of_int (read_u8 mem (ea_f cpu)));
          cpu.Cpu.pc <- end_pc;
          U_fall
      else
        fun mem cpu ->
          cpu.Cpu.insns <- cpu.Cpu.insns + 1;
          cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
          cpu.Cpu.loads <- cpu.Cpu.loads + 1;
          set_reg cpu di (load64 mem (ea_f cpu));
          cpu.Cpu.pc <- end_pc;
          U_fall
  | Store { dst; src; size } ->
      let si = slot src in
      let ea_f = compile_ea dst ~end_pc in
      if size = 1 then
        fun mem cpu ->
          cpu.Cpu.insns <- cpu.Cpu.insns + 1;
          cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
          cpu.Cpu.stores <- cpu.Cpu.stores + 1;
          write_u8 mem (ea_f cpu) (Int64.to_int (reg cpu si) land 0xFF);
          cpu.Cpu.pc <- end_pc;
          U_fall
      else
        fun mem cpu ->
          cpu.Cpu.insns <- cpu.Cpu.insns + 1;
          cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
          cpu.Cpu.stores <- cpu.Cpu.stores + 1;
          store64 mem (ea_f cpu) (reg cpu si);
          cpu.Cpu.pc <- end_pc;
          U_fall
  | Push r ->
      let ri = slot r in
      fun mem cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        (* store before the sp update: fault atomicity *)
        let sp = Int64.sub (reg cpu sp_o) 8L in
        store64 mem (to_addr sp) (reg cpu ri);
        set_reg cpu sp_o sp;
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Pop r ->
      let ri = slot r in
      fun mem cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let sp = reg cpu sp_o in
        let v = load64 mem (to_addr sp) in
        set_reg cpu sp_o (Int64.add sp 8L);
        set_reg cpu ri v;
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Lea (r, m) ->
      let ri = slot r in
      let ea_f = compile_ea m ~end_pc in
      fun _ cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        set_reg cpu ri (Int64.of_int (ea_f cpu));
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Alu (op, d, o) ->
      let core = alu_core op ~pc d o in
      fun _ cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        core cpu;
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Cmp (a, O_imm v) ->
      let ai = slot a in
      fun _ cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        let x = reg cpu ai in
        cpu.Cpu.flag_eq <- Int64.equal x v;
        cpu.Cpu.flag_lt <- Int64.compare x v < 0;
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Cmp (a, O_reg r) ->
      let ai = slot a and ri = slot r in
      fun _ cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        let x = reg cpu ai and y = reg cpu ri in
        cpu.Cpu.flag_eq <- Int64.equal x y;
        cpu.Cpu.flag_lt <- Int64.compare x y < 0;
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Jmp rel ->
      let tgt = end_pc + rel in
      fun _ cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.pc <- tgt;
        U_fall
  | Jcc (c, rel) ->
      let tgt = end_pc + rel in
      let decide = compile_cond c in
      fun _ cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.pc <-
          (if decide cpu.Cpu.flag_eq cpu.Cpu.flag_lt then tgt else end_pc);
        U_fall
  | Call rel ->
      let tgt = end_pc + rel in
      let ret = Int64.of_int end_pc in
      fun mem cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        let sp = Int64.sub (reg cpu sp_o) 8L in
        store64 mem (to_addr sp) ret;
        set_reg cpu sp_o sp;
        cpu.Cpu.pc <- tgt;
        U_fall
  | Jmp_reg r ->
      let ri = slot r in
      fun _ cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.pc <- to_addr (reg cpu ri);
        U_fall
  | Call_reg r ->
      let ri = slot r in
      let ret = Int64.of_int end_pc in
      fun mem cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        let sp = Int64.sub (reg cpu sp_o) 8L in
        store64 mem (to_addr sp) ret;
        set_reg cpu sp_o sp;
        cpu.Cpu.pc <- to_addr (reg cpu ri);
        U_fall
  | Jmp_mem m ->
      let ea_f = compile_ea m ~end_pc in
      fun mem cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        cpu.Cpu.pc <- to_addr (load64 mem (ea_f cpu));
        U_fall
  | Call_mem m ->
      let ea_f = compile_ea m ~end_pc in
      let ret = Int64.of_int end_pc in
      fun mem cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let target = load64 mem (ea_f cpu) in
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        let sp = Int64.sub (reg cpu sp_o) 8L in
        store64 mem (to_addr sp) ret;
        set_reg cpu sp_o sp;
        cpu.Cpu.pc <- to_addr target;
        U_fall
  | Ret ->
      fun mem cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let sp = reg cpu sp_o in
        let v = load64 mem (to_addr sp) in
        set_reg cpu sp_o (Int64.add sp 8L);
        cpu.Cpu.pc <- to_addr v;
        U_fall
  | Ret_imm n ->
      let adj = Int64.of_int n in
      fun mem cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        (* the pop may fault; sp commits only afterwards *)
        let sp = reg cpu sp_o in
        let v = load64 mem (to_addr sp) in
        set_reg cpu sp_o (Int64.add (Int64.add sp 8L) adj);
        cpu.Cpu.pc <- to_addr v;
        U_fall
  | Bndcl (b, ea) -> guard true b ea
  | Bndcu (b, ea) -> guard false b ea
  | Syscall_gate ->
      fun _ cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.pc <- end_pc;
        U_stop Stop_syscall
  | Hlt -> priv "hlt"
  | Bndmk _ -> priv "bndmk"
  | Bndmov _ -> priv "bndmov"
  | Eexit -> priv "eexit"
  | Emodpe -> priv "emodpe"
  | Eaccept -> priv "eaccept"
  | Xrstor -> priv "xrstor"
  | Wrfsbase _ -> priv "wrfsbase"
  | Wrgsbase _ -> priv "wrgsbase"
  | Vscatter { base; index; scale; src } ->
      let bo = slot base and io = slot index in
      let so = slot src in
      let s = Int64.of_int scale in
      fun mem cpu ->
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 4;
        let b = reg cpu bo and i = reg cpu io in
        for lane = 0 to 3 do
          let a =
            Int64.add b (Int64.mul (Int64.add i (Int64.of_int lane)) s)
          in
          store64 mem (to_addr a) (reg cpu so)
        done;
        cpu.Cpu.pc <- end_pc;
        U_fall

(* ---- superinstructions ---- *)

(* Generic safe chain over per-instruction bodies: before body j (j >= 1)
   the remaining fuel is [fuel - j], so quantum expiry parks the pc on
   the same internal boundary as the cached interpreter. *)
let safe_of_bodies (bs : body array) : unit_fn =
  let n = Array.length bs in
  fun mem cpu fuel ->
    let rec go j =
      if j > 0 && fuel <= j then U_stop Stop_quantum
      else
        match bs.(j) mem cpu with
        | U_fall -> if j + 1 < n then go (j + 1) else U_fall
        | s -> s
    in
    go 0

(* Straight-line chains: the fast variant runs the bodies back to back;
   the safe variant is the generic chain above. *)

let single (b0 : body) : body * unit_fn = (b0, fun mem cpu _ -> b0 mem cpu)

let chain2 b0 b1 : body * unit_fn =
  let fast mem cpu =
    match b0 mem cpu with U_fall -> b1 mem cpu | s -> s
  in
  (fast, safe_of_bodies [| b0; b1 |])

let chain3 b0 b1 b2 : body * unit_fn =
  let fast mem cpu =
    match b0 mem cpu with
    | U_fall -> (
        match b1 mem cpu with U_fall -> b2 mem cpu | s -> s)
    | s -> s
  in
  (fast, safe_of_bodies [| b0; b1; b2 |])

let chain4 b0 b1 b2 b3 : body * unit_fn =
  let fast mem cpu =
    match b0 mem cpu with
    | U_fall -> (
        match b1 mem cpu with
        | U_fall -> (
            match b2 mem cpu with U_fall -> b3 mem cpu | s -> s)
        | s -> s)
    | s -> s
  in
  (fast, safe_of_bodies [| b0; b1; b2; b3 |])

(* guard+memory superinstruction: a bndcl/bndcu over a Sib/Abs operand
   followed by a load/store/guard with the structurally identical
   operand computes the effective address once. Rip_rel is excluded —
   its address depends on each instruction's own end pc. *)

type second =
  | S_load of Reg.t * int
  | S_store of Reg.t * int
  | S_guard of bool * Reg.bnd (* lower?, register *)

let fuse_guard_mem ~lower1 ~b1 ~m ~pc1 ~len1 ~cost1 ~(second : second) ~len2
    ~cost2 : body * unit_fn =
  let pc2 = pc1 + len1 in
  let end2 = pc2 + len2 in
  let bi1 = Reg.bnd_to_int b1 in
  let ea_f = compile_ea m ~end_pc:pc2 in
  (* guard, returning the shared effective address *)
  let part1 (cpu : Cpu.t) =
    cpu.Cpu.insns <- cpu.Cpu.insns + 1;
    cpu.Cpu.cycles <- cpu.Cpu.cycles + cost1;
    let a = ea_f cpu in
    check_bound cpu bi1 ~lower:lower1 (Int64.of_int a);
    cpu.Cpu.pc <- pc2;
    a
  in
  let part2 : Mem.t -> Cpu.t -> int -> ustat =
    match second with
    | S_load (dst, size) ->
        let di = slot dst in
        if size = 1 then fun mem cpu a ->
          cpu.Cpu.insns <- cpu.Cpu.insns + 1;
          cpu.Cpu.cycles <- cpu.Cpu.cycles + cost2;
          cpu.Cpu.loads <- cpu.Cpu.loads + 1;
          set_reg cpu di (Int64.of_int (read_u8 mem a));
          cpu.Cpu.pc <- end2;
          U_fall
        else fun mem cpu a ->
          cpu.Cpu.insns <- cpu.Cpu.insns + 1;
          cpu.Cpu.cycles <- cpu.Cpu.cycles + cost2;
          cpu.Cpu.loads <- cpu.Cpu.loads + 1;
          set_reg cpu di (load64 mem a);
          cpu.Cpu.pc <- end2;
          U_fall
    | S_store (src, size) ->
        let si = slot src in
        if size = 1 then fun mem cpu a ->
          cpu.Cpu.insns <- cpu.Cpu.insns + 1;
          cpu.Cpu.cycles <- cpu.Cpu.cycles + cost2;
          cpu.Cpu.stores <- cpu.Cpu.stores + 1;
          write_u8 mem a (Int64.to_int (reg cpu si) land 0xFF);
          cpu.Cpu.pc <- end2;
          U_fall
        else fun mem cpu a ->
          cpu.Cpu.insns <- cpu.Cpu.insns + 1;
          cpu.Cpu.cycles <- cpu.Cpu.cycles + cost2;
          cpu.Cpu.stores <- cpu.Cpu.stores + 1;
          store64 mem a (reg cpu si);
          cpu.Cpu.pc <- end2;
          U_fall
    | S_guard (lower2, b2) ->
        let bi2 = Reg.bnd_to_int b2 in
        fun _ cpu a ->
          cpu.Cpu.insns <- cpu.Cpu.insns + 1;
          cpu.Cpu.cycles <- cpu.Cpu.cycles + cost2;
          check_bound cpu bi2 ~lower:lower2 (Int64.of_int a);
          cpu.Cpu.pc <- end2;
          U_fall
  in
  let fast mem cpu =
    let a = part1 cpu in
    part2 mem cpu a
  in
  let safe mem cpu fuel =
    let a = part1 cpu in
    if fuel <= 1 then U_stop Stop_quantum else part2 mem cpu a
  in
  (fast, safe)

(* ---- pure-register superinstructions ---- *)

(* A "core" is the architectural effect of a register-only instruction
   that can neither fault nor touch memory: no counter charges, no pc
   parking. A maximal run of such instructions compiles into one fast
   unit that charges [insns]/[cycles] in bulk and executes the cores
   back to back — legal because the fast variant only runs when the
   remaining fuel covers the whole unit, so there is no observation
   point inside the run. The safe variant replays the same cores one
   instruction at a time (see [pure_unit]). *)
let is_pure (insn : Insn.t) =
  match insn with
  | Nop | Mov_imm _ | Mov_reg _ | Cmp _ -> true
  | Alu ((Divu | Remu), _, _) -> false (* can fault: needs a full body *)
  | Alu _ -> true
  | _ -> false

let core_of (insn : Insn.t) ~pc : Cpu.t -> unit =
  match insn with
  | Nop -> fun _ -> ()
  | Mov_imm (d, v) ->
      let di = slot d in
      fun cpu -> set_reg cpu di v
  | Mov_reg (d, s) ->
      let di = slot d and si = slot s in
      fun cpu -> set_reg cpu di (reg cpu si)
  | Alu (op, d, o) -> alu_core op ~pc d o
  | Cmp (a, O_imm v) ->
      let ai = slot a in
      fun cpu ->
        let x = reg cpu ai in
        cpu.Cpu.flag_eq <- Int64.equal x v;
        cpu.Cpu.flag_lt <- Int64.compare x v < 0
  | Cmp (a, O_reg r) ->
      let ai = slot a and ri = slot r in
      fun cpu ->
        let x = reg cpu ai and y = reg cpu ri in
        cpu.Cpu.flag_eq <- Int64.equal x y;
        cpu.Cpu.flag_lt <- Int64.compare x y < 0
  | _ -> invalid_arg "Jit.core_of: not a pure register instruction"

(* A direct branch as the run's tail: it only sets pc, so fusing it
   (cmp+branch is the classic pair) costs nothing extra. *)
let term_core_of (insn : Insn.t) ~end_pc : (Cpu.t -> unit) option =
  match insn with
  | Jmp rel ->
      let tgt = end_pc + rel in
      Some (fun cpu -> cpu.Cpu.pc <- tgt)
  | Jcc (c, rel) ->
      let tgt = end_pc + rel in
      let decide = compile_cond c in
      Some
        (fun cpu ->
          cpu.Cpu.pc <-
            (if decide cpu.Cpu.flag_eq cpu.Cpu.flag_lt then tgt else end_pc))
  | _ -> None

(* Flatten a core list into one closure, unrolled for the common short
   runs so the per-iteration call count stays minimal. *)
let rec seq_cores = function
  | [] -> fun _ -> ()
  | [ f ] -> f
  | [ a; b ] ->
      fun cpu ->
        a cpu;
        b cpu
  | [ a; b; c ] ->
      fun cpu ->
        a cpu;
        b cpu;
        c cpu
  | [ a; b; c; d ] ->
      fun cpu ->
        a cpu;
        b cpu;
        c cpu;
        d cpu
  | [ a; b; c; d; e ] ->
      fun cpu ->
        a cpu;
        b cpu;
        c cpu;
        d cpu;
        e cpu
  | [ a; b; c; d; e; f ] ->
      fun cpu ->
        a cpu;
        b cpu;
        c cpu;
        d cpu;
        e cpu;
        f cpu
  | a :: b :: c :: d :: e :: f :: rest ->
      let g = seq_cores rest in
      fun cpu ->
        a cpu;
        b cpu;
        c cpu;
        d cpu;
        e cpu;
        f cpu;
        g cpu

(* The fast variant runs the cores back to back under one bulk charge.
   The safe variant replays the same cores one instruction at a time —
   each with its own charge and pc parking, fuel checked in between —
   so a pure run needs no per-instruction bodies. [tail] is the
   direct-branch core that ends the run, if any; [costs] covers the
   cores then the tail, [ends] the end pc of each core. *)
let pure_unit ~(cores : (Cpu.t -> unit) array) ~tail ~(costs : int array)
    ~(ends : int array) : body * unit_fn =
  let k = Array.length costs and run = Array.length cores in
  let total_cost = Array.fold_left ( + ) 0 costs in
  let park =
    match tail with
    | Some f -> f
    | None ->
        let end_pc = ends.(run - 1) in
        fun cpu -> cpu.Cpu.pc <- end_pc
  in
  let ops = seq_cores (Array.to_list cores @ [ park ]) in
  let fast _ (cpu : Cpu.t) =
    cpu.Cpu.insns <- cpu.Cpu.insns + k;
    cpu.Cpu.cycles <- cpu.Cpu.cycles + total_cost;
    ops cpu;
    U_fall
  in
  let safe _ (cpu : Cpu.t) fuel =
    let rec go j =
      if j > 0 && fuel <= j then U_stop Stop_quantum
      else begin
        cpu.Cpu.insns <- cpu.Cpu.insns + 1;
        cpu.Cpu.cycles <- cpu.Cpu.cycles + costs.(j);
        if j < run then begin
          cores.(j) cpu;
          cpu.Cpu.pc <- ends.(j)
        end
        else park cpu;
        if j + 1 < k then go (j + 1) else U_fall
      end
    in
    go 0
  in
  (fast, safe)

(* ---- block compilation ---- *)

let fusable_mem = function
  | Insn.Sib _ | Insn.Abs _ -> true
  | Insn.Rip_rel _ -> false

let guard_of = function
  | Insn.Bndcl (b, Insn.Ea_mem m) -> Some (true, b, m)
  | Insn.Bndcu (b, Insn.Ea_mem m) -> Some (false, b, m)
  | _ -> None

let compile t (b : Decode_cache.block) : compiled =
  let n = Array.length b.insns in
  let pcs = Array.make (n + 1) b.entry in
  for i = 0 to n - 1 do
    pcs.(i + 1) <- pcs.(i) + snd b.insns.(i)
  done;
  (* An Elide fact names the verifier's mem_guard *unit* — its address
     is the bndcl's; the bndcu completing the window check sits right
     after it and is elided with it. *)
  let elided = Array.make n false in
  for i = 0 to n - 1 do
    elided.(i) <- Hashtbl.mem t.elidable pcs.(i)
  done;
  for i = 1 to n - 1 do
    match (fst b.insns.(i - 1), fst b.insns.(i)) with
    | Insn.Bndcl (_, ea1), Insn.Bndcu (_, ea2)
      when elided.(i - 1) && ea1 = ea2 ->
        elided.(i) <- true
    | _ -> ()
  done;
  (* does a guard+memory superinstruction start at i? *)
  let pair_at i =
    i + 1 < n
    &&
    match guard_of (fst b.insns.(i)) with
    | Some (_, _, m) when fusable_mem m && not elided.(i) -> (
        match fst b.insns.(i + 1) with
        | Load { src; _ } -> src = m
        | Store { dst; _ } -> dst = m
        | Bndcl (_, Ea_mem m2) | Bndcu (_, Ea_mem m2) ->
            m2 = m && not elided.(i + 1)
        | _ -> false)
    | _ -> false
  in
  (* Unit formation keeps one invariant on fragile blocks: a write ends
     its unit. Pure runs and guard+load / guard+guard pairs never write,
     a guard+store pair ends at its store, and chains are cut after a
     write — so revalidating after each writing unit sees every store
     that could rewrite the block before the next instruction runs. *)
  let units = ref [] in
  (* ((fast, safe), insns, revalidate) in reverse order *)
  let next = ref 0 in
  let emit fs k =
    next := !next + k;
    units := (fs, k, b.fragile && b.writes.(!next - 1)) :: !units
  in
  let body i =
    let insn, len = b.insns.(i) in
    compile_body ~elided:elided.(i) t insn ~pc:pcs.(i) ~len
  in
  let i = ref 0 in
  while !i < n do
    if pair_at !i then begin
      let lower1, b1, m =
        match guard_of (fst b.insns.(!i)) with
        | Some g -> g
        | None -> assert false
      in
      let second =
        match fst b.insns.(!i + 1) with
        | Load { dst; size; _ } -> S_load (dst, size)
        | Store { src; size; _ } -> S_store (src, size)
        | Bndcl (b2, _) -> S_guard (true, b2)
        | Bndcu (b2, _) -> S_guard (false, b2)
        | _ -> assert false
      in
      emit
        (fuse_guard_mem ~lower1 ~b1 ~m ~pc1:pcs.(!i)
           ~len1:(snd b.insns.(!i))
           ~cost1:(Cost.of_insn (fst b.insns.(!i)))
           ~second
           ~len2:(snd b.insns.(!i + 1))
           ~cost2:(Cost.of_insn (fst b.insns.(!i + 1))))
        2;
      i := !i + 2
    end
    else begin
      (* maximal pure-register run starting at i, with an optional
         direct-branch tail (cmp+branch fusion falls out of this) *)
      let run = ref 0 in
      while !i + !run < n && is_pure (fst b.insns.(!i + !run)) do
        incr run
      done;
      let tail =
        if !i + !run = n - 1 then
          term_core_of (fst b.insns.(n - 1)) ~end_pc:pcs.(n)
        else None
      in
      let kk = !run + (match tail with Some _ -> 1 | None -> 0) in
      if kk >= 2 then begin
        (* one bulk-charged unit over the whole run *)
        let at j = fst b.insns.(!i + j) in
        let cores = Array.init !run (fun j -> core_of (at j) ~pc:pcs.(!i + j)) in
        let costs = Array.init kk (fun j -> Cost.of_insn (at j)) in
        let ends = Array.init !run (fun j -> pcs.(!i + j + 1)) in
        emit (pure_unit ~cores ~tail ~costs ~ends) kk;
        i := !i + kk
      end
      else begin
        (* chain up to four straight-line bodies, cutting before the
           next guard+memory superinstruction or pure run, and — in a
           fragile block — right after a write *)
        let k = ref 1 in
        while
          !k < 4
          && !i + !k < n
          && (not (b.fragile && b.writes.(!i + !k - 1)))
          && (not (pair_at (!i + !k)))
          && not (is_pure (fst b.insns.(!i + !k)))
        do
          incr k
        done;
        (match !k with
        | 1 -> emit (single (body !i)) 1
        | 2 -> emit (chain2 (body !i) (body (!i + 1))) 2
        | 3 -> emit (chain3 (body !i) (body (!i + 1)) (body (!i + 2))) 3
        | _ ->
            emit
              (chain4 (body !i) (body (!i + 1)) (body (!i + 2)) (body (!i + 3)))
              4);
        i := !i + !k
      end
    end
  done;
  let us = Array.of_list (List.rev !units) in
  {
    entry = b.entry;
    src = b;
    units_fast = Array.map (fun ((f, _), _, _) -> f) us;
    units_safe = Array.map (fun ((_, s), _, _) -> s) us;
    unit_insns = Array.map (fun (_, k, _) -> k) us;
    revalidate = Array.map (fun (_, _, r) -> r) us;
    next_pc = -1;
    next = miss;
  }

(* ---- the code cache ---- *)

let bucket t pc = (pc lxor (pc lsr 12)) land (Array.length t.buckets - 1)

let rec find_in pc = function
  | [] -> miss
  | c :: rest -> if c.entry = pc then c else find_in pc rest

let remove t pc =
  let i = bucket t pc in
  t.buckets.(i) <- List.filter (fun c -> c.entry <> pc) t.buckets.(i);
  t.count <- t.count - 1

let lookup t mem pc =
  let c = find_in pc t.buckets.(bucket t pc) in
  if c == miss then miss
  else if Decode_cache.block_valid mem c.src then begin
    t.hits <- t.hits + 1;
    c
  end
  else begin
    remove t pc;
    t.invalidations <- t.invalidations + 1;
    stale
  end

let note_hit t = t.hits <- t.hits + 1

(* A flush empties every successor slot too: a block that left the
   table must be looked up (and recompiled) again, as a miss. *)
let clear t =
  Array.iteri
    (fun i cs ->
      List.iter
        (fun c ->
          c.next_pc <- -1;
          c.next <- miss)
        cs;
      t.buckets.(i) <- [])
    t.buckets;
  t.count <- 0

let hot_enough t (b : Decode_cache.block) = b.Decode_cache.hot >= t.threshold

let promote t (b : Decode_cache.block) =
  if t.count >= t.max_blocks then clear t;
  let c = compile t b in
  t.compiles <- t.compiles + 1;
  let i = bucket t b.entry in
  t.buckets.(i) <- c :: t.buckets.(i);
  t.count <- t.count + 1;
  c

let stats t = (t.compiles, t.hits, t.invalidations)
let elisions t = t.elisions
