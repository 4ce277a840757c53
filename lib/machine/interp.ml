(* The fetch/decode/execute loop. Runs untrusted SIP code only; the LibOS
   itself is OCaml and interacts with the machine through [Cpu] and
   [Mem]. Execution stops on a syscall gate, a fault (→ AEX, captured by
   the LibOS) or quantum expiry (→ preemption).

   Two execution paths share one executor ([exec_decoded]):
   - [step] fetches and decodes at pc on every instruction;
   - [run ~cache] replays decoded basic blocks from a [Decode_cache],
     falling back to [step] whenever a block cannot be built. The cached
     path must be observably identical to the uncached one: same cycle
     charges (both go through [Cost.of_insn]), same counters, same fault
     addresses, and the same mid-block stop when fuel runs out. *)

open Occlum_isa

type stop = Jit.stop =
  | Stop_syscall   (* reached the LibOS trampoline's syscall_gate *)
  | Stop_fault of Fault.t
  | Stop_quantum   (* fuel exhausted; SIP is preempted *)

let stop_to_string = function
  | Stop_syscall -> "syscall"
  | Stop_fault f -> "fault: " ^ Fault.to_string f
  | Stop_quantum -> "quantum"

let addr_mask = 0xFF_FFFF_FFFFL (* treat effective addresses as 40-bit *)

(* GPRs are read and written in place: [Cpu.get]/[Cpu.set] are calls
   into another module, and an [int64] crossing one is boxed. *)
let[@inline] get (cpu : Cpu.t) r =
  Bytes.get_int64_le cpu.Cpu.regs (8 * Reg.to_int r)

let[@inline] set (cpu : Cpu.t) r v =
  Bytes.set_int64_le cpu.Cpu.regs (8 * Reg.to_int r) v

let[@inline] effective_address mem cpu (m : Insn.mem) ~end_pc =
  let open Int64 in
  let v =
    match m with
    | Sib { base; index; scale; disp } ->
        let b = get cpu base in
        let i =
          match index with
          | None -> 0L
          | Some r -> mul (get cpu r) (of_int scale)
        in
        add (add b i) (of_int disp)
    | Rip_rel disp -> of_int (end_pc + disp)
    | Abs a -> a
  in
  ignore mem;
  (* out-of-space addresses page-fault when accessed; clamp the int
     conversion so wrap-around cannot alias back into valid memory *)
  if compare (logand v addr_mask) v <> 0 then Int64.to_int addr_mask
  else to_int v

let unsigned_lt a b = Int64.unsigned_compare a b < 0

(* Guest loads and stores, made in place on [Mem.t.data] for the same
   reason as [get]/[set], with [Jit]'s inline fast-byte test: a span
   whose end pages need no bookkeeping skips the checked call, which
   would have done nothing else. *)
let page_shift = 12
let () = assert (1 lsl page_shift = Mem.page_size)

let[@inline] fast (mem : Mem.t) a len bit =
  let last = a + len - 1 in
  a >= 0 && last < mem.size
  && Char.code (Bytes.unsafe_get mem.fast (a lsr page_shift))
     land Char.code (Bytes.unsafe_get mem.fast (last lsr page_shift))
     land bit
     <> 0

let[@inline] load64 (mem : Mem.t) addr =
  if not (fast mem addr 8 Mem.fast_read) then Mem.check_access mem addr 8 Read;
  Bytes.get_int64_le mem.data addr

let[@inline] store64 (mem : Mem.t) addr v =
  if not (fast mem addr 8 Mem.fast_write) then Mem.check_write mem addr 8;
  Bytes.set_int64_le mem.data addr v

let[@inline] read_sized (mem : Mem.t) addr size =
  if size = 1 then begin
    if not (fast mem addr 1 Mem.fast_read) then Mem.check_access mem addr 1 Read;
    Int64.of_int (Char.code (Bytes.get mem.data addr))
  end
  else load64 mem addr

let[@inline] write_sized (mem : Mem.t) addr size v =
  if size = 1 then begin
    if not (fast mem addr 1 Mem.fast_write) then Mem.check_write mem addr 1;
    Bytes.set mem.data addr (Char.unsafe_chr (Int64.to_int v land 0xFF))
  end
  else store64 mem addr v

(* [Decode_cache.block_valid] with its O(1) epoch test inline *)
let[@inline] valid (mem : Mem.t) (b : Decode_cache.block) =
  b.stamp = mem.epoch || Decode_cache.block_valid mem b

let[@inline] operand_value cpu = function
  | Insn.O_reg r -> get cpu r
  | Insn.O_imm v -> v

let[@inline] alu_exec op a b ~pc =
  let open Int64 in
  match (op : Insn.alu_op) with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Divu ->
      if b = 0L then raise (Fault.Fault (Div_by_zero { addr = pc }))
      else unsigned_div a b
  | Remu ->
      if b = 0L then raise (Fault.Fault (Div_by_zero { addr = pc }))
      else unsigned_rem a b
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Shl -> shift_left a (to_int (logand b 63L))
  | Shr -> shift_right_logical a (to_int (logand b 63L))

let cond_holds cpu = function
  | Insn.Eq -> cpu.Cpu.flag_eq
  | Insn.Ne -> not cpu.Cpu.flag_eq
  | Insn.Lt -> cpu.Cpu.flag_lt
  | Insn.Le -> cpu.Cpu.flag_lt || cpu.Cpu.flag_eq
  | Insn.Gt -> not (cpu.Cpu.flag_lt || cpu.Cpu.flag_eq)
  | Insn.Ge -> not cpu.Cpu.flag_lt

let[@inline] bound_check cpu bnd value ~lower =
  cpu.Cpu.bound_checks <- cpu.Cpu.bound_checks + 1;
  let b = Cpu.get_bnd cpu bnd in
  let fails =
    if lower then unsigned_lt value b.lower else unsigned_lt b.upper value
  in
  if fails then
    raise (Fault.Fault (Bound_fault { bnd = Reg.bnd_to_int bnd; value }))

let[@inline] ea_value mem cpu ea ~end_pc =
  match (ea : Insn.ea) with
  | Ea_reg r -> get cpu r
  | Ea_mem m -> Int64.of_int (effective_address mem cpu m ~end_pc)

(* The store happens first: if it faults, the AEX-captured state must
   still hold the pre-push stack pointer (a decremented sp with nothing
   written would corrupt the SIP's resume/kill diagnostics). *)
let[@inline] push_u64 mem cpu v =
  let sp = Int64.sub (get cpu Reg.sp) 8L in
  store64 mem (Int64.to_int (Int64.logand sp addr_mask)) v;
  set cpu Reg.sp sp

let[@inline] pop_u64 mem cpu =
  let sp = get cpu Reg.sp in
  let v = load64 mem (Int64.to_int (Int64.logand sp addr_mask)) in
  set cpu Reg.sp (Int64.add sp 8L);
  v

(* Execute one already-decoded instruction whose encoding spans
   [pc, pc+len) (the span is known executable). Returns [Some stop] when
   control leaves the interpreter. Both the decoding [step] and the
   decoded-block replay call this, so the architectural effects and the
   cycle/counter accounting cannot diverge between them. *)
let exec_decoded mem cpu insn ~pc ~len : stop option =
  let end_pc = pc + len in
  match
    cpu.Cpu.insns <- cpu.Cpu.insns + 1;
    cpu.Cpu.cycles <- cpu.Cpu.cycles + Cost.of_insn insn;
    match (insn : Insn.t) with
    | Nop ->
        cpu.Cpu.pc <- end_pc;
        None
    | Cfi_label _ ->
        cpu.Cpu.pc <- end_pc;
        None
    | Mov_imm (r, v) ->
        set cpu r v;
        cpu.Cpu.pc <- end_pc;
        None
    | Mov_reg (d, s) ->
        set cpu d (get cpu s);
        cpu.Cpu.pc <- end_pc;
        None
    | Load { dst; src; size } ->
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let addr = effective_address mem cpu src ~end_pc in
        set cpu dst (read_sized mem addr size);
        cpu.Cpu.pc <- end_pc;
        None
    | Store { dst; src; size } ->
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        let addr = effective_address mem cpu dst ~end_pc in
        write_sized mem addr size (get cpu src);
        cpu.Cpu.pc <- end_pc;
        None
    | Push r ->
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        push_u64 mem cpu (get cpu r);
        cpu.Cpu.pc <- end_pc;
        None
    | Pop r ->
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let v = pop_u64 mem cpu in
        set cpu r v;
        cpu.Cpu.pc <- end_pc;
        None
    | Lea (r, m) ->
        set cpu r (Int64.of_int (effective_address mem cpu m ~end_pc));
        cpu.Cpu.pc <- end_pc;
        None
    | Alu (op, d, o) ->
        set cpu d (alu_exec op (get cpu d) (operand_value cpu o) ~pc);
        cpu.Cpu.pc <- end_pc;
        None
    | Cmp (a, o) ->
        let x = get cpu a and y = operand_value cpu o in
        cpu.Cpu.flag_eq <- Int64.equal x y;
        cpu.Cpu.flag_lt <- Int64.compare x y < 0;
        cpu.Cpu.pc <- end_pc;
        None
    | Jmp rel ->
        cpu.Cpu.pc <- end_pc + rel;
        None
    | Jcc (c, rel) ->
        cpu.Cpu.pc <- (if cond_holds cpu c then end_pc + rel else end_pc);
        None
    | Call rel ->
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        push_u64 mem cpu (Int64.of_int end_pc);
        cpu.Cpu.pc <- end_pc + rel;
        None
    | Jmp_reg r ->
        cpu.Cpu.pc <- Int64.to_int (Int64.logand (get cpu r) addr_mask);
        None
    | Call_reg r ->
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        push_u64 mem cpu (Int64.of_int end_pc);
        cpu.Cpu.pc <- Int64.to_int (Int64.logand (get cpu r) addr_mask);
        None
    | Jmp_mem m ->
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let addr = effective_address mem cpu m ~end_pc in
        cpu.Cpu.pc <-
          Int64.to_int (Int64.logand (load64 mem addr) addr_mask);
        None
    | Call_mem m ->
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let addr = effective_address mem cpu m ~end_pc in
        let target = load64 mem addr in
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        push_u64 mem cpu (Int64.of_int end_pc);
        cpu.Cpu.pc <- Int64.to_int (Int64.logand target addr_mask);
        None
    | Ret ->
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        cpu.Cpu.pc <- Int64.to_int (Int64.logand (pop_u64 mem cpu) addr_mask);
        None
    | Ret_imm n ->
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        (* the pop may fault; the sp adjustment commits only afterwards *)
        let target = pop_u64 mem cpu in
        set cpu Reg.sp (Int64.add (get cpu Reg.sp) (Int64.of_int n));
        cpu.Cpu.pc <- Int64.to_int (Int64.logand target addr_mask);
        None
    | Bndcl (b, ea) ->
        bound_check cpu b (ea_value mem cpu ea ~end_pc) ~lower:true;
        cpu.Cpu.pc <- end_pc;
        None
    | Bndcu (b, ea) ->
        bound_check cpu b (ea_value mem cpu ea ~end_pc) ~lower:false;
        cpu.Cpu.pc <- end_pc;
        None
    | Syscall_gate ->
        cpu.Cpu.pc <- end_pc;
        Some Stop_syscall
    | Hlt -> Some (Stop_fault (Privileged { addr = pc; insn = "hlt" }))
    | Bndmk _ -> Some (Stop_fault (Privileged { addr = pc; insn = "bndmk" }))
    | Bndmov _ -> Some (Stop_fault (Privileged { addr = pc; insn = "bndmov" }))
    | Eexit -> Some (Stop_fault (Privileged { addr = pc; insn = "eexit" }))
    | Emodpe -> Some (Stop_fault (Privileged { addr = pc; insn = "emodpe" }))
    | Eaccept -> Some (Stop_fault (Privileged { addr = pc; insn = "eaccept" }))
    | Xrstor -> Some (Stop_fault (Privileged { addr = pc; insn = "xrstor" }))
    | Wrfsbase _ ->
        Some (Stop_fault (Privileged { addr = pc; insn = "wrfsbase" }))
    | Wrgsbase _ ->
        Some (Stop_fault (Privileged { addr = pc; insn = "wrgsbase" }))
    | Vscatter { base; index; scale; src } ->
        (* one instruction, multiple non-contiguous stores — the
           reason Stage 4 rejects it (Figure 4) *)
        cpu.Cpu.stores <- cpu.Cpu.stores + 4;
        let b = get cpu base and i = get cpu index in
        for lane = 0 to 3 do
          let a =
            Int64.add b
              (Int64.mul (Int64.add i (Int64.of_int lane)) (Int64.of_int scale))
          in
          store64 mem
            (Int64.to_int (Int64.logand a addr_mask))
            (get cpu src)
        done;
        cpu.Cpu.pc <- end_pc;
        None
  with
  | exception Fault.Fault f -> Some (Stop_fault f)
  | r -> r

(* Execute exactly one instruction, fetching and decoding at pc. Returns
   [Some stop] when control leaves the interpreter. *)
let step mem cpu : stop option =
  let pc = cpu.Cpu.pc in
  match
    (* the fetch itself must be executable *)
    Mem.check_access mem pc 1 Exec;
    Codec.decode (Mem.raw mem) ~pos:pc ~limit:(Mem.size mem)
  with
  | exception Fault.Fault f -> Some (Stop_fault f)
  | Error e -> (
      (* Under EPC paging a decode error may really be an evicted code
         page: the frame was scrubbed on EWB, so the bytes are garbage
         until reloaded. Probe the longest possible encoding span and
         surface the miss instead of a bogus #UD. *)
      match Mem.probe_resident mem ~addr:pc ~len:16 with
      | exception Fault.Fault f -> Some (Stop_fault f)
      | () ->
          Some
            (Stop_fault
               (Decode_fault { addr = pc; reason = Codec.error_to_string e })))
  | Ok (insn, len) -> (
      (* the whole instruction must lie in executable pages *)
      match Mem.check_access mem pc len Exec with
      | exception Fault.Fault f -> Some (Stop_fault f)
      | () -> exec_decoded mem cpu insn ~pc ~len)

let run_uncached mem cpu ~fuel =
  let rec loop fuel =
    if fuel <= 0 then Stop_quantum
    else
      match step mem cpu with
      | Some stop -> stop
      | None -> loop (fuel - 1)
  in
  loop fuel

(* The cached loop. Executable-span checks are elided for cached
   instructions: block validity (unchanged page generations) implies the
   span still decodes and is still executable, exactly as at build time.
   Fuel is re-checked before every instruction so quantum expiry lands on
   the same instruction boundary as the uncached loop, and fragile
   blocks (those on writable+executable pages) are revalidated after
   every instruction that wrote memory so self-modifying stores take
   effect on the very next fetch, as they would uncached.

   Observability: cache hit/miss/invalidate events are emitted per block
   lookup when the [Dcache] trace class is on; with tracing disabled the
   cost is the [t_dcache] branch. Event timestamps extend the LibOS's
   quantum-start clock by the cycles retired so far (the 3 cycles/ns
   conversion the LibOS clock uses), so they interleave correctly with
   the syscall/quantum events of the surrounding trace. *)
let run_cached cache obs mem cpu ~fuel =
  let c0 = cpu.Cpu.cycles in
  let base_ns = obs.Occlum_obs.Obs.now () in
  let ts () = Int64.add base_ns (Int64.of_int ((cpu.Cpu.cycles - c0) / 3)) in
  let rec loop fuel =
    if fuel <= 0 then Stop_quantum
    else
      match Decode_cache.lookup cache mem cpu.Cpu.pc with
      | Decode_cache.Hit b ->
          cpu.Cpu.dcache_hits <- cpu.Cpu.dcache_hits + 1;
          if obs.Occlum_obs.Obs.t_dcache then
            Occlum_obs.Obs.emit_at obs ~ts:(ts ())
              (Occlum_obs.Trace.Dcache_hit { pc = cpu.Cpu.pc });
          exec_block b 0 b.entry fuel
      | (Decode_cache.Stale | Decode_cache.Miss) as r -> (
          if r = Decode_cache.Stale then begin
            cpu.Cpu.dcache_invalidations <- cpu.Cpu.dcache_invalidations + 1;
            if obs.Occlum_obs.Obs.t_dcache then
              Occlum_obs.Obs.emit_at obs ~ts:(ts ())
                (Occlum_obs.Trace.Dcache_invalidate { pc = cpu.Cpu.pc })
          end;
          cpu.Cpu.dcache_misses <- cpu.Cpu.dcache_misses + 1;
          if obs.Occlum_obs.Obs.t_dcache then
            Occlum_obs.Obs.emit_at obs ~ts:(ts ())
              (Occlum_obs.Trace.Dcache_miss { pc = cpu.Cpu.pc });
          match Decode_cache.build cache mem cpu.Cpu.pc with
          | Some b -> exec_block b 0 b.entry fuel
          | None -> (
              (* nothing decodable/executable at pc: the uncached step
                 raises the fault with identical address and reason *)
              match step mem cpu with
              | Some stop -> stop
              | None -> loop (fuel - 1)))
  and exec_block (b : Decode_cache.block) i pc fuel =
    if fuel <= 0 then Stop_quantum
    else if i >= Array.length b.insns then loop fuel
    else if
      i > 0 && b.fragile && b.writes.(i - 1) && not (valid mem b)
    then
      (* the write just retired may have rewritten this block: refetch *)
      loop fuel
    else
      let insn, len = b.insns.(i) in
      match exec_decoded mem cpu insn ~pc ~len with
      | Some stop -> stop
      | None -> exec_block b (i + 1) (pc + len) (fuel - 1)
  in
  loop fuel

(* The JIT tier. Dispatch order per block boundary: compiled code →
   decode cache (promoting blocks that have replayed [Jit]'s threshold
   many times) → build → uncached single-step fallback. A compiled
   block's exit first tries its successor slot: when the exit pc is the
   one it took last time and that block is still valid (an O(1) epoch
   test unless some page generation moved), it is entered directly,
   counted as the table hit it would have been. Otherwise the pc is
   looked up and the slot refilled, so a stale successor still goes
   through [Jit.lookup] and is counted as an invalidation there. A block
   branching back to its own entry is just its own successor.
   Compiled units run their check-free [fast] variant only when the
   remaining fuel covers the whole unit, so [Stop_quantum] lands on the
   same instruction boundary as the other tiers; fragile blocks are
   revalidated after each unit that wrote memory (in them a write always
   ends its unit) and deopt back to the decoded tier when a store
   rewrote their code page.
   A fault inside a compiled unit deopts to the interpreter's fault
   path: the closure charged and parked state exactly as [exec_decoded]
   would have at the faulting instruction, so the AEX capture is
   bit-identical. *)
let run_jit jit cache obs mem cpu ~fuel =
  let c0 = cpu.Cpu.cycles in
  let base_ns = obs.Occlum_obs.Obs.now () in
  let ts () = Int64.add base_ns (Int64.of_int ((cpu.Cpu.cycles - c0) / 3)) in
  let rec loop fuel =
    if fuel <= 0 then Stop_quantum
    else dispatch (Jit.lookup jit mem cpu.Cpu.pc) fuel
  and dispatch c fuel =
    if c == Jit.miss then decoded_tier fuel
    else if c == Jit.stale then begin
      cpu.Cpu.jit_invalidations <- cpu.Cpu.jit_invalidations + 1;
      if obs.Occlum_obs.Obs.t_jit then
        Occlum_obs.Obs.emit_at obs ~ts:(ts ())
          (Occlum_obs.Trace.Jit_invalidate { pc = cpu.Cpu.pc });
      decoded_tier fuel
    end
    else enter c fuel
  and enter c fuel =
    cpu.Cpu.jit_hits <- cpu.Cpu.jit_hits + 1;
    if obs.Occlum_obs.Obs.t_jit then
      Occlum_obs.Obs.emit_at obs ~ts:(ts ())
        (Occlum_obs.Trace.Jit_hit { pc = cpu.Cpu.pc });
    exec_compiled c 0 fuel
  and decoded_tier fuel =
    match Decode_cache.lookup cache mem cpu.Cpu.pc with
    | Decode_cache.Hit b ->
        cpu.Cpu.dcache_hits <- cpu.Cpu.dcache_hits + 1;
        if obs.Occlum_obs.Obs.t_dcache then
          Occlum_obs.Obs.emit_at obs ~ts:(ts ())
            (Occlum_obs.Trace.Dcache_hit { pc = cpu.Cpu.pc });
        if Jit.hot_enough jit b then begin
          let c = Jit.promote jit b in
          cpu.Cpu.jit_compiles <- cpu.Cpu.jit_compiles + 1;
          if obs.Occlum_obs.Obs.t_jit then
            Occlum_obs.Obs.emit_at obs ~ts:(ts ())
              (Occlum_obs.Trace.Jit_compile { pc = cpu.Cpu.pc });
          exec_compiled c 0 fuel
        end
        else exec_block b 0 b.entry fuel
    | (Decode_cache.Stale | Decode_cache.Miss) as r -> (
        if r = Decode_cache.Stale then begin
          cpu.Cpu.dcache_invalidations <- cpu.Cpu.dcache_invalidations + 1;
          if obs.Occlum_obs.Obs.t_dcache then
            Occlum_obs.Obs.emit_at obs ~ts:(ts ())
              (Occlum_obs.Trace.Dcache_invalidate { pc = cpu.Cpu.pc })
        end;
        cpu.Cpu.dcache_misses <- cpu.Cpu.dcache_misses + 1;
        if obs.Occlum_obs.Obs.t_dcache then
          Occlum_obs.Obs.emit_at obs ~ts:(ts ())
            (Occlum_obs.Trace.Dcache_miss { pc = cpu.Cpu.pc });
        match Decode_cache.build cache mem cpu.Cpu.pc with
        | Some b ->
            (* a zero-threshold JIT promotes at build: every block runs
               compiled from its very first entry, which is what makes
               translation-time guard elision exactly equivalent to the
               statically elided binary *)
            if Jit.hot_enough jit b then begin
              let c = Jit.promote jit b in
              cpu.Cpu.jit_compiles <- cpu.Cpu.jit_compiles + 1;
              if obs.Occlum_obs.Obs.t_jit then
                Occlum_obs.Obs.emit_at obs ~ts:(ts ())
                  (Occlum_obs.Trace.Jit_compile { pc = cpu.Cpu.pc });
              exec_compiled c 0 fuel
            end
            else exec_block b 0 b.entry fuel
        | None -> (
            match step mem cpu with
            | Some stop -> stop
            | None -> loop (fuel - 1)))
  and exec_block (b : Decode_cache.block) i pc fuel =
    if fuel <= 0 then Stop_quantum
    else if i >= Array.length b.insns then loop fuel
    else if i > 0 && b.fragile && b.writes.(i - 1) && not (valid mem b) then
      (* the write just retired may have rewritten this block: refetch *)
      loop fuel
    else
      let insn, len = b.insns.(i) in
      match exec_decoded mem cpu insn ~pc ~len with
      | Some stop -> stop
      | None -> exec_block b (i + 1) (pc + len) (fuel - 1)
  and exec_compiled (c : Jit.compiled) u fuel =
    if fuel <= 0 then Stop_quantum
    else if u >= Array.length c.Jit.units_fast then begin
      let pc = cpu.Cpu.pc in
      let s = c.Jit.next in
      if pc = c.Jit.next_pc && valid mem s.Jit.src then begin
        Jit.note_hit jit;
        enter s fuel
      end
      else
        let s = Jit.lookup jit mem pc in
        if s != Jit.miss && s != Jit.stale then begin
          c.Jit.next_pc <- pc;
          c.Jit.next <- s
        end;
        dispatch s fuel
    end
    else if u > 0 && c.Jit.revalidate.(u - 1) && not (valid mem c.Jit.src)
    then begin
      (* the unit just run wrote into its own code: deopt back to the
         decoded tier *)
      cpu.Cpu.jit_deopts <- cpu.Cpu.jit_deopts + 1;
      if obs.Occlum_obs.Obs.t_jit then
        Occlum_obs.Obs.emit_at obs ~ts:(ts ())
          (Occlum_obs.Trace.Jit_deopt { pc = cpu.Cpu.pc });
      loop fuel
    end
    else
      let k = c.Jit.unit_insns.(u) in
      match
        if fuel >= k then c.Jit.units_fast.(u) mem cpu
        else c.Jit.units_safe.(u) mem cpu fuel
      with
      | Jit.U_fall -> exec_compiled c (u + 1) (fuel - k)
      | Jit.U_stop s -> s
      | exception Fault.Fault f ->
          cpu.Cpu.jit_deopts <- cpu.Cpu.jit_deopts + 1;
          if obs.Occlum_obs.Obs.t_jit then
            Occlum_obs.Obs.emit_at obs ~ts:(ts ())
              (Occlum_obs.Trace.Jit_deopt { pc = cpu.Cpu.pc });
          Stop_fault f
  in
  loop fuel

let run ?cache ?jit ?(obs = Occlum_obs.Obs.disabled) mem cpu ~fuel =
  match (cache, jit) with
  | None, None -> run_uncached mem cpu ~fuel
  | Some c, None -> run_cached c obs mem cpu ~fuel
  | Some c, Some j -> run_jit j c obs mem cpu ~fuel
  | None, Some _ -> invalid_arg "Interp.run: ?jit requires ?cache"
