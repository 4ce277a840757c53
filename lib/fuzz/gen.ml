open Occlum_isa
open Occlum_toolchain
module R = Codegen_regs

let layout =
  Layout.of_program ~heap_size:16384 ~stack_size:8192
    { globals = [ ("g", 8192) ]; funcs = []; secrets = [] }

let g_off = Layout.global_offset layout "g"

let link items = Linker.link layout items

(* --- generation context ------------------------------------------------ *)

type ctx = {
  rng : Rng.t;
  mutable rev_items : Asm.item list;
  mutable rev_tail : Asm.item list;  (* function bodies, placed after spin *)
  mutable fresh : int;
}

let emit ctx it = ctx.rev_items <- it :: ctx.rev_items
let emits ctx l = List.iter (emit ctx) l

let fresh_label ctx prefix =
  ctx.fresh <- ctx.fresh + 1;
  Printf.sprintf "%s%d" prefix ctx.fresh

(* Registers generated code may freely clobber. r9/r10 are call/return
   scratch, r11/r12 the loader-set bases, r15 the cfi_guard scratch. *)
let work_regs = [| Reg.r1; Reg.r2; Reg.r3; Reg.r4; Reg.r5; Reg.r6; Reg.r13 |]
let loop_counter = Reg.r8 (* never written by straight-line units *)

let any_work ctx = Rng.choose ctx.rng work_regs
let any_size ctx = if Rng.bool ctx.rng then 8 else 1
let any_scale ctx = Rng.choose ctx.rng [| 1; 2; 4; 8 |]

let sp_mem disp : Insn.mem =
  Sib { base = Reg.sp; index = None; scale = 1; disp }

(* --- straight-line units (no control flow, no writes to r8) ------------ *)

let unit_mov ctx =
  if Rng.bool ctx.rng then
    emit ctx (Asm.Ins (Mov_imm (any_work ctx, Int64.of_int (Rng.int_in ctx.rng (-1000) 1000))))
  else emit ctx (Asm.Ins (Mov_reg (any_work ctx, any_work ctx)))

let unit_alu ctx =
  let op =
    Rng.choose ctx.rng
      [| Insn.Add; Sub; Mul; Divu; Remu; And; Or; Xor; Shl; Shr |]
  in
  let dst = any_work ctx in
  let operand =
    match op with
    | Divu | Remu ->
        (* keep well-formed runs fault-free: nonzero immediate divisor *)
        Insn.O_imm (Int64.of_int (Rng.int_in ctx.rng 1 64))
    | Shl | Shr -> Insn.O_imm (Int64.of_int (Rng.int ctx.rng 64))
    | _ ->
        if Rng.bool ctx.rng then Insn.O_reg (any_work ctx)
        else Insn.O_imm (Int64.of_int (Rng.int_in ctx.rng (-4096) 4096))
  in
  emit ctx (Asm.Ins (Alu (op, dst, operand)))

(* Guarded SIB access into the global region; the runtime effective
   address always lands inside D, so well-formed runs never bound-fault. *)
let unit_sib ctx =
  let m, setup =
    if Rng.bool ctx.rng then begin
      let idx = any_work ctx in
      let scale = any_scale ctx in
      ( Insn.Sib
          { base = R.data_base; index = Some idx; scale;
            disp = g_off + Rng.int ctx.rng 2048 },
        [ Asm.Ins (Mov_imm (idx, Int64.of_int (Rng.int ctx.rng 64))) ] )
    end
    else
      ( Insn.Sib
          { base = R.data_base; index = None; scale = 1;
            disp = g_off + Rng.int ctx.rng (8192 - 8) },
        [] )
  in
  emits ctx setup;
  emit ctx (Asm.Mem_guard m);
  let size = any_size ctx in
  if Rng.bool ctx.rng then
    emit ctx (Asm.Ins (Store { dst = m; src = any_work ctx; size }))
  else
    let idx_reg = match m with
      | Sib { index = Some i; _ } -> Some i
      | _ -> None
    in
    let dst = any_work ctx in
    (* loading over the live index register is legal; avoid only to keep
       consecutive accesses in range *)
    let dst = if idx_reg = Some dst then Reg.r1 else dst in
    emit ctx (Asm.Ins (Load { dst; src = m; size }))

(* Balanced guarded push/pop pair (the implicit-operand category). *)
let unit_push_pop ctx =
  emits ctx
    [
      Asm.Mem_guard (sp_mem (-8));
      Asm.Ins (Push (any_work ctx));
      Asm.Mem_guard (sp_mem 0);
      Asm.Ins (Pop (any_work ctx));
    ]

(* Rip-relative access into the global region. During generation the
   displacement field carries the D-relative target offset; [fixup_rip_rel]
   rewrites it to the real pc-relative displacement once code size is
   known (all encodings are fixed-size, so patching is layout-stable). *)
let unit_rip ctx =
  let tgt = g_off + (8 * Rng.int ctx.rng 1000) in
  if Rng.bool ctx.rng then
    emit ctx (Asm.Ins (Load { dst = any_work ctx; src = Rip_rel tgt; size = 8 }))
  else
    emit ctx (Asm.Ins (Store { dst = Rip_rel tgt; src = any_work ctx; size = 8 }))

let straight_units = [| unit_mov; unit_alu; unit_sib; unit_push_pop; unit_rip |]
let unit_straight ctx = (Rng.choose ctx.rng straight_units) ctx

(* --- control-flow units ------------------------------------------------- *)

(* Bounded loop: dedicated counter register, compare-and-branch backward.
   The body is straight-line only, so termination is by construction. *)
let unit_loop ctx =
  let l = fresh_label ctx "loop" in
  emit ctx (Asm.Ins (Mov_imm (loop_counter, Int64.of_int (Rng.int_in ctx.rng 1 4))));
  emit ctx (Asm.Label l);
  for _ = 1 to Rng.int_in ctx.rng 1 3 do
    unit_straight ctx
  done;
  emit ctx (Asm.Ins (Alu (Sub, loop_counter, O_imm 1L)));
  emit ctx (Asm.Ins (Cmp (loop_counter, O_imm 0L)));
  emit ctx (Asm.Jcc_l (Rng.choose ctx.rng [| Insn.Ne; Insn.Gt |], l))

(* Forward direct jump over a dead gap. The landing site starts with a
   cfi_label so the address stays a valid direct-transfer target even if
   mutations retarget an indirect transfer at it. *)
let unit_fwd_jmp ctx =
  let l = fresh_label ctx "fwd" in
  (if Rng.bool ctx.rng then emit ctx (Asm.Jmp_l l)
   else begin
     let r = any_work ctx in
     emit ctx (Asm.Ins (Cmp (r, O_imm (Int64.of_int (Rng.int ctx.rng 8)))));
     emit ctx (Asm.Jcc_l (Rng.choose ctx.rng [| Insn.Eq; Ne; Lt; Le; Gt; Ge |], l))
   end);
  (* fallthrough filler (skipped or executed depending on flags) *)
  unit_straight ctx;
  emit ctx (Asm.Label l);
  emit ctx Asm.Cfi_label_here

(* cfi_guarded register-indirect jump to the next block. *)
let unit_indirect_jmp ctx =
  let l = fresh_label ctx "blk" in
  emits ctx
    [
      Asm.Lea_code (R.call_scratch, l);
      Asm.Cfi_guard R.call_scratch;
      Asm.Ins (Jmp_reg R.call_scratch);
      Asm.Label l;
      Asm.Cfi_label_here;
    ]

(* Direct call to a generated function that returns MMDSFI-style:
   guarded pop of the return address, cfi_guard, indirect jump. *)
let unit_call ctx =
  let fn = fresh_label ctx "fn" in
  emits ctx [ Asm.Mem_guard (sp_mem (-8)); Asm.Call_l fn; Asm.Cfi_label_here ];
  let saved = ctx.rev_items in
  ctx.rev_items <- [];
  emits ctx [ Asm.Label fn; Asm.Cfi_label_here ];
  for _ = 1 to Rng.int_in ctx.rng 1 3 do
    unit_straight ctx
  done;
  emits ctx
    [
      Asm.Mem_guard (sp_mem 0);
      Asm.Ins (Pop R.ret_scratch);
      Asm.Cfi_guard R.ret_scratch;
      Asm.Ins (Jmp_reg R.ret_scratch);
    ];
  ctx.rev_tail <- ctx.rev_items @ ctx.rev_tail;
  ctx.rev_items <- saved

let tramp_slot_mem : Insn.mem =
  Sib { base = R.data_base; index = None; scale = 1; disp = Layout.tramp_slot }

(* Syscall through the LibOS trampoline, exactly as the toolchain emits
   it: load the trampoline pointer _start stashed at D+0, guard the
   implicit push, cfi_guard, indirect call; execution resumes at the
   cfi_label after the call site. *)
let syscall_seq ctx nr =
  emits ctx
    [
      Asm.Ins (Mov_imm (Reg.of_int Occlum_abi.Abi.Regs.sys_nr, Int64.of_int nr));
      Asm.Mem_guard tramp_slot_mem;
      Asm.Ins (Load { dst = R.call_scratch; src = tramp_slot_mem; size = 8 });
      Asm.Mem_guard (sp_mem (-8));
      Asm.Cfi_guard R.call_scratch;
      Asm.Ins (Call_reg R.call_scratch);
      Asm.Cfi_label_here;
    ]

let unit_syscall ctx = syscall_seq ctx (Rng.int_in ctx.rng 150 199)

let units =
  [|
    unit_straight; unit_straight; unit_straight; unit_loop; unit_fwd_jmp;
    unit_indirect_jmp; unit_call; unit_syscall;
  |]

(* --- rip-relative fixup ------------------------------------------------- *)

let fixup_rip_rel items =
  let base = Occlum_oelf.Oelf.trampoline_reserved in
  let total =
    base + List.fold_left (fun a it -> a + Asm.item_size it) 0 items
  in
  let code_region = Occlum_util.Bytes_util.round_up total 4096 in
  let d_begin_rel = code_region + Occlum_oelf.Oelf.guard_size in
  let rec go off acc = function
    | [] -> List.rev acc
    | it :: rest ->
        let sz = Asm.item_size it in
        let it' =
          match it with
          | Asm.Ins (Insn.Load { dst; src = Rip_rel tgt; size }) ->
              Asm.Ins
                (Insn.Load
                   { dst; src = Rip_rel (d_begin_rel + tgt - (off + sz)); size })
          | Asm.Ins (Insn.Store { dst = Rip_rel tgt; src; size }) ->
              Asm.Ins
                (Insn.Store
                   { dst = Rip_rel (d_begin_rel + tgt - (off + sz)); src; size })
          | it -> it
        in
        go (off + sz) (it' :: acc) rest
  in
  go base [] items

(* --- top-level program -------------------------------------------------- *)

let program rng =
  let ctx = { rng; rev_items = []; rev_tail = []; fresh = 0 } in
  (* entry stub, like the compiler's: stash the trampoline pointer
     (passed in r10 by the loader) at D+0 for later syscalls *)
  emits ctx
    [
      Asm.Label "_start";
      Asm.Cfi_label_here;
      Asm.Mem_guard tramp_slot_mem;
      Asm.Ins (Store { dst = tramp_slot_mem; src = R.ret_scratch; size = 8 });
    ];
  for _ = 1 to Rng.int_in ctx.rng 3 10 do
    (Rng.choose ctx.rng units) ctx
  done;
  if Rng.chance ctx.rng 1 3 then syscall_seq ctx Occlum_abi.Abi.Sys.exit;
  emits ctx [ Asm.Label "spin"; Asm.Jmp_l "spin" ];
  fixup_rip_rel (List.rev (ctx.rev_tail @ ctx.rev_items))

(* --- hostile mutations -------------------------------------------------- *)

let hostile_insns =
  [|
    Insn.Eexit; Emodpe; Eaccept; Xrstor; Hlt; Syscall_gate; Ret; Ret_imm 8;
    Wrfsbase Reg.r1; Wrgsbase Reg.r2;
    Bndmk (Reg.bnd0, Sib { base = Reg.r1; index = None; scale = 1; disp = 0 });
    Bndmov (Reg.bnd0, Reg.bnd1);
    Jmp_mem (Sib { base = Reg.r1; index = None; scale = 1; disp = 0 });
    Call_mem (Rip_rel 16);
    Load { dst = Reg.r1; src = Abs 0x5000L; size = 8 };
    Store { dst = Abs 0x5000L; src = Reg.r1; size = 8 };
    Vscatter { base = Reg.r1; index = Reg.r2; scale = 8; src = Reg.r3 };
  |]

let insert_at items pos it =
  let rec go i = function
    | [] -> [ it ]
    | x :: rest -> if i = pos then it :: x :: rest else x :: go (i + 1) rest
  in
  go 0 items

(* Guest self-modifying code, for runs whose code is mapped RWX: one to
   three unguarded 1- or 8-byte rip-relative stores, each aimed [-64, 32)
   bytes from its own end. The target is code the program is running —
   usually an instruction of the store's own basic block, the very next
   one included. *)
let code_stores rng items =
  let rec go k items =
    if k = 0 then items
    else
      let st =
        Asm.Ins
          (Store
             {
               dst = Rip_rel (Rng.int_in rng (-64) 31);
               src = Rng.choose rng work_regs;
               size = (if Rng.bool rng then 8 else 1);
             })
      in
      go (k - 1) (insert_at items (Rng.int rng (List.length items + 1)) st)
  in
  go (Rng.int_in rng 1 3) items

(* Drop the first guard at or after a random position: the classic
   "toolchain bug" the verifier exists to catch. *)
let drop_guard rng items =
  let n = List.length items in
  let start = Rng.int rng (max 1 n) in
  let dropped = ref false in
  List.filteri
    (fun i it ->
      match it with
      | (Asm.Mem_guard _ | Asm.Cfi_guard _) when i >= start && not !dropped ->
          dropped := true;
          false
      | _ -> true)
    items

let hostile rng =
  let items = program rng in
  match Rng.int rng 4 with
  | 0 ->
      (* dangerous / rejected-category instruction *)
      let it = Asm.Ins (Rng.choose rng hostile_insns) in
      insert_at items (Rng.int rng (List.length items)) it
  | 1 ->
      (* unguarded escaping store: aimed one page past D's end *)
      let m : Insn.mem =
        Sib
          { base = R.data_base; index = None; scale = 1;
            disp = layout.Layout.data_region_size + 4096 + Rng.int rng 4096 }
      in
      insert_at items
        (Rng.int rng (List.length items))
        (Asm.Ins (Store { dst = m; src = Reg.r1; size = 8 }))
  | 2 ->
      (* unguarded register-indirect transfer *)
      insert_at items
        (Rng.int rng (List.length items))
        (Asm.Ins (Jmp_reg (Rng.choose rng work_regs)))
  | _ -> drop_guard rng items

(* --- codec fodder -------------------------------------------------------- *)

let any_reg rng = Reg.of_int (Rng.int rng 16)
let any_bnd rng = Reg.bnd_of_int (Rng.int rng 4)

let any_mem rng : Insn.mem =
  match Rng.int rng 3 with
  | 0 ->
      Sib
        {
          base = any_reg rng;
          index = (if Rng.bool rng then Some (any_reg rng) else None);
          scale = Rng.choose rng [| 1; 2; 4; 8 |];
          disp = Rng.int_in rng (-0x7FFFFFFF) 0x7FFFFFFF;
        }
  | 1 -> Rip_rel (Rng.int_in rng (-0x7FFFFFFF) 0x7FFFFFFF)
  | _ -> Abs (Rng.next rng)

let any_operand rng =
  if Rng.bool rng then Insn.O_reg (any_reg rng) else Insn.O_imm (Rng.next rng)

let any_ea rng =
  if Rng.bool rng then Insn.Ea_reg (any_reg rng) else Insn.Ea_mem (any_mem rng)

let any_alu rng =
  Rng.choose rng [| Insn.Add; Sub; Mul; Divu; Remu; And; Or; Xor; Shl; Shr |]

let any_cond rng = Rng.choose rng [| Insn.Eq; Ne; Lt; Le; Gt; Ge |]
let size_of rng = if Rng.bool rng then 8 else 1

let insn rng : Insn.t =
  match Rng.int rng 30 with
  | 0 -> Nop
  | 1 -> Mov_imm (any_reg rng, Rng.next rng)
  | 2 -> Mov_reg (any_reg rng, any_reg rng)
  | 3 -> Load { dst = any_reg rng; src = any_mem rng; size = size_of rng }
  | 4 -> Store { dst = any_mem rng; src = any_reg rng; size = size_of rng }
  | 5 -> Push (any_reg rng)
  | 6 -> Pop (any_reg rng)
  | 7 -> Lea (any_reg rng, any_mem rng)
  | 8 -> Alu (any_alu rng, any_reg rng, any_operand rng)
  | 9 -> Cmp (any_reg rng, any_operand rng)
  | 10 -> Jmp (Rng.int_in rng (-0x7FFFFFFF) 0x7FFFFFFF)
  | 11 -> Jcc (any_cond rng, Rng.int_in rng (-0x7FFFFFFF) 0x7FFFFFFF)
  | 12 -> Call (Rng.int_in rng (-0x7FFFFFFF) 0x7FFFFFFF)
  | 13 -> Jmp_reg (any_reg rng)
  | 14 -> Call_reg (any_reg rng)
  | 15 -> Jmp_mem (any_mem rng)
  | 16 -> Call_mem (any_mem rng)
  | 17 -> Ret
  | 18 -> Ret_imm (Rng.int rng 0x10000)
  | 19 -> Syscall_gate
  | 20 -> Hlt
  | 21 -> Bndcl (any_bnd rng, any_ea rng)
  | 22 -> Bndcu (any_bnd rng, any_ea rng)
  | 23 -> Bndmk (any_bnd rng, any_mem rng)
  | 24 -> Bndmov (any_bnd rng, any_bnd rng)
  | 25 -> Cfi_label (Int32.of_int (Rng.int rng 65536))
  | 26 -> Eexit
  | 27 -> Wrfsbase (any_reg rng)
  | 28 -> Vscatter
      { base = any_reg rng; index = any_reg rng;
        scale = Rng.choose rng [| 1; 2; 4; 8 |]; src = any_reg rng }
  | _ -> Xrstor

let all_insn_shapes : Insn.t list =
  let mems : Insn.mem list =
    [
      Sib { base = Reg.r0; index = None; scale = 1; disp = 0 };
      Sib { base = Reg.sp; index = Some Reg.r13; scale = 8; disp = -0x7FFFFFFF };
      (* displacements whose little-endian bytes hit the 0xF4 escape *)
      Sib { base = Reg.r1; index = Some Reg.scratch; scale = 2; disp = 0xF4 };
      Sib { base = Reg.r2; index = None; scale = 4; disp = 0x7FF4F4F4 };
      Rip_rel 0;
      Rip_rel (-0xF4);
      Rip_rel 0x7FFFFFFF;
      Abs 0L;
      Abs 0xF4F4F4F4F4F4F4F4L;
      Abs Int64.max_int;
    ]
  in
  let regs = [ Reg.r0; Reg.r7; Reg.sp; Reg.scratch ] in
  let bnds = [ Reg.bnd0; Reg.bnd1; Reg.bnd2; Reg.bnd3 ] in
  let imms = [ 0L; 1L; -1L; 0xF4L; 0xF4F4F4F4F4F4F4F4L; Int64.min_int; Int64.max_int ] in
  let rels = [ 0; 1; -1; 0xF4; -0xF4F4; 0x7FFFFFFF; -0x7FFFFFFF ] in
  let alu_ops = [ Insn.Add; Sub; Mul; Divu; Remu; And; Or; Xor; Shl; Shr ] in
  let conds = [ Insn.Eq; Ne; Lt; Le; Gt; Ge ] in
  List.concat
    [
      [ Insn.Nop; Ret; Syscall_gate; Hlt; Eexit; Emodpe; Eaccept; Xrstor ];
      List.concat_map (fun r -> List.map (fun i -> Insn.Mov_imm (r, i)) imms) regs;
      List.concat_map (fun a -> List.map (fun b -> Insn.Mov_reg (a, b)) regs) regs;
      List.concat_map
        (fun m ->
          List.concat_map
            (fun size ->
              [
                Insn.Load { dst = Reg.r3; src = m; size };
                Insn.Store { dst = m; src = Reg.r4; size };
              ])
            [ 1; 8 ])
        mems;
      List.map (fun r -> Insn.Push r) regs;
      List.map (fun r -> Insn.Pop r) regs;
      List.map (fun m -> Insn.Lea (Reg.r5, m)) mems;
      List.concat_map
        (fun op ->
          [
            Insn.Alu (op, Reg.r1, O_reg Reg.r2);
            Insn.Alu (op, Reg.r6, O_imm 0xF4F4L);
          ])
        alu_ops;
      [ Insn.Cmp (Reg.r1, O_reg Reg.r2); Cmp (Reg.r3, O_imm Int64.min_int) ];
      List.map (fun r -> Insn.Jmp r) rels;
      List.concat_map (fun c -> List.map (fun r -> Insn.Jcc (c, r)) rels) conds;
      List.map (fun r -> Insn.Call r) rels;
      List.map (fun r -> Insn.Jmp_reg r) regs;
      List.map (fun r -> Insn.Call_reg r) regs;
      List.map (fun m -> Insn.Jmp_mem m) mems;
      List.map (fun m -> Insn.Call_mem m) mems;
      [ Insn.Ret_imm 0; Ret_imm 0xF4; Ret_imm 0xFFFF ];
      List.concat_map
        (fun b ->
          [
            Insn.Bndcl (b, Ea_reg Reg.r9);
            Insn.Bndcu (b, Ea_reg Reg.r10);
          ]
          @ List.concat_map
              (fun m -> [ Insn.Bndcl (b, Ea_mem m); Insn.Bndcu (b, Ea_mem m) ])
              mems
          @ List.map (fun m -> Insn.Bndmk (b, m)) mems)
        bnds;
      List.concat_map
        (fun a -> List.map (fun b -> Insn.Bndmov (a, b)) bnds)
        bnds;
      List.map (fun id -> Insn.Cfi_label (Int32.of_int id)) [ 0; 1; 0xF4; 65535 ];
      List.map (fun r -> Insn.Wrfsbase r) regs;
      List.map (fun r -> Insn.Wrgsbase r) regs;
      List.map
        (fun scale -> Insn.Vscatter { base = Reg.r1; index = Reg.r2; scale; src = Reg.r3 })
        [ 1; 2; 4; 8 ];
    ]

let byte_soup rng = Rng.bytes rng (Rng.int_in rng 1 64)
