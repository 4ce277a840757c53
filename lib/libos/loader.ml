(* The Occlum ELF loader (§6). Beyond a classic loader's jobs it:
   1. admits only binaries verified AND signed by the Occlum verifier;
   2. rewrites the last four bytes of every cfi_label to the new SIP's
      domain id;
   3. injects the trampoline — the only way out of the MMDSFI sandbox —
      into the loader-reserved head of the code region and passes its
      address to the program (register r10, stored by _start);
   4. initializes the MPX bound registers for the domain's layout.

   The work splits in two. [admit] is everything that depends only on
   the binary's bytes — the OELF parse, the signature check and the scan
   for cfi_label offsets — so a LibOS may do it once per distinct binary
   and reuse the result. [load] is everything that depends on the slot
   and the arguments, and runs on every spawn: the size-vs-slot checks,
   the SGX2 EAUG, the code placement, the SGX1 scrub, the data image and
   argv.

   Placement pays only for what differs from what the slot already
   holds. The code image (labels patched at the admitted offsets,
   trampoline written) is placed by compare: only pages whose bytes
   change are written, so only they move their generation, and the
   decoded blocks and compiled units of every other page stay valid.
   The scrub zeroes only dirty pages ([Mem.zero_dirty_priv]): a clean page
   already holds zeros, so a slot with no dirty page costs nothing. *)

open Occlum_machine
open Occlum_isa
module R = Occlum_toolchain.Codegen_regs

exception Load_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Load_error m)) fmt

let main_gate_off = 0
let sigreturn_gate_off = 32
let thread_exit_gate_off = 48

type image = {
  slot : Domain_mgr.slot;
  oelf : Occlum_oelf.Oelf.t;
  entry_pc : int;
  init_sp : int;
  bnd0 : Cpu.bound;
  bnd1 : Cpu.bound;
  main_gate : int;       (* absolute pc of the syscall gate instruction *)
  sigreturn_gate : int;
  thread_exit_gate : int;
  label_value : int64;   (* the 8-byte cfi_label encoding for this domain *)
}

let encode_seq insns =
  Bytes.of_string (String.concat "" (List.map Codec.encode insns))

let cfi_label_value domain_id =
  let b = Bytes.of_string (Codec.encode (Insn.Cfi_label (Int32.of_int domain_id))) in
  Bytes.get_int64_le b 0

type admitted = { oelf : Occlum_oelf.Oelf.t; label_offsets : int array }

(* Offsets of every cfi_label in a code image whose id field lies wholly
   inside it. In a verified binary the magic occurs exactly at label
   starts (codec invariant + Stage 1). *)
let label_offsets code =
  Occlum_util.Bytes_util.find_all ~needle:Codec.cfi_magic code
  |> List.filter (fun off -> off + 8 <= Bytes.length code)
  |> Array.of_list

let patch_at code offsets domain_id =
  Array.iter
    (fun off ->
      Bytes.set code (off + 4) (Char.chr (domain_id land 0xFF));
      Bytes.set code (off + 5) (Char.chr ((domain_id lsr 8) land 0xFF));
      Bytes.set code (off + 6) '\x00';
      Bytes.set code (off + 7) '\x00')
    offsets

let patch_labels code domain_id = patch_at code (label_offsets code) domain_id

let admit ?(require_signature = true) binary =
  let oelf = Occlum_oelf.Oelf.of_string binary in
  if require_signature && not (Occlum_verifier.Signer.check oelf) then
    fail "binary is not signed by the Occlum verifier";
  { oelf; label_offsets = label_offsets oelf.code }

(* [dynamic] carries the SGX2 enclave when pages are committed lazily
   (EDMM): the loader EAUGs exactly the pages this binary needs, so no
   scrubbing is required (fresh pages arrive zeroed) and the SIP's reach
   ends at its own last mapped page. *)
let load ?dynamic mem (slot : Domain_mgr.slot) (adm : admitted) ~args =
  let oelf = adm.oelf in
  if Bytes.length oelf.code > slot.code_size then
    fail "code too large for the domain (%d > %d)" (Bytes.length oelf.code)
      slot.code_size;
  if oelf.data_region_size > slot.data_size then
    fail "data region too large for the domain (%d > %d)" oelf.data_region_size
      slot.data_size;
  let c_base = Domain_mgr.c_base slot and d_base = Domain_mgr.d_base slot in
  let domain_id = slot.id in
  let mapped_data_size =
    match dynamic with
    | None -> slot.data_size
    | Some enclave ->
        let code_len =
          Occlum_util.Bytes_util.round_up (max 4096 (Bytes.length oelf.code)) 4096
        in
        let data_len =
          Occlum_util.Bytes_util.round_up oelf.data_region_size 4096
        in
        Occlum_sgx.Enclave.eaug enclave ~addr:c_base ~len:code_len
          ~perm:Mem.perm_rwx;
        (try
           Occlum_sgx.Enclave.eaug enclave ~addr:d_base ~len:data_len
             ~perm:Mem.perm_rw
         with e ->
           (* all-or-nothing: without this, running out of EPC between
              the two EAUGs would strand the code range's pages until
              enclave teardown *)
           Occlum_sgx.Enclave.eremove_pages enclave ~addr:c_base
             ~len:code_len;
           raise e);
        slot.mapped <- [ (c_base, code_len); (d_base, data_len) ];
        data_len
  in
  (* The code image as the slot must hold it — labels patched, the
     trampoline head zeroed and its gates written — padded to a page, is
     placed compare-and-write: a page that already holds these bytes
     keeps its generation, so a re-spawn into the slot its last run left
     keeps every decoded block and compiled unit of unchanged pages. *)
  let code_len = Bytes.length oelf.code in
  let image_len =
    Occlum_util.Bytes_util.round_up
      (max code_len Occlum_oelf.Oelf.trampoline_reserved)
      Mem.page_size
  in
  let code = Bytes.make image_len '\x00' in
  Bytes.blit oelf.code 0 code 0 code_len;
  patch_at code adm.label_offsets domain_id;
  Bytes.fill code 0 Occlum_oelf.Oelf.trampoline_reserved '\x00';
  let main_gate_seq =
    encode_seq
      [
        Insn.Cfi_label (Int32.of_int domain_id);
        Insn.Syscall_gate;
        Insn.Pop R.ret_scratch;
        Insn.Jmp_reg R.ret_scratch;
      ]
  in
  let sigreturn_seq =
    encode_seq [ Insn.Cfi_label (Int32.of_int domain_id); Insn.Syscall_gate ]
  in
  let put off seq = Bytes.blit seq 0 code off (Bytes.length seq) in
  put main_gate_off main_gate_seq;
  put sigreturn_gate_off sigreturn_seq;
  put thread_exit_gate_off sigreturn_seq;
  Mem.place_priv mem ~addr:c_base code;
  (* scrub what a previous SIP may have left (SGX1 only — EAUG pages
     arrive zeroed): the code tail past this image and the whole D
     region, each page only if dirty, since a clean page is all zeros *)
  if dynamic = None then begin
    Mem.zero_dirty_priv mem ~addr:(c_base + image_len)
      ~len:(slot.code_size - image_len);
    Mem.zero_dirty_priv mem ~addr:d_base ~len:slot.data_size
  end;
  (* data image + argv *)
  Mem.write_bytes_priv mem ~addr:d_base oelf.data;
  let arg_page =
    Mem.read_bytes_priv mem ~addr:d_base ~len:Occlum_oelf.Oelf.guard_size
  in
  Occlum_toolchain.Layout.write_args arg_page ~data_base:d_base args;
  Mem.write_bytes_priv mem ~addr:d_base arg_page;
  let label_size = 8 in
  {
    slot;
    oelf;
    entry_pc = c_base + oelf.entry;
    init_sp = d_base + oelf.data_region_size - 16;
    bnd0 = { Cpu.lower = Int64.of_int d_base;
             upper = Int64.of_int (d_base + mapped_data_size - 1) };
    bnd1 = (let v = cfi_label_value domain_id in { Cpu.lower = v; upper = v });
    main_gate = c_base + main_gate_off + label_size;
    sigreturn_gate = c_base + sigreturn_gate_off + label_size;
    thread_exit_gate = c_base + thread_exit_gate_off + label_size;
    label_value = cfi_label_value domain_id;
  }

(* Apply the image to a CPU about to run the SIP's initial thread. *)
let init_cpu (img : image) (cpu : Cpu.t) =
  for i = 0 to Reg.count - 1 do Cpu.set cpu (Reg.of_int i) 0L done;
  cpu.pc <- img.entry_pc;
  Cpu.set cpu Reg.sp (Int64.of_int img.init_sp);
  Cpu.set cpu R.code_base (Int64.of_int (Domain_mgr.c_base img.slot));
  Cpu.set cpu R.data_base (Int64.of_int (Domain_mgr.d_base img.slot));
  (* trampoline address via "auxv" — handed to _start in r10 *)
  Cpu.set cpu R.ret_scratch
    (Int64.of_int (Domain_mgr.c_base img.slot + main_gate_off));
  Cpu.set_bnd cpu Reg.bnd0 img.bnd0;
  Cpu.set_bnd cpu Reg.bnd1 img.bnd1
