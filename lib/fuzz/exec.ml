open Occlum_isa
open Occlum_machine
module R = Occlum_toolchain.Codegen_regs
module Enclave = Occlum_sgx.Enclave

let guard = Occlum_oelf.Oelf.guard_size
let code_base = 0x10000
let domain_id = 1
let sentinel = '\x5c'

type violation = Pc_escape of int | Victim_written | Code_modified

let violation_to_string = function
  | Pc_escape pc -> Printf.sprintf "pc escaped the code region: 0x%x" pc
  | Victim_written -> "a store landed in the adjacent domain"
  | Code_modified -> "the code region was modified at runtime"

type env = {
  enclave : Enclave.t;
  mem : Mem.t;
  cpu : Cpu.t;
  code_base : int;
  code_region : int;
  d_base : int;
  d_size : int;
  victim_base : int;
  victim_size : int;
  code_snapshot : Bytes.t;
}

let make ?epc ?(code_perm = Mem.perm_rwx) (oelf : Occlum_oelf.Oelf.t) =
  let epc =
    match epc with Some e -> e | None -> Occlum_sgx.Epc.create ()
  in
  let code_region = Occlum_oelf.Oelf.code_region_size oelf in
  let d_base = code_base + code_region + guard in
  let d_size = Occlum_util.Bytes_util.round_up oelf.data_region_size 4096 in
  let victim_base = d_base + d_size + guard in
  let victim_size = 4 * 4096 in
  let size =
    Occlum_util.Bytes_util.round_up (victim_base + victim_size) 4096
  in
  let enclave = Enclave.create ~epc ~size () in
  let mem = Enclave.mem enclave in
  (* code image, prepared before EADD (SGX1 forbids writes after EINIT
     only through the mapping API; the image is measured as loaded):
     ids patched, loader-reserved head zeroed, trampoline installed *)
  let img = Bytes.make code_region '\x00' in
  Bytes.blit oelf.code 0 img 0 (Bytes.length oelf.code);
  Occlum_libos.Loader.patch_labels img domain_id;
  Bytes.fill img 0 Occlum_oelf.Oelf.trampoline_reserved '\x00';
  let tramp =
    String.concat ""
      (List.map Codec.encode
         [
           Insn.Cfi_label (Int32.of_int domain_id);
           Insn.Syscall_gate;
           Insn.Pop R.ret_scratch;
           Insn.Jmp_reg R.ret_scratch;
         ])
  in
  Bytes.blit_string tramp 0 img 0 (String.length tramp);
  Enclave.add_pages enclave ~addr:code_base ~data:img ~perm:code_perm;
  let dimg = Bytes.make d_size '\x00' in
  Bytes.blit oelf.data 0 dimg 0 (Bytes.length oelf.data);
  Enclave.add_pages enclave ~addr:d_base ~data:dimg ~perm:Mem.perm_rw;
  Enclave.add_zero_pages enclave ~addr:victim_base ~len:victim_size
    ~perm:Mem.perm_rw;
  Enclave.init enclave;
  Mem.fill_priv mem ~addr:victim_base ~len:victim_size sentinel;
  let cpu = Cpu.create () in
  cpu.Cpu.pc <- code_base + oelf.entry;
  Cpu.set cpu Reg.sp (Int64.of_int (d_base + oelf.data_region_size - 16));
  Cpu.set cpu R.code_base (Int64.of_int code_base);
  Cpu.set cpu R.data_base (Int64.of_int d_base);
  (* the loader passes the trampoline address in r10 at entry *)
  Cpu.set cpu R.ret_scratch (Int64.of_int code_base);
  Cpu.set_bnd cpu Reg.bnd0
    { lower = Int64.of_int d_base; upper = Int64.of_int (d_base + d_size - 1) };
  let lv = Occlum_libos.Loader.cfi_label_value domain_id in
  Cpu.set_bnd cpu Reg.bnd1 { lower = lv; upper = lv };
  let code_snapshot = Mem.read_bytes_priv mem ~addr:code_base ~len:code_region in
  {
    enclave; mem; cpu; code_base; code_region; d_base; d_size;
    victim_base; victim_size; code_snapshot;
  }

let in_code env pc = pc >= env.code_base && pc < env.code_base + env.code_region

let victim_intact env =
  let b = Mem.read_bytes_priv env.mem ~addr:env.victim_base ~len:env.victim_size in
  let ok = ref true in
  Bytes.iter (fun c -> if c <> sentinel then ok := false) b;
  !ok

let code_intact env =
  Bytes.equal env.code_snapshot
    (Mem.read_bytes_priv env.mem ~addr:env.code_base ~len:env.code_region)

let audit env =
  if not (victim_intact env) then Some Victim_written
  else if not (code_intact env) then Some Code_modified
  else None

type outcome = Exited | Faulted of Fault.t | Out_of_fuel

let run_contained ?(fuel = 20_000) ?interrupt env =
  let cpu = env.cpu and mem = env.mem in
  let finish outcome =
    match audit env with None -> Ok outcome | Some v -> Error v
  in
  let rec step n =
    if n = 0 then finish Out_of_fuel
    else begin
      (match interrupt with
      | Some i when i () ->
          Enclave.aex ~reason:"fuzz" env.enclave env.cpu;
          Enclave.resume env.enclave env.cpu
      | _ -> ());
      match Interp.step mem cpu with
      | Some Interp.Stop_syscall ->
          let nr =
            Int64.to_int (Cpu.get cpu (Reg.of_int Occlum_abi.Abi.Regs.sys_nr))
          in
          if nr = Occlum_abi.Abi.Sys.exit then finish Exited
          else begin
            (* emulate: every non-exit syscall returns 0 and resumes
               through the trampoline's pop/jmp tail *)
            Cpu.set cpu R.result 0L;
            check n
          end
      | Some (Interp.Stop_fault f) -> finish (Faulted f)
      | Some Interp.Stop_quantum | None -> check n
    end
  and check n =
    if not (in_code env cpu.Cpu.pc) then Error (Pc_escape cpu.Cpu.pc)
    else if n mod 1024 = 0 && not (victim_intact env) then Error Victim_written
    else step (n - 1)
  in
  step fuel
