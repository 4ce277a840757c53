(** Enclave-backed isolated execution of a fuzzed OELF binary, with the
    MMDSFI containment policies asserted at runtime (the dynamic side of
    Theorems 5.2/5.3):

    - the pc never leaves the code region C (checked after every
      instruction);
    - a live, writable "victim" region where an adjacent SIP's domain
      would sit is never written, and C itself is never modified
      (audited periodically and at the end).

    The environment is a real {!Occlum_sgx.Enclave.t} (ECREATE/EADD/
    EINIT against its own EPC pool), so {!Occlum_sgx.Enclave.aex}/
    [resume] work against it — the AEX-orderliness property runs here. *)

open Occlum_machine

type violation = Pc_escape of int | Victim_written | Code_modified

val violation_to_string : violation -> string

type env = {
  enclave : Occlum_sgx.Enclave.t;
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

val make : ?epc:Occlum_sgx.Epc.t -> ?code_perm:Mem.perm -> Occlum_oelf.Oelf.t -> env
(** Build and EINIT an enclave around the binary: loader-equivalent code
    patching and trampoline install, data image, a sentinel-filled victim
    region one guard page past D, and a CPU initialized exactly as the
    LibOS would (pc, sp, base registers, bnd0 = D's range, bnd1 = the
    domain's cfi-label value). A fresh EPC pool is created unless [epc]
    is given. [code_perm] (default RWX, the mapping the LibOS loader
    uses on SGX1) is the code region's page permission; RX keeps every
    block non-fragile. *)

val audit : env -> violation option
(** The end-of-run memory policy check (victim + code integrity). *)

type outcome =
  | Exited          (** the program issued an exit syscall *)
  | Faulted of Fault.t  (** a contained stop: the policy held *)
  | Out_of_fuel

val run_contained :
  ?fuel:int ->
  ?interrupt:(unit -> bool) ->
  env ->
  (outcome, violation) result
(** Step instruction-by-instruction asserting pc containment after each,
    auditing the victim periodically, and emulating non-exit syscalls as
    "return 0" through the trampoline. [interrupt] is consulted once per
    boundary; when it fires, an {!Occlum_sgx.Enclave.aex}/[resume] round
    trip runs before the instruction executes. *)
