(** The Occlum ELF loader (§6). Beyond a classic loader it: (1) admits
    only verifier-signed binaries; (2) rewrites every cfi_label's id to
    the SIP's domain id; (3) injects the syscall trampoline — the only
    way out of the MMDSFI sandbox — and hands its address to [_start];
    (4) computes the MPX bound-register values for the domain.

    Loading is split into {!admit}, the checks that depend only on the
    binary's bytes (parse, signature, cfi_label scan), and {!load}, which
    places an admitted binary in a slot. A LibOS may admit a binary once
    and load it many times; everything slot- or argument-dependent —
    the size-vs-slot checks, the SGX2 EAUG, the code placement, the SGX1
    scrub of dirty pages, data and argv — stays per load. *)

exception Load_error of string

val main_gate_off : int
val sigreturn_gate_off : int
val thread_exit_gate_off : int

type image = {
  slot : Domain_mgr.slot;
  oelf : Occlum_oelf.Oelf.t;
  entry_pc : int;
  init_sp : int;
  bnd0 : Occlum_machine.Cpu.bound;  (** the domain's data-region range *)
  bnd1 : Occlum_machine.Cpu.bound;  (** [label_value, label_value] *)
  main_gate : int;        (** pc of the syscall gate instruction *)
  sigreturn_gate : int;
  thread_exit_gate : int;
  label_value : int64;    (** this domain's 8-byte cfi_label encoding *)
}

val cfi_label_value : int -> int64

val patch_labels : Bytes.t -> int -> unit
(** Rewrite the id field of every cfi_label in a code image (find the
    label offsets, then patch). *)

type admitted = private {
  oelf : Occlum_oelf.Oelf.t;
  label_offsets : int array;
      (** ascending offsets of every cfi_label whose 8 bytes lie wholly
          inside [oelf.code] *)
}
(** A binary that passed every content check. A pure function of the
    bytes (and [require_signature]), so it may be reused for any spawn of
    the same bytes. *)

val admit : ?require_signature:bool -> string -> admitted
(** Parse a serialized OELF, check its verifier signature (unless
    [require_signature] is [false], the Linux baseline) and record its
    cfi_label offsets.
    @raise Occlum_oelf.Oelf.Malformed on a structurally bad binary.
    @raise Load_error on a missing or bad signature. *)

val load :
  ?dynamic:Occlum_sgx.Enclave.t ->
  Occlum_machine.Mem.t ->
  Domain_mgr.slot ->
  admitted ->
  args:string list ->
  image
(** EAUG exactly the pages the binary needs ([dynamic] = the SGX2
    enclave), place the code image (labels patched to the slot's domain
    id, plus trampoline) page by page, writing only pages whose bytes
    differ so unchanged pages keep their generation, zero the dirty
    pages of the code tail and the D region (SGX1), write data (with
    argv), and describe the initial machine state. The slot's bytes end
    up exactly as if it had been zero-filled and then written. [args]
    must fit the argument area ({!Occlum_toolchain.Layout.args_fit}).
    @raise Load_error on a binary too large for the slot. *)

val init_cpu : image -> Occlum_machine.Cpu.t -> unit
(** Set pc/sp/base registers/bounds for the SIP's first thread. *)
