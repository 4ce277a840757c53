(** Random OASM program generator.

    Two output classes:

    - {!program}: {e well-formed by construction} toolchain programs.
      They exercise every accepted memory-operand category of Figure 4
      (guarded SIB with and without index, guarded push/pop, static
      rip-relative) and every accepted control-transfer category of
      Figure 3 (direct jmp/jcc/call, cfi_guarded register-indirect,
      syscalls through the LibOS trampoline), with loops bounded by
      construction — so the verifier must accept them and bounded-fuel
      runs terminate deterministically.
    - {!hostile}: a well-formed program with one policy-violating
      mutation spliced in (dangerous instruction, unguarded access,
      ret/memory-indirect transfer, deleted guard). The verifier must
      reject these — or, if one slips through, runtime containment must
      still hold (the soundness property).

    Plus raw material for the codec property: {!insn}, {!byte_soup} and
    the exhaustive {!all_insn_shapes}. *)

open Occlum_isa
open Occlum_toolchain

val layout : Layout.t
(** The fixed data-region layout every generated program links against:
    one 8 KiB global, a small heap and stack. *)

val link : Asm.item list -> Occlum_oelf.Oelf.t
(** Link generated items against {!layout}. *)

val program : Rng.t -> Asm.item list
(** A complete well-formed program (starts at [_start], ends in a spin
    loop so fuel-bounded runs stop with [Stop_quantum]); rip-relative
    displacements are already resolved against {!layout}. *)

val hostile : Rng.t -> Asm.item list
(** {!program} with one hostile mutation. *)

val code_stores : Rng.t -> Asm.item list -> Asm.item list
(** Splice one to three unguarded 1- or 8-byte stores into the items,
    each aimed by a rip-relative displacement in [\[-64, 32)] at the
    program's own code near the store — guest self-modifying code for
    runs with RWX code pages. *)

val insn : Rng.t -> Insn.t
(** A random instruction with valid operand ranges, drawn from the whole
    ISA (including verifier-rejected shapes) — codec fodder. *)

val all_insn_shapes : Insn.t list
(** At least one exemplar per opcode x addressing-mode x operand-width
    combination, with payload edge cases (0xF4 escape bytes, extreme
    immediates) — the exhaustive codec round-trip set. *)

val byte_soup : Rng.t -> Bytes.t
(** 1-64 uniformly random bytes. *)
