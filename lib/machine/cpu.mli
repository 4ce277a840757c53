(** Architectural state of one simulated hardware thread: 16 GPRs, four
    MPX bound registers, comparison flags, the program counter, and the
    cycle/instruction counters the benchmarks read. *)

type bound = { lower : int64; upper : int64 }  (** inclusive range *)

type t = {
  regs : Bytes.t;
      (** GPR [i] as 8 little-endian bytes at offset [8 * i]; unboxed, so
          writing a register never allocates. Read through {!get}. *)
  bnds : bound array;
  mutable pc : int;
  mutable flag_eq : bool;
  mutable flag_lt : bool;  (** signed [a < b] of the last [cmp] *)
  mutable cycles : int;
  mutable insns : int;
  mutable loads : int;
  mutable stores : int;
  mutable bound_checks : int;
  (* decoded-block cache observability; not architectural state, so not
     part of {!save}/{!restore} snapshots *)
  mutable dcache_hits : int;
  mutable dcache_misses : int;
  mutable dcache_invalidations : int;
  (* block-JIT tier observability; not architectural state either *)
  mutable jit_compiles : int;
  mutable jit_hits : int;
  mutable jit_invalidations : int;
  mutable jit_deopts : int;
}

val create : unit -> t

val get : t -> Occlum_isa.Reg.t -> int64
val set : t -> Occlum_isa.Reg.t -> int64 -> unit
val get_bnd : t -> Occlum_isa.Reg.bnd -> bound
val set_bnd : t -> Occlum_isa.Reg.bnd -> bound -> unit

type snapshot
(** Saved CPU state: what SGX spills to the SSA on an AEX — including the
    MPX bound registers (§2.3) — and what the LibOS uses to context
    switch between SIPs. *)

val save : t -> snapshot
val restore : t -> snapshot -> unit
