(** Block-JIT execution tier: hot decoded basic blocks (per
    {!Decode_cache.block.hot}) are translated once into chains of
    specialized OCaml closures — operands pre-resolved, guard+load /
    guard+store / guard+guard pairs fused over one effective-address
    computation, straight-line runs chained up to four instructions per
    unit — and replayed by {!Interp.run} when [?jit] is passed.

    Every unit exists in two variants: [fast] (no internal checks; used
    only when the remaining fuel covers the whole unit) and [safe]
    (re-checks fuel at every internal instruction boundary, so quantum
    expiry — and AEX injected by fuel slicing — stops mid-unit on the
    same boundary as the interpreter). Guest loads and stores test
    {!Mem.t.fast} inline and call {!Mem.check_access}/{!Mem.check_write}
    only when the page needs bookkeeping or may fault. Compiled blocks
    reuse the source block's page-generation snapshot for invalidation,
    and each keeps a one-entry successor slot so the interpreter can
    chain block exits without a table lookup. Blocks
    on writable+executable pages (every SIP's code: SGX1 fixes page
    permissions at EADD, so the LibOS maps code RWX) are fused too, but
    each instruction that writes memory ends its unit, and the
    interpreter revalidates the block after such a unit.

    Translation-time guard elision: bndcl/bndcu whose address is
    registered via {!elide_fact} (sourced from
    [Occlum_analysis.Elide]'s dominated-redundant / range-proven
    classifications) compile to charge-only bodies — the bound
    comparison and the [bound_checks] counter are skipped, matching the
    statically elided, re-verified binary's memory behavior while
    keeping the unelided instruction and cycle counts. *)

type stop =
  | Stop_syscall  (** reached the LibOS trampoline's syscall_gate *)
  | Stop_fault of Fault.t
  | Stop_quantum  (** fuel exhausted; SIP is preempted *)

type ustat = U_fall | U_stop of stop

type body = Mem.t -> Cpu.t -> ustat
(** One translated instruction (or a fast whole unit): charges counters,
    executes, parks pc. Faults raise {!Fault.Fault}. *)

type unit_fn = Mem.t -> Cpu.t -> int -> ustat
(** Safe unit: [f mem cpu fuel] with [fuel] the remaining fuel before
    the unit's first instruction. *)

type compiled = {
  entry : int;
  src : Decode_cache.block;  (** carries the generation snapshot *)
  units_fast : body array;
  units_safe : unit_fn array;
  unit_insns : int array;  (** original instructions per unit *)
  revalidate : bool array;
      (** [revalidate.(u)]: the block is fragile and unit [u] ends at an
          instruction that writes memory, so [src] must be revalidated
          before unit [u + 1] runs *)
  mutable next_pc : int;
      (** successor slot: the pc this block's exit took last time
          ([-1] when empty) ... *)
  mutable next : compiled;
      (** ... and the compiled block {!lookup} found there. The
          interpreter enters it directly while [next_pc] matches and its
          [src] is still valid, counting a hit as {!lookup} would;
          otherwise it looks the pc up and refills the slot. *)
}

type t

val create : ?threshold:int -> ?max_blocks:int -> ?elide:(int, unit) Hashtbl.t -> unit -> t
(** [threshold] (default 16) is the decode-cache replay count at which a
    block is promoted; [0] promotes every block at build, so all code
    runs compiled from its first execution (the mode under which
    translation-time guard elision is exactly equivalent to the
    statically elided binary). [max_blocks] (default 4096) flushes the
    code cache wholesale when full. [elide] shares a guard-elision fact table
    (absolute pcs) with other JITs — change facts for addresses that
    may have compiled code only through {!set_elide_facts}, which
    invalidates that code. *)

val elide_fact : t -> addr:int -> unit
(** Mark the guard at absolute [addr] safe to skip at translation time. *)

val set_elide_facts : t -> Mem.t -> lo:int -> hi:int -> int list -> unit
(** Make the facts with [lo <= addr < hi] exactly those of the list
    (e.g. when a binary is placed in a domain slot), and move the
    generation of every page where a fact was added or dropped, so no
    compiled unit outlives the facts it was compiled with. *)

val compile : t -> Decode_cache.block -> compiled
(** Translate a block (total: every opcode compiles, privileged ones to
    charge-then-fault stubs). Exposed for tests; use {!promote} to also
    intern the result. *)

val miss : compiled
val stale : compiled
(** {!lookup}'s answers, compared by physical equality, when there is no
    valid compiled code at the pc. Neither is ever run. *)

val lookup : t -> Mem.t -> int -> compiled
(** Find valid compiled code at pc, counted as a hit; {!miss} if there
    is none. A stale block (page generations moved) is dropped and
    answered with {!stale}, so the interpreter can count the
    invalidation. Allocates nothing. *)

val note_hit : t -> unit
(** Count a hit that bypassed {!lookup}: a block exit that entered its
    successor slot. *)

val hot_enough : t -> Decode_cache.block -> bool

val promote : t -> Decode_cache.block -> compiled
(** Compile and intern the block, flushing the cache first if full. *)

val stats : t -> int * int * int
(** Lifetime [(compiles, hits, invalidations)]. *)

val elisions : t -> int
(** Guards compiled away over this JIT's lifetime. *)
