(** The fetch/decode/execute loop. Runs untrusted SIP code; the LibOS is
    OCaml and interacts through {!Cpu} and {!Mem}. *)

type stop = Jit.stop =
  | Stop_syscall  (** reached a LibOS trampoline's syscall gate *)
  | Stop_fault of Fault.t  (** AEX: captured by the LibOS *)
  | Stop_quantum  (** fuel exhausted; the SIP is preempted *)

val stop_to_string : stop -> string

val step : Mem.t -> Cpu.t -> stop option
(** Execute exactly one instruction; [Some stop] when control leaves the
    interpreter. *)

val run :
  ?cache:Decode_cache.t ->
  ?jit:Jit.t ->
  ?obs:Occlum_obs.Obs.t ->
  Mem.t ->
  Cpu.t ->
  fuel:int ->
  stop
(** Run until a stop condition or [fuel] executed instructions.

    With [?cache], straight-line runs of instructions are decoded once
    into basic blocks and replayed from the cache on later visits.
    Observable semantics are identical to the uncached loop: the same
    per-instruction cycle charges and counters, the same fault points,
    and fuel is checked before every instruction so [Stop_quantum]
    lands on the same boundary. Cache hit/miss/invalidation totals are
    accumulated into the {!Cpu.t} stats fields.

    With [?jit] (requires [?cache]; [Invalid_argument] otherwise),
    blocks the decode cache has replayed {!Jit.create}'s threshold many
    times are promoted to pre-compiled closure chains and dispatched
    first: JIT hit → compiled replay, stale → invalidate and fall back,
    miss → the cached tier (which promotes on a hot decode-cache hit).
    The compiled tier is architecturally bit-identical to the other two
    — same counters, cycles, fault payloads and stop boundaries — which
    fuzz property #8 (jit-equivalence) checks three ways. Any fault
    inside compiled code deopts to the interpreter's fault path, and
    writes to a JIT'd page invalidate its blocks through the same page
    generations the decode cache uses.

    With [?obs] (default {!Occlum_obs.Obs.disabled}), cache
    hit/miss/invalidate trace events are emitted per block lookup when
    the [Dcache] class is enabled. Observability never alters
    architectural state, counters or cycle charges.

    Fuel is the only preemption source: when it runs out the run
    returns [Stop_quantum] with the pc parked on the boundary, modelling
    the timer interrupt that forces an AEX. The fault-injection harness
    injects AEX by fuel slicing — each call gets fuel up to the next
    scheduled boundary — so a schedule anchored on {!Cpu.t} [insns]
    stops every tier at identical boundaries. *)
