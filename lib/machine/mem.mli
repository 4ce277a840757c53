(** Flat, paged, permission-checked memory: the single address space of
    an enclave. MMDSFI guard regions are pages left unmapped, so any
    access to them raises {!Fault.Fault} — the mechanism §4.1 of the
    paper relies on. *)

val page_size : int
(** 4096. *)

type perm = { r : bool; w : bool; x : bool }

val perm_rw : perm
val perm_rx : perm
val perm_rwx : perm
val perm_ro : perm
val perm_to_string : perm -> string

type t = private {
  data : Bytes.t;  (** the backing store, see {!raw} *)
  fast : Bytes.t;
      (** One byte per page: which checked accesses to the page need no
          bookkeeping, so a caller may skip {!check_access} (bit
          {!fast_read}) or {!check_write} (bit {!fast_write}) and touch
          [data] directly. [fast_read] holds when the page is readable
          and, under paging, resident with its reference bit already
          set; [fast_write] when it is also writable, not executable and
          already dirty. Every mutator of those facts ({!map}, {!unmap},
          {!set_resident}, {!set_accessed}, the first dirty mark of a
          write, {!zero_page_priv}, {!enable_paging}) recomputes the
          byte, so a span whose first and last page carry the bit gets
          exactly what the checked call would have done: nothing. Any
          other span takes the checked call, which raises every fault
          and makes every mark as before. *)
  size : int;
  mutable epoch : int;
      (** The code epoch: moves whenever any page generation moves
          ({!bump_gen}, {!map}, {!unmap}, a write to an executable
          page). Values are drawn from one process-wide counter, so a
          cached block that recorded the epoch at which its generation
          snapshot last matched is still valid while the epoch is
          unchanged, without walking its pages. *)
  pages : perm option array;  (** internal: [None] = unmapped *)
  gens : int array;  (** internal: see {!page_gen} *)
  dirty : Bytes.t;  (** internal: see {!page_dirty} *)
  mutable paged : bool;  (** internal: see {!enable_paging} *)
  resident : Bytes.t;  (** internal: see {!page_resident} *)
  accessed : Bytes.t;  (** internal: see {!page_accessed} *)
  mutable pager : (int -> unit) option;  (** internal *)
}
(** Read-only outside this module: the interpreter and the JIT read
    [data], [fast], [size] and [epoch] in place, because no call into
    this module is inlined under [-opaque]. *)

val fast_read : int
(** 1: the {!t.fast} bit for reads. *)

val fast_write : int
(** 2: the {!t.fast} bit for writes. *)

val create : size:int -> t
(** [create ~size] is a zeroed address space of [size] bytes (a positive
    page multiple), with every page unmapped. *)

val size : t -> int
val page_count : t -> int

val map : t -> addr:int -> len:int -> perm:perm -> unit
(** Map a page-aligned range with the given permissions. *)

val unmap : t -> addr:int -> len:int -> unit

val perm_at : t -> int -> perm option
(** [None] if the address is unmapped or out of range. *)

val page_gen : t -> int -> int
(** [page_gen t page] is the page's generation counter. It is bumped by
    {!map}, {!unmap}, {!bump_gen} and every write — user or privileged —
    that touches an executable page, so cached decodings of a page are
    stale exactly when its generation has moved, and every move also
    moves {!t.epoch}. A privileged write that
    leaves the bytes as they were need not move it: {!place_priv} writes
    only the pages that differ, so translations of a page survive a
    re-placement of the same bytes at the same address. *)

val bump_gen : t -> addr:int -> len:int -> unit
(** Move the generation of every page in the span without changing a
    byte: drops cached translations whose meaning depends on more than
    the bytes (e.g. translation-time guard-elision facts). *)

val check_access : t -> int -> int -> Fault.access -> unit
(** Fault-checking span test used by the interpreter: the whole byte span
    must be mapped with the needed permission.
    @raise Fault.Fault with [Page_fault] otherwise, or with [Epc_miss]
    when paging is enabled and a page in the span has been evicted. *)

(** {1 EPC demand paging}

    Off by default: every mapped page is permanently resident and none
    of the calls below change behaviour. {!enable_paging} switches the
    address space to demand-paged semantics: freshly mapped pages are
    zero-fill-on-demand (no frame until first touch), checked accesses
    to a mapped non-resident page raise [Fault.Epc_miss] carrying the
    faulting page's base address, and privileged accessors page in
    transparently through the [pager] callback. *)

val enable_paging : t -> pager:(int -> unit) -> unit
(** [pager page] must make [page] resident (ELDU or zero-fill commit)
    or raise; it is invoked by the privileged accessors. *)

val page_resident : t -> int -> bool
(** Always true when paging is disabled. *)

val set_resident : t -> int -> bool -> unit
(** Pager-side: flip a page's presence bit (no data movement). *)

val page_accessed : t -> int -> bool
val set_accessed : t -> int -> bool -> unit
(** Clock reference bit, set by every checked access to the page and
    cleared by the reclaimer's second-chance sweep. *)

val probe_resident : t -> addr:int -> len:int -> unit
(** Fetch-path probe: raise [Fault.Epc_miss] if any mapped page in the
    (clamped) span is non-resident; unmapped pages are skipped. Used to
    distinguish "bytes are evicted" from "bytes are not an instruction"
    on decode errors. *)

(** {1 User-mode accesses}

    A guest read is {!check_access} for [Read] followed by the plain
    access to [data]; a guest write is {!check_write} followed by the
    plain store. The interpreter and the JIT make both in place (an
    [int64] crossing a call into this module would be boxed), skipping
    the check when {!t.fast} says it would do nothing. *)

val check_write : t -> int -> int -> unit
(** [check_write t addr len] is {!check_access} for [Write] plus the
    bookkeeping every write makes: the span's pages become dirty, and
    executable ones move their generation. Call it immediately before
    writing the span through {!raw}. *)

(** {1 Privileged accessors}

    For the LibOS and loader (the runtime TCB): bounds-checked but not
    permission-checked. *)

val blit_to_bytes_priv : t -> addr:int -> Bytes.t -> off:int -> len:int -> unit
(** [blit_to_bytes_priv t ~addr dst ~off ~len] copies guest
    [\[addr, addr+len)] into [dst] at [off]. Under paging each page is
    made resident immediately before its bytes move, so a span larger
    than the EPC pool copies correctly. *)

val blit_from_bytes_priv : t -> Bytes.t -> off:int -> addr:int -> len:int -> unit
(** [blit_from_bytes_priv t src ~off ~addr ~len] copies [len] bytes of
    [src] at [off] into guest memory at [addr], page at a time like
    {!blit_to_bytes_priv}, bumping the generation of executable pages. *)

val read_bytes_priv : t -> addr:int -> len:int -> Bytes.t
(** A fresh copy of the span through {!blit_to_bytes_priv}. *)

val write_bytes_priv : t -> addr:int -> Bytes.t -> unit
(** All of the bytes through {!blit_from_bytes_priv}. *)

val read_u64_priv : t -> int -> int64
val write_u64_priv : t -> int -> int64 -> unit
val fill_priv : t -> addr:int -> len:int -> char -> unit

(** {2 Dirty pages and re-placement}

    Every write path — {!check_write} and the privileged writers alike —
    marks the pages it touches dirty. The invariant is that a clean page
    holds only zeros: {!create} starts with every page clean, mapping
    changes no bit, and only {!zero_page_priv} makes a page clean
    again. A dirty page may also hold zeros (e.g. an EWB-scrubbed frame,
    whose bytes live on in the backing store); the set errs only that
    way. Slot reuse scrubs exactly the dirty pages. *)

val place_priv : t -> addr:int -> Bytes.t -> unit
(** [place_priv t ~addr src] makes guest memory at [addr] equal [src],
    page at a time: each page is made resident, compared, and written
    (dirtying it and bumping its generation if executable) only if its
    bytes differ. *)

val page_dirty : t -> int -> bool

val zero_page_priv : t -> int -> unit
(** [zero_page_priv t page] zeroes a resident page and marks it clean —
    the scrub below, and the pager's zero-fill commit of a page that
    was never written out. Moves the generation if executable. *)

val zero_dirty_priv : t -> addr:int -> len:int -> unit
(** Zero every dirty page of a page-aligned span (each made resident
    first) and mark it clean; clean pages are skipped. Executable pages
    zeroed here move their generation. *)

val raw : t -> Bytes.t
(** The backing store (used by the decoder for zero-copy fetch). *)
