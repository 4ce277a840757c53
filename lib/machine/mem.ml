(* Flat, paged, permission-checked memory: the single address space of an
   enclave. MMDSFI guard regions are simply pages left unmapped, so any
   access to them raises a page fault — exactly the mechanism §4.1 relies
   on. *)

let page_size = 4096

type perm = { r : bool; w : bool; x : bool }

let perm_rw = { r = true; w = true; x = false }
let perm_rx = { r = true; w = false; x = true }
let perm_rwx = { r = true; w = true; x = true }
let perm_ro = { r = true; w = false; x = false }

let perm_to_string p =
  Printf.sprintf "%c%c%c" (if p.r then 'r' else '-') (if p.w then 'w' else '-')
    (if p.x then 'x' else '-')

(* The record is exported [private] so the interpreter and the JIT can
   read [data], [fast] and [epoch] in place: under [-opaque] (dune's
   dev profile) no call into this module is inlined. *)
type t = {
  data : Bytes.t;
  fast : Bytes.t; (* per page: [fast_read] lor [fast_write], see [refresh] *)
  size : int;
  mutable epoch : int; (* code epoch, see [move_epoch] *)
  pages : perm option array; (* None = unmapped *)
  gens : int array; (* per-page code generation, see [page_gen] *)
  dirty : Bytes.t; (* '\001' = may hold a non-zero byte, see [zero_dirty_priv] *)
  (* EPC demand paging. When [paged] is false (the default) none of the
     fields below are consulted and every mapped page is its own frame,
     exactly the pre-paging semantics. When true, [resident] is the
     per-page presence bit maintained by the pager: a checked access to
     a mapped non-resident page raises [Fault.Epc_miss] (the simulated
     #PF that triggers AEX + ELDU), and [accessed] carries the clock
     reference bits the reclaimer uses for second-chance eviction. *)
  mutable paged : bool;
  resident : Bytes.t; (* '\001' = EPC frame present *)
  accessed : Bytes.t; (* clock reference bit *)
  mutable pager : (int -> unit) option; (* page-in callback, by page index *)
}

let fast_read = 1
let fast_write = 2

(* Epochs come from one process-wide counter, so equal epochs can only
   mean "the same [t], and no generation has moved since". *)
let epochs = Atomic.make 0

let create ~size =
  if size <= 0 || size mod page_size <> 0 then
    invalid_arg "Mem.create: size must be a positive multiple of the page size";
  {
    data = Bytes.make size '\x00';
    fast = Bytes.make (size / page_size) '\x00';
    size;
    epoch = Atomic.fetch_and_add epochs 1;
    pages = Array.make (size / page_size) None;
    gens = Array.make (size / page_size) 0;
    dirty = Bytes.make (size / page_size) '\x00';
    paged = false;
    resident = Bytes.make (size / page_size) '\x01';
    accessed = Bytes.make (size / page_size) '\x00';
    pager = None;
  }

(* The fast byte of a page says which checked accesses need no
   bookkeeping at all, so callers may skip [check_access]/[check_write]:
   [fast_read] when a read can neither fault nor set a reference bit,
   [fast_write] when a write additionally needs no dirty mark and moves
   no generation. Every mutator of the fields it is computed from calls
   this afterwards. *)
let refresh t p =
  let v =
    match t.pages.(p) with
    | Some { r = true; w; x } ->
        if
          t.paged
          && (Bytes.get t.resident p = '\x00' || Bytes.get t.accessed p = '\x00')
        then 0
        else if w && (not x) && Bytes.get t.dirty p = '\x01' then
          fast_read lor fast_write
        else fast_read
    | _ -> 0
  in
  Bytes.set t.fast p (Char.unsafe_chr v)

let enable_paging t ~pager =
  t.paged <- true;
  t.pager <- Some pager;
  for p = 0 to Array.length t.pages - 1 do
    refresh t p
  done

let page_resident t page = (not t.paged) || Bytes.get t.resident page = '\x01'

let set_resident t page r =
  Bytes.set t.resident page (if r then '\x01' else '\x00');
  refresh t page

let page_accessed t page = Bytes.get t.accessed page = '\x01'

let set_accessed t page a =
  Bytes.set t.accessed page (if a then '\x01' else '\x00');
  refresh t page

let size t = t.size
let page_count t = Array.length t.pages

(* Generation counter of a page, bumped whenever the bytes or mapping of
   an executable page may have changed: on [map]/[unmap] and on any write
   that lands in a page with the x permission (privileged writers
   included — the loader writes code through them, but only the pages
   whose bytes differ, see [place_priv]). [bump_gen] moves it without a
   write, for cached translations that depend on more than the bytes.
   Decoded-instruction caches snapshot these counters and treat a
   mismatch as invalidation, so they never serve stale code. *)
let page_gen t page = t.gens.(page)

(* Called after every generation move: a fresh epoch tells each cached
   block that it must walk its pages again (see
   [Decode_cache.block_valid]). *)
let move_epoch t = t.epoch <- Atomic.fetch_and_add epochs 1

let check_range t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then
    invalid_arg (Printf.sprintf "Mem: range [0x%x, +%d) outside address space" addr len)

let bump_gen t ~addr ~len =
  check_range t addr len;
  if len > 0 then begin
    for p = addr / page_size to (addr + len - 1) / page_size do
      t.gens.(p) <- t.gens.(p) + 1
    done;
    move_epoch t
  end

(* Every write path — checked or privileged — calls this before its
   bytes move. It marks each page of the span dirty, and bumps the
   generation only where the span touches executable pages: writes to
   plain data pages stay generation-silent. *)
let note_write t ~addr ~len =
  if len > 0 then
    for p = addr / page_size to (addr + len - 1) / page_size do
      if Bytes.unsafe_get t.dirty p = '\x00' then begin
        Bytes.unsafe_set t.dirty p '\x01';
        refresh t p
      end;
      match t.pages.(p) with
      | Some { x = true; _ } ->
          t.gens.(p) <- t.gens.(p) + 1;
          move_epoch t
      | _ -> ()
    done

let map t ~addr ~len ~perm =
  check_range t addr len;
  if addr mod page_size <> 0 || len mod page_size <> 0 then
    invalid_arg "Mem.map: unaligned";
  for p = addr / page_size to ((addr + len) / page_size) - 1 do
    (* Zero-fill-on-demand under paging: a freshly mapped page has no
       EPC frame until first touch. Remapping an already-mapped page
       (a permission change) keeps its frame. *)
    if t.paged && t.pages.(p) = None then begin
      Bytes.set t.resident p '\x00';
      Bytes.set t.accessed p '\x00'
    end;
    t.pages.(p) <- Some perm;
    refresh t p
  done;
  bump_gen t ~addr ~len

let unmap t ~addr ~len =
  check_range t addr len;
  if addr mod page_size <> 0 || len mod page_size <> 0 then
    invalid_arg "Mem.unmap: unaligned";
  for p = addr / page_size to ((addr + len) / page_size) - 1 do
    t.pages.(p) <- None;
    refresh t p
  done;
  bump_gen t ~addr ~len

let perm_at t addr =
  if addr < 0 || addr >= t.size then None else t.pages.(addr / page_size)

(* Fault-checking access used by the interpreter. The whole byte span
   must be readable/writable; an access that starts in a mapped page and
   spills into a guard page faults, which is what makes base-address-only
   mem_guards sound. *)
let check_access t addr len (access : Fault.access) =
  if addr < 0 || addr + len > t.size then
    raise (Fault.Fault (Page_fault { addr; access }));
  for p = addr / page_size to (addr + len - 1) / page_size do
    match t.pages.(p) with
    | None -> raise (Fault.Fault (Page_fault { addr; access }))
    | Some perm ->
        let allowed =
          match access with
          | Read -> perm.r
          | Write -> perm.w
          | Exec -> perm.x
        in
        if not allowed then raise (Fault.Fault (Page_fault { addr; access }));
        if t.paged then begin
          if Bytes.get t.resident p = '\x00' then
            raise (Fault.Fault (Epc_miss { addr = p * page_size; access }));
          if Bytes.get t.accessed p = '\x00' then set_accessed t p true
        end
  done

(* Residency probe for the fetch path: a decode error over bytes that
   include a mapped-but-evicted page must surface as an EPC miss (the
   real bytes are in the backing store), never as a #UD over the
   scrubbed frame. Unmapped or out-of-range pages are skipped — those
   legitimately decode-fault. *)
let probe_resident t ~addr ~len =
  if t.paged && len > 0 && addr >= 0 && addr < t.size then
    let last = min (addr + len) t.size - 1 in
    for p = addr / page_size to last / page_size do
      if t.pages.(p) <> None && Bytes.get t.resident p = '\x00' then
        raise (Fault.Fault (Epc_miss { addr = p * page_size; access = Exec }))
    done

(* Privileged accessors page transparently: the LibOS and loader never
   take EPC-miss faults, they just trigger the reload (which may itself
   evict and can raise the pool's pressure exceptions). *)
let ensure_resident t ~addr ~len =
  if t.paged && len > 0 then
    match t.pager with
    | None -> ()
    | Some pager ->
        for p = addr / page_size to (addr + len - 1) / page_size do
          if t.pages.(p) <> None && Bytes.get t.resident p = '\x00' then
            pager p
        done

(* User-mode writes are this check followed by a raw store, made in
   place by the interpreter and the JIT: an [int64] returned from (or
   passed to) a function in another module is boxed whenever the call
   is not inlined, as under [-opaque]. *)
let check_write t addr len =
  check_access t addr len Write;
  note_write t ~addr ~len

(* Privileged accessors for the LibOS / loader: no permission checks,
   still bounds-checked. The LibOS is trusted (§3.1). *)
(* Page-at-a-time transfer: under paging a span can exceed the EPC pool,
   so paging in a later page may evict (and scrub) an earlier one. Each
   page is ensured resident immediately before its bytes move, never
   before the whole span. *)
let by_page t ~addr ~len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let chunk = min (len - !pos) (page_size - (a mod page_size)) in
    ensure_resident t ~addr:a ~len:chunk;
    f a !pos chunk;
    pos := !pos + chunk
  done

let blit_to_bytes_priv t ~addr dst ~off ~len =
  check_range t addr len;
  if not t.paged then Bytes.blit t.data addr dst off len
  else
    by_page t ~addr ~len (fun a pos chunk ->
        Bytes.blit t.data a dst (off + pos) chunk)

let blit_from_bytes_priv t src ~off ~addr ~len =
  check_range t addr len;
  note_write t ~addr ~len;
  if not t.paged then Bytes.blit src off t.data addr len
  else
    by_page t ~addr ~len (fun a pos chunk ->
        Bytes.blit src (off + pos) t.data a chunk)

let read_bytes_priv t ~addr ~len =
  check_range t addr len;
  let out = Bytes.create len in
  blit_to_bytes_priv t ~addr out ~off:0 ~len;
  out

let write_bytes_priv t ~addr bytes =
  blit_from_bytes_priv t bytes ~off:0 ~addr ~len:(Bytes.length bytes)

let read_u64_priv t addr =
  check_range t addr 8;
  ensure_resident t ~addr ~len:8;
  Bytes.get_int64_le t.data addr

let write_u64_priv t addr v =
  check_range t addr 8;
  ensure_resident t ~addr ~len:8;
  note_write t ~addr ~len:8;
  Bytes.set_int64_le t.data addr v

let fill_priv t ~addr ~len c =
  check_range t addr len;
  note_write t ~addr ~len;
  if not t.paged then Bytes.fill t.data addr len c
  else by_page t ~addr ~len (fun a _ chunk -> Bytes.fill t.data a chunk c)

(* [len] bytes of guest memory at [addr] equal [src] at [off]. Compared
   eight bytes at a time: an [int64] consumed by [=] at a known type is
   never boxed. *)
let same_bytes t src ~off ~addr ~len =
  let rec go i =
    if i + 8 <= len then
      Bytes.get_int64_ne t.data (addr + i) = Bytes.get_int64_ne src (off + i)
      && go (i + 8)
    else if i < len then
      Bytes.get t.data (addr + i) = Bytes.get src (off + i) && go (i + 1)
    else true
  in
  go 0

(* Compare-and-write, page at a time: a page whose bytes already equal
   the source is left alone, so its generation (and every translation
   cached from it) survives, and a clean page stays clean when the
   source is zeros there. *)
let place_priv t ~addr src =
  let len = Bytes.length src in
  check_range t addr len;
  by_page t ~addr ~len (fun a pos chunk ->
      if not (same_bytes t src ~off:pos ~addr:a ~len:chunk) then begin
        note_write t ~addr:a ~len:chunk;
        Bytes.blit src pos t.data a chunk
      end)

(* The dirty set: a clean page holds only zeros. [create] makes every
   page clean, and only [note_write] (dirty) and [zero_page_priv] (clean,
   after zeroing) change a page's bit, so the scrub may skip every clean
   page. *)
let page_dirty t page = Bytes.get t.dirty page = '\x01'

let zero_page_priv t page =
  let a = page * page_size in
  check_range t a page_size;
  note_write t ~addr:a ~len:page_size;
  Bytes.fill t.data a page_size '\x00';
  Bytes.set t.dirty page '\x00';
  refresh t page

let zero_dirty_priv t ~addr ~len =
  check_range t addr len;
  if addr mod page_size <> 0 || len mod page_size <> 0 then
    invalid_arg "Mem.zero_dirty_priv: unaligned";
  for p = addr / page_size to ((addr + len) / page_size) - 1 do
    if page_dirty t p then begin
      ensure_resident t ~addr:(p * page_size) ~len:page_size;
      zero_page_priv t p
    end
  done

let raw t = t.data
