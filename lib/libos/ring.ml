(* A bounded byte ring buffer: the kernel-side object behind pipes and
   loopback sockets. Because all SIPs share the LibOS's address space,
   IPC is a plain copy through this buffer — no encryption, no enclave
   exit — which is the SIP IPC advantage of Table 1.

   One copy per direction: a transfer is at most two [Bytes.blit]-sized
   spans (before and after the wrap point), handed to the caller's copy
   function, which moves them straight from or to its own storage (a
   [Bytes.t], or guest memory for the syscall path) with no staging
   buffer in between. *)

type t = {
  buf : Bytes.t;
  mutable rpos : int;
  mutable len : int;
}

type span = Bytes.t -> int -> int -> int -> unit

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create";
  { buf = Bytes.create capacity; rpos = 0; len = 0 }

let capacity t = Bytes.length t.buf
let length t = t.len
let free_space t = capacity t - t.len
let is_empty t = t.len = 0

(* Hand [n] bytes starting at ring offset [start] to [copy], split at
   the wrap point. *)
let spans t start n (copy : span) =
  let cap = capacity t in
  let first = min n (cap - start) in
  if first > 0 then copy t.buf start 0 first;
  if n > first then copy t.buf 0 first (n - first)

(* The ring is updated only after [copy] returns, so a copy that raises
   leaves it as it was. *)
let write_spans t len copy =
  let n = min len (free_space t) in
  if n > 0 then begin
    let cap = capacity t in
    let wpos = t.rpos + t.len in
    spans t (if wpos >= cap then wpos - cap else wpos) n copy;
    t.len <- t.len + n
  end;
  n

let read_spans t len copy =
  let n = min len t.len in
  if n > 0 then begin
    spans t t.rpos n copy;
    let r = t.rpos + n in
    t.rpos <- (if r >= capacity t then r - capacity t else r);
    t.len <- t.len - n
  end;
  n

let from_bytes src off : span =
 fun rbuf roff coff n -> Bytes.blit src (off + coff) rbuf roff n

let to_bytes dst off : span =
 fun rbuf roff coff n -> Bytes.blit rbuf roff dst (off + coff) n

let write t src off len = write_spans t len (from_bytes src off)
let read t dst off len = read_spans t len (to_bytes dst off)
