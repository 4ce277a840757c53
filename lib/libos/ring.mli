(** A bounded byte ring buffer: the kernel-side object behind pipes and
    loopback sockets. Because all SIPs share the LibOS address space, IPC
    is a plain copy through this buffer — no encryption, no enclave exit
    (Table 1). Every transfer is one copy per direction: at most two
    contiguous spans (before and after the wrap point), moved straight
    between the ring and the caller's storage. *)

type t

type span = Bytes.t -> int -> int -> int -> unit
(** A span copy, called as [copy ring_buf ring_off caller_off count]:
    move [count] bytes between [ring_buf] at [ring_off] and the caller's
    storage at [caller_off] (relative to the start of the transfer). *)

val create : int -> t
val capacity : t -> int
val length : t -> int
val free_space : t -> int
val is_empty : t -> bool

val write_spans : t -> int -> span -> int
(** [write_spans t len copy] appends [min len (free_space t)] bytes,
    which [copy] fills in at most two calls; returns the count. If
    [copy] raises, the ring is unchanged. *)

val read_spans : t -> int -> span -> int
(** [read_spans t len copy] consumes [min len (length t)] bytes, which
    [copy] moves out in at most two calls; returns the count. If [copy]
    raises, the ring is unchanged. *)

val from_bytes : Bytes.t -> int -> span
(** [from_bytes src off]: the span copy of a write from [src] at [off]. *)

val to_bytes : Bytes.t -> int -> span
(** [to_bytes dst off]: the span copy of a read into [dst] at [off]. *)

val write : t -> Bytes.t -> int -> int -> int
(** [write t src off len] = [write_spans t len (from_bytes src off)]. *)

val read : t -> Bytes.t -> int -> int -> int
(** [read t dst off len] = [read_spans t len (to_bytes dst off)]. *)
