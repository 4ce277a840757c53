(* The loopback network. §6 "Networking": network operations are mostly
   delegated to the (untrusted) host OS; the LibOS only redirects,
   bookkeeps and sanity-checks, so payloads are NOT encrypted by the
   LibOS — applications must bring TLS. We model the host side as a
   per-LibOS port registry plus "external" endpoints that the benchmark
   harness (playing the remote ApacheBench client) can drive directly
   from OCaml.

   Multi-core ownership audit (cfg.cores > 1): endpoints, rings, the
   port registry and wake-hook lists are touched only from syscall
   handlers and from the harness between scheduler steps — never from
   the parallel phase of an epoch, whose worker domains run pure
   interpreter quanta. Single-writer discipline holds without locks. *)

type endpoint = {
  inbox : Ring.t;   (* bytes this endpoint can read *)
  mutable peer : endpoint option;
  mutable closed : bool; (* our side closed *)
  mutable wake : (unit -> unit) list;
      (* readiness hooks (epoll watchers); fired whenever this
         endpoint's readable/writable/hup state may have changed *)
}

let wake_all ws = List.iter (fun f -> f ()) ws

let wake_ep (e : endpoint) = wake_all e.wake

let make_endpoint ?(ring_bytes = 65536) () =
  { inbox = Ring.create ring_bytes; peer = None; closed = false; wake = [] }

let pair ?ring_bytes () =
  let a = make_endpoint ?ring_bytes () and b = make_endpoint ?ring_bytes () in
  a.peer <- Some b;
  b.peer <- Some a;
  (a, b)

(* The backlog is a Queue (O(1) push/pop/length), not a list — the old
   [List.length] + [l @ [e]] pair was O(n²) per connection at C10K
   backlogs. [owner] lets the last close of a Listener fd deregister the
   port and EOF every queued connection. *)
type listener = {
  port : int;
  backlog : int;
  pending : endpoint Queue.t; (* server-side endpoints to accept *)
  mutable wake : (unit -> unit) list;
  owner : t;
}

and t = {
  listeners : (int, listener) Hashtbl.t;
  mutable sock_ring_bytes : int; (* per-direction buffer of new connections *)
  mutable ocall_bytes : int; (* traffic that crossed the enclave boundary *)
  mutable retries : int; (* transient faults absorbed by bounded retry *)
  mutable backoff_ns : int64; (* simulated wait accrued by retries *)
  mutable obs : Occlum_obs.Obs.t; (* I/O events/metrics; the LibOS
                                     attaches its own at boot *)
}

let create () =
  { listeners = Hashtbl.create 8; sock_ring_bytes = 65536; ocall_bytes = 0;
    retries = 0; backoff_ns = 0L; obs = Occlum_obs.Obs.disabled }

(* Observability for one transfer: event with the byte count plus byte
   counters. One branch when disabled. *)
let note_io t ~send n =
  let o = t.obs in
  if o.Occlum_obs.Obs.enabled then begin
    if o.Occlum_obs.Obs.t_net then
      Occlum_obs.Obs.emit o
        (if send then Occlum_obs.Trace.Net_send { bytes = n }
         else Occlum_obs.Trace.Net_recv { bytes = n });
    Occlum_obs.Metrics.add
      (Occlum_obs.Metrics.counter o.Occlum_obs.Obs.metrics
         (if send then "net.send.bytes" else "net.recv.bytes"))
      n
  end

let listen t ~port ~backlog =
  if Hashtbl.mem t.listeners port then Error Occlum_abi.Abi.Errno.eexist
  else begin
    let l = { port; backlog; pending = Queue.create (); wake = []; owner = t } in
    Hashtbl.replace t.listeners port l;
    Ok l
  end

(* Connect to a port: creates a pair, queues the server side. *)
let connect t ~port =
  match Hashtbl.find_opt t.listeners port with
  | None -> Error Occlum_abi.Abi.Errno.econnrefused
  | Some l ->
      if Queue.length l.pending >= l.backlog then
        Error Occlum_abi.Abi.Errno.eagain
      else begin
        let client_side, server_side = pair ~ring_bytes:t.sock_ring_bytes () in
        Queue.push server_side l.pending;
        wake_all l.wake;
        Ok client_side
      end

let accept (l : listener) =
  if Queue.is_empty l.pending then None else Some (Queue.pop l.pending)

let close_endpoint (e : endpoint) =
  e.closed <- true;
  wake_ep e;
  match e.peer with Some p -> wake_ep p | None -> ()

(* Last close of a Listener fd: free the port (so a re-[listen] succeeds)
   and close every queued endpoint so the external clients observe EOF
   instead of hanging. Guarded by physical equality: a port re-listened
   by someone else is not stolen back. *)
let close_listener (l : listener) =
  (match Hashtbl.find_opt l.owner.listeners l.port with
  | Some cur when cur == l -> Hashtbl.remove l.owner.listeners l.port
  | _ -> ());
  Queue.iter close_endpoint l.pending;
  Queue.clear l.pending;
  wake_all l.wake

(* Fault-injection seam: since the transport is the untrusted host, a
   harness can make any transfer fail with a transient errno or get
   truncated. Production code never sets it. *)
let io_hook : (send:bool -> len:int -> Sefs.io_fault option) option ref =
  ref None

let set_io_hook h = io_hook := h

(* Same bounded-retry contract as [Sefs.consult_io]: transient
   [Io_error]s are retried up to [Sefs.max_io_attempts] attempts with
   deterministic exponential backoff; [Short] transfers are not. *)
let note_retry t =
  let o = t.obs in
  if o.Occlum_obs.Obs.enabled then
    Occlum_obs.Metrics.inc
      (Occlum_obs.Metrics.counter o.Occlum_obs.Obs.metrics "io.retries")

let consult_io t ~send ~len =
  match !io_hook with
  | None -> None
  | Some h ->
      let rec attempt k =
        match h ~send ~len with
        | Some (Sefs.Io_error _) when k < Sefs.max_io_attempts ->
            t.retries <- t.retries + 1;
            t.backoff_ns <-
              Int64.add t.backoff_ns (Sefs.backoff_ns_of_attempt k);
            note_retry t;
            attempt (k + 1)
        | r -> r
      in
      attempt 1

(* Span-based transfers: the bytes move in one copy per direction
   between the caller's storage and the peer's ring (see {!Ring.span}).
   Fault injection acts on the requested [len], before any byte moves. *)
let send_spans t (e : endpoint) len copy =
  match consult_io t ~send:true ~len with
  | Some (Sefs.Io_error errno) -> Error errno
  | (Some (Sefs.Short _) | None) as f ->
  let len =
    match f with Some (Sefs.Short n) -> max 0 (min n len) | _ -> len
  in
  match e.peer with
  | None -> Error Occlum_abi.Abi.Errno.epipe
  | Some p ->
      if p.closed then Error Occlum_abi.Abi.Errno.epipe
      else begin
        let n = Ring.write_spans p.inbox len copy in
        t.ocall_bytes <- t.ocall_bytes + n;
        if n = 0 then Error Occlum_abi.Abi.Errno.eagain
        else begin
          note_io t ~send:true n;
          wake_ep p; (* the receiver became readable *)
          Ok n
        end
      end

let recv_spans t (e : endpoint) len copy =
  match consult_io t ~send:false ~len with
  | Some (Sefs.Io_error errno) -> Error errno
  | (Some (Sefs.Short _) | None) as f ->
  let len =
    match f with Some (Sefs.Short n) -> max 0 (min n len) | _ -> len
  in
  let n = Ring.read_spans e.inbox len copy in
  if n > 0 then begin
    t.ocall_bytes <- t.ocall_bytes + n;
    note_io t ~send:false n;
    (* draining our inbox makes the peer writable again *)
    (match e.peer with Some p -> wake_ep p | None -> ());
    Ok n
  end
  else
    match e.peer with
    | Some p when not p.closed -> Error Occlum_abi.Abi.Errno.eagain
    | _ -> Ok 0 (* orderly EOF *)

let send t e src off len = send_spans t e len (Ring.from_bytes src off)
let recv t e dst off len = recv_spans t e len (Ring.to_bytes dst off)

(* --- external (harness-side) API ---------------------------------------- *)

(* The benchmark harness acts as a client on the "network" outside the
   enclave: it connects, writes request bytes and drains responses
   without going through any SIP. *)
let external_connect t ~port = connect t ~port

let external_send t e (s : string) =
  (* [send] only reads its source, so the string needs no copy *)
  let b = Bytes.unsafe_of_string s in
  match send t e b 0 (Bytes.length b) with Ok n -> n | Error _ -> 0

let external_recv_all t e =
  let buf = Buffer.create 256 in
  let tmp = Bytes.create 4096 in
  let rec drain () =
    match recv t e tmp 0 4096 with
    | Ok 0 -> ()
    | Ok n ->
        Buffer.add_subbytes buf tmp 0 n;
        drain ()
    | Error _ -> ()
  in
  drain ();
  Buffer.contents buf

(* Allocation-free fast path for C10K load harnesses: how many bytes are
   waiting, and a drain into a caller-owned scratch buffer. *)
let external_pending (e : endpoint) = Ring.length e.inbox

let external_recv_into t e buf =
  match recv t e buf 0 (Bytes.length buf) with Ok n -> n | Error _ -> 0

let has_listener t ~port = Hashtbl.mem t.listeners port
