(** File descriptors. Entries are shared structures: a spawned child
    inherits its parent's open file table "with minimal overhead" (§6)
    by sharing the very same entry objects — possible only because all
    SIPs live inside one LibOS instance. *)

type pipe = {
  ring : Ring.t;
  mutable readers : int;  (** live reader entries *)
  mutable writers : int;
  mutable wake : (unit -> unit) list;
      (** readiness hooks (epoll watchers); fired on data/space/EOF edges *)
}

(** An epoll instance.

    A registration is keyed on (fd, watched entry), as Linux keys on
    (file, fd): [interest] maps a watched fd to its {!watch}, and a
    watch whose [w_entry] is not physically the entry the fd holds now
    is stale (the fd was closed and its number reused) — it is never
    reported, ADD replaces it, MOD/DEL see [ENOENT].

    [ready] is the candidate set the wake hooks maintain, ordered by fd:
    a wait visits it in ascending fd order, drops the stale and unready
    candidates it passes and stops once it has [maxevents] events, so
    its cost follows the events returned, never the fds watched. *)
module Fdset : Set.S with type elt = int

type epoll = {
  interest : (int, watch) Hashtbl.t;
  mutable ready : Fdset.t;
}

and watch = {
  w_entry : entry;  (** the object registered, compared with [==] *)
  events : int;  (** requested event mask *)
  unhook : unit -> unit;  (** detach the wake hook from the object *)
}

and kind =
  | File of { node : Sefs.inode; mutable pos : int; append : bool; writable : bool }
  | Pipe_r of pipe
  | Pipe_w of pipe
  | Sock of { mutable ep : Net.endpoint option; mutable port : int }
  | Listener of Net.listener
  | Epoll of epoll
  | Dev_null
  | Dev_zero
  | Dev_random of Occlum_util.Prng.t
  | Console of { err : bool }
  | Proc_file of { content : string; mutable pos : int }

and entry = {
  mutable refs : int;
  mutable sflags : int;  (** status flags, e.g. [Abi.Open_flags.nonblock] *)
  kind : kind;
}

val make : kind -> entry
(** A fresh entry: one reference, no status flags. *)

val pipe_wake : pipe -> unit
(** Fire the pipe's readiness hooks (data written, space freed, EOF). *)

val release : entry -> unit
(** Drop one reference; the last one updates pipe reader/writer counts,
    closes socket endpoints, tears down listeners (freeing the port and
    EOF-ing queued connections) and detaches epoll watches. *)

type table

val max_fds : int

val create : unit -> table
val find : table -> int -> entry option

val install : table -> entry -> int
(** Install at the lowest free descriptor (amortised O(1)). *)

val install_at : table -> int -> entry -> unit
val close : table -> int -> (unit, int) result
val close_all : table -> unit

val inherit_from : table -> table
(** The child's table: same entries, bumped refcounts. *)

val iter : table -> (int -> entry -> unit) -> unit
val dup2 : table -> src:int -> dst:int -> (int, int) result
