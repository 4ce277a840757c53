(* The user/LibOS ABI: system-call numbers, flags and error codes shared
   by the toolchain's runtime library, the reference interpreter's
   harness and the LibOS dispatcher. Numbers follow Linux where one
   exists; Occlum-specific calls (spawn, futex split) live above 400. *)

module Sys = struct
  let read = 0
  let write = 1
  let open_ = 2
  let close = 3
  let fstat = 5 (* returns file size *)
  let lseek = 8
  let mmap = 9
  let munmap = 11
  let brk = 12
  let sigaction = 13 (* register a handler: (signo, handler fn-ptr) *)
  let pipe = 22
  let dup2 = 33
  let yield = 24
  let nanosleep = 35
  let getpid = 39
  let socket = 41
  let connect = 42
  let accept = 43
  let send = 44
  let recv = 45
  let bind = 49
  let listen = 50
  let exit = 60
  let wait = 61 (* wait for a specific pid (or -1 = any child) *)
  let kill = 62
  let ftruncate = 77
  let rename = 82
  let mkdir = 83
  let unlink = 87
  let fcntl = 72    (* (fd, cmd, arg); F_GETFL/F_SETFL status flags only *)
  let gettime = 201 (* virtual nanoseconds *)
  let epoll_create = 213
  let epoll_wait = 232 (* (epfd, events_buf, maxevents, timeout_ns) *)
  let epoll_ctl = 233  (* (epfd, op, fd, events) *)
  let spawn = 400   (* (path, path_len, argv_block, argv_len) -> pid *)
  let futex_wait = 401
  let futex_wake = 402
  let readdir = 403 (* (fd?, path, buf, len) simplified: path-based listing *)
  let batch = 404   (* (entries_ptr, n): submit n queued syscalls in one gate
                       crossing; see the Batch module for the entry layout *)
  let clone = 56    (* (entry fn-ptr, stack_top, arg) -> tid *)
  let poll = 7      (* (entries_ptr, nfds, timeout_ns); entry = fd,events,revents *)
end

module Errno = struct
  let enoent = -2
  let ebadf = -9
  let eagain = -11
  let enomem = -12
  let eaccess = -13
  let efault = -14
  let eexist = -17
  let enotdir = -20
  let eisdir = -21
  let einval = -22
  let emfile = -24
  let espipe = -29
  let epipe = -32
  let enosys = -38
  let enotempty = -39
  let echild = -10
  let esrch = -3
  let e2big = -7
  let eintr = -4
  let econnrefused = -111
end

module Open_flags = struct
  let rdonly = 0
  let wronly = 1
  let rdwr = 2
  let creat = 64
  let trunc = 512
  let append = 1024
  let nonblock = 2048
      (* FD status flag (set via fcntl F_SETFL): would-block operations
         return EAGAIN instead of suspending the SIP *)
end

(* fcntl commands — only the status-flag pair is modelled. *)
module Fcntl = struct
  let getfl = 3
  let setfl = 4
end

module Signal = struct
  let sigkill = 9
  let sigterm = 15
  let sigusr1 = 10
  let sigchld = 17
  let max_signo = 31
end

(* Register conventions for the syscall gate: number in R1, arguments in
   R2..R6, result in R0. The trampoline address is handed to _start in
   R10 and stored at data-region offset 0. *)
module Regs = struct
  let sys_nr = 1
  let sys_arg0 = 2
  let sys_ret = 0
  let max_args = 5
end

module Poll = struct
  let pollin = 1
  let pollout = 4
  let pollnval = 8
  let pollhup = 16 (* peer closed; reported regardless of requested events *)
  let entry_size = 24 (* fd, events, revents: three i64 fields *)
end

(* The epoll-style interest-list family: level-triggered readiness;
   epoll_wait fills an array of {fd; revents} pairs in ascending fd
   order, at a cost that follows the events returned. *)
module Epoll = struct
  let ctl_add = 1
  let ctl_del = 2
  let ctl_mod = 3
  let event_size = 16 (* fd, revents: two i64 fields *)
end

(* Batched syscalls: one trampoline crossing submits [n] queued calls and
   collects [n] results, amortising the per-call gate cost. Each entry is
   64 bytes: nr at +0, result at +8 (written by the LibOS), then up to
   five i64 arguments at +16, +24, ... +48. *)
module Batch = struct
  let entry_size = 64
  let max_entries = 128
end

module Whence = struct
  let set = 0
  let cur = 1
  let end_ = 2
end
