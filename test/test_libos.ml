(* LibOS tests: processes (spawn/wait/exit/argv), file descriptors and
   inheritance, pipes, dup2, the FS syscalls, devfs/procfs, memory
   management, signals, threads+futex, sockets, scheduling corner cases,
   and the EIP/Linux execution modes. Programs are written in Occlang and
   run through the full compile->verify->load->execute pipeline. *)

open Occlum_toolchain.Ast
module Sys = Occlum_abi.Abi.Sys
module Errno = Occlum_abi.Abi.Errno
module F = Occlum_abi.Abi.Open_flags
module Os = Occlum_libos.Os
module Sysm = Occlum

let rt = Occlum_toolchain.Runtime.program

(* [Os.wait_pid_exit] that fails the test on any status but
   [All_exited], like [Harness.wait_exit] but with the caller's step
   budget: a child that deadlocks or outlives the budget must not let
   the checks after it read a half-finished run. *)
let wait_exit ~max_steps os pid =
  match Os.wait_pid_exit ~max_steps os pid with
  | Os.All_exited -> ()
  | Os.Deadlock pids ->
      Alcotest.failf "pid %d did not exit: deadlock among pids [%s]" pid
        (String.concat "; " (List.map string_of_int pids))
  | Os.Quota_exhausted ->
      Alcotest.failf "pid %d did not exit within %d steps" pid max_steps

(* Build a system with [binaries] installed and run /bin/app. *)
let run_system ?(mode = Os.Sip) ?(binaries = []) ?(args = []) main_prog =
  let config = { Os.default_config with mode } in
  let os = Os.boot ~config () in
  let build prog =
    let cfg =
      if mode = Os.Linux then Occlum_toolchain.Codegen.bare
      else Occlum_toolchain.Codegen.sfi
    in
    let oelf = Occlum_toolchain.Compile.compile_exn ~config:cfg prog in
    if mode = Os.Linux then oelf
    else
      match Occlum_verifier.Verify.verify_and_sign oelf with
      | Ok s -> s
      | Error rs ->
          failwith (Occlum_verifier.Verify.rejection_to_string (List.hd rs))
  in
  List.iter (fun (p, prog) -> Os.install_binary os p (build prog)) binaries;
  Os.install_binary os "/bin/app" (build main_prog);
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args in
  let status = Os.run ~max_steps:2_000_000 os in
  let exit_code =
    match Os.find_proc os pid with Some p -> p.exit_code | None -> 0
  in
  (os, status, exit_code)

let check_run ?mode ?binaries ?args ~exit_code ~output prog =
  let os, status, code = run_system ?mode ?binaries ?args prog in
  (match status with
  | Os.All_exited -> ()
  | Os.Deadlock pids ->
      Alcotest.fail
        ("deadlock: " ^ String.concat "," (List.map string_of_int pids))
  | Os.Quota_exhausted -> Alcotest.fail "quota exhausted");
  Alcotest.(check int) "exit code" exit_code code;
  Alcotest.(check string) "console" output (Os.console_output os);
  os

let test_hello () =
  ignore
    (check_run ~exit_code:5 ~output:"hello libos\n"
       (rt
          [
            func "main" []
              [
                Expr (Call ("print_cstr", [ Str "hello libos\n" ]));
                Return (i 5);
              ];
          ]))

let test_spawn_wait_argv () =
  let child =
    rt
      [
        func "main" []
          [
            Expr (Call ("print_cstr", [ Call ("argv", [ i 0 ]) ]));
            Expr (Call ("puts", [ Str "\n"; i 1 ]));
            Return (Call ("atoi", [ Call ("argv", [ i 1 ]) ]));
          ];
      ]
  in
  let parent =
    rt
      [
        func "main" []
          [
            Let ("blk", Global_addr "_rt_spawn_buf");
            Expr (Call ("memcpy", [ v "blk"; Str "first"; i 5 ]));
            Store1 (v "blk" +: i 5, i 0);
            Expr (Call ("memcpy", [ v "blk" +: i 6; Str "42"; i 2 ]));
            Store1 (v "blk" +: i 8, i 0);
            Let ("pid", Call ("spawn_argv", [ Str "/bin/child"; i 10; v "blk"; i 9 ]));
            Let ("st", Global_addr "_rt_misc_buf");
            Let ("got", Call ("waitpid", [ v "pid"; v "st" ]));
            If (v "got" <>: v "pid", [ Return (i 1) ], []);
            Expr (Call ("print_int", [ Load (v "st") ]));
            Expr (Call ("puts", [ Str "\n"; i 1 ]));
            Return (i 0);
          ];
      ]
  in
  ignore
    (check_run
       ~binaries:[ ("/bin/child", child) ]
       ~exit_code:0 ~output:"first\n42\n" parent)

let test_spawn_missing_binary () =
  ignore
    (check_run ~exit_code:(-Errno.enoent)
       ~output:""
       (rt
          [
            func "main" []
              [ Return (Unop (Neg, Call ("spawn0", [ Str "/bin/ghost"; i 10 ]))) ];
          ]))

let test_wait_echild () =
  ignore
    (check_run ~exit_code:(-Errno.echild) ~output:""
       (rt
          [
            func "main" []
              [ Return (Unop (Neg, Call ("waitpid", [ i 99; i 0 ]))) ];
          ]))

let test_pipe_roundtrip () =
  ignore
    (check_run ~exit_code:0 ~output:"12345"
       (rt
          [
            func "main" []
              [
                Let ("fds", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Let ("r", Load (v "fds"));
                Let ("w", Load (v "fds" +: i 8));
                Expr (Call ("write", [ v "w"; Str "12345"; i 5 ]));
                Let ("buf", Call ("malloc", [ i 16 ]));
                Let ("n", Call ("read", [ v "r"; v "buf"; i 16 ]));
                Expr (Call ("puts", [ v "buf"; v "n" ]));
                Return (i 0);
              ];
          ]))

let test_pipe_eof_and_epipe () =
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("fds", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                (* close the writer: read returns 0 (EOF) *)
                Expr (Call ("close", [ Load (v "fds" +: i 8) ]));
                Let ("buf", Call ("malloc", [ i 8 ]));
                Let ("n", Call ("read", [ Load (v "fds"); v "buf"; i 8 ]));
                If (v "n" <>: i 0, [ Return (i 1) ], []);
                (* new pipe; close the reader: write returns EPIPE *)
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Expr (Call ("close", [ Load (v "fds") ]));
                Let ("m", Call ("write", [ Load (v "fds" +: i 8); v "buf"; i 4 ]));
                If (v "m" <>: i (Errno.epipe), [ Return (i 2) ], []);
                Return (i 0);
              ];
          ]))

let test_fs_syscalls () =
  ignore
    (check_run ~exit_code:0 ~output:"content|content"
       (rt
          [
            func "main" []
              [
                Let ("fd", Call ("open", [ Str "/f.txt"; i 6;
                                           i (F.creat lor F.wronly) ]));
                If (v "fd" <: i 0, [ Return (i 1) ], []);
                Expr (Call ("write", [ v "fd"; Str "content"; i 7 ]));
                Expr (Call ("close", [ v "fd" ]));
                (* read back *)
                Let ("fd2", Call ("open", [ Str "/f.txt"; i 6; i 0 ]));
                Let ("buf", Call ("malloc", [ i 32 ]));
                Let ("n", Call ("read", [ v "fd2"; v "buf"; i 32 ]));
                Expr (Call ("puts", [ v "buf"; v "n" ]));
                Expr (Call ("puts", [ Str "|"; i 1 ]));
                (* lseek back to 0 and reread *)
                Expr (Syscall (Sys.lseek, [ v "fd2"; i 0; i 0 ]));
                Let ("m", Call ("read", [ v "fd2"; v "buf"; i 32 ]));
                Expr (Call ("puts", [ v "buf"; v "m" ]));
                (* fstat: size must be 7 *)
                Let ("stat", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.fstat, [ v "fd2"; v "stat" ]));
                If (Load (v "stat") <>: i 7, [ Return (i 3) ], []);
                Expr (Call ("close", [ v "fd2" ]));
                (* unlink, then the open must fail *)
                Expr (Syscall (Sys.unlink, [ Str "/f.txt"; i 6 ]));
                Let ("fd3", Call ("open", [ Str "/f.txt"; i 6; i 0 ]));
                If (v "fd3" <>: i Errno.enoent, [ Return (i 4) ], []);
                Return (i 0);
              ];
          ]))

let test_append_and_trunc () =
  ignore
    (check_run ~exit_code:0 ~output:"abXY|Z"
       (rt
          [
            func "main" []
              [
                Let ("fd", Call ("open", [ Str "/f"; i 2; i (F.creat lor F.wronly) ]));
                Expr (Call ("write", [ v "fd"; Str "ab"; i 2 ]));
                Expr (Call ("close", [ v "fd" ]));
                (* append *)
                Let ("fa", Call ("open", [ Str "/f"; i 2; i F.append ]));
                Expr (Call ("write", [ v "fa"; Str "XY"; i 2 ]));
                Expr (Call ("close", [ v "fa" ]));
                Let ("buf", Call ("malloc", [ i 16 ]));
                Let ("fr", Call ("open", [ Str "/f"; i 2; i 0 ]));
                Let ("n", Call ("read", [ v "fr"; v "buf"; i 16 ]));
                Expr (Call ("puts", [ v "buf"; v "n" ]));
                Expr (Call ("close", [ v "fr" ]));
                Expr (Call ("puts", [ Str "|"; i 1 ]));
                (* truncate *)
                Let ("ft", Call ("open", [ Str "/f"; i 2;
                                           i (F.wronly lor F.trunc) ]));
                Expr (Call ("write", [ v "ft"; Str "Z"; i 1 ]));
                Expr (Call ("close", [ v "ft" ]));
                Let ("fr2", Call ("open", [ Str "/f"; i 2; i 0 ]));
                Let ("m", Call ("read", [ v "fr2"; v "buf"; i 16 ]));
                Expr (Call ("puts", [ v "buf"; v "m" ]));
                Return (i 0);
              ];
          ]))

let test_devfs_procfs () =
  ignore
    (check_run ~exit_code:0 ~output:"ok"
       (rt
          [
            func "main" []
              [
                Let ("buf", Call ("malloc", [ i 64 ]));
                (* /dev/zero reads zeros *)
                Let ("fz", Call ("open", [ Str "/dev/zero"; i 9; i 0 ]));
                Expr (Call ("read", [ v "fz"; v "buf"; i 8 ]));
                If (Load (v "buf") <>: i 0, [ Return (i 1) ], []);
                (* /dev/null swallows writes, reads EOF *)
                Let ("fn", Call ("open", [ Str "/dev/null"; i 9; i 1 ]));
                If (Call ("write", [ v "fn"; v "buf"; i 8 ]) <>: i 8,
                    [ Return (i 2) ], []);
                If (Call ("read", [ v "fn"; v "buf"; i 8 ]) <>: i 0,
                    [ Return (i 3) ], []);
                (* /dev/urandom returns bytes *)
                Let ("fr", Call ("open", [ Str "/dev/urandom"; i 12; i 0 ]));
                If (Call ("read", [ v "fr"; v "buf"; i 8 ]) <>: i 8,
                    [ Return (i 4) ], []);
                (* /proc/self/status mentions our pid *)
                Let ("fp", Call ("open", [ Str "/proc/self/status"; i 17; i 0 ]));
                Let ("n", Call ("read", [ v "fp"; v "buf"; i 64 ]));
                If (v "n" <=: i 0, [ Return (i 5) ], []);
                (* /proc/meminfo exists *)
                Let ("fm", Call ("open", [ Str "/proc/meminfo"; i 13; i 0 ]));
                If (Call ("read", [ v "fm"; v "buf"; i 64 ]) <=: i 0,
                    [ Return (i 6) ], []);
                Expr (Call ("puts", [ Str "ok"; i 2 ]));
                Return (i 0);
              ];
          ]))

let test_mmap_brk () =
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                (* brk grows and shrinks *)
                Let ("cur", Syscall (Sys.brk, [ i 0 ]));
                Let ("grown", Syscall (Sys.brk, [ v "cur" +: i 4096 ]));
                If (v "grown" <>: v "cur" +: i 4096, [ Return (i 1) ], []);
                (* mmap returns zeroed writable memory *)
                Let ("m", Syscall (Sys.mmap, [ i 0; i 8192; i (-1); i 0 ]));
                If (v "m" <=: i 0, [ Return (i 2) ], []);
                If (Load (v "m") <>: i 0, [ Return (i 3) ], []);
                Store (v "m", i 77);
                If (Load (v "m") <>: i 77, [ Return (i 4) ], []);
                (* munmap exact range works; wrong range is EINVAL *)
                If (Syscall (Sys.munmap, [ v "m"; i 4096 ]) <>: i Errno.einval,
                    [ Return (i 5) ], []);
                If (Syscall (Sys.munmap, [ v "m"; i 8192 ]) <>: i 0,
                    [ Return (i 6) ], []);
                (* overgrown brk fails with ENOMEM *)
                If (Syscall (Sys.brk, [ v "cur" +: i (64 * 1024 * 1024) ])
                    <>: i Errno.enomem,
                    [ Return (i 7) ], []);
                Return (i 0);
              ];
          ]))

let test_signals () =
  (* parent registers a SIGUSR1 handler; child kills parent; handler
     runs, then control returns to the interrupted loop via sigreturn *)
  let child =
    rt
      [
        func "main" []
          [
            Let ("ppid", Call ("atoi", [ Call ("argv", [ i 0 ]) ]));
            Expr (Syscall (Sys.kill, [ v "ppid"; i 10 ]));
            Return (i 0);
          ];
      ]
  in
  let parent =
    rt
      ~globals:[ ("flag", 8) ]
      [
        func "on_usr1" [ "signo" ]
          [
            Expr (Call ("print_cstr", [ Str "sig=" ]));
            Expr (Call ("print_int", [ v "signo" ]));
            Expr (Call ("puts", [ Str "\n"; i 1 ]));
            Store (Global_addr "flag", i 1);
            Return (i 0);
          ];
        func "main" []
          [
            Expr (Syscall (Sys.sigaction, [ i 10; Func_addr "on_usr1" ]));
            Let ("pid",
                 Call ("spawn1",
                       [ Str "/bin/child"; i 10;
                         Call ("itoa", [ Call ("getpid", []) ]);
                         (Global_addr "_rt_itoa_buf" +: i 31)
                         -: Call ("itoa", [ Call ("getpid", []) ]) ]));
            Expr (Call ("waitpid", [ v "pid"; i 0 ]));
            (* wait until the handler has run *)
            While (Load (Global_addr "flag") =: i 0,
                   [ Expr (Call ("yield", [])) ]);
            Expr (Call ("print_cstr", [ Str "handled\n" ]));
            Return (i 0);
          ];
      ]
  in
  ignore
    (check_run
       ~binaries:[ ("/bin/child", child) ]
       ~exit_code:0 ~output:"sig=10\nhandled\n" parent)

let test_default_signal_kills () =
  let target =
    rt [ func "main" [] [ While (i 1, [ Expr (Call ("yield", [])) ]); Return (i 0) ] ]
  in
  let killer =
    rt
      [
        func "main" []
          [
            Let ("pid", Call ("spawn0", [ Str "/bin/victim"; i 11 ]));
            Expr (Syscall (Sys.kill, [ v "pid"; i 15 ]));
            Let ("st", Global_addr "_rt_misc_buf");
            Expr (Call ("waitpid", [ v "pid"; v "st" ]));
            Return (Load (v "st"));
          ];
      ]
  in
  let _, _, code = run_system ~binaries:[ ("/bin/victim", target) ] killer in
  Alcotest.(check int) "128+SIGTERM" (128 + 15) code

let test_threads_futex () =
  (* clone a thread that increments a shared counter and futex-wakes *)
  let prog =
    rt
      ~globals:[ ("counter", 8); ("futex", 8) ]
      [
        func "worker" [ "arg" ]
          [
            Store (Global_addr "counter", v "arg" +: i 100);
            Store (Global_addr "futex", i 1);
            Expr (Syscall (Sys.futex_wake, [ Global_addr "futex"; i 1 ]));
            Return (i 0);
          ];
        func "main" []
          [
            Let ("stack", Syscall (Sys.mmap, [ i 0; i 16384; i (-1); i 0 ]));
            Let ("tid",
                 Syscall (Sys.clone, [ Func_addr "worker"; v "stack" +: i 16384; i 5 ]));
            If (v "tid" <: i 0, [ Return (i 1) ], []);
            (* futex-wait until the worker signals *)
            While (Load (Global_addr "futex") =: i 0,
                   [ Expr (Syscall (Sys.futex_wait, [ Global_addr "futex"; i 0 ])) ]);
            Expr (Call ("waitpid", [ v "tid"; i 0 ]));
            Return (Load (Global_addr "counter"));
          ];
      ]
  in
  let _, status, code = run_system prog in
  Alcotest.(check bool) "finished" true (status = Os.All_exited);
  Alcotest.(check int) "shared memory" 105 code

let test_sockets () =
  let prog =
    rt
      [
        func "main" []
          [
            (* connect to a port nobody listens on *)
            Let ("s0", Syscall (Sys.socket, []));
            If (Syscall (Sys.connect, [ v "s0"; i 7777 ]) <>: i Errno.econnrefused,
                [ Return (i 1) ], []);
            (* self-talk through the loopback: listen, connect, accept *)
            Let ("ls", Syscall (Sys.socket, []));
            Expr (Syscall (Sys.bind, [ v "ls"; i 9000 ]));
            If (Syscall (Sys.listen, [ v "ls"; i 4 ]) <>: i 0, [ Return (i 2) ], []);
            Let ("cl", Syscall (Sys.socket, []));
            If (Syscall (Sys.connect, [ v "cl"; i 9000 ]) <>: i 0, [ Return (i 3) ], []);
            Let ("srv", Syscall (Sys.accept, [ v "ls" ]));
            If (v "srv" <: i 0, [ Return (i 4) ], []);
            Expr (Syscall (Sys.send, [ v "cl"; Str "ping"; i 4 ]));
            Let ("buf", Call ("malloc", [ i 16 ]));
            Let ("n", Syscall (Sys.recv, [ v "srv"; v "buf"; i 16 ]));
            Expr (Call ("puts", [ v "buf"; v "n" ]));
            Expr (Syscall (Sys.send, [ v "srv"; Str "pong"; i 4 ]));
            Let ("m", Syscall (Sys.recv, [ v "cl"; v "buf"; i 16 ]));
            Expr (Call ("puts", [ v "buf"; v "m" ]));
            Return (i 0);
          ];
      ]
  in
  ignore
    (match run_system prog with
    | os, Os.All_exited, 0 ->
        Alcotest.(check string) "ping-pong" "pingpong" (Os.console_output os)
    | _, _, code -> Alcotest.fail (Printf.sprintf "exit %d" code))

let test_dup2_inheritance () =
  (* covered heavily by the fish workload; check the syscall surface *)
  ignore
    (check_run ~exit_code:0 ~output:"to-nine"
       (rt
          [
            func "main" []
              [
                If (Syscall (Sys.dup2, [ i 1; i 9 ]) <>: i 9, [ Return (i 1) ], []);
                Expr (Call ("write", [ i 9; Str "to-nine"; i 7 ]));
                If (Syscall (Sys.dup2, [ i 42; i 5 ]) <>: i Errno.ebadf,
                    [ Return (i 2) ], []);
                Return (i 0);
              ];
          ]))

let test_sleep_gettime () =
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("t0", Call ("gettime", []));
                Expr (Syscall (Sys.nanosleep, [ i 1000000 ]));
                Let ("t1", Call ("gettime", []));
                If (v "t1" -: v "t0" <: i 1000000, [ Return (i 1) ], []);
                Return (i 0);
              ];
          ]))

let test_deadlock_detection () =
  (* reading from a pipe whose writer we still hold: blocks forever *)
  let prog =
    rt
      [
        func "main" []
          [
            Let ("fds", Global_addr "_rt_misc_buf");
            Expr (Syscall (Sys.pipe, [ v "fds" ]));
            Let ("buf", Call ("malloc", [ i 8 ]));
            Expr (Call ("read", [ Load (v "fds"); v "buf"; i 8 ]));
            Return (i 0);
          ];
      ]
  in
  let _, status, _ = run_system prog in
  match status with
  | Os.Deadlock [ _ ] -> ()
  | _ -> Alcotest.fail "expected deadlock"

let test_slot_exhaustion () =
  (* more live processes than domain slots: spawn returns EAGAIN *)
  let sleeper =
    rt [ func "main" [] [ While (i 1, [ Expr (Call ("yield", [])) ]); Return (i 0) ] ]
  in
  let spawner =
    rt
      [
        func "main" []
          [
            Let ("k", i 0);
            Let ("err", i 0);
            While
              ( v "k" <: i 20,
                [
                  Let ("r", Call ("spawn0", [ Str "/bin/sleeper"; i 12 ]));
                  If (v "r" =: i Errno.eagain, [ Assign ("err", i 1) ], []);
                  Assign ("k", v "k" +: i 1);
                ] );
            Return (v "err");
          ];
      ]
  in
  let config =
    { Os.default_config with
      domains = { Occlum_libos.Domain_mgr.default_config with max_domains = 4 } }
  in
  let os = Os.boot ~config () in
  let build prog =
    match
      Occlum_verifier.Verify.verify_and_sign
        (Occlum_toolchain.Compile.compile_exn ~config:Occlum_toolchain.Codegen.sfi prog)
    with
    | Ok s -> s
    | Error _ -> failwith "verify"
  in
  Os.install_binary os "/bin/sleeper" (build sleeper);
  Os.install_binary os "/bin/app" (build spawner);
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
  wait_exit ~max_steps:500_000 os pid;
  (match Os.find_proc os pid with
  | Some p -> Alcotest.(check int) "hit EAGAIN" 1 p.exit_code
  | None -> Alcotest.fail "spawner vanished")

let test_loader_rejects_unsigned () =
  let os = Os.boot () in
  let prog = rt [ func "main" [] [ Return (i 0) ] ] in
  let unsigned =
    Occlum_toolchain.Compile.compile_exn ~config:Occlum_toolchain.Codegen.sfi prog
  in
  Os.install_binary os "/bin/unsigned" unsigned;
  match Os.spawn os ~parent_pid:0 ~path:"/bin/unsigned" ~args:[] with
  | exception Os.Spawn_error e when e = Errno.eaccess -> ()
  | _ -> Alcotest.fail "unsigned binary must not load"

(* --- spawn admission ------------------------------------------------------- *)

let signed ?(config = Occlum_toolchain.Codegen.sfi) prog =
  match
    Occlum_verifier.Verify.verify_and_sign
      (Occlum_toolchain.Compile.compile_exn ~config prog)
  with
  | Ok s -> s
  | Error rs ->
      failwith (Occlum_verifier.Verify.rejection_to_string (List.hd rs))

let printer msg =
  rt [ func "main" [] [ Expr (Call ("print_cstr", [ Str msg ])); Return (i 0) ] ]

let slots_in_use os = Occlum_libos.Domain_mgr.in_use_count os.Os.domains

let spawn_and_wait os path =
  let pid = Os.spawn os ~parent_pid:0 ~path ~args:[] in
  wait_exit ~max_steps:500_000 os pid

let test_spawn_e2big () =
  (* argv that cannot fit the 4 KiB argument area is E2BIG, rejected
     before a domain slot is taken — from the host and from a guest *)
  let os = Os.boot () in
  Os.install_binary os "/bin/child" (signed (printer "child\n"));
  let host_rejects name args =
    let before = slots_in_use os in
    (match Os.spawn os ~parent_pid:0 ~path:"/bin/child" ~args with
    | exception Os.Spawn_error e -> Alcotest.(check int) name Errno.e2big e
    | _ -> Alcotest.fail (name ^ ": spawn must fail"));
    Alcotest.(check int) (name ^ ": slots") before (slots_in_use os)
  in
  host_rejects "one long arg" [ String.make 5000 'a' ];
  host_rejects "600 args" (List.init 600 (fun _ -> "a"));
  let guest =
    rt ~globals:[ ("big", 6000) ]
      [
        func "main" []
          [
            Let ("b", Global_addr "big");
            Expr (Call ("memset", [ v "b"; i 97; i 5000 ]));
            Let ("r1", Call ("spawn_argv", [ Str "/bin/child"; i 10; v "b"; i 5000 ]));
            If (v "r1" <>: i Errno.e2big, [ Return (i 1) ], []);
            Let ("k", i 0);
            While
              ( v "k" <: i 600,
                [
                  Store1 (v "b" +: (v "k" *: i 2), i 97);
                  Store1 (v "b" +: (v "k" *: i 2) +: i 1, i 0);
                  Assign ("k", v "k" +: i 1);
                ] );
            Let ("r2", Call ("spawn_argv", [ Str "/bin/child"; i 10; v "b"; i 1200 ]));
            If (v "r2" <>: i Errno.e2big, [ Return (i 2) ], []);
            Return (Call ("getpid", []));
          ];
      ]
  in
  Os.install_binary os "/bin/app" (signed guest);
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
  Alcotest.(check int) "app holds one slot" 1 (slots_in_use os);
  wait_exit ~max_steps:2_000_000 os pid;
  (match Os.find_proc os pid with
  | Some p -> Alcotest.(check int) "guest saw E2BIG twice" pid p.exit_code
  | None -> Alcotest.fail "app vanished");
  Alcotest.(check int) "no slot leaked" 0 (slots_in_use os);
  Alcotest.(check string) "child never ran" "" (Os.console_output os)

let test_spawn_rewritten_byte_rejected () =
  (* a rewrite that keeps the length and the signature field but flips
     one code byte must fail the signature check on the next spawn *)
  let os = Os.boot () in
  let good = signed (printer "x\n") in
  Os.install_binary os "/bin/x" good;
  spawn_and_wait os "/bin/x";
  Alcotest.(check string) "first run" "x\n" (Os.console_output os);
  let code = Bytes.copy good.Occlum_oelf.Oelf.code in
  let at = Bytes.length code / 2 in
  Bytes.set code at (Char.chr (Char.code (Bytes.get code at) lxor 0x01));
  let tampered = { good with Occlum_oelf.Oelf.code } in
  Alcotest.(check int) "same length"
    (String.length (Occlum_oelf.Oelf.to_string good))
    (String.length (Occlum_oelf.Oelf.to_string tampered));
  Os.install_binary os "/bin/x" tampered;
  let before = slots_in_use os in
  (match Os.spawn os ~parent_pid:0 ~path:"/bin/x" ~args:[] with
  | exception Os.Spawn_error e -> Alcotest.(check int) "EACCES" Errno.eaccess e
  | _ -> Alcotest.fail "tampered binary must not load");
  Alcotest.(check int) "slots unchanged" before (slots_in_use os)

let test_spawn_rewritten_program_runs () =
  (* a different validly signed program at the same path runs as itself *)
  let os = Os.boot () in
  Os.install_binary os "/bin/x" (signed (printer "old\n"));
  spawn_and_wait os "/bin/x";
  Os.install_binary os "/bin/x" (signed (printer "new program\n"));
  spawn_and_wait os "/bin/x";
  Alcotest.(check string) "both versions ran" "old\nnew program\n"
    (Os.console_output os)

let test_spawn_admissions_counted () =
  (* one shared LibOS admits a binary once; every EIP admits its own *)
  let admissions mode =
    let obs = Occlum_obs.Obs.create () in
    let os = Os.boot ~config:{ Os.default_config with mode } ~obs () in
    Os.install_binary os "/bin/x" (signed (printer "."));
    for _ = 1 to 3 do
      spawn_and_wait os "/bin/x"
    done;
    Alcotest.(check string) "ran three times" "..." (Os.console_output os);
    Occlum_obs.Metrics.value
      (Occlum_obs.Metrics.counter obs.Occlum_obs.Obs.metrics
         "os.spawn.admissions")
  in
  Alcotest.(check int) "Sip" 1 (admissions Os.Sip);
  Alcotest.(check int) "Eip" 3 (admissions Os.Eip)

let test_spawn_elide_facts () =
  (* with jit_elide, the guard facts registered for a slot are exactly
     the Elide classification of the binary it holds, whether the
     binary was admitted afresh or reused (naive builds, so there are
     guards to elide) *)
  let config = { Os.default_config with jit_elide = true } in
  let os = Os.boot ~config () in
  let binaries =
    List.map
      (fun (path, prog) ->
        (path, signed ~config:Occlum_toolchain.Codegen.sfi_naive prog))
      Occlum_workloads.Fish.binaries
  in
  List.iter (fun (path, oelf) -> Os.install_binary os path oelf) binaries;
  let fish = Os.spawn os ~parent_pid:0 ~path:"/bin/fish" ~args:[ "2"; "8" ] in
  wait_exit ~max_steps:5_000_000 os fish;
  (match Os.find_proc os fish with
  | Some p -> Alcotest.(check int) "fish round" 0 p.exit_code
  | None -> ());
  let expected oelf =
    match Occlum_verifier.Verify.verify oelf with
    | Error _ -> Alcotest.fail "fish binary must verify"
    | Ok d ->
        (Occlum_analysis.Elide.analyze oelf d).Occlum_analysis.Elide.guards
        |> List.filter_map (fun (g : Occlum_analysis.Elide.guard) ->
               match g.cls with
               | Occlum_analysis.Elide.Required -> None
               | _ -> Some g.addr)
        |> List.sort_uniq compare
  in
  let total = ref 0 in
  List.iter
    (fun (path, oelf) ->
      for _ = 1 to 2 do
        let pid = Os.spawn os ~parent_pid:0 ~path ~args:[ "1"; "1" ] in
        let slot =
          match Os.find_proc os pid with
          | Some p -> p.img.Occlum_libos.Loader.slot
          | None -> Alcotest.fail "spawned proc missing"
        in
        let base = Occlum_libos.Domain_mgr.c_base slot in
        let hi = base + slot.Occlum_libos.Domain_mgr.code_size in
        let got =
          Hashtbl.fold
            (fun addr () acc ->
              if addr >= base && addr < hi then (addr - base) :: acc else acc)
            os.Os.jit_facts []
          |> List.sort compare
        in
        Alcotest.(check (list int)) (path ^ " facts") (expected oelf) got;
        total := !total + List.length got;
        wait_exit ~max_steps:2_000_000 os pid
      done)
    binaries;
  Alcotest.(check bool) "some guards elided" true (!total > 0)

let test_eip_mode_runs () =
  let _, status, code =
    run_system ~mode:Os.Eip
      (rt
         [
           func "main" []
             [ Expr (Call ("print_cstr", [ Str "eip\n" ])); Return (i 3) ];
         ])
  in
  Alcotest.(check bool) "exited" true (status = Os.All_exited);
  Alcotest.(check int) "code" 3 code

let test_linux_mode_runs () =
  let os, status, code =
    run_system ~mode:Os.Linux
      (rt
         [
           func "main" []
             [ Expr (Call ("print_cstr", [ Str "native\n" ])); Return (i 4) ];
         ])
  in
  Alcotest.(check bool) "exited" true (status = Os.All_exited);
  Alcotest.(check int) "code" 4 code;
  Alcotest.(check string) "output" "native\n" (Os.console_output os)

let test_sgx2_mode () =
  (* EDMM: EPC is consumed per live SIP and released at exit, and the
     SIP's reach ends at its own last mapped page *)
  let config = { Os.default_config with sgx2 = true } in
  let os = Os.boot ~config () in
  let build prog =
    match
      Occlum_verifier.Verify.verify_and_sign
        (Occlum_toolchain.Compile.compile_exn
           ~config:Occlum_toolchain.Codegen.sfi prog)
    with
    | Ok s -> s
    | Error _ -> failwith "verify"
  in
  let hello =
    rt [ func "main" [] [ Expr (Call ("print_cstr", [ Str "sgx2\n" ])); Return (i 6) ] ]
  in
  Os.install_binary os "/bin/app" (build hello);
  let before = Occlum_sgx.Epc.used_pages os.Os.epc in
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
  let during = Occlum_sgx.Epc.used_pages os.Os.epc in
  Alcotest.(check bool) "EPC grows on spawn" true (during > before);
  wait_exit ~max_steps:500_000 os pid;
  Alcotest.(check int) "EPC released on exit" before
    (Occlum_sgx.Epc.used_pages os.Os.epc);
  (match Os.find_proc os pid with
  | Some p ->
      Alcotest.(check int) "exit code" 6 p.exit_code;
      Alcotest.(check string) "output" "sgx2\n" (Os.console_output os)
  | None -> Alcotest.fail "process lost");
  (* a second spawn reuses the slot with fresh zeroed pages *)
  let pid2 = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
  wait_exit ~max_steps:500_000 os pid2;
  match Os.find_proc os pid2 with
  | Some p -> Alcotest.(check int) "re-spawn exit code" 6 p.exit_code
  | None -> Alcotest.fail "second process lost"

let test_poll () =
  let module P = Occlum_abi.Abi.Poll in
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("fds", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Let ("r", Load (v "fds"));
                Let ("w", Load (v "fds" +: i 8));
                Let ("pe", Call ("malloc", [ i 48 ]));
                (* empty pipe: reader not ready, writer ready *)
                Store (v "pe", v "r");
                Store (v "pe" +: i 8, i P.pollin);
                Store (v "pe" +: i 24, v "w");
                Store (v "pe" +: i 32, i P.pollout);
                Let ("n", Syscall (Sys.poll, [ v "pe"; i 2; i 0 ]));
                If (v "n" <>: i 1, [ Return (i 1) ], []);
                If (Load (v "pe" +: i 16) <>: i 0, [ Return (i 2) ], []);
                If (Load (v "pe" +: i 40) <>: i P.pollout, [ Return (i 3) ], []);
                (* write a byte: the reader becomes ready *)
                Expr (Call ("write", [ v "w"; v "pe"; i 1 ]));
                Store (v "pe" +: i 16, i 0);
                Let ("m", Syscall (Sys.poll, [ v "pe"; i 1; i 0 ]));
                If (v "m" <>: i 1, [ Return (i 4) ], []);
                If (Load (v "pe" +: i 16) <>: i P.pollin, [ Return (i 5) ], []);
                (* a poll with a timeout on a never-ready fd returns 0 *)
                Let ("buf", Call ("malloc", [ i 8 ]));
                Expr (Call ("read", [ v "r"; v "buf"; i 8 ]));
                Store (v "pe" +: i 16, i 0);
                Let ("z", Syscall (Sys.poll, [ v "pe"; i 1; i 1000 ]));
                If (v "z" <>: i 0, [ Return (i 6) ], []);
                (* bad fd reports POLLNVAL *)
                Store (v "pe", i 42);
                Store (v "pe" +: i 16, i 0);
                Expr (Syscall (Sys.poll, [ v "pe"; i 1; i 0 ]));
                If (Load (v "pe" +: i 16) <>: i P.pollnval, [ Return (i 7) ], []);
                Return (i 0);
              ];
          ]))

let test_nonblock_eagain () =
  (* O_NONBLOCK: would-block paths return EAGAIN instead of suspending *)
  let module Fc = Occlum_abi.Abi.Fcntl in
  let nb = F.nonblock in
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("fds", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Let ("r", Load (v "fds"));
                (* empty blocking-capable pipe, flagged nonblocking *)
                If (Syscall (Sys.fcntl, [ v "r"; i Fc.setfl; i nb ]) <>: i 0,
                    [ Return (i 1) ], []);
                If (Syscall (Sys.fcntl, [ v "r"; i Fc.getfl; i 0 ]) <>: i nb,
                    [ Return (i 2) ], []);
                Let ("buf", Call ("malloc", [ i 16 ]));
                If (Syscall (Sys.read, [ v "r"; v "buf"; i 8 ])
                    <>: i Errno.eagain,
                    [ Return (i 3) ], []);
                (* nonblocking accept on an empty backlog *)
                Let ("ls", Syscall (Sys.socket, []));
                Expr (Syscall (Sys.bind, [ v "ls"; i 9100 ]));
                Expr (Syscall (Sys.listen, [ v "ls"; i 4 ]));
                If (Syscall (Sys.fcntl, [ v "ls"; i Fc.setfl; i nb ]) <>: i 0,
                    [ Return (i 4) ], []);
                If (Syscall (Sys.accept, [ v "ls" ]) <>: i Errno.eagain,
                    [ Return (i 5) ], []);
                (* clearing the flag restores blocking semantics (getfl) *)
                If (Syscall (Sys.fcntl, [ v "r"; i Fc.setfl; i 0 ]) <>: i 0,
                    [ Return (i 6) ], []);
                If (Syscall (Sys.fcntl, [ v "r"; i Fc.getfl; i 0 ]) <>: i 0,
                    [ Return (i 7) ], []);
                If (Syscall (Sys.fcntl, [ i 42; i Fc.getfl; i 0 ])
                    <>: i Errno.ebadf,
                    [ Return (i 8) ], []);
                Return (i 0);
              ];
          ]))

let test_epoll () =
  let module P = Occlum_abi.Abi.Poll in
  let module E = Occlum_abi.Abi.Epoll in
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("fds", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Let ("r", Load (v "fds"));
                Let ("w", Load (v "fds" +: i 8));
                Let ("ep", Syscall (Sys.epoll_create, []));
                If (v "ep" <: i 0, [ Return (i 1) ], []);
                Let ("evb", Call ("malloc", [ i 64 ]));
                (* ctl semantics: add, duplicate add, mod/del of absent *)
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_add; v "r"; i P.pollin ])
                    <>: i 0, [ Return (i 2) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_add; v "r"; i P.pollin ])
                    <>: i Errno.eexist, [ Return (i 3) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_mod; v "w"; i P.pollout ])
                    <>: i Errno.enoent, [ Return (i 4) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_del; v "w"; i 0 ])
                    <>: i Errno.enoent, [ Return (i 5) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_add; v "ep"; i P.pollin ])
                    <>: i Errno.einval, [ Return (i 6) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_add; i 42; i P.pollin ])
                    <>: i Errno.ebadf, [ Return (i 7) ], []);
                (* empty pipe: no events (timeout 0) *)
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 0 ])
                    <>: i 0, [ Return (i 8) ], []);
                (* data arrives: one event, right fd, POLLIN *)
                Expr (Call ("write", [ v "w"; v "evb"; i 1 ]));
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 0 ])
                    <>: i 1, [ Return (i 9) ], []);
                If (Load (v "evb") <>: v "r", [ Return (i 10) ], []);
                If (Load (v "evb" +: i 8) <>: i P.pollin, [ Return (i 11) ], []);
                (* level-triggered: unconsumed data reports again *)
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 0 ])
                    <>: i 1, [ Return (i 12) ], []);
                (* consuming the data re-arms to not-ready *)
                Let ("buf", Call ("malloc", [ i 8 ]));
                Expr (Call ("read", [ v "r"; v "buf"; i 8 ]));
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 0 ])
                    <>: i 0, [ Return (i 13) ], []);
                (* a wait with a deadline on a never-ready set expires *)
                Let ("t0", Call ("gettime", []));
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 100000 ])
                    <>: i 0, [ Return (i 14) ], []);
                If (Call ("gettime", []) -: v "t0" <: i 100000,
                    [ Return (i 15) ], []);
                (* del detaches: new data no longer reported *)
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_del; v "r"; i 0 ])
                    <>: i 0, [ Return (i 16) ], []);
                Expr (Call ("write", [ v "w"; v "evb"; i 1 ]));
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 0 ])
                    <>: i 0, [ Return (i 17) ], []);
                Return (i 0);
              ];
          ]))

let test_epoll_close_and_reuse () =
  (* A registration is keyed on (fd, watched object): once the object is
     closed, a new one that reuses its fd number is not registered. ADD
     on it succeeds, a wait never reports it under the old mask, and
     MOD/DEL see ENOENT — as on Linux. *)
  let module P = Occlum_abi.Abi.Poll in
  let module E = Occlum_abi.Abi.Epoll in
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("fds", Global_addr "_rt_misc_buf");
                Let ("ep", Syscall (Sys.epoll_create, []));
                Let ("evb", Call ("malloc", [ i 64 ]));
                (* ADD replaces a registration left by a closed object *)
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Let ("w1", Load (v "fds" +: i 8));
                If (Syscall (Sys.epoll_ctl,
                             [ v "ep"; i E.ctl_add; v "w1"; i (P.pollin lor P.pollout) ])
                    <>: i 0, [ Return (i 1) ], []);
                Expr (Call ("close", [ v "w1" ]));
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Let ("r2", Load (v "fds"));
                Let ("w2", Load (v "fds" +: i 8));
                If (v "r2" <>: v "w1", [ Return (i 2) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_add; v "r2"; i P.pollin ])
                    <>: i 0, [ Return (i 3) ], []);
                Expr (Call ("write", [ v "w2"; v "evb"; i 1 ]));
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 0 ])
                    <>: i 1, [ Return (i 4) ], []);
                If (Load (v "evb") <>: v "r2", [ Return (i 5) ], []);
                If (Load (v "evb" +: i 8) <>: i P.pollin, [ Return (i 6) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_del; v "r2"; i 0 ])
                    <>: i 0, [ Return (i 7) ], []);
                (* a wait never reports a new object under a stale
                   registration's mask *)
                If (Syscall (Sys.epoll_ctl,
                             [ v "ep"; i E.ctl_add; v "w2"; i (P.pollin lor P.pollout) ])
                    <>: i 0, [ Return (i 8) ], []);
                Expr (Call ("close", [ v "w2" ]));
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Let ("r3", Load (v "fds"));
                Let ("w3", Load (v "fds" +: i 8));
                If (v "r3" <>: v "w2", [ Return (i 9) ], []);
                Expr (Call ("write", [ v "w3"; v "evb"; i 1 ]));
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 0 ])
                    <>: i 0, [ Return (i 10) ], []);
                (* MOD and DEL on a stale registration: ENOENT *)
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_add; v "w3"; i P.pollout ])
                    <>: i 0, [ Return (i 11) ], []);
                Expr (Call ("close", [ v "w3" ]));
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Let ("r4", Load (v "fds"));
                If (v "r4" <>: v "w3", [ Return (i 12) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_mod; v "r4"; i P.pollin ])
                    <>: i Errno.enoent, [ Return (i 13) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_del; v "r4"; i 0 ])
                    <>: i Errno.enoent, [ Return (i 14) ], []);
                Return (i 0);
              ];
          ]))

let test_epoll_maxevents_order () =
  (* More ready fds than [maxevents], with closed (stale) candidates
     before and after the cut: events come back in ascending fd order,
     the cut repeats while the data is unconsumed (level-triggered), the
     remainder arrives once it is consumed, and a closed fd is never
     reported. *)
  let module P = Occlum_abi.Abi.Poll in
  let module E = Occlum_abi.Abi.Epoll in
  let pipe_fds name =
    [
      Expr (Syscall (Sys.pipe, [ v "fds" ]));
      Let (name, Load (v "fds"));
      Let (name ^ "w", Load (v "fds" +: i 8));
      If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_add; v name; i P.pollin ])
          <>: i 0, [ Return (i 1) ], []);
      Expr (Call ("write", [ v (name ^ "w"); v "evb"; i 1 ]));
    ]
  in
  let expect_pair code a b =
    [
      If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 2; i 0 ]) <>: i 2,
          [ Return (i code) ], []);
      If (Load (v "evb") <>: v a, [ Return (i (code + 1)) ], []);
      If (Load (v "evb" +: i E.event_size) <>: v b, [ Return (i (code + 2)) ], []);
    ]
  in
  let consume fd = Expr (Call ("read", [ v fd; v "buf"; i 8 ])) in
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              ([
                 Let ("fds", Global_addr "_rt_misc_buf");
                 Let ("ep", Syscall (Sys.epoll_create, []));
                 Let ("evb", Call ("malloc", [ i 64 ]));
                 Let ("buf", Call ("malloc", [ i 8 ]));
               ]
              @ pipe_fds "a" @ pipe_fds "s1" @ pipe_fds "b" @ pipe_fds "c"
              @ pipe_fds "s2" @ pipe_fds "d"
              @ [
                  Expr (Call ("close", [ v "s1" ]));
                  Expr (Call ("close", [ v "s2" ]));
                ]
              @ expect_pair 10 "a" "b"
              @ expect_pair 20 "a" "b"
              @ [ consume "a"; consume "b" ]
              @ expect_pair 30 "c" "d"
              @ [
                  consume "c";
                  consume "d";
                  If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 2; i 0 ])
                      <>: i 0, [ Return (i 40) ], []);
                  Return (i 0);
                ]);
          ]))

let test_blocked_sock_read_allocates_nothing () =
  (* A SIP blocked in read(sock, buf, 1 MiB) is re-dispatched on every
     scheduler step; the retry must not cost the LibOS a [len]-sized
     host buffer each time. *)
  let port = 9400 and len = 1 lsl 20 in
  let config =
    { Os.default_config with
      domains =
        { Os.default_config.domains with
          Occlum_libos.Domain_mgr.max_domains = 2;
          domain_data_size = 4 * len } }
  in
  let os = Os.boot ~config () in
  let l =
    match Occlum_libos.Net.listen os.Os.net ~port ~backlog:4 with
    | Ok l -> l
    | Error e -> Alcotest.failf "listen: errno %d" e
  in
  let prog =
    rt
      [
        func "main" []
          [
            Let ("s", Syscall (Sys.socket, []));
            If (Syscall (Sys.connect, [ v "s"; i port ]) <>: i 0,
                [ Return (i 1) ], []);
            Let ("buf", Call ("malloc", [ i len ]));
            If (v "buf" =: i 0, [ Return (i 2) ], []);
            Return (Syscall (Sys.recv, [ v "s"; v "buf"; i len ]));
          ];
      ]
  in
  let oelf =
    Occlum_toolchain.Compile.compile_exn
      ~config:{ Occlum_toolchain.Codegen.sfi with heap_size = 2 * len }
      prog
  in
  (match Occlum_verifier.Verify.verify_and_sign oelf with
  | Ok s -> Os.install_binary os "/bin/app" s
  | Error _ -> Alcotest.fail "verify");
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
  let blocked () =
    match Os.find_proc os pid with Some p -> p.Os.state = `Blocked | None -> false
  in
  let guard = ref 0 in
  while (not (blocked ())) && !guard < 10_000 do
    ignore (Os.step os);
    incr guard
  done;
  Alcotest.(check bool) "SIP blocked in recv" true (blocked ());
  (* the peer end is accepted here and never written: an idle socket *)
  ignore (Occlum_libos.Net.accept l);
  let steps = 1000 in
  let before = Gc.allocated_bytes () in
  for _ = 1 to steps do
    ignore (Os.step os)
  done;
  let per_step = (Gc.allocated_bytes () -. before) /. float steps in
  Alcotest.(check bool) "still blocked" true (blocked ());
  if per_step >= 4096. then
    Alcotest.failf "%.0f bytes allocated per step while blocked" per_step

let test_poll_unconnected_socket () =
  (* regression: an unconnected socket must report POLLOUT (connectable)
     so a poll-then-connect loop makes progress, and a peer-closed
     socket must report POLLHUP even when only POLLIN was requested *)
  let module P = Occlum_abi.Abi.Poll in
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("s", Syscall (Sys.socket, []));
                Let ("pe", Call ("malloc", [ i 24 ]));
                Store (v "pe", v "s");
                Store (v "pe" +: i 8, i (P.pollin lor P.pollout));
                Store (v "pe" +: i 16, i 0);
                If (Syscall (Sys.poll, [ v "pe"; i 1; i 0 ]) <>: i 1,
                    [ Return (i 1) ], []);
                If (Load (v "pe" +: i 16) <>: i P.pollout, [ Return (i 2) ], []);
                (* poll said connectable: connect must then succeed *)
                Let ("ls", Syscall (Sys.socket, []));
                Expr (Syscall (Sys.bind, [ v "ls"; i 9200 ]));
                Expr (Syscall (Sys.listen, [ v "ls"; i 4 ]));
                If (Syscall (Sys.connect, [ v "s"; i 9200 ]) <>: i 0,
                    [ Return (i 3) ], []);
                Let ("srv", Syscall (Sys.accept, [ v "ls" ]));
                If (v "srv" <: i 0, [ Return (i 4) ], []);
                (* peer closes: POLLHUP reported on a POLLIN-only poll *)
                Expr (Call ("close", [ v "srv" ]));
                Store (v "pe" +: i 8, i P.pollin);
                Store (v "pe" +: i 16, i 0);
                If (Syscall (Sys.poll, [ v "pe"; i 1; i 0 ]) <>: i 1,
                    [ Return (i 5) ], []);
                If (Load (v "pe" +: i 16) <>: i (P.pollin lor P.pollhup),
                    [ Return (i 6) ], []);
                Return (i 0);
              ];
          ]))

let test_listener_close_releases_port () =
  (* regression: the last close of a Listener fd must free the port (so
     re-listen succeeds) and EOF every queued, never-accepted client *)
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("ls", Syscall (Sys.socket, []));
                Expr (Syscall (Sys.bind, [ v "ls"; i 9300 ]));
                If (Syscall (Sys.listen, [ v "ls"; i 4 ]) <>: i 0,
                    [ Return (i 1) ], []);
                (* a client connects and is left queued, never accepted *)
                Let ("cl", Syscall (Sys.socket, []));
                If (Syscall (Sys.connect, [ v "cl"; i 9300 ]) <>: i 0,
                    [ Return (i 2) ], []);
                (* port is busy while the listener lives *)
                Let ("ls2", Syscall (Sys.socket, []));
                Expr (Syscall (Sys.bind, [ v "ls2"; i 9300 ]));
                If (Syscall (Sys.listen, [ v "ls2"; i 4 ]) <>: i Errno.eexist,
                    [ Return (i 3) ], []);
                (* close releases the port and closes the queued side *)
                Expr (Call ("close", [ v "ls" ]));
                Let ("ls3", Syscall (Sys.socket, []));
                Expr (Syscall (Sys.bind, [ v "ls3"; i 9300 ]));
                If (Syscall (Sys.listen, [ v "ls3"; i 4 ]) <>: i 0,
                    [ Return (i 4) ], []);
                (* the queued client observes EOF, not a hang *)
                Let ("buf", Call ("malloc", [ i 8 ]));
                If (Syscall (Sys.recv, [ v "cl"; v "buf"; i 8 ]) <>: i 0,
                    [ Return (i 5) ], []);
                Return (i 0);
              ];
          ]))

let test_batch_syscall () =
  (* Sys.batch: one gate crossing submits N calls; results land in each
     entry; scheduling-class calls are rejected per-entry *)
  let module B = Occlum_abi.Abi.Batch in
  ignore
    (check_run ~exit_code:0 ~output:"hi"
       (rt
          [
            func "main" []
              [
                Let ("bb", Call ("malloc", [ i (4 * B.entry_size) ]));
                (* entry 0: write(1, "hi", 2) *)
                Store (v "bb", i Sys.write);
                Store (v "bb" +: i 16, i 1);
                Store (v "bb" +: i 24, Str "hi");
                Store (v "bb" +: i 32, i 2);
                (* entry 1: getpid *)
                Store (v "bb" +: i B.entry_size, i Sys.getpid);
                (* entry 2: a blocked call is converted to EAGAIN *)
                Let ("fds", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Store (v "bb" +: i (2 * B.entry_size), i Sys.read);
                Store (v "bb" +: i (2 * B.entry_size) +: i 16, Load (v "fds"));
                Store (v "bb" +: i (2 * B.entry_size) +: i 24,
                       v "bb" +: i (3 * B.entry_size));
                Store (v "bb" +: i (2 * B.entry_size) +: i 32, i 8);
                (* entry 3: spawn is not batchable *)
                Store (v "bb" +: i (3 * B.entry_size), i Sys.spawn);
                If (Syscall (Sys.batch, [ v "bb"; i 4 ]) <>: i 4,
                    [ Return (i 1) ], []);
                If (Load (v "bb" +: i 8) <>: i 2, [ Return (i 2) ], []);
                If (Load (v "bb" +: i B.entry_size +: i 8) <>:
                    Syscall (Sys.getpid, []),
                    [ Return (i 3) ], []);
                If (Load (v "bb" +: i (2 * B.entry_size) +: i 8)
                    <>: i Errno.eagain,
                    [ Return (i 4) ], []);
                If (Load (v "bb" +: i (3 * B.entry_size) +: i 8)
                    <>: i Errno.einval,
                    [ Return (i 5) ], []);
                (* malformed batches are rejected whole *)
                If (Syscall (Sys.batch, [ v "bb"; i (-1) ]) <>: i Errno.efault,
                    [ Return (i 6) ], []);
                If (Syscall (Sys.batch, [ v "bb"; i (B.max_entries + 1) ])
                    <>: i Errno.efault,
                    [ Return (i 7) ], []);
                Return (i 0);
              ];
          ]))

let test_facade () =
  (* the Occlum_system facade: build -> boot -> install -> exec *)
  let prog =
    rt [ func "main" [] [ Expr (Call ("print_cstr", [ Str "facade\n" ])); Return (i 9) ] ]
  in
  (match Sysm.run_program prog with
  | Ok r ->
      Alcotest.(check int) "exit" 9 r.Sysm.exit_code;
      Alcotest.(check string) "stdout" "facade\n" r.Sysm.stdout
  | Error e -> Alcotest.fail (Sysm.error_to_string e));
  (* a bare program fails verification through the facade *)
  match Sysm.build ~config:Occlum_toolchain.Codegen.bare prog with
  | Error (Sysm.Rejected _) -> ()
  | _ -> Alcotest.fail "facade must reject bare binaries"

let test_bad_user_pointer () =
  (* syscalls validate user pointers: out-of-domain buffer -> EFAULT *)
  ignore
    (check_run ~exit_code:(-Errno.efault) ~output:""
       (rt
          [
            func "main" []
              [
                Return
                  (Unop (Neg, Syscall (Sys.write, [ i 1; i 16; i 8 ])));
              ];
          ]))

let test_epc_paging_differential () =
  (* The paper's graceful-degradation claim, end to end: SIPs whose
     aggregate working set exceeds a shrunken EPC must run to completion
     under demand paging, with exit codes and console output
     bit-identical to the same workload on an uncapped pool. *)
  let child n code =
    rt
      [
        func "main" []
          [
            Expr (Call ("print_cstr", [ Str (Printf.sprintf "child %d\n" n) ]));
            Return (i code);
          ];
      ]
  in
  let parent =
    rt
      [
        func "main" []
          [
            Let ("st", Global_addr "_rt_misc_buf");
            Let ("p1", Call ("spawn0", [ Str "/bin/c1"; i 7 ]));
            Let ("g1", Call ("waitpid", [ v "p1"; v "st" ]));
            If (v "g1" <>: v "p1", [ Return (i 1) ], []);
            Expr (Call ("print_int", [ Load (v "st") ]));
            Expr (Call ("puts", [ Str "\n"; i 1 ]));
            Let ("p2", Call ("spawn0", [ Str "/bin/c2"; i 7 ]));
            Let ("g2", Call ("waitpid", [ v "p2"; v "st" ]));
            If (v "g2" <>: v "p2", [ Return (i 2) ], []);
            Expr (Call ("print_int", [ Load (v "st") ]));
            Expr (Call ("puts", [ Str "\n"; i 1 ]));
            Return (i 0);
          ];
      ]
  in
  let run ?epc () =
    let os = Os.boot ?epc () in
    let build prog =
      let oelf =
        Occlum_toolchain.Compile.compile_exn
          ~config:Occlum_toolchain.Codegen.sfi prog
      in
      match Occlum_verifier.Verify.verify_and_sign oelf with
      | Ok s -> s
      | Error rs ->
          failwith (Occlum_verifier.Verify.rejection_to_string (List.hd rs))
    in
    Os.install_binary os "/bin/c1" (build (child 1 11));
    Os.install_binary os "/bin/c2" (build (child 2 22));
    Os.install_binary os "/bin/app" (build parent);
    let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
    let status = Os.run ~max_steps:4_000_000 os in
    let code =
      match Os.find_proc os pid with Some p -> p.exit_code | None -> 0
    in
    (os, status, code)
  in
  let base_os, base_status, base_code = run () in
  Alcotest.(check bool) "uncapped run finished" true
    (base_status = Os.All_exited);
  (* 8 frames: small enough that the three SIPs' own working sets are
     evicted and reloaded (a reused slot's scrub touches only its dirty
     pages, so it no longer pages the whole slot through the pool) *)
  let pool = Occlum_sgx.Epc.create ~size:(8 * 4096) () in
  Occlum_sgx.Epc.enable_paging pool;
  let paged_os, paged_status, paged_code = run ~epc:pool () in
  Alcotest.(check bool) "paged run finished" true
    (paged_status = Os.All_exited);
  Alcotest.(check int) "exit codes identical" base_code paged_code;
  Alcotest.(check string) "console bit-identical"
    (Os.console_output base_os)
    (Os.console_output paged_os);
  (match Occlum_sgx.Epc.paging_stats pool with
  | Some s -> Alcotest.(check bool) "paging actually happened" true (s.Occlum_sgx.Epc.ewb > 0)
  | None -> Alcotest.fail "paging stats missing");
  Occlum_sgx.Enclave.destroy paged_os.Os.enclave;
  Alcotest.(check int) "used_pages zero after destroy" 0
    (Occlum_sgx.Epc.used_pages pool);
  Alcotest.(check int) "backing drained after destroy" 0
    (Occlum_sgx.Epc.backing_used pool)

let test_paged_ring_round_trips () =
  (* Pipe and socket round trips whose guest buffers span more pages
     than a small EPC pool: the LibOS copies guest memory straight to
     and from the rings page at a time, so every page must be resident
     when its own bytes move (a residency check over the whole span
     would let later pages evict earlier ones mid-copy). Output and
     final state must equal the uncapped run's. *)
  let n = 60 * 1024 in
  let fill =
    [
      Let ("k", i 0);
      While (v "k" <: i n,
             [ Store (v "src" +: v "k", (v "k" *: i 2654435761) +: i 12345);
               Assign ("k", v "k" +: i 8) ]);
    ]
  in
  let same dst code =
    [
      Let ("k", i 0);
      While (v "k" <: i n,
             [ If (Load (v dst +: v "k") <>: Load (v "src" +: v "k"),
                   [ Return (i code) ], []);
               Assign ("k", v "k" +: i 8) ]);
    ]
  in
  (* [op fd (buf + got) (n - got)] until [n] bytes have moved *)
  let all op fd buf code =
    [
      Let ("got", i 0);
      While (v "got" <: i n,
             [ Let ("m", Syscall (op, [ v fd; v buf +: v "got"; i n -: v "got" ]));
               If (v "m" <=: i 0, [ Return (i code) ], []);
               Assign ("got", v "got" +: v "m") ]);
    ]
  in
  let prog =
    rt
      [
        func "main" []
          ([
             Let ("src", Call ("malloc", [ i n ]));
             Let ("dst", Call ("malloc", [ i n ]));
             Let ("dst2", Call ("malloc", [ i n ]));
             If (v "dst2" =: i 0, [ Return (i 1) ], []);
           ]
          @ fill
          @ [
              Let ("fds", Global_addr "_rt_misc_buf");
              Expr (Syscall (Sys.pipe, [ v "fds" ]));
              Let ("r", Load (v "fds"));
              Let ("w", Load (v "fds" +: i 8));
            ]
          @ all Sys.write "w" "src" 2
          @ all Sys.read "r" "dst" 3
          @ same "dst" 4
          @ [
              Let ("ls", Syscall (Sys.socket, []));
              Expr (Syscall (Sys.bind, [ v "ls"; i 9500 ]));
              If (Syscall (Sys.listen, [ v "ls"; i 4 ]) <>: i 0,
                  [ Return (i 5) ], []);
              Let ("cl", Syscall (Sys.socket, []));
              If (Syscall (Sys.connect, [ v "cl"; i 9500 ]) <>: i 0,
                  [ Return (i 6) ], []);
              Let ("srv", Syscall (Sys.accept, [ v "ls" ]));
            ]
          @ all Sys.send "cl" "src" 7
          @ all Sys.recv "srv" "dst2" 8
          @ same "dst2" 9
          @ [
              Let ("sum", i 0);
              Let ("k", i 0);
              While (v "k" <: i n,
                     [ Assign ("sum", (v "sum" *: i 31) ^: Load (v "dst2" +: v "k"));
                       Assign ("k", v "k" +: i 8) ]);
              Expr (Call ("print_int", [ v "sum" &: i 0xFFFFFF ]));
              Return (i 0);
            ]);
      ]
  in
  let run ?epc () =
    let os = Os.boot ?epc () in
    let oelf =
      Occlum_toolchain.Compile.compile_exn ~config:Occlum_toolchain.Codegen.sfi
        prog
    in
    (match Occlum_verifier.Verify.verify_and_sign oelf with
    | Ok s -> Os.install_binary os "/bin/app" s
    | Error _ -> Alcotest.fail "verify");
    let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
    let status = Os.run ~max_steps:4_000_000 os in
    let code =
      match Os.find_proc os pid with Some p -> p.Os.exit_code | None -> -1
    in
    Alcotest.(check bool) "run finished" true (status = Os.All_exited);
    Alcotest.(check int) "exit code" 0 code;
    os
  in
  let base = run () in
  let pages = 12 in
  Alcotest.(check bool) "buffers span more pages than the pool" true
    (n / Occlum_machine.Mem.page_size > pages);
  let pool = Occlum_sgx.Epc.create ~size:(pages * Occlum_machine.Mem.page_size) () in
  Occlum_sgx.Epc.enable_paging pool;
  let paged = run ~epc:pool () in
  Alcotest.(check string) "console identical" (Os.console_output base)
    (Os.console_output paged);
  Alcotest.(check string) "state digest identical" (Os.state_digest base)
    (Os.state_digest paged);
  match Occlum_sgx.Epc.paging_stats pool with
  | Some s ->
      Alcotest.(check bool) "paging happened" true (s.Occlum_sgx.Epc.ewb > 0)
  | None -> Alcotest.fail "paging stats missing"

let suite =
  [
    Alcotest.test_case "hello world" `Quick test_hello;
    Alcotest.test_case "EPC paging differential" `Quick
      test_epc_paging_differential;
    Alcotest.test_case "paged pipe/socket round trips" `Quick
      test_paged_ring_round_trips;
    Alcotest.test_case "spawn/wait/argv" `Quick test_spawn_wait_argv;
    Alcotest.test_case "spawn missing binary" `Quick test_spawn_missing_binary;
    Alcotest.test_case "wait with no children" `Quick test_wait_echild;
    Alcotest.test_case "pipe roundtrip" `Quick test_pipe_roundtrip;
    Alcotest.test_case "pipe EOF and EPIPE" `Quick test_pipe_eof_and_epipe;
    Alcotest.test_case "fs syscalls" `Quick test_fs_syscalls;
    Alcotest.test_case "append and trunc" `Quick test_append_and_trunc;
    Alcotest.test_case "devfs and procfs" `Quick test_devfs_procfs;
    Alcotest.test_case "mmap and brk" `Quick test_mmap_brk;
    Alcotest.test_case "signal handlers + sigreturn" `Quick test_signals;
    Alcotest.test_case "default signal kills" `Quick test_default_signal_kills;
    Alcotest.test_case "threads + futex" `Quick test_threads_futex;
    Alcotest.test_case "sockets" `Quick test_sockets;
    Alcotest.test_case "dup2" `Quick test_dup2_inheritance;
    Alcotest.test_case "nanosleep/gettime" `Quick test_sleep_gettime;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "domain slot exhaustion" `Quick test_slot_exhaustion;
    Alcotest.test_case "loader rejects unsigned" `Quick test_loader_rejects_unsigned;
    Alcotest.test_case "spawn E2BIG holds no slot" `Quick test_spawn_e2big;
    Alcotest.test_case "rewritten code byte rejected" `Quick
      test_spawn_rewritten_byte_rejected;
    Alcotest.test_case "rewritten program runs" `Quick
      test_spawn_rewritten_program_runs;
    Alcotest.test_case "admissions: Sip once, Eip per spawn" `Quick
      test_spawn_admissions_counted;
    Alcotest.test_case "jit_elide facts per admission" `Quick
      test_spawn_elide_facts;
    Alcotest.test_case "EIP (Graphene) mode" `Quick test_eip_mode_runs;
    Alcotest.test_case "Linux mode" `Quick test_linux_mode_runs;
    Alcotest.test_case "SGX2 (EDMM) mode" `Quick test_sgx2_mode;
    Alcotest.test_case "poll" `Quick test_poll;
    Alcotest.test_case "fcntl O_NONBLOCK -> EAGAIN" `Quick test_nonblock_eagain;
    Alcotest.test_case "epoll ctl/wait semantics" `Quick test_epoll;
    Alcotest.test_case "epoll registration does not outlive close" `Quick
      test_epoll_close_and_reuse;
    Alcotest.test_case "epoll maxevents cut in fd order" `Quick
      test_epoll_maxevents_order;
    Alcotest.test_case "blocked socket read allocates nothing" `Quick
      test_blocked_sock_read_allocates_nothing;
    Alcotest.test_case "poll unconnected/hup socket" `Quick
      test_poll_unconnected_socket;
    Alcotest.test_case "listener close releases port" `Quick
      test_listener_close_releases_port;
    Alcotest.test_case "batched syscalls" `Quick test_batch_syscall;
    Alcotest.test_case "system facade" `Quick test_facade;
    Alcotest.test_case "user pointer validation" `Quick test_bad_user_pointer;
  ]
