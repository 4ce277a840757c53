(* Shared benchmark harness: boots a LibOS in one of the three execution
   models of the evaluation and runs the application workloads on it.

     Occlum   — SIP mode: SFI-instrumented, verified binaries; one enclave
     Graphene — EIP mode: same binaries, one enclave per process
     Linux    — native mode: uninstrumented binaries, plaintext FS

   Results carry both wall-clock time of the real simulation work and
   the simulated virtual clock; the paper's figures are about ratios, so
   either axis reproduces the shapes. *)

module Os = Occlum_libos.Os

type system = Occlum | Graphene | Linux

let system_name = function
  | Occlum -> "Occlum"
  | Graphene -> "Graphene-SGX"
  | Linux -> "Linux"

let mode_of = function Occlum -> Os.Sip | Graphene -> Os.Eip | Linux -> Os.Linux

let codegen_config = function
  | Occlum | Graphene -> Occlum_toolchain.Codegen.sfi
  | Linux -> Occlum_toolchain.Codegen.bare

(* Compile (and for SGX systems verify + sign) a program for [system]. *)
let build_for system prog =
  let oelf =
    Occlum_toolchain.Compile.compile_exn ~config:(codegen_config system) prog
  in
  match system with
  | Linux -> oelf
  | Occlum | Graphene -> (
      match Occlum_verifier.Verify.verify_and_sign oelf with
      | Ok signed -> signed
      | Error rs ->
          invalid_arg
            ("harness: verification failed: "
            ^ Occlum_verifier.Verify.rejection_to_string (List.hd rs)))

let boot ?(domains = Occlum_libos.Domain_mgr.default_config) ?(cores = 1) ?obs
    system =
  let config =
    { Os.default_config with mode = mode_of system; domains; cores }
  in
  Os.boot ~config ?obs ()

let install os system binaries =
  List.iter (fun (path, prog) -> Os.install_binary os path (build_for system prog))
    binaries

type run_result = {
  wall_s : float;
  vclock_ns : int64;
  status : Os.run_status;
  console : string;
  spawns : int;
  syscalls : int;
  faults : int;
}

(* Spawn [path] and run the system to completion, timing it. *)
let timed_run ?(args = []) ?(max_steps = 20_000_000) os path =
  let t0 = Unix.gettimeofday () in
  let v0 = Os.clock os in
  ignore (Os.spawn os ~parent_pid:0 ~path ~args);
  let status = Os.run ~max_steps os in
  {
    wall_s = Unix.gettimeofday () -. t0;
    vclock_ns = Int64.sub (Os.clock os) v0;
    status;
    console = Os.console_output os;
    spawns = os.Os.spawns;
    syscalls = os.Os.syscalls;
    faults = List.length os.Os.faults;
  }

(* --- Fig 5a: fish ------------------------------------------------------- *)

let run_fish ?(repeats = 3) ?(lines = 100) system =
  let os = boot system in
  install os system Fish.binaries;
  timed_run os "/bin/fish" ~args:[ string_of_int repeats; string_of_int lines ]

(* --- Fig 5b: gcc -------------------------------------------------------- *)

let run_gcc ?(lines = 5) system =
  let os = boot system in
  install os system Gcc_pipeline.binaries;
  Occlum_libos.Sefs.ensure_parents os.Os.sefs "/src/x";
  Occlum_libos.Sefs.ensure_parents os.Os.sefs "/tmp/x";
  (match
     Occlum_libos.Sefs.write_path os.Os.sefs "/src/input.c"
       (Gcc_pipeline.source_file ~lines)
   with
  | Ok _ -> ()
  | Error e -> invalid_arg ("run_gcc: " ^ string_of_int e));
  timed_run ~max_steps:200_000_000 os "/bin/cc" ~args:[ "/src/input.c" ]

(* --- Fig 5c: lighttpd ---------------------------------------------------- *)

type httpd_result = {
  served : int;
  h_wall_s : float;
  h_vclock_ns : int64;
  throughput_wall : float; (* requests per wall second *)
  throughput_vclock : float; (* requests per virtual second *)
}

(* [concurrency] simultaneous client connections, [requests] total, all
   injected from outside the enclave like the paper's ApacheBench box. *)
let run_httpd ?(workers = 2) ?(concurrency = 8) ?(requests = 64) system =
  let os = boot system in
  install os system Httpd.binaries;
  let per_worker = (requests + workers - 1) / workers in
  ignore
    (Os.spawn_initial os
       (build_for system Httpd.master_prog)
       ~args:[ string_of_int workers; string_of_int per_worker ]);
  let guard = ref 0 in
  while
    (not (Occlum_libos.Net.has_listener os.Os.net ~port:Httpd.port))
    && !guard < 200_000
  do
    incr guard;
    ignore (Os.step os)
  done;
  let t0 = Unix.gettimeofday () in
  let v0 = Os.clock os in
  let served = ref 0 in
  let outstanding = ref [] in
  let launched = ref 0 in
  let expected = 10 * 1024 in
  let pump () =
    (* top up to [concurrency] live connections *)
    while List.length !outstanding < concurrency && !launched < requests do
      match Occlum_libos.Net.external_connect os.Os.net ~port:Httpd.port with
      | Error _ -> launched := requests (* listener gone *)
      | Ok ep ->
          ignore (Occlum_libos.Net.external_send os.Os.net ep Httpd.request);
          incr launched;
          outstanding := (ep, Buffer.create 256) :: !outstanding
    done
  in
  pump ();
  let stuck = ref 0 in
  while !outstanding <> [] && !stuck < 2_000_000 do
    incr stuck;
    ignore (Os.step os);
    outstanding :=
      List.filter
        (fun (ep, buf) ->
          Buffer.add_string buf (Occlum_libos.Net.external_recv_all os.Os.net ep);
          if Buffer.length buf >= expected then begin
            incr served;
            Occlum_libos.Net.close_endpoint ep;
            false
          end
          else true)
        !outstanding;
    pump ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let vns = Int64.sub (Os.clock os) v0 in
  {
    served = !served;
    h_wall_s = wall;
    h_vclock_ns = vns;
    throughput_wall = float !served /. max wall 1e-9;
    throughput_vclock = float !served /. (Int64.to_float vns /. 1e9);
  }

(* --- the C10K serving tier ----------------------------------------------- *)

type serving_result = {
  s_connections : int;  (* concurrent keep-alive clients driven *)
  s_completed : int;    (* responses fully received by clients *)
  s_peak_open : int;
  s_vclock_ns : int64;
  s_wall_s : float;
  s_rps_vclock : float; (* responses per virtual second *)
  s_p50_ns : int;
  s_p99_ns : int;
  s_gate_crossings : int;
  s_syscalls : int;
}

let response_bytes = String.length Httpd.response_header + Httpd.page_size

(* Thousands of concurrent keep-alive connections against the
   event-loop server. Each client sends [rounds] requests back-to-back
   (the next one as soon as a full response arrived) and the harness
   records per-request virtual-clock latency. [batch] selects the
   server's Sys.batch mode. [servers] event-loop SIPs listen on ports
   [Httpd.port + 0 .. servers-1] with clients sharded round-robin —
   pair it with [cores] to load a multi-core enclave. *)
let run_serving ?(connections = 5000) ?(rounds = 2) ?(batch = false)
    ?(servers = 1) ?(cores = 1) ?obs system =
  let domains =
    { Occlum_libos.Domain_mgr.default_config with max_domains = servers + 1 }
  in
  let os = boot ~domains ~cores ?obs system in
  (* fit thousands of per-connection rings in memory; one response
     (10280 B) still fits in a 16 KiB ring *)
  os.Os.net.Occlum_libos.Net.sock_ring_bytes <- 16384;
  install os system [ ("/bin/httpd_ev", Httpd.ev_prog) ];
  let quota = connections * rounds in
  (* server j's quota = requests of the clients sharded onto it *)
  let clients_of j =
    (connections / servers) + (if connections mod servers > j then 1 else 0)
  in
  for j = 0 to servers - 1 do
    ignore
      (Os.spawn os ~parent_pid:0 ~path:"/bin/httpd_ev"
         ~args:
           [ string_of_int (clients_of j * rounds);
             (if batch then "1" else "0"); string_of_int j ])
  done;
  let guard = ref 0 in
  let all_listening () =
    let ok = ref true in
    for j = 0 to servers - 1 do
      if not (Occlum_libos.Net.has_listener os.Os.net ~port:(Httpd.port + j))
      then ok := false
    done;
    !ok
  in
  while (not (all_listening ())) && !guard < 400_000 do
    incr guard;
    ignore (Os.step os)
  done;
  let t0 = Unix.gettimeofday () in
  let v0 = Os.clock os in
  let g0 = os.Os.gate_crossings in
  let sys0 = os.Os.syscalls in
  let net = os.Os.net in
  let conns = Array.make connections None in
  let got = Array.make connections 0 in
  let reqs_done = Array.make connections 0 in
  let sent_at = Array.make connections 0L in
  let latencies = Array.make quota 0L in
  let completed = ref 0 in
  let next_conn = ref 0 in
  let open_now = ref 0 in
  let peak_open = ref 0 in
  let scratch = Bytes.create 16384 in
  let send_request k =
    (match conns.(k) with
    | Some ep -> ignore (Occlum_libos.Net.external_send net ep Httpd.request)
    | None -> ());
    sent_at.(k) <- Os.clock os
  in
  let try_connect () =
    (* fill the accept backlog; EAGAIN means it is full, try later *)
    let stop = ref false in
    while (not !stop) && !next_conn < connections do
      match
        Occlum_libos.Net.external_connect net
          ~port:(Httpd.port + (!next_conn mod servers))
      with
      | Error _ -> stop := true
      | Ok ep ->
          let k = !next_conn in
          conns.(k) <- Some ep;
          incr next_conn;
          incr open_now;
          if !open_now > !peak_open then peak_open := !open_now;
          send_request k
    done
  in
  let drain () =
    for k = 0 to !next_conn - 1 do
      match conns.(k) with
      | None -> ()
      | Some ep ->
          if Occlum_libos.Net.external_pending ep > 0 then begin
            let n = ref (Occlum_libos.Net.external_recv_into net ep scratch) in
            while !n > 0 do
              got.(k) <- got.(k) + !n;
              n := Occlum_libos.Net.external_recv_into net ep scratch
            done;
            while got.(k) >= response_bytes do
              got.(k) <- got.(k) - response_bytes;
              if !completed < quota then begin
                latencies.(!completed) <-
                  Int64.sub (Os.clock os) sent_at.(k);
                incr completed
              end;
              reqs_done.(k) <- reqs_done.(k) + 1;
              if reqs_done.(k) < rounds then send_request k
            done
          end
    done
  in
  try_connect ();
  let stuck = ref 0 in
  while !completed < quota && !stuck < 4_000_000 do
    incr stuck;
    ignore (Os.step os);
    (* drain periodically: pending checks are O(1) but 5000 of them per
       interpreter quantum would dominate the harness *)
    if !stuck land 15 = 0 || !completed >= quota - connections then drain ();
    if !next_conn < connections && !stuck land 63 = 0 then try_connect ()
  done;
  drain ();
  ignore (Os.run ~max_steps:2_000_000 os);
  let wall = Unix.gettimeofday () -. t0 in
  let vns = Int64.sub (Os.clock os) v0 in
  let n = !completed in
  let p50, p99 =
    if n = 0 then (0, 0)
    else begin
      let sorted = Array.sub latencies 0 n in
      Array.sort Int64.compare sorted;
      ( Int64.to_int sorted.(50 * (n - 1) / 100),
        Int64.to_int sorted.(99 * (n - 1) / 100) )
    end
  in
  let o = os.Os.obs in
  if o.Occlum_obs.Obs.enabled then begin
    let h =
      Occlum_obs.Metrics.histogram o.Occlum_obs.Obs.metrics
        "serving.request.latency_ns"
        ~bounds:Occlum_obs.Metrics.latency_buckets_ns
    in
    for k = 0 to n - 1 do
      Occlum_obs.Metrics.observe h (Int64.to_int latencies.(k))
    done
  end;
  {
    s_connections = connections;
    s_completed = n;
    s_peak_open = !peak_open;
    s_vclock_ns = vns;
    s_wall_s = wall;
    s_rps_vclock = float n /. (Int64.to_float vns /. 1e9);
    s_p50_ns = p50;
    s_p99_ns = p99;
    s_gate_crossings = os.Os.gate_crossings - g0;
    s_syscalls = os.Os.syscalls - sys0;
  }

(* --- Fig 6a: process creation ------------------------------------------- *)

(* A program whose binary is padded to roughly [code_kb] KiB of code. *)
let sized_program ~code_kb =
  let filler k =
    Occlum_toolchain.Ast.func (Printf.sprintf "filler%d" k) [ "x" ]
      [
        Occlum_toolchain.Ast.Return
          Occlum_toolchain.Ast.(v "x" *: i 3 +: i (k * 7));
      ]
  in
  (* an instrumented filler assembles to ~220 bytes *)
  let n = max 1 (code_kb * 1024 / 220) in
  Occlum_toolchain.Runtime.program
    (Occlum_toolchain.Ast.func "main" [] [ Occlum_toolchain.Ast.Return (Occlum_toolchain.Ast.i 0) ]
     :: List.init n filler)

(* Run until [pid] has exited. A spawn measurement over a child that
   never exits would time only part of its run, so any other outcome
   raises. *)
let wait_exit os pid =
  let max_steps = 200_000 in
  match Os.wait_pid_exit ~max_steps os pid with
  | Os.All_exited -> ()
  | Os.Deadlock pids ->
      failwith
        (Printf.sprintf "pid %d did not exit: deadlock among pids [%s]" pid
           (String.concat "; " (List.map string_of_int pids)))
  | Os.Quota_exhausted ->
      failwith
        (Printf.sprintf "pid %d did not exit within %d steps" pid max_steps)

(* Median wall seconds to spawn + run-to-exit one instance of [path]. *)
let spawn_latency ?(tries = 5) os path =
  let samples =
    List.init tries (fun _ ->
        let t0 = Unix.gettimeofday () in
        let pid = Os.spawn os ~parent_pid:0 ~path ~args:[] in
        wait_exit os pid;
        Unix.gettimeofday () -. t0)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (tries / 2)

(* --- Fig 6b: pipe throughput --------------------------------------------- *)

let pipe_writer_prog =
  let open Occlum_toolchain.Ast in
  Occlum_toolchain.Runtime.program
    ~globals:[ ("buf", 8192) ]
    [
      func "main" []
        [
          Expr (Call ("close", [ i 3 ])); (* writer drops the read end *)
          Let ("bufsz", Call ("atoi", [ Call ("argv", [ i 0 ]) ]));
          Let ("total", Call ("atoi", [ Call ("argv", [ i 1 ]) ]));
          Let ("sent", i 0);
          While
            ( v "sent" <: v "total",
              [
                Let ("w", Call ("write", [ i 4; Global_addr "buf"; v "bufsz" ]));
                If (v "w" <=: i 0, [ Return (i 1) ], []);
                Assign ("sent", v "sent" +: v "w");
              ] );
          Expr (Call ("close", [ i 4 ]));
          Return (i 0);
        ];
    ]

let pipe_reader_prog =
  let open Occlum_toolchain.Ast in
  Occlum_toolchain.Runtime.program
    ~globals:[ ("buf", 8192) ]
    [
      func "main" []
        [
          Expr (Call ("close", [ i 4 ])); (* reader drops the write end *)
          Let ("bufsz", Call ("atoi", [ Call ("argv", [ i 0 ]) ]));
          Let ("got", i 0);
          Let ("go", i 1);
          While
            ( v "go",
              [
                Let ("n", Call ("read", [ i 3; Global_addr "buf"; v "bufsz" ]));
                If (v "n" <=: i 0, [ Assign ("go", i 0) ],
                    [ Assign ("got", v "got" +: v "n") ]);
              ] );
          Expr (Call ("print_int", [ v "got" ]));
          Return (i 0);
        ];
    ]

let pipe_parent_prog =
  let open Occlum_toolchain.Ast in
  let module S = Occlum_abi.Abi.Sys in
  Occlum_toolchain.Runtime.program
    ~globals:[ ("fds", 16); ("blk", 64) ]
    [
      func "main" []
        [
          (* argv0 = bufsz, argv1 = total bytes *)
          Expr (Syscall (S.pipe, [ Global_addr "fds" ]));
          (* pipe lands at fds 3 (read) and 4 (write) *)
          Let ("wpid",
               Call ("spawn_argv",
                     [ Str "/bin/pipe_writer"; i 16;
                       Call ("argv", [ i 0 ]);
                       Call ("strlen", [ Call ("argv", [ i 0 ]) ])
                       +: i 1
                       +: Call ("strlen", [ Call ("argv", [ i 1 ]) ]) ]));
          Let ("rpid",
               Call ("spawn1",
                     [ Str "/bin/pipe_reader"; i 16;
                       Call ("argv", [ i 0 ]);
                       Call ("strlen", [ Call ("argv", [ i 0 ]) ]) ]));
          (* parent must release its pipe ends so EOF propagates *)
          Expr (Call ("close", [ i 3 ]));
          Expr (Call ("close", [ i 4 ]));
          Expr (Call ("waitpid", [ v "wpid"; i 0 ]));
          Expr (Call ("waitpid", [ v "rpid"; i 0 ]));
          Return (i 0);
        ];
    ]

let pipe_binaries =
  [ ("/bin/pipe_writer", pipe_writer_prog); ("/bin/pipe_reader", pipe_reader_prog);
    ("/bin/pipe_bench", pipe_parent_prog) ]

(* Throughput in MB/s (wall and virtual) for one buffer size. *)
let run_pipe ?(total = 1 lsl 20) ~bufsz system =
  let os = boot system in
  install os system pipe_binaries;
  let r =
    timed_run ~max_steps:50_000_000 os "/bin/pipe_bench"
      ~args:[ string_of_int bufsz; string_of_int total ]
  in
  let mb = float total /. 1048576.0 in
  ( mb /. max r.wall_s 1e-9,
    mb /. (Int64.to_float r.vclock_ns /. 1e9),
    r )

(* --- Fig 6c/6d: file I/O -------------------------------------------------- *)

let file_io_prog =
  let open Occlum_toolchain.Ast in
  let module F = Occlum_abi.Abi.Open_flags in
  Occlum_toolchain.Runtime.program
    ~globals:[ ("buf", 16384) ]
    [
      (* argv0 = "r"|"w", argv1 = bufsz, argv2 = total *)
      func "main" []
        [
          Let ("mode", Load1 (Call ("argv", [ i 0 ])));
          Let ("bufsz", Call ("atoi", [ Call ("argv", [ i 1 ]) ]));
          Let ("total", Call ("atoi", [ Call ("argv", [ i 2 ]) ]));
          Let ("done_", i 0);
          If
            ( v "mode" =: i 119 (* 'w' *),
              [
                Let ("fd",
                     Call ("open",
                           [ Str "/data/bench.dat"; i 15;
                             i (F.creat lor F.wronly lor F.trunc) ]));
                While
                  ( v "done_" <: v "total",
                    [
                      Let ("w", Call ("write", [ v "fd"; Global_addr "buf"; v "bufsz" ]));
                      If (v "w" <=: i 0, [ Return (i 1) ], []);
                      Assign ("done_", v "done_" +: v "w");
                    ] );
                Expr (Call ("close", [ v "fd" ]));
              ],
              [
                Let ("fd2", Call ("open", [ Str "/data/bench.dat"; i 15; i 0 ]));
                Let ("go", i 1);
                While
                  ( v "go",
                    [
                      Let ("n", Call ("read", [ v "fd2"; Global_addr "buf"; v "bufsz" ]));
                      If (v "n" <=: i 0, [ Assign ("go", i 0) ],
                          [ Assign ("done_", v "done_" +: v "n") ]);
                    ] );
                Expr (Call ("close", [ v "fd2" ]));
              ] );
          Return (i 0);
        ];
    ]

(* Sequential file read/write throughput. Reads happen against a cold
   cache (fresh boot, the data written by a previous instance and
   flushed), so the decryption cost is actually paid. *)
let run_file_io ?(total = 1 lsl 20) ~bufsz ~write system =
  let os = boot system in
  install os system [ ("/bin/fileio", file_io_prog) ];
  Occlum_libos.Sefs.ensure_parents os.Os.sefs "/data/x";
  if not write then begin
    (* pre-create the file, then evict the cache to force decryption *)
    let seed = String.concat "" (List.init (total / 16) (fun k -> Printf.sprintf "%016d" k)) in
    (match Occlum_libos.Sefs.write_path os.Os.sefs "/data/bench.dat" seed with
    | Ok _ -> ()
    | Error e -> invalid_arg ("run_file_io: " ^ string_of_int e));
    Occlum_libos.Sefs.flush os.Os.sefs;
    Hashtbl.reset os.Os.sefs.Occlum_libos.Sefs.cache
  end;
  let r =
    timed_run ~max_steps:100_000_000 os "/bin/fileio"
      ~args:[ (if write then "w" else "r"); string_of_int bufsz; string_of_int total ]
  in
  let mb = float total /. 1048576.0 in
  (* virtual-clock throughput: the wall clock would be dominated by the
     pure-OCaml cipher, whereas the paper's testbed had AES-NI *)
  (mb /. (Int64.to_float r.vclock_ns /. 1e9), r)

(* --- multi-core scaling --------------------------------------------------- *)

(* A pure CPU-bound SIP: spins [argv0] iterations of integer arithmetic
   and prints the accumulator. No syscalls inside the loop, no clock
   reads — the ideal workload for measuring how aggregate throughput
   scales with simulated vCPUs. *)
let compute_prog =
  let open Occlum_toolchain.Ast in
  Occlum_toolchain.Runtime.program
    [
      func ~reg_vars:[ "acc"; "k" ] "main" []
        [
          Let ("iters", Call ("atoi", [ Call ("argv", [ i 0 ]) ]));
          Let ("acc", i 0);
          Let ("k", i 0);
          While
            ( v "k" <: v "iters",
              [
                Assign ("acc", ((v "acc" *: i 31) +: v "k") %: i 1000003);
                Assign ("k", v "k" +: i 1);
              ] );
          Expr (Call ("print_int", [ v "acc" ]));
          Return (i 0);
        ];
    ]

type scaling_result = {
  sc_cores : int;
  sc_sips : int;
  sc_vclock_ns : int64;
  sc_wall_s : float;
  sc_insns : int;  (* aggregate instructions retired across all SIPs *)
  sc_status : Os.run_status;
  sc_digest : string;  (* Os.state_digest — for determinism differentials *)
}

(* Run [sips] independent CPU-bound SIPs to completion on [cores]
   simulated vCPUs. The aggregate-throughput ratio between core counts
   is the multi-core speedup (virtual time; an epoch costs its longest
   quantum, so N busy cores retire ~N quanta per epoch). *)
let run_compute_scaling ?(sips = 8) ?(iters = 40_000) ~cores system =
  let domains =
    { Occlum_libos.Domain_mgr.default_config with max_domains = sips + 1 }
  in
  let os = boot ~domains ~cores system in
  install os system [ ("/bin/compute", compute_prog) ];
  let t0 = Unix.gettimeofday () in
  let v0 = Os.clock os in
  for _ = 1 to sips do
    ignore
      (Os.spawn os ~parent_pid:0 ~path:"/bin/compute"
         ~args:[ string_of_int iters ])
  done;
  let status = Os.run ~max_steps:40_000_000 os in
  let insns =
    Hashtbl.fold
      (fun _ p a -> a + p.Os.cpu.Occlum_machine.Cpu.insns)
      os.Os.procs 0
  in
  {
    sc_cores = cores;
    sc_sips = sips;
    sc_vclock_ns = Int64.sub (Os.clock os) v0;
    sc_wall_s = Unix.gettimeofday () -. t0;
    sc_insns = insns;
    sc_status = status;
    sc_digest = Os.state_digest os;
  }
