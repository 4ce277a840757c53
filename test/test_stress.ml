(* Stress / chaos integration tests: many SIPs exercising the scheduler,
   pipes, files, signals and spawn concurrently, with deterministic
   expected results. These shake out interleaving bugs the targeted unit
   tests cannot reach. *)

open Occlum_toolchain.Ast
module Sys = Occlum_abi.Abi.Sys
module F = Occlum_abi.Abi.Open_flags
module Os = Occlum_libos.Os

let rt = Occlum_toolchain.Runtime.program

let build prog =
  match
    Occlum_verifier.Verify.verify_and_sign
      (Occlum_toolchain.Compile.compile_exn ~config:Occlum_toolchain.Codegen.sfi prog)
  with
  | Ok s -> s
  | Error rs -> failwith (Occlum_verifier.Verify.rejection_to_string (List.hd rs))

(* A worker that appends its id to a shared file [rounds] times, yielding
   between writes to force interleaving, then exits with its id. *)
let appender =
  rt
    [
      func "main" []
        [
          Let ("id", Call ("atoi", [ Call ("argv", [ i 0 ]) ]));
          Let ("rounds", i 0);
          If (Call ("argc", []) >: i 1,
              [ Assign ("rounds", Call ("atoi", [ Call ("argv", [ i 1 ]) ])) ], []);
          Let ("fd",
               Call ("open", [ Str "/shared.log"; i 11;
                               i (F.creat lor F.append) ]));
          If (v "fd" <: i 0, [ Return (i 100) ], []);
          Let ("k", i 0);
          Let ("ch", Global_addr "_rt_misc_buf");
          Store1 (v "ch", i 48 +: v "id");
          While
            ( v "k" <: v "rounds",
              [
                Expr (Call ("write", [ v "fd"; v "ch"; i 1 ]));
                Expr (Call ("yield", []));
                Assign ("k", v "k" +: i 1);
              ] );
          Expr (Call ("close", [ v "fd" ]));
          Return (v "id");
        ];
    ]

let spawner =
  rt
    ~globals:[ ("pids", 128) ]
    [
      func "main" []
        [
          Let ("n", Call ("atoi", [ Call ("argv", [ i 0 ]) ]));
          Let ("rounds", Call ("atoi", [ Call ("argv", [ i 1 ]) ]));
          Let ("k", i 0);
          While
            ( v "k" <: v "n",
              [
                (* argv block: "<id>\0<rounds>\0" *)
                Let ("blk", Global_addr "_rt_spawn_buf");
                Let ("p1", Call ("itoa", [ v "k" ]));
                Let ("l1", (Global_addr "_rt_itoa_buf" +: i 31) -: v "p1");
                Expr (Call ("memcpy", [ v "blk"; v "p1"; v "l1" ]));
                Store1 (v "blk" +: v "l1", i 0);
                Let ("p2", Call ("itoa", [ v "rounds" ]));
                Let ("l2", (Global_addr "_rt_itoa_buf" +: i 31) -: v "p2");
                Expr (Call ("memcpy", [ v "blk" +: v "l1" +: i 1; v "p2"; v "l2" ]));
                Store1 (v "blk" +: v "l1" +: i 1 +: v "l2", i 0);
                Let ("pid",
                     Call ("spawn_argv",
                           [ Str "/bin/appender"; i 13; v "blk";
                             v "l1" +: v "l2" +: i 2 ]));
                If (v "pid" <: i 0, [ Return (i 99) ], []);
                Store (Global_addr "pids" +: (v "k" *: i 8), v "pid");
                Assign ("k", v "k" +: i 1);
              ] );
          (* reap them all; sum of exit codes = 0+1+...+n-1 *)
          Let ("sum", i 0);
          Assign ("k", i 0);
          While
            ( v "k" <: v "n",
              [
                Let ("st", Global_addr "_rt_misc_buf");
                Expr (Call ("waitpid",
                            [ Load (Global_addr "pids" +: (v "k" *: i 8)); v "st" ]));
                Assign ("sum", v "sum" +: Load (v "st"));
                Assign ("k", v "k" +: i 1);
              ] );
          Return (v "sum");
        ];
    ]

let test_concurrent_appenders () =
  let os = Os.boot () in
  Os.install_binary os "/bin/appender" (build appender);
  Os.install_binary os "/bin/app" (build spawner);
  let n = 6 and rounds = 20 in
  let pid =
    Os.spawn os ~parent_pid:0 ~path:"/bin/app"
      ~args:[ string_of_int n; string_of_int rounds ]
  in
  (match Os.run ~max_steps:5_000_000 os with
  | Os.All_exited -> ()
  | Os.Deadlock l ->
      Alcotest.fail ("deadlock " ^ String.concat "," (List.map string_of_int l))
  | Os.Quota_exhausted -> Alcotest.fail "quota");
  (match Os.find_proc os pid with
  | Some p -> Alcotest.(check int) "sum of ids" (n * (n - 1) / 2) p.exit_code
  | None -> Alcotest.fail "spawner vanished");
  (* every byte every worker wrote is in the shared file *)
  match Occlum_libos.Sefs.read_path os.Os.sefs "/shared.log" with
  | Ok log ->
      Alcotest.(check int) "total bytes" (n * rounds) (String.length log);
      for id = 0 to n - 1 do
        let c = Char.chr (Char.code '0' + id) in
        let count = ref 0 in
        String.iter (fun ch -> if ch = c then incr count) log;
        Alcotest.(check int) (Printf.sprintf "worker %d wrote all" id) rounds !count
      done;
      (* the writes really interleaved (appenders yield between writes) *)
      let changes = ref 0 in
      String.iteri
        (fun k c -> if k > 0 && log.[k - 1] <> c then incr changes)
        log;
      Alcotest.(check bool) "interleaved" true (!changes > n)
  | Error e -> Alcotest.fail (Printf.sprintf "no shared log: errno %d" e)

(* A three-generation process tree: each node spawns two children until
   depth 0, then everyone reports up through exit codes. *)
let tree_prog =
  rt
    [
      func "main" []
        [
          Let ("depth", Call ("atoi", [ Call ("argv", [ i 0 ]) ]));
          If (v "depth" =: i 0, [ Return (i 1) ], []);
          Let ("d1", Call ("itoa", [ v "depth" -: i 1 ]));
          Let ("l1", (Global_addr "_rt_itoa_buf" +: i 31) -: v "d1");
          Let ("a", Call ("spawn1", [ Str "/bin/app"; i 8; v "d1"; v "l1" ]));
          Let ("d2", Call ("itoa", [ v "depth" -: i 1 ]));
          Let ("l2", (Global_addr "_rt_itoa_buf" +: i 31) -: v "d2");
          Let ("b", Call ("spawn1", [ Str "/bin/app"; i 8; v "d2"; v "l2" ]));
          If (Binop (Or, v "a" <: i 0, v "b" <: i 0), [ Return (i 90) ], []);
          Let ("st", Global_addr "_rt_misc_buf");
          Expr (Call ("waitpid", [ v "a"; v "st" ]));
          Let ("sum", Load (v "st"));
          Expr (Call ("waitpid", [ v "b"; v "st" ]));
          Return (v "sum" +: Load (v "st") +: i 1);
        ];
    ]

let test_process_tree () =
  (* depth 3 needs 1+2+4+8 = 15 live processes at peak *)
  let config =
    { Os.default_config with
      domains = { Occlum_libos.Domain_mgr.default_config with max_domains = 16 } }
  in
  let os = Os.boot ~config () in
  Os.install_binary os "/bin/app" (build tree_prog);
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[ "3" ] in
  (match Os.run ~max_steps:5_000_000 os with
  | Os.All_exited -> ()
  | _ -> Alcotest.fail "tree did not finish");
  match Os.find_proc os pid with
  | Some p ->
      (* a full binary tree of depth 3: 2^4 - 1 = 15 nodes *)
      Alcotest.(check int) "node count" 15 p.exit_code
  | None -> Alcotest.fail "root vanished"

(* Slot churn: spawn and reap sequentially far more processes than there
   are domain slots; every slot gets reused and rescrubbed. *)
let test_slot_churn () =
  let config =
    { Os.default_config with
      domains = { Occlum_libos.Domain_mgr.default_config with max_domains = 3 } }
  in
  let os = Os.boot ~config () in
  Os.install_binary os "/bin/appender" (build appender);
  let churn =
    rt
      [
        func "main" []
          [
            Let ("k", i 0);
            Let ("ok", i 0);
            While
              ( v "k" <: i 25,
                [
                  Let ("pid", Call ("spawn1", [ Str "/bin/appender"; i 13; Str "5"; i 1 ]))
                  (* id=5, rounds default 0 -> argv(1) parses "" = 0 *);
                  If (v "pid" >: i 0,
                      [
                        Expr (Call ("waitpid", [ v "pid"; i 0 ]));
                        Assign ("ok", v "ok" +: i 1);
                      ],
                      []);
                  Assign ("k", v "k" +: i 1);
                ] );
            Return (v "ok");
          ];
      ]
  in
  Os.install_binary os "/bin/app" (build churn);
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
  (match Os.run ~max_steps:10_000_000 os with
  | Os.All_exited -> ()
  | _ -> Alcotest.fail "churn did not finish");
  match Os.find_proc os pid with
  | Some p -> Alcotest.(check int) "all 25 spawns succeeded" 25 p.exit_code
  | None -> Alcotest.fail "churn driver vanished"

(* The same churn under SGX2: EPC usage must return to baseline. *)
let test_slot_churn_sgx2 () =
  let config =
    { Os.default_config with
      sgx2 = true;
      domains = { Occlum_libos.Domain_mgr.default_config with max_domains = 3 } }
  in
  let os = Os.boot ~config () in
  Os.install_binary os "/bin/appender" (build appender);
  let baseline = Occlum_sgx.Epc.used_pages os.Os.epc in
  for _ = 1 to 10 do
    let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/appender" ~args:[ "1"; "2" ] in
    Test_libos.wait_exit ~max_steps:500_000 os pid
  done;
  Alcotest.(check int) "EPC back to baseline" baseline
    (Occlum_sgx.Epc.used_pages os.Os.epc)

let suite =
  [
    Alcotest.test_case "concurrent appenders interleave" `Slow
      test_concurrent_appenders;
    Alcotest.test_case "process tree (15 nodes)" `Slow test_process_tree;
    Alcotest.test_case "domain slot churn" `Slow test_slot_churn;
    Alcotest.test_case "slot churn under SGX2" `Slow test_slot_churn_sgx2;
  ]
