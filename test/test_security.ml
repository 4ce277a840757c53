(* Security tests (§7, §9.3): the RIPE corpus outcome matrix must match
   the paper — MMDSFI stops every code-injection and ROP attack, while
   return-to-libc "succeeds" without breaking SIP isolation; the
   unprotected baseline falls to everything. Plus isolation probes:
   a SIP attempting to touch another SIP's memory or the LibOS. *)

open Occlum_workloads.Ripe
module Os = Occlum_libos.Os
open Occlum_toolchain.Ast

let expected_occlum (a : attack) =
  match a.target with
  | Shellcode_labeled | Shellcode_unlabeled | Rop_gadget -> `Prevented
  | Return_to_libc -> `Succeeded

let test_ripe_on_occlum () =
  List.iter
    (fun a ->
      let got = run_on_occlum a in
      match (expected_occlum a, got) with
      | `Prevented, Prevented _ -> ()
      | `Succeeded, Attack_succeeded -> ()
      | _, got ->
          Alcotest.fail
            (Printf.sprintf "%s: occlum gave %s" a.name (outcome_to_string got)))
    corpus

let test_ripe_on_baseline () =
  List.iter
    (fun a ->
      match run_on_baseline a with
      | Attack_succeeded -> ()
      | Prevented r ->
          Alcotest.fail (Printf.sprintf "%s: baseline prevented (%s)?" a.name r))
    corpus

(* The injected-code page is in D: even with a forged label, execution
   must die on the NX data page, not run the shellcode. *)
let test_code_injection_faults_on_nx () =
  let a =
    List.find (fun a -> a.target = Shellcode_labeled && a.technique = Funcptr) corpus
  in
  match run_on_occlum a with
  | Prevented reason ->
      Alcotest.(check bool) "exec page fault" true
        (Occlum_util.Bytes_util.contains ~needle:"exec" (Bytes.of_string reason))
  | Attack_succeeded -> Alcotest.fail "shellcode ran"

(* A store aimed below/above the SIP's own data region must raise #BR on
   the mem_guard: inter-process isolation at the instruction level. The
   victim address is another domain's D region. *)
let test_cross_domain_store_blocked () =
  let prog target_addr =
    Occlum_toolchain.Runtime.program
      [
        func "main" []
          [
            Store (i target_addr, i 0xEEEE);
            Return (i 0);
          ];
      ]
  in
  let os = Os.boot () in
  (* two SIPs: pid1 idles, pid2 tries to write into pid1's domain *)
  let idle =
    Occlum_toolchain.Runtime.program
      [ func "main" [] [ While (i 1, [ Expr (Call ("yield", [])) ]); Return (i 0) ] ]
  in
  let build p =
    match
      Occlum_verifier.Verify.verify_and_sign
        (Occlum_toolchain.Compile.compile_exn ~config:Occlum_toolchain.Codegen.sfi p)
    with
    | Ok s -> s
    | Error _ -> failwith "verify"
  in
  Os.install_binary os "/bin/idle" (build idle);
  let pid1 = Os.spawn os ~parent_pid:0 ~path:"/bin/idle" ~args:[] in
  let victim_d =
    match Os.find_proc os pid1 with
    | Some p -> Occlum_libos.Domain_mgr.d_base p.img.slot
    | None -> failwith "no victim"
  in
  Os.install_binary os "/bin/attacker" (build (prog (victim_d + 64)));
  let pid2 = Os.spawn os ~parent_pid:0 ~path:"/bin/attacker" ~args:[] in
  Test_libos.wait_exit ~max_steps:200_000 os pid2;
  (* the attacker died on a bound fault; the victim's memory is intact *)
  (match Os.find_proc os pid2 with
  | Some p ->
      Alcotest.(check bool) "attacker killed" true (p.exit_code > 128)
  | None -> Alcotest.fail "attacker vanished");
  (match os.Os.faults with
  | (_, Occlum_machine.Fault.Bound_fault _) :: _ -> ()
  | _ -> Alcotest.fail "expected a #BR bound fault");
  Alcotest.(check int64) "victim memory untouched" 0L
    (Occlum_machine.Mem.read_u64_priv os.Os.mem (victim_d + 64))

(* Loads are confined too: reading another domain is a #BR. *)
let test_cross_domain_load_blocked () =
  let reader target =
    Occlum_toolchain.Runtime.program
      [ func "main" [] [ Return (Load (i target)) ] ]
  in
  let os = Os.boot () in
  let build p =
    match
      Occlum_verifier.Verify.verify_and_sign
        (Occlum_toolchain.Compile.compile_exn ~config:Occlum_toolchain.Codegen.sfi p)
    with
    | Ok s -> s
    | Error _ -> failwith "verify"
  in
  (* target: the first domain slot's D base, while running in slot 2 *)
  Os.install_binary os "/bin/idle"
    (build (Occlum_toolchain.Runtime.program
              [ func "main" [] [ While (i 1, [ Expr (Call ("yield", [])) ]);
                                 Return (i 0) ] ]));
  let pid1 = Os.spawn os ~parent_pid:0 ~path:"/bin/idle" ~args:[] in
  let victim_d =
    match Os.find_proc os pid1 with
    | Some p -> Occlum_libos.Domain_mgr.d_base p.img.slot
    | None -> failwith "no victim"
  in
  Os.install_binary os "/bin/reader" (build (reader victim_d));
  let pid2 = Os.spawn os ~parent_pid:0 ~path:"/bin/reader" ~args:[] in
  Test_libos.wait_exit ~max_steps:200_000 os pid2;
  match Os.find_proc os pid2 with
  | Some p -> Alcotest.(check bool) "reader killed" true (p.exit_code > 128)
  | None -> Alcotest.fail "reader vanished"

(* The same cross-domain store on the unprotected baseline would go
   through — the point of the comparison. Here both regions belong to the
   single bare process, so we emulate by checking the bare build performs
   raw stores without any bound check. *)
let test_bare_has_no_checks () =
  let prog =
    Occlum_toolchain.Runtime.program
      ~globals:[ ("buf", 64) ]
      [ func "main" [] [ Store (Global_addr "buf", i 1); Return (i 0) ] ]
  in
  let r =
    Occlum_baseline.Native_run.run
      (Occlum_toolchain.Compile.compile_exn ~config:Occlum_toolchain.Codegen.bare prog)
  in
  Alcotest.(check int) "no dynamic checks" 0 r.bound_checks

(* The verifier-level gate: the RIPE attack binaries themselves are
   legitimate programs and must pass verification (the threat model is a
   compromised-but-verified SIP). *)
let test_ripe_binaries_verify () =
  List.iter
    (fun a ->
      let oelf =
        Occlum_toolchain.Compile.compile_exn ~config:Occlum_toolchain.Codegen.sfi
          (attack_program a)
      in
      match Occlum_verifier.Verify.verify oelf with
      | Ok _ -> ()
      | Error rs ->
          Alcotest.fail
            (a.name ^ ": " ^ Occlum_verifier.Verify.rejection_to_string (List.hd rs)))
    corpus

let suite =
  [
    Alcotest.test_case "RIPE matrix on Occlum" `Slow test_ripe_on_occlum;
    Alcotest.test_case "RIPE matrix on baseline" `Slow test_ripe_on_baseline;
    Alcotest.test_case "code injection dies on NX" `Quick
      test_code_injection_faults_on_nx;
    Alcotest.test_case "cross-domain store blocked" `Quick
      test_cross_domain_store_blocked;
    Alcotest.test_case "cross-domain load blocked" `Quick
      test_cross_domain_load_blocked;
    Alcotest.test_case "bare build has no checks" `Quick test_bare_has_no_checks;
    Alcotest.test_case "attack binaries pass the verifier" `Quick
      test_ripe_binaries_verify;
  ]
