(* Re-placement tests: a slot that is reused keeps the translations of
   every code page whose bytes did not change, scrubs exactly what its
   previous tenant dirtied, and never lets a compiled unit outlive the
   guard-elision facts it was compiled with. Also: spawn measurements
   fail loudly on a child that never exits. *)

open Occlum_toolchain.Ast
module Os = Occlum_libos.Os
module Dm = Occlum_libos.Domain_mgr
module Mem = Occlum_machine.Mem
module Cpu = Occlum_machine.Cpu
module H = Occlum_workloads.Harness

let rt = Occlum_toolchain.Runtime.program

let signed ?(config = Occlum_toolchain.Codegen.sfi) prog =
  match
    Occlum_verifier.Verify.verify_and_sign
      (Occlum_toolchain.Compile.compile_exn ~config prog)
  with
  | Ok s -> s
  | Error rs ->
      failwith (Occlum_verifier.Verify.rejection_to_string (List.hd rs))

(* [n] small functions, [tweak]'s constant moved by one: same encoding
   length, different bytes *)
let fillers ?(tweak = -1) n =
  List.init n (fun k ->
      let c = (k * 7) + if k = tweak then 1 else 0 in
      func (Printf.sprintf "f%d" k) [ "x" ] [ Return ((v "x" *: i 3) +: i c) ])

(* A hot loop (compiled by the JIT on the first run), then one call to
   each filler, so every filler page holds executed code. *)
let looper ?tweak n =
  rt
    (func "main" []
       ([
          Let ("s", i 0);
          Let ("k", i 0);
          While
            ( v "k" <: i 500,
              [ Assign ("s", v "s" +: v "k"); Assign ("k", v "k" +: i 1) ] );
        ]
       @ List.init n (fun k ->
             Assign ("s", Call (Printf.sprintf "f%d" k, [ v "s" ])))
       @ [ Return (v "s" &: i 127) ])
    :: fillers ?tweak n)

let run_child os path =
  let pid = Os.spawn os ~parent_pid:0 ~path ~args:[] in
  H.wait_exit os pid;
  match Os.find_proc os pid with
  | Some p -> p
  | None -> Alcotest.fail "child was reaped"

let slot_id (p : Os.proc) = p.img.Occlum_libos.Loader.slot.Dm.id

let test_respawn_revives () =
  let os = Os.boot () in
  Os.install_binary os "/bin/x" (signed (looper 8));
  let first = run_child os "/bin/x" in
  Alcotest.(check bool) "first run decodes" true
    (first.cpu.Cpu.dcache_misses > 0);
  Alcotest.(check bool) "first run compiles" true
    (first.cpu.Cpu.jit_compiles > 0);
  for k = 2 to 3 do
    let p = run_child os "/bin/x" in
    let name what = Printf.sprintf "respawn %d %s" k what in
    Alcotest.(check int) (name "slot") (slot_id first) (slot_id p);
    Alcotest.(check int) (name "exit code") first.exit_code p.exit_code;
    Alcotest.(check int) (name "dcache builds") 0 p.cpu.Cpu.dcache_misses;
    Alcotest.(check int) (name "jit compiles") 0 p.cpu.Cpu.jit_compiles;
    Alcotest.(check int) (name "insns") first.cpu.Cpu.insns p.cpu.Cpu.insns
  done

let pages_differing (a : Bytes.t) (b : Bytes.t) =
  let n = (Bytes.length a + Mem.page_size - 1) / Mem.page_size in
  List.filter
    (fun k ->
      let off = k * Mem.page_size in
      let len = min Mem.page_size (Bytes.length a - off) in
      not (Bytes.equal (Bytes.sub a off len) (Bytes.sub b off len)))
    (List.init n Fun.id)

let test_changed_function_rebuilds_its_pages () =
  let n = 60 in
  let a = signed (looper n) and b = signed (looper ~tweak:(n - 1) n) in
  Alcotest.(check int) "same code length" (Bytes.length a.code)
    (Bytes.length b.code);
  let changed = pages_differing a.code b.code in
  let pages = (Bytes.length a.code + Mem.page_size - 1) / Mem.page_size in
  Alcotest.(check bool) "one function's page changed, not all" true
    (changed <> [] && List.length changed < pages - 1);
  let obs = Occlum_obs.Obs.create ~events:[ Occlum_obs.Obs.Dcache ] () in
  let os = Os.boot ~obs () in
  Os.install_binary os "/bin/a" a;
  Os.install_binary os "/bin/b" b;
  let pa = run_child os "/bin/a" in
  Occlum_obs.Trace.clear obs.Occlum_obs.Obs.trace;
  let pb = run_child os "/bin/b" in
  Alcotest.(check int) "same slot" (slot_id pa) (slot_id pb);
  let fresh =
    let os = Os.boot () in
    Os.install_binary os "/bin/b" b;
    run_child os "/bin/b"
  in
  Alcotest.(check int) "same result as a fresh run" fresh.exit_code
    pb.exit_code;
  let misses = pb.cpu.Cpu.dcache_misses in
  Alcotest.(check bool) "the changed function is decoded again" true
    (misses > 0);
  Alcotest.(check bool) "fewer builds than a fresh run" true
    (misses < fresh.cpu.Cpu.dcache_misses);
  (* a block spans at most two pages, so each rebuilt block starts on a
     changed page or on the page just before one *)
  let c_base = Dm.c_base pb.img.Occlum_libos.Loader.slot in
  let on_changed pc =
    let page = (pc - c_base) / Mem.page_size in
    List.mem page changed || List.mem (page + 1) changed
  in
  let miss_pcs =
    List.filter_map
      (fun (e : Occlum_obs.Trace.event) ->
        match e.kind with
        | Occlum_obs.Trace.Dcache_miss { pc } -> Some pc
        | _ -> None)
      (Occlum_obs.Trace.events obs.Occlum_obs.Obs.trace)
  in
  Alcotest.(check int) "every miss traced" misses (List.length miss_pcs);
  List.iter
    (fun pc ->
      if not (on_changed pc) then
        Alcotest.failf "block at 0x%x rebuilt on an unchanged page" pc)
    miss_pcs

(* --- guard-elision facts belong to a binary ------------------------------ *)

(* The loop's second load of [p] re-checks a guard the first one already
   proved, so Elide classifies it as redundant and the JIT may skip it. *)
let guard_loop n_fill =
  rt ~globals:[ ("buf", 64) ]
    (func "main" []
       [
         Let ("p", Global_addr "buf");
         Let ("s", i 0);
         Let ("k", i 0);
         While
           ( v "k" <: i 400,
             [
               Store (v "p", v "k");
               Assign ("s", (v "s" +: Load (v "p")) +: Load (v "p"));
               Assign ("k", v "k" +: i 1);
             ] );
         Return (v "s" &: i 127);
       ]
    :: fillers n_fill)

let elide_facts oelf =
  match Occlum_verifier.Verify.verify oelf with
  | Error _ -> []
  | Ok d ->
      List.filter_map
        (fun (g : Occlum_analysis.Elide.guard) ->
          match g.cls with
          | Occlum_analysis.Elide.Required -> None
          | _ -> Some g.addr)
        (Occlum_analysis.Elide.analyze oelf d).Occlum_analysis.Elide.guards

let test_elide_facts_do_not_outlive_their_binary () =
  (* Linux mode admits unsigned binaries, so B can be A plus bytes the
     verifier rejects: B's elide facts are then empty while every page
     holding A's facts is byte-identical in B. *)
  let a =
    Occlum_toolchain.Compile.compile_exn
      ~config:Occlum_toolchain.Codegen.sfi_naive (guard_loop 40)
  in
  let eexit =
    Bytes.of_string
      Occlum_isa.(Codec.encode (Insn.Cfi_label 0l) ^ Codec.encode Insn.Eexit)
  in
  let b = { a with code = Bytes.cat a.code eexit } in
  let facts = elide_facts a in
  Alcotest.(check bool) "A has elidable guards" true (facts <> []);
  Alcotest.(check (list int)) "B has none" [] (elide_facts b);
  let last_page = (Bytes.length a.code - 1) / Mem.page_size in
  let main = List.assoc "f_main" a.symbols in
  Alcotest.(check bool) "A's loop lies on a page B shares" true
    (main / Mem.page_size < last_page
    && List.exists (fun off -> off > main && off / Mem.page_size < last_page) facts);
  let boot elide =
    Os.boot
      ~config:{ Os.default_config with mode = Os.Linux; jit_elide = elide }
      ()
  in
  let bound_checks os path =
    let p = run_child os path in
    Alcotest.(check int) (path ^ " exit code") ((400 * 399) land 127) p.exit_code;
    (slot_id p, p.cpu.Cpu.bound_checks)
  in
  let alone elide oelf =
    let os = boot elide in
    Os.install_binary os "/bin/x" oelf;
    snd (bound_checks os "/bin/x")
  in
  let os = boot true in
  Os.install_binary os "/bin/a" a;
  Os.install_binary os "/bin/b" b;
  let slot_a, checks_a = bound_checks os "/bin/a" in
  Alcotest.(check bool) "A's run skipped elided guards" true
    (checks_a < alone false a);
  let slot_b, checks_b = bound_checks os "/bin/b" in
  Alcotest.(check int) "same slot" slot_a slot_b;
  Alcotest.(check int) "B checks every guard it needs" (alone true b) checks_b;
  let _, checks_a' = bound_checks os "/bin/a" in
  Alcotest.(check int) "A elides again after B" checks_a checks_a'

(* --- slot-reuse scrub differential --------------------------------------- *)

(* The tenant stores a pattern into the last word of every page of the
   slot's D region — the argument page, its globals, its stack top and
   the slot's last page included. *)
let tenant ~d_base ~pages =
  rt
    (func "main" []
       [
         Let ("k", i 0);
         While
           ( v "k" <: i pages,
             [
               Store
                 ( (i d_base +: (v "k" *: i Mem.page_size)) +: i (Mem.page_size - 8),
                   i 0x5a5a5a5a +: v "k" );
               Assign ("k", v "k" +: i 1);
             ] );
         Return (i 0);
       ]
    :: fillers 40)

let slot_bytes os (slot : Dm.slot) =
  let mem = os.Os.mem in
  ( Mem.read_bytes_priv mem ~addr:(Dm.c_base slot) ~len:slot.code_size,
    Mem.read_bytes_priv mem ~addr:(Dm.d_base slot) ~len:slot.data_size )

let scrub_differential ?pool () =
  let epc () =
    Option.map
      (fun pages ->
        let p = Occlum_sgx.Epc.create ~size:(pages * Mem.page_size) () in
        Occlum_sgx.Epc.enable_paging p;
        p)
      pool
  in
  let short = signed (rt [ func "main" [] [ Return (i 3) ] ]) in
  let os = Os.boot ?epc:(epc ()) () in
  let slot = os.Os.domains.Dm.slots.(0) in
  let d_base = Dm.d_base slot and pages = slot.data_size / Mem.page_size in
  let long = signed (tenant ~d_base ~pages) in
  let image_pages (o : Occlum_oelf.Oelf.t) =
    (Bytes.length o.code + Mem.page_size - 1) / Mem.page_size
  in
  Alcotest.(check bool) "tenant image is longer" true
    (image_pages long > image_pages short);
  Os.install_binary os "/bin/long" long;
  Os.install_binary os "/bin/short" short;
  let t = run_child os "/bin/long" in
  Alcotest.(check int) "tenant in slot 0" slot.id (slot_id t);
  Alcotest.(check int) "tenant exit" 0 t.exit_code;
  Alcotest.(check int64) "tenant wrote the slot's last word"
    (Int64.of_int (0x5a5a5a5a + pages - 1))
    (Mem.read_u64_priv os.Os.mem (d_base + slot.data_size - 8));
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/short" ~args:[ "x" ] in
  (match Os.find_proc os pid with
  | Some p -> Alcotest.(check int) "reused the slot" slot.id (slot_id p)
  | None -> Alcotest.fail "short binary missing");
  let reference =
    let os = Os.boot ?epc:(epc ()) () in
    Os.install_binary os "/bin/short" short;
    ignore (Os.spawn os ~parent_pid:0 ~path:"/bin/short" ~args:[ "x" ]);
    slot_bytes os os.Os.domains.Dm.slots.(0)
  in
  let code, data = slot_bytes os slot in
  Alcotest.(check bool) "code region (tail zeroed)" true
    (Bytes.equal code (fst reference));
  Alcotest.(check bool) "data region" true (Bytes.equal data (snd reference))

let test_scrub_differential () = scrub_differential ()
let test_scrub_differential_paged () = scrub_differential ~pool:16 ()

(* Under a capped pool, pages a tenant only read are committed as zero
   pages and evicted clean, so the next spawn into the slot has nothing
   to page back in just to zero it. *)
let test_paged_read_only_tenant_leaves_nothing_to_scrub () =
  let pool = Occlum_sgx.Epc.create ~size:(16 * Mem.page_size) () in
  Occlum_sgx.Epc.enable_paging pool;
  let os = Os.boot ~epc:pool () in
  let d_base = Dm.d_base os.Os.domains.Dm.slots.(0) in
  let pages = 200 in
  let reader =
    rt
      [
        func "main" []
          [
            Let ("k", i 0);
            Let ("s", i 0);
            While
              ( v "k" <: i pages,
                [
                  Assign
                    ( "s",
                      v "s" +: Load ((i d_base +: (v "k" *: i Mem.page_size)) +: i 64) );
                  Assign ("k", v "k" +: i 1);
                ] );
            Return (v "s");
          ];
      ]
  in
  Os.install_binary os "/bin/reader" (signed reader);
  Os.install_binary os "/bin/short" (signed (rt [ func "main" [] [ Return (i 3) ] ]));
  let r = run_child os "/bin/reader" in
  Alcotest.(check int) "read zeros" 0 r.exit_code;
  let stats () =
    match Occlum_sgx.Epc.paging_stats pool with
    | Some s -> (s.Occlum_sgx.Epc.ewb, s.Occlum_sgx.Epc.eldu)
    | None -> Alcotest.fail "paging stats missing"
  in
  let ewb0, eldu0 = stats () in
  Alcotest.(check bool) "the reader was paged" true (ewb0 > pages / 2);
  ignore (Os.spawn os ~parent_pid:0 ~path:"/bin/short" ~args:[]);
  let ewb1, eldu1 = stats () in
  Alcotest.(check bool)
    (Printf.sprintf "respawn paged only its own pages (ewb %d, eldu %d)"
       (ewb1 - ewb0) (eldu1 - eldu0))
    true
    (ewb1 - ewb0 < 8 && eldu1 - eldu0 < 8)

(* --- spawn measurements fail loudly -------------------------------------- *)

let test_spawn_measurement_needs_exit () =
  let os = Os.boot () in
  Os.install_binary os "/bin/spin"
    (signed
       (rt
          [
            func "main" []
              [ While (i 1, [ Expr (Call ("yield", [])) ]); Return (i 0) ];
          ]));
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: returned a number for a child that never exits" name
    | exception Failure _ -> ()
  in
  raises "spawn_latency" (fun () ->
      H.spawn_latency ~tries:1 os "/bin/spin");
  raises "wait_exit" (fun () ->
      let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/spin" ~args:[] in
      H.wait_exit os pid)

let suite =
  [
    Alcotest.test_case "respawn: 0 builds, 0 compiles" `Quick
      test_respawn_revives;
    Alcotest.test_case "changed function rebuilds only its pages" `Quick
      test_changed_function_rebuilds_its_pages;
    Alcotest.test_case "elide facts do not outlive their binary" `Quick
      test_elide_facts_do_not_outlive_their_binary;
    Alcotest.test_case "slot-reuse scrub differential" `Quick
      test_scrub_differential;
    Alcotest.test_case "slot-reuse scrub differential (paged EPC)" `Quick
      test_scrub_differential_paged;
    Alcotest.test_case "paged read-only tenant leaves nothing to scrub"
      `Quick test_paged_read_only_tenant_leaves_nothing_to_scrub;
    Alcotest.test_case "spawn measurement fails on no exit" `Quick
      test_spawn_measurement_needs_exit;
  ]
