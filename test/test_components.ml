(* Component-level tests for the smaller kernel objects: the ring buffer
   behind pipes/sockets, the loopback network, the assembler, the layout
   contract, the fd table, and extra optimizer properties. *)

open Occlum_libos

(* --- ring buffer --------------------------------------------------------- *)

let test_ring_basics () =
  let r = Ring.create 8 in
  Alcotest.(check int) "capacity" 8 (Ring.capacity r);
  Alcotest.(check bool) "empty" true (Ring.is_empty r);
  let n = Ring.write r (Bytes.of_string "hello") 0 5 in
  Alcotest.(check int) "wrote" 5 n;
  Alcotest.(check int) "free" 3 (Ring.free_space r);
  (* overfill: only what fits *)
  let n2 = Ring.write r (Bytes.of_string "world!") 0 6 in
  Alcotest.(check int) "partial" 3 n2;
  let dst = Bytes.create 16 in
  let m = Ring.read r dst 0 16 in
  Alcotest.(check int) "drained" 8 m;
  Alcotest.(check string) "fifo order" "hellowor" (Bytes.sub_string dst 0 8)

let prop_ring_fifo =
  QCheck.Test.make ~name:"ring preserves byte order across wraps" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (string_of_size (QCheck.Gen.int_range 0 10)))
    (fun chunks ->
      let r = Ring.create 16 in
      let expected = Buffer.create 64 and got = Buffer.create 64 in
      let dst = Bytes.create 16 in
      List.iter
        (fun chunk ->
          let b = Bytes.of_string chunk in
          let n = Ring.write r b 0 (Bytes.length b) in
          Buffer.add_subbytes expected b 0 n;
          (* drain roughly half each round to force wrap-around *)
          let m = Ring.read r dst 0 (1 + (Ring.length r / 2)) in
          Buffer.add_subbytes got dst 0 m)
        chunks;
      let m = Ring.read r dst 0 16 in
      Buffer.add_subbytes got dst 0 m;
      Buffer.contents got = Buffer.contents expected)

(* The ring against a FIFO reference model. Each operation's length is
   drawn relative to the state at that point: 0, more than the free
   space (or the bytes held), just across the wrap point, or any size up
   to twice the capacity. Writes and reads alternate between the
   [Bytes.t] wrappers and [write_spans]/[read_spans] with a counting copy
   (a transfer is at most two spans). *)
let prop_ring_model =
  let gen =
    QCheck.Gen.(
      pair (oneofl [ 1; 7; 16 * 1024 ])
        (list_size (int_range 1 40)
           (triple bool (int_range 0 3) (int_range 0 (32 * 1024)))))
  in
  QCheck.Test.make ~name:"ring matches a FIFO model (0, over-full, wrap)"
    ~count:200 (QCheck.make gen) (fun (cap, ops) ->
      let r = Ring.create cap in
      (* the model: every byte ever accepted, and how many were read *)
      let written = Buffer.create 1024 and consumed = ref 0 in
      let held () = Buffer.length written - !consumed in
      let ok = ref true in
      let check b = if not b then ok := false in
      let size kind x ~avail ~wrap =
        match kind with
        | 0 -> 0
        | 1 -> avail + 1 + (x mod 3)
        | 2 -> wrap + 1 + (x mod 2)
        | _ -> x mod ((2 * cap) + 1)
      in
      List.iteri
        (fun k (is_write, kind, x) ->
          let spans = ref 0 in
          let counted (copy : Ring.span) : Ring.span =
           fun b ro co n ->
            incr spans;
            copy b ro co n
          in
          if is_write then begin
            let free = cap - held () in
            let wpos = Buffer.length written mod cap in
            let len = size kind x ~avail:free ~wrap:(cap - wpos) in
            let base = Buffer.length written in
            let src =
              Bytes.init len (fun j -> Char.chr ((base + j) * 31 land 0xFF))
            in
            let n =
              if k mod 2 = 0 then Ring.write r src 0 len
              else Ring.write_spans r len (counted (Ring.from_bytes src 0))
            in
            check (n = min len free);
            Buffer.add_subbytes written src 0 n
          end
          else begin
            let avail = held () in
            let len = size kind x ~avail ~wrap:(cap - (!consumed mod cap)) in
            let dst = Bytes.make (len + 2) '#' in
            let n =
              if k mod 2 = 0 then Ring.read r dst 1 len
              else Ring.read_spans r len (counted (Ring.to_bytes dst 1))
            in
            check (n = min len avail);
            check (Bytes.sub_string dst 1 n = Buffer.sub written !consumed n);
            (* nothing outside the transfer is touched *)
            check (Bytes.get dst 0 = '#');
            check (n = len || Bytes.get dst (1 + n) = '#');
            consumed := !consumed + n
          end;
          check (!spans <= 2);
          check (Ring.length r = held ());
          check (Ring.free_space r = cap - held ()))
        ops;
      !ok)

(* --- loopback network ------------------------------------------------------ *)

let test_net () =
  let net = Net.create () in
  (match Net.connect net ~port:99 with
  | Error e -> Alcotest.(check int) "refused" Occlum_abi.Abi.Errno.econnrefused e
  | Ok _ -> Alcotest.fail "connect without listener");
  let l =
    match Net.listen net ~port:99 ~backlog:2 with
    | Ok l -> l
    | Error _ -> Alcotest.fail "listen"
  in
  (match Net.listen net ~port:99 ~backlog:2 with
  | Error e -> Alcotest.(check int) "port taken" Occlum_abi.Abi.Errno.eexist e
  | Ok _ -> Alcotest.fail "double listen");
  Alcotest.(check bool) "has_listener" true (Net.has_listener net ~port:99);
  let client = match Net.connect net ~port:99 with Ok c -> c | Error _ -> assert false in
  let server = match Net.accept l with Some s -> s | None -> assert false in
  Alcotest.(check bool) "queue drained" true (Net.accept l = None);
  (* backlog cap *)
  ignore (Net.connect net ~port:99);
  ignore (Net.connect net ~port:99);
  (match Net.connect net ~port:99 with
  | Error e -> Alcotest.(check int) "backlog full" Occlum_abi.Abi.Errno.eagain e
  | Ok _ -> Alcotest.fail "backlog exceeded");
  (* bidirectional data *)
  ignore (Net.send net client (Bytes.of_string "ping") 0 4);
  let buf = Bytes.create 8 in
  (match Net.recv net server buf 0 8 with
  | Ok 4 -> Alcotest.(check string) "payload" "ping" (Bytes.sub_string buf 0 4)
  | _ -> Alcotest.fail "recv");
  (* close -> EOF one way, EPIPE the other *)
  Net.close_endpoint client;
  (match Net.recv net server buf 0 8 with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "expected EOF");
  match Net.send net server (Bytes.of_string "x") 0 1 with
  | Error e -> Alcotest.(check int) "epipe" Occlum_abi.Abi.Errno.epipe e
  | Ok _ -> Alcotest.fail "send to closed peer"

let test_listener_close () =
  (* regression: closing a listener frees its port for a re-listen and
     EOF-closes every still-queued (never accepted) connection *)
  let net = Net.create () in
  let l =
    match Net.listen net ~port:7 ~backlog:4 with
    | Ok l -> l
    | Error _ -> Alcotest.fail "listen"
  in
  let queued =
    match Net.external_connect net ~port:7 with
    | Ok c -> c
    | Error _ -> Alcotest.fail "connect"
  in
  Net.close_listener l;
  Alcotest.(check bool) "port freed" false (Net.has_listener net ~port:7);
  (match Net.listen net ~port:7 ~backlog:4 with
  | Ok l2 ->
      (* closing the stale listener again must not steal the new port *)
      Net.close_listener l;
      Alcotest.(check bool) "re-listen kept" true (Net.has_listener net ~port:7);
      Net.close_listener l2
  | Error _ -> Alcotest.fail "re-listen after close");
  (* the queued client sees orderly EOF, not a hang or an error *)
  match Net.recv net queued (Bytes.create 8) 0 8 with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "queued client expected EOF"

(* --- fd table ---------------------------------------------------------------- *)

let test_fd_table () =
  let t = Fd.create () in
  let e () = Fd.make Fd.Dev_null in
  Alcotest.(check int) "lowest free" 0 (Fd.install t (e ()));
  Alcotest.(check int) "next" 1 (Fd.install t (e ()));
  (match Fd.close t 0 with Ok () -> () | Error _ -> Alcotest.fail "close");
  Alcotest.(check int) "hole reused" 0 (Fd.install t (e ()));
  (match Fd.close t 42 with
  | Error e -> Alcotest.(check int) "ebadf" Occlum_abi.Abi.Errno.ebadf e
  | Ok () -> Alcotest.fail "closed bad fd");
  (* sharing: inherit bumps refs; releasing a pipe end updates counters *)
  let pipe = { Fd.ring = Ring.create 8; readers = 1; writers = 1; wake = [] } in
  let w = Fd.install t (Fd.make (Fd.Pipe_w pipe)) in
  let child = Fd.inherit_from t in
  (match Fd.find child w with
  | Some entry -> Alcotest.(check int) "shared refs" 2 entry.Fd.refs
  | None -> Alcotest.fail "child missing fd");
  ignore (Fd.close t w);
  Alcotest.(check int) "writer still alive" 1 pipe.Fd.writers;
  ignore (Fd.close child w);
  Alcotest.(check int) "writer gone" 0 pipe.Fd.writers

(* --- assembler ----------------------------------------------------------------- *)

let test_assembler () =
  let open Occlum_isa in
  let items =
    [
      Occlum_toolchain.Asm.Label "a";
      Occlum_toolchain.Asm.Ins (Insn.Mov_imm (Reg.r1, 5L));
      Occlum_toolchain.Asm.Jmp_l "a";
      Occlum_toolchain.Asm.Label "b";
      Occlum_toolchain.Asm.Jcc_l (Insn.Eq, "b");
    ]
  in
  let bytes, symbols = Occlum_toolchain.Asm.assemble items ~base:100 in
  Alcotest.(check int) "label a" 100 (Hashtbl.find symbols "a");
  (* decode the jmp and verify its displacement points back at "a" *)
  let mov_len = Codec.length (Insn.Mov_imm (Reg.r1, 5L)) in
  (match Codec.decode bytes ~pos:mov_len ~limit:(Bytes.length bytes) with
  | Ok (Insn.Jmp rel, len) ->
      Alcotest.(check int) "backward target" 100 (100 + mov_len + len + rel)
  | _ -> Alcotest.fail "expected jmp");
  (* duplicate labels are rejected *)
  (match
     Occlum_toolchain.Asm.assemble
       [ Occlum_toolchain.Asm.Label "x"; Occlum_toolchain.Asm.Label "x" ]
       ~base:0
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate label accepted");
  (* unknown labels are rejected *)
  match Occlum_toolchain.Asm.assemble [ Occlum_toolchain.Asm.Jmp_l "ghost" ] ~base:0 with
  | exception Occlum_toolchain.Asm.Unknown_label "ghost" -> ()
  | _ -> Alcotest.fail "unknown label accepted"

let test_pseudo_expansion () =
  let open Occlum_isa in
  let m : Insn.mem = Sib { base = Reg.r3; index = None; scale = 1; disp = 8 } in
  (match Occlum_toolchain.Asm.expand (Occlum_toolchain.Asm.Mem_guard m) with
  | [ Insn.Bndcl (b1, Ea_mem m1); Insn.Bndcu (b2, Ea_mem m2) ] ->
      Alcotest.(check bool) "bnd0 twice" true
        (Reg.bnd_to_int b1 = 0 && Reg.bnd_to_int b2 = 0 && m1 = m && m2 = m)
  | _ -> Alcotest.fail "mem_guard expansion");
  match Occlum_toolchain.Asm.expand (Occlum_toolchain.Asm.Cfi_guard Reg.r7) with
  | [ Insn.Load { dst; src = Sib { base; disp = 0; _ }; size = 8 };
      Insn.Bndcl (c1, Ea_reg s1); Insn.Bndcu (c2, Ea_reg s2) ] ->
      Alcotest.(check bool) "figure 2b shape" true
        (dst = Reg.scratch && base = Reg.r7 && s1 = Reg.scratch && s2 = Reg.scratch
        && Reg.bnd_to_int c1 = 1 && Reg.bnd_to_int c2 = 1)
  | _ -> Alcotest.fail "cfi_guard expansion"

(* --- layout -------------------------------------------------------------------- *)

let test_layout () =
  let prog : Occlum_toolchain.Ast.program =
    { globals = [ ("a", 100); ("b", 10) ];
      funcs = [ Occlum_toolchain.Ast.func "main" [] [ Return (Occlum_toolchain.Ast.Str "lit") ] ];
      secrets = [] }
  in
  let l = Occlum_toolchain.Layout.of_program prog in
  Alcotest.(check int) "globals after header" Occlum_toolchain.Layout.header_size
    (Occlum_toolchain.Layout.global_offset l "a");
  (* 16-byte alignment between globals *)
  Alcotest.(check int) "aligned b"
    (Occlum_toolchain.Layout.header_size + 112)
    (Occlum_toolchain.Layout.global_offset l "b");
  Alcotest.(check bool) "literal in pool" true
    (Occlum_toolchain.Layout.literal_offset l "lit"
     > Occlum_toolchain.Layout.global_offset l "b");
  let img = Occlum_toolchain.Layout.initial_data_image l in
  let off = Occlum_toolchain.Layout.literal_offset l "lit" in
  Alcotest.(check string) "pool content" "lit" (Bytes.sub_string img off 3);
  (* args: overflow protection *)
  let buf = Bytes.make Occlum_toolchain.Layout.header_size '\x00' in
  Occlum_toolchain.Layout.write_args buf ~data_base:1000 [ "x"; "y" ];
  Alcotest.(check int64) "argc" 2L (Bytes.get_int64_le buf Occlum_toolchain.Layout.argc_off);
  match
    Occlum_toolchain.Layout.write_args buf ~data_base:0 [ String.make 8000 'a' ]
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "argv overflow accepted"

(* --- optimizer properties ----------------------------------------------------- *)

let prop_optimizer_never_increases_checks =
  QCheck.Test.make ~name:"optimizer never increases dynamic bound checks"
    ~count:60
    QCheck.(make Gen.(int_range 0 100_000))
    (fun seed ->
      let prog =
        Occlum_toolchain.Runtime.program
          ~globals:[ ("g", 512) ]
          [
            Occlum_toolchain.Ast.func ~reg_vars:[ "p" ] "main" []
              Occlum_toolchain.Ast.
                [
                  Let ("k", i 0);
                  Assign ("p", Global_addr "g");
                  While
                    ( v "k" <: i (10 + (seed mod 50)),
                      [
                        Store (v "p", v "k" +: i (seed mod 97));
                        Assign ("p", v "p" +: i 8);
                        Assign ("k", v "k" +: i 1);
                        If (v "k" %: i 7 =: i 0,
                            [ Store (Global_addr "g", v "k") ], []);
                      ] );
                  Return (i 0);
                ];
          ]
      in
      let run config =
        (Occlum_baseline.Native_run.run
           (Occlum_toolchain.Compile.compile_exn ~config prog))
          .bound_checks
      in
      run Occlum_toolchain.Codegen.sfi <= run Occlum_toolchain.Codegen.sfi_naive)

let suite =
  [
    Alcotest.test_case "ring basics" `Quick test_ring_basics;
    QCheck_alcotest.to_alcotest prop_ring_fifo;
    QCheck_alcotest.to_alcotest prop_ring_model;
    Alcotest.test_case "loopback network" `Quick test_net;
    Alcotest.test_case "listener close frees port" `Quick test_listener_close;
    Alcotest.test_case "fd table" `Quick test_fd_table;
    Alcotest.test_case "assembler" `Quick test_assembler;
    Alcotest.test_case "pseudo-instruction expansion" `Quick test_pseudo_expansion;
    Alcotest.test_case "data layout" `Quick test_layout;
    QCheck_alcotest.to_alcotest prop_optimizer_never_increases_checks;
  ]
