(* SEFS tests: the writable encrypted file system — namespace operations,
   multi-block data paths, persistence across remounts (a fresh LibOS
   over the same untrusted host store), host-tamper detection, the shared
   page cache, and the plaintext (ext4-model) mode. *)

open Occlum_libos

let fresh () = Sefs.create ~key:"test-key" ()

let wr t path content =
  match Sefs.write_path t path content with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "write %s: errno %d" path e)

let rd t path =
  match Sefs.read_path t path with
  | Ok s -> s
  | Error e -> Alcotest.fail (Printf.sprintf "read %s: errno %d" path e)

let test_basic_files () =
  let t = fresh () in
  wr t "/a.txt" "hello";
  Alcotest.(check string) "read back" "hello" (rd t "/a.txt");
  wr t "/a.txt" "rewritten";
  Alcotest.(check string) "rewrite" "rewritten" (rd t "/a.txt");
  Alcotest.(check bool) "missing" true (Sefs.read_path t "/nope" = Error (-2))

let test_directories () =
  let t = fresh () in
  (match Sefs.mkdir t "/dir" with Ok _ -> () | Error _ -> Alcotest.fail "mkdir");
  (match Sefs.mkdir t "/dir" with
  | Error e when e = Occlum_abi.Abi.Errno.eexist -> ()
  | _ -> Alcotest.fail "mkdir twice");
  wr t "/dir/f1" "one";
  wr t "/dir/f2" "two";
  (match Sefs.readdir t "/dir" with
  | Ok names -> Alcotest.(check (list string)) "listing" [ "f1"; "f2" ] names
  | Error _ -> Alcotest.fail "readdir");
  (match Sefs.readdir t "/dir/f1" with
  | Error e when e = Occlum_abi.Abi.Errno.enotdir -> ()
  | _ -> Alcotest.fail "readdir on file");
  (* non-empty directory cannot be unlinked *)
  (match Sefs.unlink t "/dir" with
  | Error e when e = Occlum_abi.Abi.Errno.enotempty -> ()
  | _ -> Alcotest.fail "unlink non-empty");
  (match Sefs.unlink t "/dir/f1" with Ok () -> () | _ -> Alcotest.fail "unlink");
  Alcotest.(check bool) "gone" true (Sefs.read_path t "/dir/f1" = Error (-2));
  Sefs.ensure_parents t "/x/y/z/file";
  wr t "/x/y/z/file" "deep";
  Alcotest.(check string) "deep path" "deep" (rd t "/x/y/z/file")

let test_rename () =
  let t = fresh () in
  wr t "/old" "payload";
  (match Sefs.rename t "/old" "/new" with Ok () -> () | _ -> Alcotest.fail "rename");
  Alcotest.(check string) "at new name" "payload" (rd t "/new");
  Alcotest.(check bool) "old gone" true (Sefs.read_path t "/old" = Error (-2))

let test_multiblock () =
  let t = fresh () in
  let big = String.init 20000 (fun k -> Char.chr (k mod 251)) in
  wr t "/big" big;
  Alcotest.(check int) "size" 20000 (String.length (rd t "/big"));
  Alcotest.(check string) "content" big (rd t "/big");
  (* partial reads/writes at odd offsets crossing block boundaries *)
  (match Sefs.lookup t "/big" with
  | Some node ->
      (match Sefs.read_file t node ~pos:4090 ~len:20 with
      | Ok b ->
          Alcotest.(check string) "straddling read" (String.sub big 4090 20)
            (Bytes.to_string b)
      | Error _ -> Alcotest.fail "read");
      (match Sefs.write_file t node ~pos:8190 (Bytes.of_string "XYZ") with
      | Ok 3 -> ()
      | _ -> Alcotest.fail "write");
      Alcotest.(check string) "straddling write" "XYZ"
        (String.sub (rd t "/big") 8190 3)
  | None -> Alcotest.fail "lookup")

let test_sparse () =
  let t = fresh () in
  (match Sefs.create_file t "/sparse" with
  | Ok node -> (
      (* write far past the start: the hole reads as zeros *)
      match Sefs.write_file t node ~pos:10000 (Bytes.of_string "end") with
      | Ok _ ->
          let all = rd t "/sparse" in
          Alcotest.(check int) "size" 10003 (String.length all);
          Alcotest.(check string) "hole is zero" (String.make 100 '\x00')
            (String.sub all 0 100);
          Alcotest.(check string) "tail" "end" (String.sub all 10000 3)
      | Error _ -> Alcotest.fail "sparse write")
  | Error _ -> Alcotest.fail "create")

let test_persistence () =
  let t = fresh () in
  Sefs.ensure_parents t "/data/x";
  wr t "/data/file" "survives remount";
  wr t "/top" (String.make 9000 'z');
  Sefs.flush t;
  (* a new LibOS boot mounts the same untrusted host store *)
  let t2 = Sefs.mount ~key:"test-key" t.Sefs.host in
  Alcotest.(check string) "file survives" "survives remount" (rd t2 "/data/file");
  Alcotest.(check string) "big survives" (String.make 9000 'z') (rd t2 "/top");
  (match Sefs.readdir t2 "/" with
  | Ok names -> Alcotest.(check bool) "root listing" true (List.mem "data" names)
  | Error _ -> Alcotest.fail "readdir after mount")

let test_confidentiality () =
  (* the host must never see plaintext *)
  let t = fresh () in
  let secret = "TOP-SECRET-PAYLOAD-0123456789" in
  wr t "/secret" (secret ^ String.make 4096 'p');
  Sefs.flush t;
  Hashtbl.iter
    (fun _ (e : Sefs.Host_store.entry) ->
      Alcotest.(check bool) "ciphertext only" false
        (Occlum_util.Bytes_util.contains ~needle:secret
           (Bytes.of_string e.Sefs.Host_store.cipher)))
    t.Sefs.host.Sefs.Host_store.blocks;
  (match t.Sefs.host.Sefs.Host_store.meta with
  | Some (_, e) ->
      Alcotest.(check bool) "metadata encrypted" false
        (Occlum_util.Bytes_util.contains ~needle:"secret"
           (Bytes.of_string e.Sefs.Host_store.cipher))
  | None -> Alcotest.fail "no metadata")

let test_integrity () =
  let t = fresh () in
  wr t "/f" (String.make 5000 'q');
  Sefs.flush t;
  (* tamper with a host block, then force a cold read *)
  Alcotest.(check bool) "tampered" true (Sefs.Host_store.tamper t.Sefs.host 0);
  Hashtbl.reset t.Sefs.cache;
  (match Sefs.read_path t "/f" with
  | exception Sefs.Corrupt _ -> ()
  | _ -> Alcotest.fail "tampering must be detected");
  (* metadata tampering is detected at mount *)
  let t2 = fresh () in
  wr t2 "/g" "x";
  Sefs.flush t2;
  (match t2.Sefs.host.Sefs.Host_store.meta with
  | Some (g, e) ->
      let b = Bytes.of_string e.Sefs.Host_store.cipher in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      t2.Sefs.host.Sefs.Host_store.meta <-
        Some (g, { e with Sefs.Host_store.cipher = Bytes.to_string b })
  | None -> Alcotest.fail "no meta");
  match Sefs.mount ~key:"test-key" t2.Sefs.host with
  | exception Sefs.Corrupt _ -> ()
  | _ -> Alcotest.fail "metadata tampering must be detected"

let test_wrong_key () =
  let t = fresh () in
  wr t "/f" "locked";
  Sefs.flush t;
  match Sefs.mount ~key:"wrong-key" t.Sefs.host with
  | exception Sefs.Corrupt _ -> ()
  | _ -> Alcotest.fail "wrong key must not decrypt"

let test_page_cache () =
  let t = fresh () in
  wr t "/f" (String.make 4096 'c');
  Sefs.flush t;
  Hashtbl.reset t.Sefs.cache;
  t.Sefs.cache_misses <- 0;
  t.Sefs.cache_hits <- 0;
  ignore (rd t "/f");
  let misses_cold = t.Sefs.cache_misses in
  ignore (rd t "/f");
  ignore (rd t "/f");
  Alcotest.(check bool) "cold misses" true (misses_cold >= 1);
  Alcotest.(check int) "no further misses" misses_cold t.Sefs.cache_misses;
  Alcotest.(check bool) "hits counted" true (t.Sefs.cache_hits >= 2)

let test_plaintext_mode () =
  (* the ext4 model stores plaintext, so the host sees the content *)
  let t = Sefs.create ~encrypted:false ~key:"ignored" () in
  wr t "/f" ("plainpayload" ^ String.make 4096 'p');
  Sefs.flush t;
  let found = ref false in
  Hashtbl.iter
    (fun _ (e : Sefs.Host_store.entry) ->
      if
        Occlum_util.Bytes_util.contains ~needle:"plainpayload"
          (Bytes.of_string e.Sefs.Host_store.cipher)
      then found := true)
    t.Sefs.host.Sefs.Host_store.blocks;
  Alcotest.(check bool) "host sees plaintext" true !found;
  (* and it still round-trips across a remount *)
  let t2 = Sefs.mount ~encrypted:false ~key:"ignored" t.Sefs.host in
  Alcotest.(check int) "readable" (12 + 4096) (String.length (rd t2 "/f"))

let test_truncate () =
  let t = fresh () in
  wr t "/f" "0123456789";
  (match Sefs.lookup t "/f" with
  | Some node -> (
      match Sefs.truncate t node 4 with
      | Ok () -> Alcotest.(check string) "truncated" "0123" (rd t "/f")
      | Error _ -> Alcotest.fail "truncate")
  | None -> Alcotest.fail "lookup")

let test_image_roundtrip () =
  (* the host-side image format: serialize the untrusted store, reload
     it, and mount — the occlum_sefs workflow *)
  let t = fresh () in
  Sefs.ensure_parents t "/data/x";
  wr t "/data/f" "image payload";
  Sefs.flush t;
  let img = Sefs.Host_store.to_string t.Sefs.host in
  Alcotest.(check bool) "image is ciphertext-only" false
    (Occlum_util.Bytes_util.contains ~needle:"image payload"
       (Bytes.of_string img));
  let host2 = Sefs.Host_store.of_string img in
  let t2 = Sefs.mount ~key:"test-key" host2 in
  Alcotest.(check string) "roundtrip" "image payload" (rd t2 "/data/f");
  (* malformed images are rejected cleanly *)
  (match Sefs.Host_store.of_string "garbage" with
  | exception Sefs.Host_store.Bad_image _ -> ()
  | _ -> Alcotest.fail "bad image accepted");
  match Sefs.Host_store.of_string (String.sub img 0 (String.length img / 2)) with
  | exception Sefs.Host_store.Bad_image _ -> ()
  | _ -> Alcotest.fail "truncated image accepted"

(* Offsets of every byte on the image's text lines (magic, meta header,
   blob lengths, block count and indices): all but the blob payloads. *)
let header_offsets img =
  let offs = ref [] and pos = ref 0 in
  let line () =
    let e = String.index_from img !pos '\n' in
    for i = !pos to e do
      offs := i :: !offs
    done;
    let l = String.sub img !pos (e - !pos) in
    pos := e + 1;
    l
  in
  let blob () = pos := !pos + int_of_string (line ()) in
  ignore (line ());
  if line () <> "0" then (blob (); blob ());
  for _ = 1 to int_of_string (line ()) do
    ignore (line ());
    blob ();
    blob ()
  done;
  List.rev !offs

let test_image_header_mutations () =
  (* a hostile host may hand over any bytes: every single-byte change to
     a header line must load or be rejected as [Bad_image], never escape
     as another exception *)
  let t = fresh () in
  wr t "/f" "header fuzz";
  Sefs.flush t;
  let img = Sefs.Host_store.to_string t.Sefs.host in
  List.iter
    (fun i ->
      for v = 0 to 255 do
        if Char.chr v <> img.[i] then begin
          let b = Bytes.of_string img in
          Bytes.set b i (Char.chr v);
          match Sefs.Host_store.of_string (Bytes.to_string b) with
          | _ | (exception Sefs.Host_store.Bad_image _) -> ()
          | exception e ->
              Alcotest.fail
                (Printf.sprintf "byte %d := %d raised %s" i v
                   (Printexc.to_string e))
        end
      done)
    (header_offsets img)

let suite =
  [
    Alcotest.test_case "basic files" `Quick test_basic_files;
    Alcotest.test_case "host image roundtrip" `Quick test_image_roundtrip;
    Alcotest.test_case "host image header mutations" `Quick
      test_image_header_mutations;
    Alcotest.test_case "directories" `Quick test_directories;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "multi-block files" `Quick test_multiblock;
    Alcotest.test_case "sparse files" `Quick test_sparse;
    Alcotest.test_case "persistence across remount" `Quick test_persistence;
    Alcotest.test_case "confidentiality" `Quick test_confidentiality;
    Alcotest.test_case "integrity (tamper detection)" `Quick test_integrity;
    Alcotest.test_case "wrong key" `Quick test_wrong_key;
    Alcotest.test_case "shared page cache" `Quick test_page_cache;
    Alcotest.test_case "plaintext (ext4 model) mode" `Quick test_plaintext_mode;
    Alcotest.test_case "truncate" `Quick test_truncate;
  ]
