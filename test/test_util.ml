(* Unit and property tests for occlum_util: crypto primitives against
   published vectors, PRNG determinism, byte helpers. *)

open Occlum_util

let check = Alcotest.check Alcotest.string

let test_sha256_vectors () =
  check "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.to_hex (Sha256.digest ""));
  check "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.to_hex (Sha256.digest "abc"));
  check "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.to_hex
       (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  (* a million 'a's, streamed in odd chunks *)
  let ctx = Sha256.init () in
  let chunk = String.make 997 'a' in
  let fed = ref 0 in
  while !fed + 997 <= 1_000_000 do
    Sha256.feed ctx chunk;
    fed := !fed + 997
  done;
  Sha256.feed ctx (String.make (1_000_000 - !fed) 'a');
  check "million-a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.to_hex (Sha256.finalize ctx))

let test_sha256_streaming_equals_oneshot () =
  let data = String.init 10_000 (fun k -> Char.chr (k mod 251)) in
  let ctx = Sha256.init () in
  String.iteri (fun _ _ -> ()) data;
  let rec feed_pieces off =
    if off < String.length data then begin
      let n = min ((off mod 67) + 1) (String.length data - off) in
      Sha256.feed ctx (String.sub data off n);
      feed_pieces (off + n)
    end
  in
  feed_pieces 0;
  check "streamed" (Sha256.to_hex (Sha256.digest data))
    (Sha256.to_hex (Sha256.finalize ctx))

let test_hmac () =
  check "rfc-ish"
    "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
    (Sha256.to_hex
       (Hmac.mac ~key:"key" "The quick brown fox jumps over the lazy dog"));
  let tag = Hmac.mac ~key:"k1" "hello" in
  Alcotest.(check bool) "verify ok" true (Hmac.verify ~key:"k1" ~tag "hello");
  Alcotest.(check bool) "bad key" false (Hmac.verify ~key:"k2" ~tag "hello");
  Alcotest.(check bool) "bad msg" false (Hmac.verify ~key:"k1" ~tag "hellO");
  Alcotest.(check bool) "bad tag" false
    (Hmac.verify ~key:"k1" ~tag:(String.make 32 'x') "hello");
  (* long keys are hashed down *)
  let tag2 = Hmac.mac ~key:(String.make 200 'K') "m" in
  Alcotest.(check bool) "long key" true
    (Hmac.verify ~key:(String.make 200 'K') ~tag:tag2 "m")

(* RFC 4231 HMAC-SHA-256 test cases 1, 2 and 6 (case 6: a key longer
   than the block size, hashed first) *)
let test_hmac_rfc4231 () =
  let case name ~key msg want =
    check name want (Sha256.to_hex (Hmac.mac ~key msg));
    Alcotest.(check bool) (name ^ " verifies") true
      (Hmac.verify ~key ~tag:(Hmac.mac ~key msg) msg)
  in
  case "case 1" ~key:(String.make 20 '\x0b') "Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  case "case 2" ~key:"Jefe" "what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  case "case 6" ~key:(String.make 131 '\xaa')
    "Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"

let test_chacha_vector () =
  (* RFC 8439 §2.4.2, adjusted for our counter starting at 0 *)
  let key = String.init 32 Char.chr in
  let nonce = "\x00\x00\x00\x00\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let plain =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one \
     tip for the future, sunscreen would be it."
  in
  let padded = Bytes.of_string (String.make 64 '\x00' ^ plain) in
  Cipher.encrypt_bytes ~key ~nonce padded;
  let c = Bytes.sub_string padded 64 (String.length plain) in
  check "rfc8439 head" "6e2e359a2568f980"
    (Bytes_util.hex_of_string (String.sub c 0 8))

let test_cipher_roundtrip () =
  let key = Sha256.digest "k" and nonce = Cipher.derive_nonce "t" 7 in
  let data = String.init 3000 (fun k -> Char.chr ((k * 31) mod 256)) in
  let enc = Cipher.encrypt ~key ~nonce data in
  Alcotest.(check bool) "changed" true (enc <> data);
  check "roundtrip" data (Cipher.encrypt ~key ~nonce enc)

let test_cipher_sizes () =
  Alcotest.check_raises "bad key" (Invalid_argument "Cipher: key must be 32 bytes")
    (fun () -> ignore (Cipher.encrypt ~key:"short" ~nonce:(String.make 12 'n') "x"));
  Alcotest.check_raises "bad nonce"
    (Invalid_argument "Cipher: nonce must be 12 bytes") (fun () ->
      ignore (Cipher.encrypt ~key:(String.make 32 'k') ~nonce:"n" "x"))

let test_prng () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "deterministic" (Prng.next_int64 a) (Prng.next_int64 b)
  done;
  let c = Prng.create 43 in
  Alcotest.(check bool) "seed matters" true
    (Prng.next_int64 (Prng.create 42) <> Prng.next_int64 c);
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int a 0))

let test_bytes_util () =
  Alcotest.(check (list int)) "find_all overlapping" [ 0; 1; 2 ]
    (Bytes_util.find_all ~needle:"aa" (Bytes.of_string "aaaa"));
  Alcotest.(check (list int)) "find_all none" []
    (Bytes_util.find_all ~needle:"xyz" (Bytes.of_string "aaaa"));
  Alcotest.(check int) "round_up" 8192 (Bytes_util.round_up 4097 4096);
  Alcotest.(check int) "round_up exact" 4096 (Bytes_util.round_up 4096 4096);
  Alcotest.(check bool) "contains" true
    (Bytes_util.contains ~needle:"bc" (Bytes.of_string "abcd"));
  Alcotest.(check string) "take_prefix" "ab" (Bytes_util.take_prefix 2 "abcd");
  Alcotest.(check string) "take_prefix short" "ab" (Bytes_util.take_prefix 9 "ab")

let prop_find_all_correct =
  QCheck.Test.make ~name:"find_all finds exactly the occurrences" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 1 3)) (string_of_size (Gen.int_range 0 60)))
    (fun (needle, hay) ->
      QCheck.assume (String.length needle > 0);
      let hits = Bytes_util.find_all ~needle (Bytes.of_string hay) in
      let nl = String.length needle in
      List.for_all (fun off -> String.sub hay off nl = needle) hits
      && List.length hits
         = List.length
             (List.filter
                (fun off ->
                  off + nl <= String.length hay && String.sub hay off nl = needle)
                (List.init (max 0 (String.length hay)) Fun.id)))

let prop_cipher_involution =
  QCheck.Test.make ~name:"cipher is an involution" ~count:100
    QCheck.(string_of_size (Gen.int_range 0 300))
    (fun data ->
      let key = Occlum_util.Sha256.digest "prop" in
      let nonce = Cipher.derive_nonce "prop" 1 in
      Cipher.encrypt ~key ~nonce (Cipher.encrypt ~key ~nonce data) = data)

let suite =
  [
    Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 streaming" `Quick test_sha256_streaming_equals_oneshot;
    Alcotest.test_case "hmac" `Quick test_hmac;
    Alcotest.test_case "hmac rfc 4231" `Quick test_hmac_rfc4231;
    Alcotest.test_case "chacha vector" `Quick test_chacha_vector;
    Alcotest.test_case "cipher roundtrip" `Quick test_cipher_roundtrip;
    Alcotest.test_case "cipher arg checks" `Quick test_cipher_sizes;
    Alcotest.test_case "prng" `Quick test_prng;
    Alcotest.test_case "bytes_util" `Quick test_bytes_util;
    QCheck_alcotest.to_alcotest prop_find_all_correct;
    QCheck_alcotest.to_alcotest prop_cipher_involution;
  ]
