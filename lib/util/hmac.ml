(* HMAC-SHA-256 (RFC 2104). The Occlum verifier signs accepted binaries
   with an HMAC; the LibOS loader recomputes it before loading. SEFS uses
   it as the per-block integrity tag.

   Both passes stream into one SHA-256 context each: the key pad and the
   message are fed in turn, never concatenated, so a tag costs no
   message-sized copy. *)

let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\x00' in
  Bytes.blit_string key 0 padded 0 (String.length key);
  padded

let mac ~key msg =
  let key = normalize_key key in
  let pass pad_byte part =
    let ctx = Sha256.init () in
    Sha256.feed_bytes ctx
      (Bytes.map (fun c -> Char.chr (Char.code c lxor pad_byte)) key)
      0 block_size;
    Sha256.feed ctx part;
    Sha256.finalize ctx
  in
  pass 0x5c (pass 0x36 msg)

let verify ~key ~tag msg =
  let expected = mac ~key msg in
  (* constant-time comparison: accumulate the xor of all byte pairs *)
  String.length tag = String.length expected
  &&
  let acc = ref 0 in
  String.iteri
    (fun i c -> acc := !acc lor (Char.code c lxor Char.code expected.[i]))
    tag;
  !acc = 0
