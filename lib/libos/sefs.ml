(* SEFS: Occlum's writable encrypted file system (§6 "File systems").

   All metadata and data live, encrypted and MAC'd, in an untrusted host
   store; the single in-enclave LibOS instance holds the keys, a shared
   page cache of decrypted blocks, and the authoritative metadata. This
   is the capability Graphene-SGX cannot offer (its per-process enclaves
   would each hold a divergent view), and it is why Table 1 lists
   "shared file systems: writable" only for SIPs.

   Confidentiality: each 4 KiB block is encrypted with a per-(block,
   generation) nonce. Integrity: each block carries an HMAC over its
   identity, generation and ciphertext; any host tampering surfaces as
   [Corrupt] on the next read. *)

let block_size = 4096

exception Corrupt of string

(* --- the untrusted host side ------------------------------------------- *)

module Host_store = struct
  type entry = { cipher : string; mac : string }

  type t = {
    blocks : (int, entry) Hashtbl.t;
    mutable meta : (int * entry) option; (* generation (public) + blob *)
    mutable reads : int;
    mutable writes : int;
  }

  let create () = { blocks = Hashtbl.create 256; meta = None; reads = 0; writes = 0 }

  let put t idx e =
    t.writes <- t.writes + 1;
    Hashtbl.replace t.blocks idx e

  let get t idx =
    t.reads <- t.reads + 1;
    Hashtbl.find_opt t.blocks idx

  (* The on-disk form of the untrusted volume: what the host actually
     stores, and what the occlum_sefs host utility (the paper's
     FUSE-based image tool, §8) reads and writes. Everything in it is
     ciphertext + MACs; serializing it needs no keys. *)
  let to_string t =
    let b = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let blob s =
      add "%d\n" (String.length s);
      Buffer.add_string b s
    in
    add "SEFSIMG1\n";
    (match t.meta with
    | None -> add "0\n"
    | Some (gen, e) ->
        add "1 %d\n" gen;
        blob e.cipher;
        blob e.mac);
    add "%d\n" (Hashtbl.length t.blocks);
    Hashtbl.iter
      (fun idx e ->
        add "%d\n" idx;
        blob e.cipher;
        blob e.mac)
      t.blocks;
    Buffer.contents b

  exception Bad_image of string

  let of_string s =
    let pos = ref 0 in
    let line () =
      match String.index_from_opt s !pos '\n' with
      | None -> raise (Bad_image "truncated")
      | Some e ->
          let l = String.sub s !pos (e - !pos) in
          pos := e + 1;
          l
    in
    let int_field what l =
      match int_of_string_opt l with
      | Some n -> n
      | None -> raise (Bad_image ("bad " ^ what))
    in
    let blob () =
      let n = int_field "length" (line ()) in
      if n < 0 || n > String.length s - !pos then raise (Bad_image "bad blob");
      let r = String.sub s !pos n in
      pos := !pos + n;
      r
    in
    if line () <> "SEFSIMG1" then raise (Bad_image "bad magic");
    let t = create () in
    (match String.split_on_char ' ' (line ()) with
    | [ "0" ] -> ()
    | [ "1"; gen ] ->
        let cipher = blob () in
        let mac = blob () in
        t.meta <- Some (int_field "generation" gen, { cipher; mac })
    | _ -> raise (Bad_image "bad meta header"));
    let nblocks = int_field "count" (line ()) in
    for _ = 1 to nblocks do
      let idx = int_field "index" (line ()) in
      let cipher = blob () in
      let mac = blob () in
      Hashtbl.replace t.blocks idx { cipher; mac }
    done;
    t

  let save t path =
    let oc = open_out_bin path in
    output_string oc (to_string t);
    close_out oc

  let load path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s

  (* Host-side attack surface for the integrity tests: flip a byte. *)
  let tamper t idx =
    match Hashtbl.find_opt t.blocks idx with
    | None -> false
    | Some e ->
        let b = Bytes.of_string e.cipher in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
        Hashtbl.replace t.blocks idx { e with cipher = Bytes.to_string b };
        true
end

(* --- metadata ------------------------------------------------------------ *)

type kind = File | Dir

type inode = {
  ino : int;
  mutable kind : kind;
  mutable size : int;
  mutable blocks : int array; (* host block ids, -1 = hole *)
  mutable entries : (string * int) list; (* directories only *)
  mutable nlink : int;
}

type meta = {
  mutable inodes : (int * inode) list;
  mutable next_ino : int;
  mutable next_block : int;
  mutable gens : (int * int) list; (* block id -> write generation *)
}

type t = {
  host : Host_store.t;
  data_key : string;
  mac_key : string;
  volume : string;
  encrypted : bool; (* false models a plain ext4-style host FS *)
  mutable m : meta;
  cache : (int, cache_line) Hashtbl.t; (* shared page cache, all SIPs *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable retries : int; (* transient I/O faults absorbed by the
                            bounded-retry wrapper around the host *)
  mutable backoff_ns : int64; (* simulated wait accrued by those
                                 retries; the LibOS drains it onto the
                                 virtual clock *)
  mutable obs : Occlum_obs.Obs.t; (* I/O events/metrics; the LibOS
                                     attaches its own at boot *)
}

and cache_line = { mutable data : Bytes.t; mutable dirty : bool }

(* Observability for one file read/write: an event with the byte count
   plus byte counters and a size histogram. One branch when disabled. *)
let note_io t ~write n =
  let o = t.obs in
  if o.Occlum_obs.Obs.enabled then begin
    if o.Occlum_obs.Obs.t_sefs then
      Occlum_obs.Obs.emit o
        (if write then Occlum_obs.Trace.Sefs_write { bytes = n }
         else Occlum_obs.Trace.Sefs_read { bytes = n });
    Occlum_obs.Metrics.add
      (Occlum_obs.Metrics.counter o.Occlum_obs.Obs.metrics
         (if write then "sefs.write.bytes" else "sefs.read.bytes"))
      n;
    Occlum_obs.Metrics.observe
      (Occlum_obs.Metrics.histogram o.Occlum_obs.Obs.metrics "sefs.io.size"
         ~bounds:Occlum_obs.Metrics.size_buckets)
      n
  end

let root_ino = 1

let derive_keys master =
  ( Occlum_util.Sha256.digest ("sefs-data:" ^ master),
    Occlum_util.Sha256.digest ("sefs-mac:" ^ master) )

let fresh_root () =
  { ino = root_ino; kind = Dir; size = 0; blocks = [||]; entries = []; nlink = 1 }

let create ?(volume = "vol0") ?(encrypted = true) ~key () =
  let data_key, mac_key = derive_keys key in
  {
    host = Host_store.create ();
    data_key;
    mac_key;
    volume;
    encrypted;
    m =
      { inodes = [ (root_ino, fresh_root ()) ]; next_ino = 2; next_block = 0;
        gens = [] };
    cache = Hashtbl.create 256;
    cache_hits = 0;
    cache_misses = 0;
    retries = 0;
    backoff_ns = 0L;
    obs = Occlum_obs.Obs.disabled;
  }

let inode t ino = List.assoc_opt ino t.m.inodes

let gen_of t idx = Option.value (List.assoc_opt idx t.m.gens) ~default:0

let bump_gen t idx =
  let g = gen_of t idx + 1 in
  t.m.gens <- (idx, g) :: List.remove_assoc idx t.m.gens;
  g

(* --- block crypto -------------------------------------------------------- *)

let seal t ~label ~nonce_tag plain =
  if not t.encrypted then { Host_store.cipher = plain; mac = "" }
  else
    let nonce = Occlum_util.Cipher.derive_nonce t.volume nonce_tag in
    let cipher = Occlum_util.Cipher.encrypt ~key:t.data_key ~nonce plain in
    let mac = Occlum_util.Hmac.mac ~key:t.mac_key (label ^ cipher) in
    { Host_store.cipher; mac }

let unseal t ~label ~nonce_tag (e : Host_store.entry) =
  if not t.encrypted then e.cipher
  else begin
    if not (Occlum_util.Hmac.verify ~key:t.mac_key ~tag:e.mac (label ^ e.cipher))
    then raise (Corrupt ("integrity check failed: " ^ label));
    let nonce = Occlum_util.Cipher.derive_nonce t.volume nonce_tag in
    Occlum_util.Cipher.encrypt ~key:t.data_key ~nonce e.cipher
  end

let nonce_tag_of idx gen = Hashtbl.hash (idx, gen)

let writeback_block t idx (line : cache_line) =
  let gen = bump_gen t idx in
  let label = Printf.sprintf "blk:%d:%d" idx gen in
  Host_store.put t.host idx
    (seal t ~label ~nonce_tag:(nonce_tag_of idx gen) (Bytes.to_string line.data));
  line.dirty <- false

let read_block t idx =
  match Hashtbl.find_opt t.cache idx with
  | Some line ->
      t.cache_hits <- t.cache_hits + 1;
      line
  | None ->
      t.cache_misses <- t.cache_misses + 1;
      let data =
        match Host_store.get t.host idx with
        | None -> Bytes.make block_size '\x00' (* never written: a hole *)
        | Some e ->
            let gen = gen_of t idx in
            let label = Printf.sprintf "blk:%d:%d" idx gen in
            Bytes.of_string (unseal t ~label ~nonce_tag:(nonce_tag_of idx gen) e)
      in
      let line = { data; dirty = false } in
      Hashtbl.replace t.cache idx line;
      line

let alloc_block t =
  let idx = t.m.next_block in
  t.m.next_block <- idx + 1;
  Hashtbl.replace t.cache idx { data = Bytes.make block_size '\x00'; dirty = true };
  idx

(* --- persistence ---------------------------------------------------------- *)

let meta_to_string (m : meta) =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "META1\n%d %d\n" m.next_ino m.next_block;
  add "%d\n" (List.length m.gens);
  List.iter (fun (i, g) -> add "%d %d\n" i g) m.gens;
  add "%d\n" (List.length m.inodes);
  List.iter
    (fun (_, (n : inode)) ->
      add "%d %c %d %d\n" n.ino (match n.kind with File -> 'F' | Dir -> 'D')
        n.size n.nlink;
      add "%d" (Array.length n.blocks);
      Array.iter (fun blk -> add " %d" blk) n.blocks;
      add "\n%d\n" (List.length n.entries);
      List.iter (fun (name, ino) -> add "%d %s %d\n" (String.length name) name ino)
        n.entries)
    m.inodes;
  Buffer.contents b

let meta_of_string s =
  let pos = ref 0 in
  let line () =
    match String.index_from_opt s !pos '\n' with
    | None -> raise (Corrupt "metadata truncated")
    | Some e ->
        let l = String.sub s !pos (e - !pos) in
        pos := e + 1;
        l
  in
  let ints l = List.map int_of_string (String.split_on_char ' ' l) in
  if line () <> "META1" then raise (Corrupt "bad metadata magic");
  let next_ino, next_block =
    match ints (line ()) with
    | [ a; b ] -> (a, b)
    | _ -> raise (Corrupt "bad metadata header")
  in
  let ngens = int_of_string (line ()) in
  let gens =
    List.init ngens (fun _ ->
        match ints (line ()) with
        | [ i; g ] -> (i, g)
        | _ -> raise (Corrupt "bad gen entry"))
  in
  let ninodes = int_of_string (line ()) in
  let inodes =
    List.init ninodes (fun _ ->
        let ino, kind, size, nlink =
          match String.split_on_char ' ' (line ()) with
          | [ a; k; sz; nl ] ->
              ( int_of_string a,
                (if k = "F" then File else Dir),
                int_of_string sz, int_of_string nl )
          | _ -> raise (Corrupt "bad inode line")
        in
        let blocks =
          match ints (line ()) with
          | cnt :: rest ->
              if List.length rest <> cnt then raise (Corrupt "bad block list");
              Array.of_list rest
          | [] -> raise (Corrupt "bad block list")
        in
        let nentries = int_of_string (line ()) in
        let entries =
          List.init nentries (fun _ ->
              let l = line () in
              match String.index_opt l ' ' with
              | None -> raise (Corrupt "bad dirent")
              | Some sp ->
                  let nlen = int_of_string (String.sub l 0 sp) in
                  let name = String.sub l (sp + 1) nlen in
                  let ino =
                    int_of_string
                      (String.sub l (sp + 2 + nlen)
                         (String.length l - sp - 2 - nlen))
                  in
                  (name, ino))
        in
        (ino, { ino; kind; size; blocks; entries; nlink }))
  in
  { inodes; next_ino; next_block; gens }

let flush t =
  Hashtbl.iter (fun idx line -> if line.dirty then writeback_block t idx line)
    t.cache;
  let gen = (match t.host.meta with Some (g, _) -> g | None -> 0) + 1 in
  let label = Printf.sprintf "meta:%d" gen in
  t.host.meta <- Some (gen, seal t ~label ~nonce_tag:(-gen) (meta_to_string t.m))

(* Re-mount an existing host store (e.g. a fresh LibOS boot over the same
   host files): decrypt and reload the metadata. *)
let mount ?(volume = "vol0") ?(encrypted = true) ~key host =
  let data_key, mac_key = derive_keys key in
  let t =
    { host; data_key; mac_key; volume; encrypted;
      m = { inodes = []; next_ino = 2; next_block = 0; gens = [] };
      cache = Hashtbl.create 256; cache_hits = 0; cache_misses = 0;
      retries = 0; backoff_ns = 0L; obs = Occlum_obs.Obs.disabled }
  in
  (match host.Host_store.meta with
  | None -> t.m <- { inodes = [ (root_ino, fresh_root ()) ]; next_ino = 2;
                     next_block = 0; gens = [] }
  | Some (gen, e) ->
      let label = Printf.sprintf "meta:%d" gen in
      t.m <- meta_of_string (unseal t ~label ~nonce_tag:(-gen) e));
  t

(* --- namespace ------------------------------------------------------------ *)

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let lookup t path =
  let rec walk node = function
    | [] -> Some node
    | seg :: rest -> (
        match node.kind with
        | File -> None
        | Dir -> (
            match List.assoc_opt seg node.entries with
            | None -> None
            | Some ino -> (
                match inode t ino with
                | None -> None
                | Some child -> walk child rest)))
  in
  match inode t root_ino with
  | None -> None
  | Some root -> walk root (split_path path)

let lookup_parent t path =
  match List.rev (split_path path) with
  | [] -> None
  | name :: rev_dir -> (
      let dir_path = String.concat "/" (List.rev rev_dir) in
      match lookup t dir_path with
      | Some ({ kind = Dir; _ } as d) -> Some (d, name)
      | Some _ | None -> None)

let add_inode t kind =
  let ino = t.m.next_ino in
  t.m.next_ino <- ino + 1;
  let n = { ino; kind; size = 0; blocks = [||]; entries = []; nlink = 1 } in
  t.m.inodes <- (ino, n) :: t.m.inodes;
  n

let create_file t path =
  match lookup t path with
  | Some n when n.kind = File -> Ok n
  | Some _ -> Error Occlum_abi.Abi.Errno.eisdir
  | None -> (
      match lookup_parent t path with
      | None -> Error Occlum_abi.Abi.Errno.enoent
      | Some (dir, name) ->
          let n = add_inode t File in
          dir.entries <- dir.entries @ [ (name, n.ino) ];
          Ok n)

let mkdir t path =
  match lookup t path with
  | Some _ -> Error Occlum_abi.Abi.Errno.eexist
  | None -> (
      match lookup_parent t path with
      | None -> Error Occlum_abi.Abi.Errno.enoent
      | Some (dir, name) ->
          let n = add_inode t Dir in
          dir.entries <- dir.entries @ [ (name, n.ino) ];
          Ok n)

let unlink t path =
  match lookup_parent t path with
  | None -> Error Occlum_abi.Abi.Errno.enoent
  | Some (dir, name) -> (
      match List.assoc_opt name dir.entries with
      | None -> Error Occlum_abi.Abi.Errno.enoent
      | Some ino -> (
          match inode t ino with
          | Some { kind = Dir; entries = _ :: _; _ } ->
              Error Occlum_abi.Abi.Errno.enotempty
          | _ ->
              dir.entries <- List.remove_assoc name dir.entries;
              t.m.inodes <- List.remove_assoc ino t.m.inodes;
              Ok ()))

let rename t src dst =
  match (lookup_parent t src, lookup_parent t dst) with
  | Some (sdir, sname), Some (ddir, dname) -> (
      match List.assoc_opt sname sdir.entries with
      | None -> Error Occlum_abi.Abi.Errno.enoent
      | Some ino ->
          sdir.entries <- List.remove_assoc sname sdir.entries;
          ddir.entries <- (dname, ino) :: List.remove_assoc dname ddir.entries;
          Ok ())
  | _ -> Error Occlum_abi.Abi.Errno.enoent

let readdir t path =
  match lookup t path with
  | Some ({ kind = Dir; _ } as d) -> Ok (List.map fst d.entries)
  | Some _ -> Error Occlum_abi.Abi.Errno.enotdir
  | None -> Error Occlum_abi.Abi.Errno.enoent

(* --- file data ------------------------------------------------------------- *)

let ensure_block t (n : inode) bi =
  if bi >= Array.length n.blocks then begin
    let bigger = Array.make (bi + 1) (-1) in
    Array.blit n.blocks 0 bigger 0 (Array.length n.blocks);
    n.blocks <- bigger
  end;
  if n.blocks.(bi) = -1 then n.blocks.(bi) <- alloc_block t;
  n.blocks.(bi)

(* Fault-injection seam: a harness can turn any read/write into a
   transient error or a short transfer, modelling a flaky untrusted
   host backing store. Production code never sets it. *)
type io_fault = Io_error of int | Short of int

let io_hook : (write:bool -> len:int -> io_fault option) option ref = ref None
let set_io_hook h = io_hook := h

(* Bounded retry with deterministic exponential backoff around the
   injectable host I/O: a transient [Io_error] is retried up to
   [max_io_attempts] attempts in total, waiting 1 us then 2 us of
   simulated time between attempts (accrued in [backoff_ns] for the
   LibOS to put on the virtual clock). A fault that persists through
   every attempt surfaces its errno; [Short] transfers made partial
   progress and are never retried. *)
let max_io_attempts = 3

let backoff_ns_of_attempt k = Int64.of_int (1_000 * (1 lsl (k - 1)))

let note_retry t =
  let o = t.obs in
  if o.Occlum_obs.Obs.enabled then
    Occlum_obs.Metrics.inc
      (Occlum_obs.Metrics.counter o.Occlum_obs.Obs.metrics "io.retries")

let consult_io t ~write ~len =
  match !io_hook with
  | None -> None
  | Some h ->
      let rec attempt k =
        match h ~write ~len with
        | Some (Io_error _) when k < max_io_attempts ->
            t.retries <- t.retries + 1;
            t.backoff_ns <- Int64.add t.backoff_ns (backoff_ns_of_attempt k);
            note_retry t;
            attempt (k + 1)
        | r -> r
      in
      attempt 1

let read_file t (n : inode) ~pos ~len =
  if n.kind <> File then Error Occlum_abi.Abi.Errno.eisdir
  else begin
    let len = max 0 (min len (n.size - pos)) in
    match consult_io t ~write:false ~len with
    | Some (Io_error e) -> Error e
    | (Some (Short _) | None) as f ->
    let len =
      match f with Some (Short n) -> max 0 (min n len) | _ -> len
    in
    let out = Bytes.create len in
    let done_ = ref 0 in
    while !done_ < len do
      let abs = pos + !done_ in
      let bi = abs / block_size and off = abs mod block_size in
      let chunk = min (block_size - off) (len - !done_) in
      (if bi < Array.length n.blocks && n.blocks.(bi) >= 0 then
         let line = read_block t n.blocks.(bi) in
         Bytes.blit line.data off out !done_ chunk
       else Bytes.fill out !done_ chunk '\x00');
      done_ := !done_ + chunk
    done;
    note_io t ~write:false len;
    Ok out
  end

let write_file t (n : inode) ~pos src =
  if n.kind <> File then Error Occlum_abi.Abi.Errno.eisdir
  else begin
    let full = Bytes.length src in
    match consult_io t ~write:true ~len:full with
    | Some (Io_error e) -> Error e
    | (Some (Short _) | None) as f ->
    let len =
      match f with Some (Short n) -> max 0 (min n full) | _ -> full
    in
    let done_ = ref 0 in
    while !done_ < len do
      let abs = pos + !done_ in
      let bi = abs / block_size and off = abs mod block_size in
      let chunk = min (block_size - off) (len - !done_) in
      let blk = ensure_block t n bi in
      let line = read_block t blk in
      Bytes.blit src !done_ line.data off chunk;
      line.dirty <- true;
      done_ := !done_ + chunk
    done;
    n.size <- max n.size (pos + len);
    note_io t ~write:true len;
    Ok len
  end

let truncate t (n : inode) size =
  ignore t;
  if n.kind <> File then Error Occlum_abi.Abi.Errno.eisdir
  else begin
    n.size <- size;
    Ok ()
  end

(* mkdir -p for the directories leading to [path]'s parent. *)
let ensure_parents t path =
  match List.rev (split_path path) with
  | [] -> ()
  | _ :: rev_dirs ->
      let rec go prefix = function
        | [] -> ()
        | seg :: rest ->
            let p = prefix ^ "/" ^ seg in
            (match lookup t p with
            | Some _ -> ()
            | None -> ignore (mkdir t p));
            go p rest
      in
      go "" (List.rev rev_dirs)

(* Convenience for images and tests. *)
let write_path t path content =
  match create_file t path with
  | Error e -> Error e
  | Ok n ->
      n.size <- 0;
      let r = write_file t n ~pos:0 (Bytes.of_string content) in
      (match r with Ok _ -> n.size <- String.length content | Error _ -> ());
      Result.map (fun _ -> n) r

let read_path t path =
  match lookup t path with
  | None -> Error Occlum_abi.Abi.Errno.enoent
  | Some n ->
      Result.map Bytes.to_string (read_file t n ~pos:0 ~len:n.size)
