open Occlum_isa
open Occlum_machine
open Occlum_toolchain
module R = Codegen_regs
module Enclave = Occlum_sgx.Enclave
module Epc = Occlum_sgx.Epc
module Os = Occlum_libos.Os
module Sefs = Occlum_libos.Sefs
module Net = Occlum_libos.Net
module Errno = Occlum_abi.Abi.Errno
module Verify = Occlum_verifier.Verify
module Elide = Occlum_analysis.Elide
module Attestation = Occlum_sgx.Attestation
module Host_transport = Occlum_libos.Host_transport
module Lifecycle = Occlum_cluster.Lifecycle
module Cluster = Occlum_cluster.Cluster

type property =
  | Codec_roundtrip
  | Cache_equivalence
  | Verifier_soundness
  | Aex_identity
  | Epc_pressure
  | Mc_determinism
  | Guard_elide
  | Jit_equivalence
  | Cluster_orderliness

let all_properties =
  [
    Codec_roundtrip; Cache_equivalence; Verifier_soundness; Aex_identity;
    Epc_pressure; Mc_determinism; Guard_elide; Jit_equivalence;
    Cluster_orderliness;
  ]

let property_name = function
  | Codec_roundtrip -> "codec-roundtrip"
  | Cache_equivalence -> "cache-equivalence"
  | Verifier_soundness -> "verifier-soundness"
  | Aex_identity -> "aex-identity"
  | Epc_pressure -> "epc-pressure"
  | Mc_determinism -> "mc-determinism"
  | Guard_elide -> "guard-elide"
  | Jit_equivalence -> "jit-equivalence"
  | Cluster_orderliness -> "cluster-orderliness"

let property_of_name = function
  | "codec-roundtrip" -> Some Codec_roundtrip
  | "cache-equivalence" -> Some Cache_equivalence
  | "verifier-soundness" -> Some Verifier_soundness
  | "aex-identity" -> Some Aex_identity
  | "epc-pressure" -> Some Epc_pressure
  | "mc-determinism" -> Some Mc_determinism
  | "guard-elide" -> Some Guard_elide
  | "jit-equivalence" -> Some Jit_equivalence
  | "cluster-orderliness" -> Some Cluster_orderliness
  | _ -> None

let property_index = function
  | Codec_roundtrip -> 0
  | Cache_equivalence -> 1
  | Verifier_soundness -> 2
  | Aex_identity -> 3
  | Epc_pressure -> 4
  | Mc_determinism -> 5
  | Guard_elide -> 6
  | Jit_equivalence -> 7
  | Cluster_orderliness -> 8

type failure = {
  prop : property;
  case : int;
  detail : string;
  minimized : Asm.item list option;
}

type prop_result = {
  rprop : property;
  cases_run : int;
  failures : failure list;
}

type report = {
  seed : int64;
  cases : int;
  results : prop_result list;
  injected : Inject.t;
}

let sys_nr_reg = Reg.of_int Occlum_abi.Abi.Regs.sys_nr

(* --- state comparison helpers ------------------------------------------- *)

exception Diff of string

let cpu_diff (a : Cpu.t) (b : Cpu.t) =
  try
    if a.Cpu.pc <> b.Cpu.pc then
      raise (Diff (Printf.sprintf "pc 0x%x vs 0x%x" a.Cpu.pc b.Cpu.pc));
    if a.Cpu.flag_eq <> b.Cpu.flag_eq || a.Cpu.flag_lt <> b.Cpu.flag_lt then
      raise (Diff "comparison flags");
    for i = 0 to Reg.count - 1 do
      let r = Reg.of_int i in
      if Cpu.get a r <> Cpu.get b r then
        raise
          (Diff (Printf.sprintf "r%d: %Ld vs %Ld" i (Cpu.get a r) (Cpu.get b r)))
    done;
    for i = 0 to Reg.bnd_count - 1 do
      let x = a.Cpu.bnds.(i) and y = b.Cpu.bnds.(i) in
      if x.Cpu.lower <> y.Cpu.lower || x.Cpu.upper <> y.Cpu.upper then
        raise (Diff (Printf.sprintf "bnd%d" i))
    done;
    List.iter
      (fun (name, x, y) ->
        if x <> y then raise (Diff (Printf.sprintf "%s: %d vs %d" name x y)))
      [
        ("cycles", a.Cpu.cycles, b.Cpu.cycles);
        ("insns", a.Cpu.insns, b.Cpu.insns);
        ("loads", a.Cpu.loads, b.Cpu.loads);
        ("stores", a.Cpu.stores, b.Cpu.stores);
        ("bound_checks", a.Cpu.bound_checks, b.Cpu.bound_checks);
      ];
    None
  with Diff d -> Some d

let mem_diff (a : Exec.env) (b : Exec.env) =
  let region name base len =
    let x = Mem.read_bytes_priv a.Exec.mem ~addr:base ~len in
    let y = Mem.read_bytes_priv b.Exec.mem ~addr:base ~len in
    if not (Bytes.equal x y) then raise (Diff (name ^ " region bytes"))
  in
  try
    region "code" a.Exec.code_base a.Exec.code_region;
    region "data" a.Exec.d_base a.Exec.d_size;
    region "victim" a.Exec.victim_base a.Exec.victim_size;
    None
  with Diff d -> Some d

(* --- property: codec round-trip ----------------------------------------- *)

let codec_case rng =
  try
    let i = Gen.insn rng in
    let enc = Bytes.of_string (Codec.encode i) in
    (match Codec.decode enc ~pos:0 ~limit:(Bytes.length enc) with
    | Ok (i', len) when i' = i && len = Bytes.length enc -> ()
    | Ok (i', len) ->
        raise
          (Diff
             (Printf.sprintf "round-trip mismatch: [%s] decoded as [%s] (%d/%d bytes)"
                (Insn.to_string i) (Insn.to_string i') len (Bytes.length enc)))
    | Error e ->
        raise
          (Diff
             (Printf.sprintf "decode failed on encoded [%s]: %s"
                (Insn.to_string i) (Codec.error_to_string e))));
    (* decoding arbitrary bytes is total, and anything it decodes must
       itself round-trip (possibly to a shorter canonical encoding) *)
    let soup = Gen.byte_soup rng in
    let limit = Bytes.length soup in
    let pos = ref 0 in
    while !pos < limit do
      match Codec.decode soup ~pos:!pos ~limit with
      | Ok (i, n) ->
          if n <= 0 then raise (Diff "decode returned a non-positive length");
          let enc2 = Bytes.of_string (Codec.encode i) in
          (match Codec.decode enc2 ~pos:0 ~limit:(Bytes.length enc2) with
          | Ok (i2, l2) when i2 = i && l2 = Bytes.length enc2 -> ()
          | _ ->
              raise
                (Diff
                   (Printf.sprintf "soup-decoded [%s] does not re-round-trip"
                      (Insn.to_string i))));
          pos := !pos + n
      | Error _ -> incr pos
    done;
    None
  with
  | Diff d -> Some d
  | e -> Some ("codec raised: " ^ Printexc.to_string e)

(* --- property: cached-vs-uncached equivalence --------------------------- *)

(* Forced AEX by fuel slicing: a run's fuel is capped at the next
   boundary whose instruction count is a multiple of [period], so the
   quantum expiry that models the timer interrupt lands on the same
   architectural boundary in every tier. Anchoring on [insns] also makes
   re-entry after an EPC reload re-derive its slice instead of firing
   twice. *)
let aex_slice (cpu : Cpu.t) ~period ~rem =
  min rem (period - (cpu.Cpu.insns mod period))

(* One injected AEX per [Stop_quantum] on a scheduled boundary; only the
   storm side of a differential passes [inj], so each counts once. *)
let count_aex ?inj (cpu : Cpu.t) ~period =
  match inj with
  | Some i when cpu.Cpu.insns mod period = 0 ->
      i.Inject.aex <- i.Inject.aex + 1
  | _ -> ()

(* Run the same binary in two isolated envs, cached and uncached, under
   the same AEX slicing schedule, comparing architectural state and
   counters at every stop and memory at syscall/fault/final stops. *)
let drive_pair ?inj oelf ~period ~fuel =
  let env_a = Exec.make oelf and env_b = Exec.make oelf in
  let cache = Decode_cache.create () in
  let compare_cpu () = cpu_diff env_a.Exec.cpu env_b.Exec.cpu in
  let compare_mem () = mem_diff env_a env_b in
  let rec go () =
    let rem = fuel - env_a.Exec.cpu.Cpu.insns in
    if rem <= 0 then final ()
    else begin
      let fuel = aex_slice env_a.Exec.cpu ~period ~rem in
      let stop_a = Interp.run ~cache env_a.Exec.mem env_a.Exec.cpu ~fuel in
      let stop_b = Interp.run env_b.Exec.mem env_b.Exec.cpu ~fuel in
      if stop_a <> stop_b then
        Error
          (Printf.sprintf "stops diverge: %s vs %s"
             (Interp.stop_to_string stop_a)
             (Interp.stop_to_string stop_b))
      else
        match compare_cpu () with
        | Some d -> Error ("state diverges after stop: " ^ d)
        | None -> (
            match stop_a with
            | Interp.Stop_fault _ -> final ()
            | Interp.Stop_quantum ->
                count_aex ?inj env_a.Exec.cpu ~period;
                go ()
            | Interp.Stop_syscall -> (
                match compare_mem () with
                | Some d -> Error ("memory diverges at syscall: " ^ d)
                | None ->
                    let nr =
                      Int64.to_int (Cpu.get env_a.Exec.cpu sys_nr_reg)
                    in
                    if nr = Occlum_abi.Abi.Sys.exit then final ()
                    else begin
                      Cpu.set env_a.Exec.cpu R.result 0L;
                      Cpu.set env_b.Exec.cpu R.result 0L;
                      go ()
                    end))
    end
  and final () =
    match compare_cpu () with
    | Some d -> Error ("final state diverges: " ^ d)
    | None -> (
        match compare_mem () with
        | Some d -> Error ("final memory diverges: " ^ d)
        | None -> Ok ())
  in
  go ()

let cache_equivalence_case inj shrink rng case =
  let items = Gen.program rng in
  let period = 2 + Rng.int rng 40 in
  let fuel = 1500 + Rng.int rng 1500 in
  match drive_pair ~inj (Gen.link items) ~period ~fuel with
  | Ok () -> None
  | Error detail ->
      let minimized =
        if not shrink then None
        else
          Some
            (Shrink.minimize
               (fun its ->
                 match drive_pair (Gen.link its) ~period ~fuel with
                 | Error _ -> true
                 | Ok () -> false)
               items)
      in
      Some { prop = Cache_equivalence; case; detail; minimized }

(* --- property: verifier soundness --------------------------------------- *)

let contained oelf ~period ~fuel =
  let env = Exec.make oelf in
  Exec.run_contained ~fuel ~interrupt:(Inject.interrupt_every ~period ()) env

let soundness_case inj shrink rng case =
  let period = 1 + Rng.int rng 2 in
  let fuel = 4000 in
  let fail detail minimized =
    Some { prop = Verifier_soundness; case; detail; minimized }
  in
  let minimize_if pred items =
    if shrink then Some (Shrink.minimize pred items) else None
  in
  let run_accepted tag items_opt oelf =
    let env = Exec.make oelf in
    let intr = Inject.interrupt_every ~inj ~period () in
    match Exec.run_contained ~fuel ~interrupt:intr env with
    | Ok _ -> None
    | Error v ->
        let detail =
          Printf.sprintf "%s accepted by verifier but violated isolation: %s"
            tag
            (Exec.violation_to_string v)
        in
        let minimized =
          match items_opt with
          | None -> None
          | Some items ->
              minimize_if
                (fun its ->
                  match Verify.verify (Gen.link its) with
                  | Error _ -> false
                  | Ok _ -> (
                      match contained (Gen.link its) ~period ~fuel with
                      | Error _ -> true
                      | Ok _ -> false))
                items
        in
        fail detail minimized
  in
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> (
      (* well-formed: must verify, must be contained *)
      let items = Gen.program rng in
      let oelf = Gen.link items in
      match Verify.verify oelf with
      | Error (r :: _) ->
          fail
            ("well-formed program rejected: " ^ Verify.rejection_to_string r)
            (minimize_if
               (fun its ->
                 match Verify.verify (Gen.link its) with
                 | Error _ -> true
                 | Ok _ -> false)
               items)
      | Error [] -> fail "well-formed program rejected (no reason)" None
      | Ok _ -> run_accepted "well-formed program" (Some items) oelf)
  | 4 | 5 | 6 | 7 -> (
      (* hostile mutant: rejection is fine; acceptance must be contained *)
      let items = Gen.hostile rng in
      match Gen.link items with
      | exception _ -> None
      | oelf -> (
          match Verify.verify oelf with
          | Error _ -> None
          | Ok _ -> run_accepted "hostile mutant" (Some items) oelf))
  | _ -> (
      (* byte-flip mutant of a linked binary, as an adversary would *)
      let items = Gen.program rng in
      let oelf = Gen.link items in
      let code = Bytes.copy oelf.Occlum_oelf.Oelf.code in
      let reserved = Occlum_oelf.Oelf.trampoline_reserved in
      for _ = 0 to Rng.int rng 3 do
        if Bytes.length code > reserved then begin
          let pos = reserved + Rng.int rng (Bytes.length code - reserved) in
          Bytes.set code pos
            (Char.chr
               (Char.code (Bytes.get code pos) lxor (1 + Rng.int rng 255)))
        end
      done;
      let mutant = { oelf with Occlum_oelf.Oelf.code = code } in
      match Verify.verify mutant with
      | Error _ -> None
      | Ok _ -> run_accepted "byte-flip mutant" None mutant)

(* --- property: AEX/resume bit-identity ---------------------------------- *)

let capture (cpu : Cpu.t) =
  (Array.init Reg.count (fun i -> Cpu.get cpu (Reg.of_int i)),
   Array.copy cpu.Cpu.bnds, cpu.Cpu.pc,
   cpu.Cpu.flag_eq, cpu.Cpu.flag_lt)

let resume_diff (regs, bnds, pc, fe, fl) (cpu : Cpu.t) =
  try
    if cpu.Cpu.pc <> pc then raise (Diff "pc");
    if cpu.Cpu.flag_eq <> fe || cpu.Cpu.flag_lt <> fl then
      raise (Diff "comparison flags");
    Array.iteri
      (fun i v ->
        if Cpu.get cpu (Reg.of_int i) <> v then
          raise (Diff (Printf.sprintf "r%d" i)))
      regs;
    Array.iteri
      (fun i (v : Cpu.bound) ->
        let b = cpu.Cpu.bnds.(i) in
        if b.Cpu.lower <> v.Cpu.lower || b.Cpu.upper <> v.Cpu.upper then
          raise (Diff (Printf.sprintf "bnd%d" i)))
      bnds;
    None
  with Diff d -> Some d

let scramble rng (cpu : Cpu.t) =
  for i = 0 to Reg.count - 1 do
    Cpu.set cpu (Reg.of_int i) (Rng.next rng)
  done;
  for i = 0 to Reg.bnd_count - 1 do
    Cpu.set_bnd cpu (Reg.bnd_of_int i)
      { lower = Rng.next rng; upper = Rng.next rng }
  done;
  cpu.Cpu.pc <- Rng.int rng 0x200000;
  cpu.Cpu.flag_eq <- Rng.bool rng;
  cpu.Cpu.flag_lt <- Rng.bool rng

(* Interrupted run with an AEX + full CPU scramble + resume at every
   [period]-th boundary, stepping a never-interrupted twin in lockstep:
   each resume must be bit-identical to the pre-AEX state, and the twin
   must end bit-identical to the interrupted machine (AEX transparency). *)
let drive_aex inj oelf ~period ~scramble_seed ~steps =
  let env = Exec.make oelf and twin = Exec.make oelf in
  let srng = Rng.of_seed scramble_seed in
  let boundary = ref 0 in
  let rec go n =
    if n = 0 then transparency ()
    else begin
      incr boundary;
      if !boundary mod period = 0 then begin
        inj.Inject.aex <- inj.Inject.aex + 1;
        let snap = capture env.Exec.cpu in
        Enclave.aex ~reason:"fuzz-aex" env.Exec.enclave env.Exec.cpu;
        scramble srng env.Exec.cpu;
        Enclave.resume env.Exec.enclave env.Exec.cpu;
        match resume_diff snap env.Exec.cpu with
        | Some d -> Error ("aex/resume not bit-identical: " ^ d)
        | None -> exec n
      end
      else exec n
    end
  and exec n =
    let sa = Interp.step env.Exec.mem env.Exec.cpu in
    let sb = Interp.step twin.Exec.mem twin.Exec.cpu in
    if sa <> sb then Error "interrupted and twin runs took different stops"
    else
      match sa with
      | Some Interp.Stop_syscall ->
          let nr = Int64.to_int (Cpu.get env.Exec.cpu sys_nr_reg) in
          if nr = Occlum_abi.Abi.Sys.exit then transparency ()
          else begin
            Cpu.set env.Exec.cpu R.result 0L;
            Cpu.set twin.Exec.cpu R.result 0L;
            go (n - 1)
          end
      | Some (Interp.Stop_fault _) -> transparency ()
      | Some Interp.Stop_quantum | None -> go (n - 1)
  and transparency () =
    match cpu_diff env.Exec.cpu twin.Exec.cpu with
    | Some d -> Error ("AEX transparency violated: " ^ d)
    | None -> (
        match mem_diff env twin with
        | Some d -> Error ("AEX transparency violated: " ^ d)
        | None -> Ok ())
  in
  go steps

let aex_case inj shrink rng case =
  let items = Gen.program rng in
  let period = 1 + Rng.int rng 6 in
  let scramble_seed = Rng.next rng in
  let steps = 1200 in
  match drive_aex inj (Gen.link items) ~period ~scramble_seed ~steps with
  | Ok () -> None
  | Error detail ->
      let minimized =
        if not shrink then None
        else
          Some
            (Shrink.minimize
               (fun its ->
                 match
                   drive_aex (Inject.make ()) (Gen.link its) ~period
                     ~scramble_seed ~steps
                 with
                 | Error _ -> true
                 | Ok () -> false)
               items)
      in
      Some { prop = Aex_identity; case; detail; minimized }

(* --- property: guard elision -------------------------------------------- *)

(* Observable synchronization points of a run: the elided binary's code
   addresses differ from the original's, so lockstep pc comparison is
   meaningless — but syscalls, faults and the exit are layout-free
   events, and at each of them every register, bound register, flag and
   the data/victim memory must be bit-identical (pushed return
   addresses and lea'd cfi_label addresses are pinned by the rewriter,
   so no live value is layout-dependent). *)
type sync = S_syscall of int | S_exit | S_fault of Fault.t | S_fuel

let sync_to_string = function
  | S_syscall n -> Printf.sprintf "syscall %d" n
  | S_exit -> "exit"
  | S_fault f -> "fault " ^ Fault.to_string f
  | S_fuel -> "out of fuel"

let run_to_sync (env : Exec.env) intr fuel =
  let rec go fuel =
    if fuel <= 0 then (S_fuel, 0)
    else begin
      if intr () then begin
        Enclave.aex ~reason:"guard-elide" env.Exec.enclave env.Exec.cpu;
        Enclave.resume env.Exec.enclave env.Exec.cpu
      end;
      match Interp.step env.Exec.mem env.Exec.cpu with
      | None | Some Interp.Stop_quantum -> go (fuel - 1)
      | Some (Interp.Stop_fault f) -> (S_fault f, fuel - 1)
      | Some Interp.Stop_syscall ->
          let nr = Int64.to_int (Cpu.get env.Exec.cpu sys_nr_reg) in
          if nr = Occlum_abi.Abi.Sys.exit then (S_exit, fuel - 1)
          else (S_syscall nr, fuel - 1)
    end
  in
  go fuel

(* Drive original and elided side by side — the original under an
   interrupt storm, the elided silently — comparing at every sync
   point. Counters (cycles, bound_checks) are exactly what elision
   changes, so they are NOT compared; code bytes differ by design, so
   memory comparison covers data + victim only. *)
let elide_equiv ?inj oelf oelf' ~period ~fuel =
  let a = Exec.make oelf and b = Exec.make oelf' in
  let ia = Inject.interrupt_every ?inj ~period () in
  let ib = Inject.interrupt_every ~period () in
  let data_victim_diff () =
    let region name base len =
      let x = Mem.read_bytes_priv a.Exec.mem ~addr:base ~len in
      let y = Mem.read_bytes_priv b.Exec.mem ~addr:base ~len in
      if not (Bytes.equal x y) then raise (Diff (name ^ " region bytes"))
    in
    try
      region "data" a.Exec.d_base a.Exec.d_size;
      region "victim" a.Exec.victim_base a.Exec.victim_size;
      None
    with Diff d -> Some d
  in
  let audits () =
    match (Exec.audit a, Exec.audit b) with
    | Some v, _ ->
        Error ("original violated isolation: " ^ Exec.violation_to_string v)
    | _, Some v ->
        Error ("ELIDED violated isolation: " ^ Exec.violation_to_string v)
    | None, None -> Ok ()
  in
  let finish () =
    match data_victim_diff () with
    | Some d -> Error ("final memory diverges: " ^ d)
    | None -> audits ()
  in
  let rec go fa fb =
    let sa, fa = run_to_sync a ia fa in
    let sb, fb = run_to_sync b ib fb in
    match (sa, sb) with
    | S_fuel, _ | _, S_fuel -> audits () (* inconclusive but still audited *)
    | S_fault f, S_fault f' ->
        (* fault payloads are data-derived (addresses, bnd values), never
           pc-derived, so structural equality is exact *)
        if f = f' then finish ()
        else
          Error
            (Printf.sprintf "faults differ: %s vs %s" (Fault.to_string f)
               (Fault.to_string f'))
    | S_exit, S_exit -> (
        match resume_diff (capture a.Exec.cpu) b.Exec.cpu with
        | Some d -> Error ("state diverges at exit: " ^ d)
        | None -> finish ())
    | S_syscall n, S_syscall n' when n = n' -> (
        (* pc is inside the pinned trampoline at a syscall stop, so the
           full register file including pc must match *)
        match resume_diff (capture a.Exec.cpu) b.Exec.cpu with
        | Some d ->
            Error (Printf.sprintf "state diverges at syscall %d: %s" n d)
        | None -> (
            match data_victim_diff () with
            | Some d ->
                Error (Printf.sprintf "memory diverges at syscall %d: %s" n d)
            | None ->
                Cpu.set a.Exec.cpu R.result 0L;
                Cpu.set b.Exec.cpu R.result 0L;
                go fa fb))
    | _ ->
        Error
          (Printf.sprintf "sync points diverge: %s vs %s" (sync_to_string sa)
             (sync_to_string sb))
  in
  go fuel fuel

(* One reproduction of the whole elision contract on fresh input. *)
let elide_repro ?inj items ~period ~fuel =
  match Gen.link items with
  | exception _ -> Ok ()
  | oelf -> (
      match Verify.verify oelf with
      | Error _ -> Ok () (* rejection of Gen output is soundness's problem *)
      | Ok _ -> (
          match Elide.run oelf with
          | Error e ->
              Error ("elision failed on a verified program: "
                     ^ Elide.error_to_string e)
          | Ok (oelf', _report) ->
              if not (Occlum_verifier.Signer.check oelf') then
                Error "elided binary's signature does not check"
              else elide_equiv ?inj oelf oelf' ~period ~fuel))

let elide_case inj shrink rng case =
  let period = 1 + Rng.int rng 3 in
  let fuel = 6000 in
  let fail detail minimized = Some { prop = Guard_elide; case; detail; minimized } in
  if case mod 3 = 0 then
    (* hostile mutants: a rejected input must come back [Input_rejected]
       (the pass gives an attacker no second chance at the verifier), and
       an accepted one must re-verify after elision or be refused
       conservatively — never re-signed unverified. *)
    let items = Gen.hostile rng in
    match Gen.link items with
    | exception _ -> None
    | oelf -> (
        match Verify.verify oelf with
        | Error _ -> (
            match Elide.run oelf with
            | Error (Elide.Input_rejected _) -> None
            | Ok _ ->
                fail "rejected hostile mutant came out of the elision pass \
                      signed" None
            | Error e ->
                fail ("elision pass misreported a rejected input: "
                      ^ Elide.error_to_string e) None)
        | Ok _ -> (
            match Elide.run oelf with
            | Ok (oelf', _) ->
                if Occlum_verifier.Signer.check oelf' then None
                else fail "elided hostile mutant's signature does not check" None
            | Error (Elide.Rewrite_error _) -> None (* conservative refusal *)
            | Error (Elide.Output_rejected _ as e) ->
                fail (Elide.error_to_string e) None
            | Error (Elide.Input_rejected _) ->
                fail "verifier and elision pass disagree on acceptance" None))
  else
    (* well-formed: elision must succeed, re-sign, and preserve every
       sync-point observation under an interrupt storm *)
    let items = Gen.program rng in
    match elide_repro ~inj items ~period ~fuel with
    | Ok () -> None
    | Error detail ->
        let minimized =
          if not shrink then None
          else
            Some
              (Shrink.minimize
                 (fun its ->
                   match elide_repro its ~period ~fuel with
                   | Error _ -> true
                   | Ok () -> false)
                 items)
        in
        fail detail minimized

(* --- property: EPC pressure / LibOS clean failure ------------------------ *)

let small_domains =
  { Os.default_config.Os.domains with Occlum_libos.Domain_mgr.max_domains = 4 }

let tiny_binary =
  lazy
    (let prog =
       Runtime.program [ Ast.func "main" [] [ Ast.Return (Ast.i 0) ] ]
     in
     let oelf = Compile.compile_exn ~config:Codegen.sfi prog in
     match Verify.verify_and_sign oelf with
     | Ok s -> s
     | Error rs ->
         failwith
           ("fuzz tiny binary rejected: "
           ^ Verify.rejection_to_string (List.hd rs)))

let sgx2_os =
  lazy
    (let cfg = { Os.default_config with sgx2 = true; domains = small_domains } in
     let os = Os.boot ~config:cfg () in
     Os.install_binary os "/bin/fuzz" (Lazy.force tiny_binary);
     os)

let eip_os =
  lazy
    (let cfg =
       {
         Os.default_config with
         mode = Os.Eip;
         domains = small_domains;
         eip_runtime_image_bytes = 64 * 1024;
       }
     in
     let os = Os.boot ~config:cfg () in
     Os.install_binary os "/bin/fuzz" (Lazy.force tiny_binary);
     os)

(* Enclave-level: the k-th EPC allocation fails mid-build. The pool must
   stay balanced, the partial enclave queryable, and destroy must give
   back exactly what was charged. *)
let epc_enclave_injected inj rng =
  let pool = Epc.create ~size:(256 * 4096) () in
  let free0 = Epc.free_pages pool in
  (* alloc call 1 is ECREATE's zero-page reservation; 2..5 are the adds *)
  Inject.arm_epc inj ~at:(2 + Rng.int rng 4);
  Fun.protect ~finally:Inject.disarm (fun () ->
      let enc = Enclave.create ~version:Enclave.Sgx2 ~epc:pool ~size:(64 * 4096) () in
      let raised = ref false in
      (try
         for i = 0 to 3 do
           Enclave.add_zero_pages enc ~addr:(i * 4 * 4096) ~len:(4 * 4096)
             ~perm:Mem.perm_rw
         done
       with Epc.Out_of_epc -> raised := true);
      if not !raised then Some "armed EPC failure never fired"
      else if Epc.free_pages pool + Epc.used_pages pool <> Epc.total_pages pool
      then Some "EPC pool accounting unbalanced after injected failure"
      else if Enclave.initialized enc then
        Some "partial enclave claims to be initialized"
      else if Enclave.id enc <= 0 then Some "partial enclave not queryable"
      else begin
        Enclave.destroy enc;
        if Epc.free_pages pool <> free0 then
          Some
            (Printf.sprintf
               "destroy did not restore the pool: %d free of %d initial"
               (Epc.free_pages pool) free0)
        else None
      end)

(* Real exhaustion, no injection: a pool too small for the enclave. *)
let epc_real_exhaustion _rng =
  let pool = Epc.create ~size:(8 * 4096) () in
  match Enclave.create ~epc:pool ~size:(16 * 4096) () with
  | _ -> Some "SGX1 ECREATE succeeded beyond the EPC size"
  | exception Epc.Out_of_epc ->
      if Epc.free_pages pool <> 8 then
        Some "failed ECREATE leaked EPC pages"
      else begin
        let enc =
          Enclave.create ~version:Enclave.Sgx2 ~epc:pool ~size:(16 * 4096) ()
        in
        let committed = ref 0 in
        (try
           for i = 0 to 15 do
             Enclave.add_zero_pages enc ~addr:(i * 4096) ~len:4096
               ~perm:Mem.perm_rw;
             incr committed
           done
         with Epc.Out_of_epc -> ());
        if !committed <> 8 then
          Some
            (Printf.sprintf "committed %d pages from an 8-page pool" !committed)
        else begin
          Enclave.destroy enc;
          if Epc.free_pages pool <> 8 then
            Some "destroy did not restore the exhausted pool"
          else None
        end
      end

(* LibOS-level: spawn under injected EPC pressure must fail with a clean
   ENOMEM, leak nothing, and leave the LibOS fully functional. *)
let epc_libos os_lazy ~allocs_per_spawn inj rng =
  let os = Lazy.force os_lazy in
  let free0 = Epc.free_pages os.Os.epc in
  Inject.arm_epc inj ~at:(1 + Rng.int rng allocs_per_spawn);
  let spawn_result =
    Fun.protect ~finally:Inject.disarm (fun () ->
        match Os.spawn os ~parent_pid:0 ~path:"/bin/fuzz" ~args:[] with
        | _pid -> Some "spawn under EPC pressure unexpectedly succeeded"
        | exception Os.Spawn_error e when e = Errno.enomem -> None
        | exception Os.Spawn_error e ->
            Some (Printf.sprintf "spawn failed with errno %d, not ENOMEM" e)
        | exception e ->
            Some
              ("spawn leaked a raw exception through the syscall surface: "
              ^ Printexc.to_string e))
  in
  match spawn_result with
  | Some _ as s -> s
  | None ->
      if Epc.free_pages os.Os.epc <> free0 then
        Some
          (Printf.sprintf "failed spawn leaked EPC pages (%d -> %d free)"
             free0
             (Epc.free_pages os.Os.epc))
      else begin
        (* recovery: the LibOS must still spawn and run to completion *)
        match Os.spawn os ~parent_pid:0 ~path:"/bin/fuzz" ~args:[] with
        | exception e ->
            Some ("spawn after recovery failed: " ^ Printexc.to_string e)
        | pid -> (
            match Os.wait_pid_exit ~max_steps:10_000 os pid with
            | Os.All_exited | Os.Quota_exhausted -> (
                match Os.find_proc os pid with
                | Some p when p.Os.state = `Zombie && p.Os.exit_code = 0 ->
                    if Epc.free_pages os.Os.epc <> free0 then
                      Some "EPC pages not returned after process exit"
                    else None
                | Some _ -> Some "recovered process did not exit cleanly"
                | None -> None)
            | Os.Deadlock _ -> Some "LibOS deadlocked after EPC recovery")
      end

(* Injected SEFS / network I/O faults must surface as clean errnos or
   short transfers and be fully transient. *)
let io_faults inj _rng =
  let os = Lazy.force sgx2_os in
  let sefs = os.Os.sefs in
  let path = "/fuzz/io.txt" in
  let content = "occlum fuzz io payload" in
  Sefs.ensure_parents sefs path;
  (match Sefs.write_path sefs path content with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "corpus file write failed: %d" e));
  let node =
    match Sefs.lookup sefs path with
    | Some n -> n
    | None -> failwith "io fixture vanished"
  in
  let read () = Sefs.read_file sefs node ~pos:0 ~len:100 in
  let retries0 = sefs.Sefs.retries in
  (* a single transient error is absorbed by the retry wrapper *)
  Inject.arm_sefs inj ~at:1 ~fault:(Sefs.Io_error Errno.eagain) ();
  let r1 = Fun.protect ~finally:Inject.disarm read in
  if r1 <> Ok (Bytes.of_string content) then
    Some "transient SEFS error was not absorbed by the retry wrapper"
  else if sefs.Sefs.retries <> retries0 + 1 then
    Some "absorbed SEFS fault did not count a retry"
  else begin
    (* a fault outlasting every attempt surfaces its errno... *)
    Inject.arm_sefs inj ~at:1 ~times:Sefs.max_io_attempts
      ~fault:(Sefs.Io_error Errno.eagain) ();
    let rp = Fun.protect ~finally:Inject.disarm read in
    if rp <> Error Errno.eagain then
      Some "persistent SEFS error did not surface as its errno"
    else if read () <> Ok (Bytes.of_string content) then
      (* ...and is still transient once the hook clears *)
      Some "SEFS fault was not transient"
    else begin
    (* short transfers made progress and are never retried *)
    Inject.arm_sefs inj ~at:1 ~fault:(Sefs.Short 4) ();
    let r2 = Fun.protect ~finally:Inject.disarm read in
    match r2 with
    | Ok b
      when Bytes.length b = 4
           && Bytes.to_string b = String.sub content 0 4 -> (
        (* network: same contract on the host transport *)
        let net = Net.create () in
        match Net.listen net ~port:9999 ~backlog:4 with
        | Error e -> Some (Printf.sprintf "listen failed: %d" e)
        | Ok l -> (
            match Net.connect net ~port:9999 with
            | Error e -> Some (Printf.sprintf "connect failed: %d" e)
            | Ok client -> (
                match Net.accept l with
                | None -> Some "accept returned no endpoint"
                | Some server -> (
                    let payload = Bytes.of_string "ping-pong!" in
                    let send () =
                      Net.send net client payload 0 (Bytes.length payload)
                    in
                    Inject.arm_net inj ~at:1
                      ~fault:(Sefs.Io_error Errno.eagain) ();
                    let s1 = Fun.protect ~finally:Inject.disarm send in
                    if s1 <> Ok (Bytes.length payload) then
                      Some
                        "transient net error was not absorbed by the retry \
                         wrapper"
                    else if
                      (let p =
                         Inject.arm_net inj ~at:1 ~times:Sefs.max_io_attempts
                           ~fault:(Sefs.Io_error Errno.eagain) ();
                         Fun.protect ~finally:Inject.disarm send
                       in
                       p <> Error Errno.eagain)
                    then Some "persistent net error did not surface as its errno"
                    else begin
                      Inject.arm_net inj ~at:1 ~fault:(Sefs.Short 3) ();
                      let s2 = Fun.protect ~finally:Inject.disarm send in
                      match s2 with
                      | Ok 3 -> (
                          match send () with
                          | Ok n when n = Bytes.length payload -> (
                              let buf = Bytes.create 64 in
                              match Net.recv net server buf 0 64 with
                              | Ok m
                                when m = 3 + (2 * Bytes.length payload)
                                     && Bytes.sub_string buf 0
                                          (Bytes.length payload)
                                        = Bytes.to_string payload ->
                                  None
                              | Ok m ->
                                  Some
                                    (Printf.sprintf
                                       "recv returned %d bytes after short+full send"
                                       m)
                              | Error e ->
                                  Some (Printf.sprintf "recv failed: %d" e))
                          | _ -> Some "net fault was not transient"
                          )
                      | Ok n ->
                          Some
                            (Printf.sprintf
                               "short-injected send wrote %d bytes, wanted 3" n)
                      | Error e ->
                          Some (Printf.sprintf "short-injected send failed: %d" e)
                    end))))
    | Ok b ->
        Some
          (Printf.sprintf "short read returned %d bytes, wanted 4"
             (Bytes.length b))
    | Error e -> Some (Printf.sprintf "short-injected read failed: %d" e)
    end
  end

(* --- paging transparency -------------------------------------------------- *)

(* Run a program on a deliberately tiny paged pool, stepping an
   uncapped twin in lockstep. Every Epc_miss takes the production
   AEX -> ELDU -> resume path, with a full CPU scramble in the
   evict-and-reload window to make resume transparency non-vacuous; the
   paged machine must end bit-identical to the twin in architectural
   state and memory (counters excluded: a faulted-and-retried
   instruction legitimately charges extra cycles), and destroy must
   return every frame and sealed page. *)
let drive_paged inj oelf ~pool_pages ~scramble_seed ~steps =
  let pool = Epc.create ~size:(pool_pages * Epc.page_size) () in
  Epc.enable_paging pool;
  let env = Exec.make ~epc:pool oelf in
  let twin = Exec.make oelf in
  let srng = Rng.of_seed scramble_seed in
  let cid = Enclave.id env.Exec.enclave in
  let rec exec n =
    if n = 0 then finish ()
    else
      match Interp.step env.Exec.mem env.Exec.cpu with
      | Some (Interp.Stop_fault (Fault.Epc_miss { addr; _ })) -> (
          (* the paged machine page-faults; the twin does not step *)
          inj.Inject.aex <- inj.Inject.aex + 1;
          let snap = capture env.Exec.cpu in
          Enclave.aex ~reason:"epc-miss" env.Exec.enclave env.Exec.cpu;
          scramble srng env.Exec.cpu;
          Enclave.resume env.Exec.enclave env.Exec.cpu;
          match resume_diff snap env.Exec.cpu with
          | Some d -> Error ("paging resume not bit-identical: " ^ d)
          | None -> (
              match Epc.eldu pool ~cid ~page:(addr / Epc.page_size) with
              | () -> exec n
              | exception e -> Error ("reload failed: " ^ Printexc.to_string e)
              ))
      | sa -> (
          let sb = Interp.step twin.Exec.mem twin.Exec.cpu in
          if sa <> sb then Error "paged and uncapped runs took different stops"
          else
            match sa with
            | Some Interp.Stop_syscall ->
                let nr = Int64.to_int (Cpu.get env.Exec.cpu sys_nr_reg) in
                if nr = Occlum_abi.Abi.Sys.exit then finish ()
                else begin
                  Cpu.set env.Exec.cpu R.result 0L;
                  Cpu.set twin.Exec.cpu R.result 0L;
                  exec (n - 1)
                end
            | Some (Interp.Stop_fault _) -> finish ()
            | Some Interp.Stop_quantum | None -> exec (n - 1))
  and finish () =
    match resume_diff (capture twin.Exec.cpu) env.Exec.cpu with
    | Some d -> Error ("paging transparency violated: " ^ d)
    | None -> (
        match mem_diff env twin with
        | Some d -> Error ("paging transparency violated: " ^ d)
        | None ->
            Enclave.destroy env.Exec.enclave;
            (* destroy is idempotent: the second call must be a no-op *)
            Enclave.destroy env.Exec.enclave;
            Enclave.destroy twin.Exec.enclave;
            if Epc.used_pages pool <> 0 then
              Error
                (Printf.sprintf "%d frames leaked after destroy"
                   (Epc.used_pages pool))
            else if Epc.backing_used pool <> 0 then
              Error
                (Printf.sprintf "%d sealed pages leaked after destroy"
                   (Epc.backing_used pool))
            else Ok ())
  in
  exec steps

let paging_transparency inj rng =
  let items = Gen.program rng in
  let scramble_seed = Rng.next rng in
  (* small enough to force eviction for most generated programs (their
     enclaves span 12+ pages), large enough that the pin ring (4) never
     starves the reclaimer *)
  let pool_pages = 8 + Rng.int rng 4 in
  match
    drive_paged inj (Gen.link items) ~pool_pages ~scramble_seed ~steps:1200
  with
  | Ok () -> None
  | Error d -> Some d

(* A tampered or version-rolled-back sealed page must be a hard fault on
   reload — never silent corruption — and must leave the pool balanced. *)
let paging_integrity _inj rng =
  let pool = Epc.create ~size:(8 * Epc.page_size) () in
  Epc.enable_paging pool;
  let enclave = Enclave.create ~epc:pool ~size:(16 * Epc.page_size) () in
  let cid = Enclave.id enclave in
  let page_of i = Bytes.make Epc.page_size (Char.chr (65 + i)) in
  for i = 0 to 7 do
    Enclave.add_pages enclave ~addr:(i * Epc.page_size) ~data:(page_of i)
      ~perm:Mem.perm_rw
  done;
  Enclave.init enclave;
  (* distinct victims: a rejected reload leaves its page non-resident
     with a poisoned sealed copy, so each attack gets its own page *)
  let t1 = Rng.int rng 8 in
  let t2 = (t1 + 1) mod 8 in
  let t3 = (t1 + 2) mod 8 in
  let fail d =
    Enclave.destroy enclave;
    Some d
  in
  let reload_rejected page =
    match Epc.eldu pool ~cid ~page with
    | () -> false
    | exception Epc.Integrity_violation _ -> true
  in
  if not (Epc.evict_page pool ~cid ~page:t1) then
    fail "fixture page was not evictable"
  else if not (Epc.backing_tamper pool ~cid ~page:t1) then
    fail "evicted page has no sealed copy to tamper with"
  else if not (reload_rejected t1) then
    fail "MAC-tampered sealed page was reloaded"
  else if
    (* rollback: seal v1, reload, evict again (v2), replay the v1 copy *)
    not (Epc.evict_page pool ~cid ~page:t2)
  then fail "evict for rollback failed"
  else
    match Epc.backing_snapshot pool ~cid ~page:t2 with
    | None -> fail "no sealed copy to snapshot"
    | Some old ->
        Epc.eldu pool ~cid ~page:t2;
        if not (Epc.evict_page pool ~cid ~page:t2) then
          fail "second evict failed"
        else begin
          Epc.backing_restore pool ~cid ~page:t2 old;
          if not (reload_rejected t2) then
            fail "version-rolled-back sealed page was reloaded"
          else if not (Epc.evict_page pool ~cid ~page:t3) then
            fail "clean evict failed"
          else begin
            (* an untouched evict/reload cycle is still bit-identical *)
            Epc.eldu pool ~cid ~page:t3;
            let got =
              Mem.read_bytes_priv (Enclave.mem enclave)
                ~addr:(t3 * Epc.page_size) ~len:Epc.page_size
            in
            if not (Bytes.equal got (page_of t3)) then
              fail "clean reload was not bit-identical"
            else
              match Epc.paging_stats pool with
              | Some s when s.Epc.integrity_failures >= 2 ->
                  Enclave.destroy enclave;
                  if Epc.used_pages pool <> 0 then
                    Some "frames leaked after destroy"
                  else if Epc.backing_used pool <> 0 then
                    Some "sealed pages leaked after destroy"
                  else None
              | _ -> fail "integrity failures were not counted"
          end
        end

let epc_case inj _shrink rng case =
  let detail =
    match case mod 7 with
    | 0 -> epc_enclave_injected inj rng
    | 1 -> epc_real_exhaustion rng
    | 2 -> epc_libos sgx2_os ~allocs_per_spawn:2 inj rng
    | 3 -> epc_libos eip_os ~allocs_per_spawn:1 inj rng
    | 4 -> paging_transparency inj rng
    | 5 -> paging_integrity inj rng
    | _ -> io_faults inj rng
  in
  Option.map (fun d -> { prop = Epc_pressure; case; detail = d; minimized = None }) detail

(* --- property: multi-core determinism ------------------------------------ *)

(* The differential: the same workload mix booted at cores=1 and at a
   random cores=c must produce identical state digests, and two runs at
   the same c must as well. Os.state_digest already excludes what
   legitimately varies with scheduling granularity (clock, retry
   counts, global-console interleaving), so any difference is a real
   parallelism bug. Workloads are deliberately clock-free. *)

let mc_sign prog =
  let oelf = Compile.compile_exn ~config:Codegen.sfi prog in
  match Verify.verify_and_sign oelf with
  | Ok s -> s
  | Error rs ->
      failwith
        ("fuzz mc binary rejected: " ^ Verify.rejection_to_string (List.hd rs))

(* Pure CPU spin: argv0 iterations of integer arithmetic, prints the
   accumulator. *)
let mc_compute_binary =
  lazy
    (let open Ast in
     mc_sign
       (Runtime.program
          [
            func ~reg_vars:[ "acc"; "k" ] "main" []
              [
                Let ("iters", Call ("atoi", [ Call ("argv", [ i 0 ]) ]));
                Let ("acc", i 0);
                Let ("k", i 0);
                While
                  ( v "k" <: v "iters",
                    [
                      Assign ("acc", ((v "acc" *: i 31) +: v "k") %: i 65537);
                      Assign ("k", v "k" +: i 1);
                    ] );
                Expr (Call ("print_int", [ v "acc" ]));
                Return (i 0);
              ];
          ]))

(* Futex ping-pong: main and one clone()d thread strictly alternate
   [argv0] rounds over a shared turn cell, each mutating a shared
   counter on its turn; main prints the final counter. The alternation
   makes the result schedule-independent while exercising futex
   wait/wake across cores (a woken SIP may sit on another core's run
   queue). *)
let mc_pingpong_binary =
  lazy
    (let open Ast in
     let module S = Occlum_abi.Abi.Sys in
     mc_sign
       (Runtime.program
          ~globals:[ ("turn", 8); ("counter", 8) ]
          [
            func "thread_main" [ "rounds" ]
              [
                Let ("k", i 0);
                While
                  ( v "k" <: v "rounds",
                    [
                      While
                        ( Load (Global_addr "turn") <>: i 1,
                          [
                            Expr
                              (Syscall (S.futex_wait, [ Global_addr "turn"; i 0 ]));
                          ] );
                      Store
                        ( Global_addr "counter",
                          (Load (Global_addr "counter") *: i 3) +: i 1 );
                      Store (Global_addr "turn", i 0);
                      Expr (Syscall (S.futex_wake, [ Global_addr "turn"; i 1 ]));
                      Assign ("k", v "k" +: i 1);
                    ] );
                Return (i 0);
              ];
            func "main" []
              [
                Let ("rounds", Call ("atoi", [ Call ("argv", [ i 0 ]) ]));
                Store (Global_addr "turn", i 0);
                Store (Global_addr "counter", i 0);
                Let ("stack", Syscall (S.mmap, [ i 0; i 16384; i (-1); i 0 ]));
                Let
                  ( "tid",
                    Syscall
                      ( S.clone,
                        [
                          Func_addr "thread_main"; v "stack" +: i 16384;
                          v "rounds";
                        ] ) );
                If (v "tid" <: i 0, [ Return (i 1) ], []);
                Let ("k", i 0);
                While
                  ( v "k" <: v "rounds",
                    [
                      While
                        ( Load (Global_addr "turn") <>: i 0,
                          [
                            Expr
                              (Syscall (S.futex_wait, [ Global_addr "turn"; i 1 ]));
                          ] );
                      Store
                        ( Global_addr "counter",
                          Load (Global_addr "counter") +: v "k" );
                      Store (Global_addr "turn", i 1);
                      Expr (Syscall (S.futex_wake, [ Global_addr "turn"; i 1 ]));
                      Assign ("k", v "k" +: i 1);
                    ] );
                Expr (Call ("waitpid", [ v "tid"; i 0 ]));
                Expr (Call ("print_int", [ Load (Global_addr "counter") ]));
                Return (i 0);
              ];
          ]))

let mc_domains =
  { Os.default_config.Os.domains with Occlum_libos.Domain_mgr.max_domains = 10 }

let mc_run ~cores spawns =
  let cfg = { Os.default_config with domains = mc_domains; cores } in
  let os = Os.boot ~config:cfg () in
  Os.install_binary os "/bin/mc_compute" (Lazy.force mc_compute_binary);
  Os.install_binary os "/bin/mc_pp" (Lazy.force mc_pingpong_binary);
  List.iter
    (fun (path, args) -> ignore (Os.spawn os ~parent_pid:0 ~path ~args))
    spawns;
  match Os.run ~max_steps:4_000_000 os with
  | Os.All_exited -> Ok (Os.state_digest os)
  | Os.Deadlock pids ->
      Error
        (Printf.sprintf "deadlocked at cores=%d (pids %s)" cores
           (String.concat "," (List.map string_of_int pids)))
  | Os.Quota_exhausted -> Error (Printf.sprintf "step quota at cores=%d" cores)

let mc_case _inj _shrink rng case =
  (* a random mix of CPU spinners and futex ping-pong pairs *)
  let nsips = 2 + Rng.int rng 5 in
  let spawns =
    List.init nsips (fun j ->
        if (case + j) mod 3 = 0 then
          ("/bin/mc_pp", [ string_of_int (2 + Rng.int rng 5) ])
        else ("/bin/mc_compute", [ string_of_int (200 + Rng.int rng 1500) ]))
  in
  let cores = 2 + Rng.int rng 3 in
  let fail detail = Some { prop = Mc_determinism; case; detail; minimized = None } in
  match (mc_run ~cores:1 spawns, mc_run ~cores spawns, mc_run ~cores spawns) with
  | Error d, _, _ | _, Error d, _ | _, _, Error d -> fail d
  | Ok d1, Ok dc, Ok dc' ->
      if dc <> dc' then
        fail
          (Printf.sprintf "two cores=%d runs diverged: %s vs %s" cores dc dc')
      else if d1 <> dc then
        fail
          (Printf.sprintf "cores=1 vs cores=%d diverged: %s vs %s" cores d1 dc)
      else None

(* --- property: 3-way JIT equivalence -------------------------------------- *)

(* The block JIT must be a pure accelerator: running the same binary
   under (a) JIT over the decode cache, (b) the decode cache alone and
   (c) the uncached loop must produce bit-identical architectural state,
   counters and memory at every synchronization point. Three hostile
   regimes stress the tier-transition seams:

   - [J_plain]: an AEX storm on all three machines, injected by fuel
     slicing at every [period]-th instruction. Stop parity is itself
     under test — a fused superinstruction that ran past a slice's last
     boundary would stop at a different architectural point and diverge
     immediately.
   - [J_smc]: the driver additionally flips a code byte — the same byte,
     the same flip — in all three envs at stop boundaries, exercising
     page-generation invalidation, JIT deopt and rebuild.
   - [J_epc]: all three envs are demand-paged against one oversized pool
     and the driver evicts the same page from each at stop boundaries.
     Reloads are transparent ELDUs driven off [Epc_miss], mirroring the
     LibOS pager. A faulted-and-retried data access double-charges the
     counters, but identically in every tier (data accesses are
     architectural); code-fetch misses charge nothing. The slicing
     schedule is anchored to the instruction counter, so a boundary
     re-entered after a reload is not a new AEX — how often a tier
     refetches code is exactly what differs between tiers.

   Code is mapped RX or RWX (RWX is the LibOS's own mapping: SGX1 fixes
   page permissions at EADD). On the RWX arm every block is fragile —
   fused, but with each memory write ending its unit and a revalidation
   after it — and the program also carries guest stores into its own
   code ([Gen.code_stores]), so self-modification lands mid-block, on
   the instruction right after the store, in every regime. *)

type jit_mode = J_plain | J_smc | J_epc

let drive_triple ?inj ~mode ~perturb_seed ~code_perm oelf ~period ~fuel =
  let pool =
    match mode with
    | J_epc ->
        let p = Epc.create ~size:(512 * Epc.page_size) () in
        Epc.enable_paging p;
        Some p
    | J_plain | J_smc -> None
  in
  let mk () =
    match pool with
    | Some epc -> Exec.make ~epc ~code_perm oelf
    | None -> Exec.make ~code_perm oelf
  in
  let a = mk () and b = mk () and c = mk () in
  let envs = [ a; b; c ] in
  let cache_a = Decode_cache.create () and cache_b = Decode_cache.create () in
  (* threshold 2: generated loops are short, promotion must still happen.
     RWX code compiles every block at build instead: a guest store into
     a block's own code invalidates the block each time it runs, so a
     warm-up threshold would keep such blocks out of the JIT for good. *)
  let jit =
    Jit.create ~threshold:(if code_perm = Mem.perm_rwx then 0 else 2) ()
  in
  let prng = Rng.of_seed perturb_seed in
  let pages = Mem.size a.Exec.mem / Mem.page_size in
  let perturb () =
    match mode with
    | J_plain -> ()
    | J_epc ->
        if Rng.int prng 2 = 0 then begin
          let page = Rng.int prng pages in
          List.iter
            (fun e ->
              ignore
                (Epc.evict_page (Option.get pool)
                   ~cid:(Enclave.id e.Exec.enclave) ~page))
            envs
        end
    | J_smc ->
        let reserved = Occlum_oelf.Oelf.trampoline_reserved in
        let room = a.Exec.code_region - reserved in
        if room > 0 && Rng.int prng 3 = 0 then begin
          let pos = reserved + Rng.int prng room in
          let flip = 1 + Rng.int prng 255 in
          List.iter
            (fun e ->
              let addr = e.Exec.code_base + pos in
              let byte =
                Bytes.get (Mem.read_bytes_priv e.Exec.mem ~addr ~len:1) 0
              in
              Mem.write_bytes_priv e.Exec.mem ~addr
                (Bytes.make 1 (Char.chr (Char.code byte lxor flip))))
            envs
        end
  in
  let compare3 tag =
    match cpu_diff a.Exec.cpu b.Exec.cpu with
    | Some d -> Some (Printf.sprintf "%s: JIT vs cached: %s" tag d)
    | None -> (
        match cpu_diff b.Exec.cpu c.Exec.cpu with
        | Some d -> Some (Printf.sprintf "%s: cached vs uncached: %s" tag d)
        | None -> None)
  in
  let mem3 tag =
    match mem_diff a b with
    | Some d -> Some (Printf.sprintf "%s: JIT vs cached memory: %s" tag d)
    | None -> (
        match mem_diff b c with
        | Some d ->
            Some (Printf.sprintf "%s: cached vs uncached memory: %s" tag d)
        | None -> None)
  in
  (* One env's run to its next architectural stop: an [Epc_miss] under
     [J_epc] is a pager event, not a sync point — reload and re-enter. *)
  let run_one ?inj env cache jitopt =
    let rec go () =
      let rem = fuel - env.Exec.cpu.Cpu.insns in
      if rem <= 0 then Interp.Stop_quantum
      else
        match
          Interp.run ?cache ?jit:jitopt env.Exec.mem env.Exec.cpu
            ~fuel:(aex_slice env.Exec.cpu ~period ~rem)
        with
        | Interp.Stop_fault (Fault.Epc_miss { addr; _ }) when pool <> None -> (
            match
              Epc.eldu (Option.get pool)
                ~cid:(Enclave.id env.Exec.enclave)
                ~page:(addr / Epc.page_size)
            with
            | () -> go ()
            | exception e ->
                raise
                  (Diff ("transparent reload failed: " ^ Printexc.to_string e)))
        | Interp.Stop_quantum ->
            count_aex ?inj env.Exec.cpu ~period;
            Interp.Stop_quantum
        | s -> s
    in
    go ()
  in
  let rec go () =
    if fuel - a.Exec.cpu.Cpu.insns <= 0 then final ()
    else begin
      let sa = run_one ?inj a (Some cache_a) (Some jit) in
      let sb = run_one b (Some cache_b) None in
      let sc = run_one c None None in
      if sa <> sb || sb <> sc then
        Error
          (Printf.sprintf "stops diverge: jit %s / cached %s / uncached %s"
             (Interp.stop_to_string sa)
             (Interp.stop_to_string sb)
             (Interp.stop_to_string sc))
      else
        match compare3 "after stop" with
        | Some d -> Error d
        | None -> (
            match sa with
            | Interp.Stop_fault _ -> final ()
            | Interp.Stop_quantum ->
                perturb ();
                go ()
            | Interp.Stop_syscall -> (
                match mem3 "at syscall" with
                | Some d -> Error d
                | None ->
                    let nr = Int64.to_int (Cpu.get a.Exec.cpu sys_nr_reg) in
                    if nr = Occlum_abi.Abi.Sys.exit then final ()
                    else begin
                      List.iter (fun e -> Cpu.set e.Exec.cpu R.result 0L) envs;
                      perturb ();
                      go ()
                    end))
    end
  and final () =
    match compare3 "final" with
    | Some d -> Error d
    | None -> ( match mem3 "final" with Some d -> Error d | None -> Ok ())
  in
  match go () with
  | r -> r
  | exception Diff d -> Error d

let jit_case inj shrink rng case =
  let period = 2 + Rng.int rng 6 in
  let fuel = 2000 + Rng.int rng 2000 in
  let mode =
    match case mod 4 with 0 -> J_smc | 1 -> J_epc | _ -> J_plain
  in
  let perturb_seed = Rng.next rng in
  (* RWX (the LibOS mapping) makes every block fragile and carries guest
     stores into the program's own code; RX keeps stores out of code *)
  let code_perm = if Rng.bool rng then Mem.perm_rx else Mem.perm_rwx in
  let items = Gen.program rng in
  let items =
    if code_perm = Mem.perm_rwx then Gen.code_stores rng items else items
  in
  let repro ?inj its =
    drive_triple ?inj ~mode ~perturb_seed ~code_perm (Gen.link its) ~period
      ~fuel
  in
  match repro ~inj items with
  | Ok () -> None
  | Error detail ->
      let minimized =
        if not shrink then None
        else
          Some
            (Shrink.minimize
               (fun its ->
                 match repro its with Error _ -> true | Ok () -> false)
               items)
      in
      Some { prop = Jit_equivalence; case; detail; minimized }

(* --- property: cluster orderliness --------------------------------------- *)

(* The differential: a shadow model of the cluster lifecycle protocol,
   deliberately re-stated over bare ints/arrays rather than the
   checker's own types. The generator enumerates what the shadow calls
   legal (resp. illegal) and the property demands [Lifecycle] agree on
   every single transition — a bisimulation between two independent
   statements of the rules, so a false accept in the orderliness
   checker (or an over-strict rule) surfaces as a property failure. *)

module Lw = struct
  type chan = {
    mutable st : int;  (* 0 closed, 1 handshaking, 2 open *)
    mutable s_lh : int;
    mutable d_lh : int;
    mutable s_hl : int;
    mutable d_hl : int;
  }

  (* node phases: 0 absent, 1 created, 2 measured, 3 inited, 4 quoted,
     5 attested, 6 serving, 7 down *)
  type t = { n : int; ph : int array; chans : (int * int, chan) Hashtbl.t }

  let make n = { n; ph = Array.make n 0; chans = Hashtbl.create 8 }

  let chan t a b =
    let k = (min a b, max a b) in
    match Hashtbl.find_opt t.chans k with
    | Some c -> c
    | None ->
        let c = { st = 0; s_lh = 0; d_lh = 0; s_hl = 0; d_hl = 0 } in
        Hashtbl.replace t.chans k c;
        c

  let in_range t i = i >= 0 && i < t.n

  let legal t (tr : Lifecycle.transition) =
    match tr with
    | Lifecycle.Ecreate i -> in_range t i && (t.ph.(i) = 0 || t.ph.(i) = 7)
    | Lifecycle.Eadd i -> in_range t i && (t.ph.(i) = 1 || t.ph.(i) = 2)
    | Lifecycle.Einit i -> in_range t i && t.ph.(i) = 2
    | Lifecycle.Quote_gen i -> in_range t i && t.ph.(i) = 3
    | Lifecycle.Quote_verify i -> in_range t i && t.ph.(i) = 4
    | Lifecycle.Eenter i -> in_range t i && t.ph.(i) = 5
    | Lifecycle.Teardown i -> in_range t i && t.ph.(i) >= 1 && t.ph.(i) <= 6
    | Lifecycle.Hs_start (a, b) ->
        in_range t a && in_range t b && a <> b && t.ph.(a) = 6 && t.ph.(b) = 6
        && (chan t a b).st = 0
    | Lifecycle.Hs_done (a, b) ->
        in_range t a && in_range t b && a <> b && (chan t a b).st = 1
    | Lifecycle.Ch_send (s, d, q) ->
        in_range t s && in_range t d && s <> d && t.ph.(s) = 6
        &&
        let c = chan t s d in
        c.st = 2 && q = (if s < d then c.s_lh else c.s_hl)
    | Lifecycle.Ch_deliver (s, d, q) ->
        in_range t s && in_range t d && s <> d && t.ph.(d) = 6
        &&
        let c = chan t s d in
        c.st = 2
        &&
        let sent = if s < d then c.s_lh else c.s_hl in
        let dlvd = if s < d then c.d_lh else c.d_hl in
        q = dlvd && dlvd < sent
    | Lifecycle.Ch_close (a, b) ->
        in_range t a && in_range t b && a <> b && (chan t a b).st > 0

  let reset c =
    c.s_lh <- 0;
    c.d_lh <- 0;
    c.s_hl <- 0;
    c.d_hl <- 0

  (* Only called on [legal] transitions. *)
  let apply t (tr : Lifecycle.transition) =
    match tr with
    | Lifecycle.Ecreate i -> t.ph.(i) <- 1
    | Lifecycle.Eadd i -> t.ph.(i) <- 2
    | Lifecycle.Einit i -> t.ph.(i) <- 3
    | Lifecycle.Quote_gen i -> t.ph.(i) <- 4
    | Lifecycle.Quote_verify i -> t.ph.(i) <- 5
    | Lifecycle.Eenter i -> t.ph.(i) <- 6
    | Lifecycle.Teardown i ->
        t.ph.(i) <- 7;
        Hashtbl.iter
          (fun (a, b) c ->
            if a = i || b = i then begin
              c.st <- 0;
              reset c
            end)
          t.chans
    | Lifecycle.Hs_start (a, b) -> (chan t a b).st <- 1
    | Lifecycle.Hs_done (a, b) ->
        let c = chan t a b in
        c.st <- 2;
        reset c
    | Lifecycle.Ch_send (s, d, _) ->
        let c = chan t s d in
        if s < d then c.s_lh <- c.s_lh + 1 else c.s_hl <- c.s_hl + 1
    | Lifecycle.Ch_deliver (s, d, _) ->
        let c = chan t s d in
        if s < d then c.d_lh <- c.d_lh + 1 else c.d_hl <- c.d_hl + 1
    | Lifecycle.Ch_close (a, b) ->
        let c = chan t a b in
        c.st <- 0;
        reset c

  (* Every syntactically plausible transition over the node domain plus
     an out-of-range id, a negative id and the self pair, with seq
     candidates bracketing both direction counters — the hostile
     surface a malicious host can aim at the checker. *)
  let domain t =
    let out = ref [] in
    let push tr = out := tr :: !out in
    for i = 0 to t.n do
      push (Lifecycle.Ecreate i);
      push (Lifecycle.Eadd i);
      push (Lifecycle.Einit i);
      push (Lifecycle.Quote_gen i);
      push (Lifecycle.Quote_verify i);
      push (Lifecycle.Eenter i);
      push (Lifecycle.Teardown i)
    done;
    for a = 0 to t.n - 1 do
      for b = 0 to t.n - 1 do
        if a <> b then begin
          push (Lifecycle.Hs_start (a, b));
          push (Lifecycle.Hs_done (a, b));
          push (Lifecycle.Ch_close (a, b));
          let c = chan t a b in
          let sent = if a < b then c.s_lh else c.s_hl in
          let dlvd = if a < b then c.d_lh else c.d_hl in
          List.iter
            (fun q ->
              push (Lifecycle.Ch_send (a, b, q));
              push (Lifecycle.Ch_deliver (a, b, q)))
            (List.sort_uniq compare
               [ 0; 1; sent; sent + 1; max 0 (dlvd - 1); dlvd; dlvd + 1 ])
        end
      done
    done;
    push (Lifecycle.Hs_start (0, 0));
    push (Lifecycle.Ch_send (0, 0, 0));
    push (Lifecycle.Ecreate (-1));
    List.rev !out
end

(* A random legal walk, mutating the shadow as it goes. Teardown/close
   are rationed so walks routinely reach open channels and sequenced
   traffic instead of tearing themselves down. *)
let lw_walk rng sh steps =
  let out = ref [] in
  for _ = 1 to steps do
    let legal = List.filter (Lw.legal sh) (Lw.domain sh) in
    let destructive = function
      | Lifecycle.Teardown _ | Lifecycle.Ch_close _ -> true
      | _ -> false
    in
    let pool =
      let fwd = List.filter (fun tr -> not (destructive tr)) legal in
      if fwd <> [] && not (Rng.chance rng 1 10) then fwd else legal
    in
    if pool <> [] then begin
      let tr = Rng.choose rng (Array.of_list pool) in
      Lw.apply sh tr;
      out := tr :: !out
    end
  done;
  List.rev !out

let lw_accept_case rng =
  let nodes = 2 + Rng.int rng 3 in
  let sh = Lw.make nodes in
  let walk = lw_walk rng sh (30 + Rng.int rng 50) in
  match Lifecycle.run (Lifecycle.create ~nodes) walk with
  | Ok _ -> None
  | Error (i, tr, v) ->
      Some
        (Printf.sprintf "legal walk rejected at step %d (%s): %s" i
           (Lifecycle.transition_to_string tr)
           (Lifecycle.violation_to_string v))

let lw_reject_case rng =
  let nodes = 2 + Rng.int rng 3 in
  let sh = Lw.make nodes in
  let walk = lw_walk rng sh (Rng.int rng 60) in
  let illegal =
    List.filter (fun tr -> not (Lw.legal sh tr)) (Lw.domain sh)
  in
  (* never empty: the out-of-range/self/negative entries are always
     illegal *)
  let mutant = Rng.choose rng (Array.of_list illegal) in
  let lc = Lifecycle.create ~nodes in
  match Lifecycle.run lc walk with
  | Error (i, tr, v) ->
      Some
        (Printf.sprintf "legal prefix rejected at step %d (%s): %s" i
           (Lifecycle.transition_to_string tr)
           (Lifecycle.violation_to_string v))
  | Ok _ -> (
      match Lifecycle.step lc mutant with
      | Ok () ->
          Some
            (Printf.sprintf
               "FALSE ACCEPT: %s after %d legal steps (%d-node cluster)"
               (Lifecycle.transition_to_string mutant)
               (List.length walk) nodes)
      | Error _ -> (
          (* rejection must not have moved the machine: anything the
             shadow still calls legal must still be accepted *)
          match List.filter (Lw.legal sh) (Lw.domain sh) with
          | [] -> None
          | legals -> (
              let probe = Rng.choose rng (Array.of_list legals) in
              match Lifecycle.step lc probe with
              | Ok () -> None
              | Error v ->
                  Some
                    (Printf.sprintf
                       "state moved on rejection: after rejected %s, legal %s \
                        failed: %s"
                       (Lifecycle.transition_to_string mutant)
                       (Lifecycle.transition_to_string probe)
                       (Lifecycle.violation_to_string v)))))

(* A [via] that is alive right now (earlier faults may have failed the
   first pick over); deterministic in the alive set. *)
let pick_via cl v =
  let n = Cluster.size cl in
  let rec go k =
    if k = n then 0 else if Cluster.alive cl ((v + k) mod n) then (v + k) mod n
    else go (k + 1)
  in
  go 0

(* Channel fault storms must be absorbed deterministically: the same
   op sequence under the same armed fault plan yields bit-identical KV
   digests, RPC/failover counts and per-channel retry totals across
   two full runs. Faults land via the production Host_transport hook,
   so drops/duplicates/reorders/corruption exercise the real
   retransmission, replay-rejection and failover paths. *)
let cluster_fault_storm inj rng =
  let nodes = 2 + Rng.int rng 2 in
  let nops = 6 + Rng.int rng 10 in
  let ops =
    List.init nops (fun k ->
        ( Rng.bool rng,
          Printf.sprintf "k%d" (Rng.int rng 12),
          Printf.sprintf "v%d.%d" k (Rng.int rng 100),
          Rng.int rng nodes ))
  in
  let at = 1 + Rng.int rng 10 in
  let times = 1 + Rng.int rng 3 in
  let fault =
    match Rng.int rng 4 with
    | 0 -> Host_transport.Drop
    | 1 -> Host_transport.Duplicate
    | 2 -> Host_transport.Reorder
    | _ -> Host_transport.Corrupt (Rng.int rng 256)
  in
  let run () =
    Attestation.reset_nonce_cache ();
    let cl = Cluster.create ~nodes () in
    Fun.protect
      ~finally:(fun () ->
        Inject.disarm ();
        Cluster.destroy cl)
      (fun () ->
        Inject.arm_channel inj ~times ~at ~fault ();
        List.iter
          (fun (put, key, v, via) ->
            let via = pick_via cl via in
            if put then ignore (Cluster.kv_put cl ~via key v)
            else ignore (Cluster.kv_get cl ~via key))
          ops;
        Inject.disarm ();
        ( Cluster.kv_digest cl,
          Cluster.rpcs cl,
          Cluster.rpc_failures cl,
          Cluster.failovers cl,
          List.fold_left
            (fun a (c : Cluster.chan_stats) -> a + c.Cluster.cs_retries)
            0 (Cluster.chan_stats cl) ))
  in
  let d1, r1, f1, o1, t1 = run () in
  let d2, r2, f2, o2, t2 = run () in
  if (d1, r1, f1, o1, t1) <> (d2, r2, f2, o2, t2) then
    Some
      (Printf.sprintf
         "fault storm not deterministic (%s x%d at %d): digest %s/%s rpcs \
          %d/%d failures %d/%d failovers %d/%d retries %d/%d"
         (match fault with
         | Host_transport.Drop -> "drop"
         | Host_transport.Duplicate -> "duplicate"
         | Host_transport.Reorder -> "reorder"
         | Host_transport.Corrupt _ -> "corrupt")
         times at
         (String.sub d1 0 12) (String.sub d2 0 12) r1 r2 f1 f2 o1 o2 t1 t2)
  else None

(* The twin differential: a fault-free N-node cluster run and a
   single-enclave twin fed the same KV workload must agree on every
   read and on the cluster-level state digest, with zero RPC failures
   and zero failovers — cross-enclave RPC is transparent when the host
   behaves. *)
let cluster_twin rng =
  let nodes = 2 + Rng.int rng 3 in
  let nops = 8 + Rng.int rng 8 in
  let ops =
    List.init nops (fun k ->
        (Printf.sprintf "key%d" (Rng.int rng 10), Printf.sprintf "val%d" k))
  in
  let vias = List.map (fun _ -> Rng.int rng nodes) ops in
  let run n vias =
    Attestation.reset_nonce_cache ();
    let cl = Cluster.create ~nodes:n () in
    Fun.protect
      ~finally:(fun () -> Cluster.destroy cl)
      (fun () ->
        List.iter2
          (fun (k, v) via ->
            if not (Cluster.kv_put cl ~via k v) then
              failwith ("fault-free kv_put failed for " ^ k))
          ops vias;
        let reads = List.map (fun (k, _) -> Cluster.kv_get cl k) ops in
        (Cluster.kv_digest cl, reads, Cluster.rpc_failures cl,
         Cluster.failovers cl))
  in
  let dn, gn, fn, on_ = run nodes vias in
  let d1, g1, _, _ = run 1 (List.map (fun _ -> 0) ops) in
  if fn <> 0 || on_ <> 0 then
    Some
      (Printf.sprintf "fault-free cluster run had %d rpc failures, %d failovers"
         fn on_)
  else if dn <> d1 then
    Some
      (Printf.sprintf "cluster/single twin digests differ: %s vs %s"
         (String.sub dn 0 12) (String.sub d1 0 12))
  else if gn <> g1 then Some "cluster/single twin reads differ"
  else None

let cluster_case inj _shrink rng case =
  let detail =
    Fun.protect
      ~finally:(fun () ->
        Inject.disarm ();
        Attestation.reset_nonce_cache ())
      (fun () ->
        match case mod 6 with
        | 0 | 2 -> lw_accept_case rng
        | 1 | 3 -> lw_reject_case rng
        | 4 -> cluster_fault_storm inj rng
        | _ -> cluster_twin rng)
  in
  Option.map
    (fun d -> { prop = Cluster_orderliness; case; detail = d; minimized = None })
    detail

(* The acceptance-bar stress driver: every case is one fully-accepted
   legal walk plus one guaranteed-illegal mutation that must be
   rejected without moving the machine. 500 cases = 500 hostile
   sequences, zero false accepts. *)
let orderliness_stress ~seed ~cases =
  let master = Rng.of_seed seed in
  let fails = ref [] in
  for case = 1 to cases do
    let rng = Rng.split master in
    (match lw_accept_case rng with
    | None -> ()
    | Some d -> fails := (case, d) :: !fails);
    match lw_reject_case rng with
    | None -> ()
    | Some d -> fails := (case, d) :: !fails
  done;
  List.rev !fails

(* --- orderliness corpus ---------------------------------------------------- *)

let orderliness_magic = "# occlum-cluster-orderliness corpus v1"

let replay_orderliness path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | s ->
      let fail n fmt =
        Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" n m)) fmt
      in
      let lc = ref None in
      let rec go n = function
        | [] -> Ok ()
        | ln :: more -> (
            let t = String.trim ln in
            if t = "" || t.[0] = '#' then go (n + 1) more
            else
              match String.index_opt t ' ' with
              | None -> fail n "unrecognized line: %s" t
              | Some i -> (
                  let kw = String.sub t 0 i in
                  let arg = String.sub t (i + 1) (String.length t - i - 1) in
                  match kw with
                  | "nodes" -> (
                      match int_of_string_opt arg with
                      | Some k when k >= 1 ->
                          lc := Some (Lifecycle.create ~nodes:k);
                          go (n + 1) more
                      | _ -> fail n "bad node count: %s" arg)
                  | "ok" | "reject" -> (
                      match !lc with
                      | None -> fail n "transition before a nodes directive"
                      | Some m -> (
                          match Lifecycle.transition_of_string arg with
                          | None -> fail n "bad transition: %s" arg
                          | Some tr -> (
                              match (kw, Lifecycle.step m tr) with
                              | "ok", Ok () -> go (n + 1) more
                              | "ok", Error v ->
                                  fail n "expected accept for %s, got: %s" arg
                                    (Lifecycle.violation_to_string v)
                              | _, Error _ -> go (n + 1) more
                              | _, Ok () -> fail n "FALSE ACCEPT: %s" arg)))
                  | _ -> fail n "unrecognized keyword: %s" kw))
      in
      go 1 (String.split_on_char '\n' s)

let emit_orderliness_corpus ~dir ~seed =
  let master = Rng.of_seed seed in
  let b = Buffer.create 2048 in
  Buffer.add_string b (orderliness_magic ^ "\n");
  Buffer.add_string b
    (Printf.sprintf
       "# hostile interleavings for the Lifecycle orderliness checker (seed \
        %Ld).\n" seed);
  Buffer.add_string b
    "# Each scenario: \"nodes n\" resets the machine; \"ok <tr>\" must be\n";
  Buffer.add_string b
    "# accepted; \"reject <tr>\" must be rejected with the state unchanged\n";
  Buffer.add_string b
    "# (the following ok lines continue from the pre-reject state).\n";
  for s = 1 to 6 do
    let rng = Rng.split master in
    let nodes = 2 + (s mod 3) in
    Buffer.add_string b (Printf.sprintf "nodes %d\n" nodes);
    let sh = Lw.make nodes in
    let emit_walk steps =
      List.iter
        (fun tr ->
          Buffer.add_string b
            ("ok " ^ Lifecycle.transition_to_string tr ^ "\n"))
        (lw_walk rng sh steps)
    in
    emit_walk (8 + Rng.int rng 10);
    let illegal =
      Array.of_list (List.filter (fun tr -> not (Lw.legal sh tr)) (Lw.domain sh))
    in
    List.init 5 (fun _ -> Rng.choose rng illegal)
    |> List.sort_uniq compare
    |> List.iter (fun tr ->
           Buffer.add_string b
             ("reject " ^ Lifecycle.transition_to_string tr ^ "\n"));
    emit_walk (4 + Rng.int rng 6)
  done;
  let file = Filename.concat dir "gen-cluster-orderliness.fuzz" in
  let oc = open_out file in
  output_string oc (Buffer.contents b);
  close_out oc;
  file

(* --- runner -------------------------------------------------------------- *)

let run_case prop inj shrink rng case =
  match prop with
  | Codec_roundtrip ->
      Option.map
        (fun d -> { prop; case; detail = d; minimized = None })
        (codec_case rng)
  | Cache_equivalence -> cache_equivalence_case inj shrink rng case
  | Verifier_soundness -> soundness_case inj shrink rng case
  | Aex_identity -> aex_case inj shrink rng case
  | Epc_pressure -> epc_case inj shrink rng case
  | Mc_determinism -> mc_case inj shrink rng case
  | Guard_elide -> elide_case inj shrink rng case
  | Jit_equivalence -> jit_case inj shrink rng case
  | Cluster_orderliness -> cluster_case inj shrink rng case

let run ?(properties = all_properties) ?(shrink = true) ?metrics ~seed ~cases
    () =
  let inj = Inject.make () in
  let results =
    List.map
      (fun prop ->
        let master =
          Rng.of_seed
            (Int64.add seed (Int64.of_int (1_000_003 * property_index prop)))
        in
        let failures = ref [] in
        for case = 1 to cases do
          let rng = Rng.split master in
          match run_case prop inj shrink rng case with
          | None -> ()
          | Some f -> failures := f :: !failures
        done;
        { rprop = prop; cases_run = cases; failures = List.rev !failures })
      properties
  in
  (match metrics with
  | None -> ()
  | Some reg ->
      let module M = Occlum_obs.Metrics in
      M.add (M.counter reg "fuzz.cases") (cases * List.length properties);
      M.add
        (M.counter reg "fuzz.failures")
        (List.fold_left (fun a r -> a + List.length r.failures) 0 results);
      Inject.export inj reg);
  { seed; cases; results; injected = inj }

let ok report = List.for_all (fun r -> r.failures = []) report.results

(* --- reporting ----------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let report_to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"tool\":\"occlum_fuzz\",\"seed\":%Ld,\"cases\":%d,\"ok\":%b,"
       r.seed r.cases (ok r));
  Buffer.add_string b
    (Printf.sprintf "\"injected\":{\"aex\":%d,\"epc\":%d,\"io\":%d,\"chan\":%d},"
       r.injected.Inject.aex r.injected.Inject.epc r.injected.Inject.io
       r.injected.Inject.chan);
  Buffer.add_string b "\"properties\":[";
  List.iteri
    (fun i pr ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"%s\",\"cases\":%d,\"failures\":["
           (property_name pr.rprop) pr.cases_run);
      List.iteri
        (fun j f ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"case\":%d,\"detail\":\"%s\"" f.case
               (json_escape f.detail));
          (match f.minimized with
          | None -> ()
          | Some items ->
              Buffer.add_string b
                (Printf.sprintf ",\"minimized_insns\":%d,\"minimized\":["
                   (Shrink.instruction_count items));
              List.iteri
                (fun k it ->
                  if k > 0 then Buffer.add_char b ',';
                  Buffer.add_char b '"';
                  Buffer.add_string b (json_escape (Asm.item_to_string it));
                  Buffer.add_char b '"')
                items;
              Buffer.add_char b ']');
          Buffer.add_char b '}')
        pr.failures;
      Buffer.add_string b "]}")
    r.results;
  Buffer.add_string b "]}";
  Buffer.contents b

let summary r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "occlum_fuzz: seed=%Ld cases=%d per property\n" r.seed
       r.cases);
  List.iter
    (fun pr ->
      Buffer.add_string b
        (Printf.sprintf "  %-20s %4d cases  %s\n"
           (property_name pr.rprop) pr.cases_run
           (match List.length pr.failures with
           | 0 -> "ok"
           | n -> Printf.sprintf "%d FAILURES" n)))
    r.results;
  Buffer.add_string b
    (Printf.sprintf
       "  injected: %d AEX, %d EPC faults, %d I/O faults, %d channel faults\n"
       r.injected.Inject.aex r.injected.Inject.epc r.injected.Inject.io
       r.injected.Inject.chan);
  List.iter
    (fun pr ->
      List.iter
        (fun f ->
          Buffer.add_string b
            (Printf.sprintf "  FAIL %s case %d: %s\n"
               (property_name pr.rprop) f.case f.detail);
          match f.minimized with
          | None -> ()
          | Some items ->
              Buffer.add_string b
                (Printf.sprintf "    minimized to %d instructions:\n"
                   (Shrink.instruction_count items));
              List.iter
                (fun it ->
                  Buffer.add_string b
                    ("      " ^ Asm.item_to_string it ^ "\n"))
                items)
        pr.failures)
    r.results;
  Buffer.contents b

(* --- corpus -------------------------------------------------------------- *)

let replay_items items =
  match Gen.link items with
  | exception e -> Error ("corpus program does not link: " ^ Printexc.to_string e)
  | oelf -> (
      match Verify.verify oelf with
      | Error (r :: _) ->
          Error ("corpus program rejected: " ^ Verify.rejection_to_string r)
      | Error [] -> Error "corpus program rejected"
      | Ok _ -> (
          match contained oelf ~period:1 ~fuel:20_000 with
          | Error v ->
              Error ("corpus program escaped: " ^ Exec.violation_to_string v)
          | Ok _ -> (
              (* the elision pass must also handle every corpus entry:
                 classify, rewrite, and get re-accepted by the verifier *)
              match Elide.run ~sign:false oelf with
              | Error e ->
                  Error
                    ("corpus program broke the elision pass: "
                    ^ Elide.error_to_string e)
              | Ok _ -> (
                  (* and the three execution tiers must agree on it *)
                  match
                    drive_triple ~mode:J_plain ~perturb_seed:0L
                      ~code_perm:Mem.perm_rx oelf ~period:3 ~fuel:6000
                  with
                  | Ok () -> Ok ()
                  | Error d -> Error ("corpus program split the tiers: " ^ d)))))

let has_insn p items =
  List.exists (function Asm.Ins i -> p i | _ -> false) items

let features : (string * (Asm.item list -> bool)) list =
  [
    ("sib-store", has_insn (function Insn.Store { dst = Sib _; _ } -> true | _ -> false));
    ("sib-load", has_insn (function Insn.Load { src = Sib { base; _ }; _ } -> base <> Reg.sp | _ -> false));
    ("push-pop", has_insn (function Insn.Push _ -> true | _ -> false));
    ("rip-rel",
     has_insn (function
       | Insn.Load { src = Rip_rel _; _ } | Insn.Store { dst = Rip_rel _; _ } -> true
       | _ -> false));
    ("indirect-jmp", has_insn (function Insn.Jmp_reg _ -> true | _ -> false));
    ("call", fun items -> List.exists (function Asm.Call_l _ -> true | _ -> false) items);
    ("syscall", has_insn (function Insn.Call_reg _ -> true | _ -> false));
    ("loop", fun items -> List.exists (function Asm.Jcc_l _ -> true | _ -> false) items);
    ("cfi-guard", fun items -> List.exists (function Asm.Cfi_guard _ -> true | _ -> false) items);
    ("alu-div", has_insn (function Insn.Alu ((Insn.Divu | Insn.Remu), _, _) -> true | _ -> false));
    ("guard-elide",
     fun items ->
       (* programs where the elision pass actually removes guards *)
       match Gen.link items with
       | exception _ -> false
       | oelf -> (
           match Verify.verify oelf with
           | Error _ -> false
           | Ok d -> (Elide.analyze oelf d).Elide.elided > 0));
    ("jit-equivalence",
     fun items ->
       (* programs hot enough that a block is actually promoted into the
          JIT and then replayed from compiled code *)
       match Gen.link items with
       | exception _ -> false
       | oelf -> (
           match Verify.verify oelf with
           | Error _ -> false
           | Ok _ ->
               let env = Exec.make ~code_perm:Mem.perm_rx oelf in
               let cache = Decode_cache.create () in
               let jit = Jit.create ~threshold:2 () in
               let rec go () =
                 let rem = 6000 - env.Exec.cpu.Cpu.insns in
                 if rem > 0 then
                   match
                     Interp.run ~cache ~jit env.Exec.mem env.Exec.cpu ~fuel:rem
                   with
                   | Interp.Stop_syscall ->
                       let nr =
                         Int64.to_int (Cpu.get env.Exec.cpu sys_nr_reg)
                       in
                       if nr <> Occlum_abi.Abi.Sys.exit then begin
                         Cpu.set env.Exec.cpu R.result 0L;
                         go ()
                       end
                   | Interp.Stop_fault _ -> ()
                   | Interp.Stop_quantum -> go ()
               in
               go ();
               let compiles, _, _ = Jit.stats jit in
               compiles > 0 && env.Exec.cpu.Cpu.jit_hits > 0));
  ]

let passes items =
  match Gen.link items with
  | exception _ -> false
  | oelf -> (
      match Verify.verify oelf with
      | Error _ -> false
      | Ok _ -> (
          match Exec.run_contained ~fuel:20_000 (Exec.make oelf) with
          | Ok _ -> true
          | Error _ -> false))

let emit_corpus ~dir ~seed =
  let master = Rng.of_seed seed in
  List.filter_map
    (fun (name, has) ->
      let rec search tries =
        if tries = 0 then None
        else begin
          let rng = Rng.split master in
          let items = Gen.program rng in
          if has items && passes items then Some items else search (tries - 1)
        end
      in
      match search 300 with
      | None -> None
      | Some items ->
          let keep its = has its && passes its in
          let small = Shrink.minimize keep items in
          let file = Filename.concat dir ("gen-" ^ name ^ ".fuzz") in
          Corpus.save file
            ~comment:
              (Printf.sprintf
                 "generator feature: %s (seed %Ld, minimized); must verify and stay contained"
                 name seed)
            small;
          Some (file, Shrink.instruction_count small))
    features
