(* The four workloads, driven from outside the program through its
   public calls: Os.boot/install_binary/spawn/step/run, Net.external_*,
   Sefs.*, Compile.compile_exn and Verify.verify_and_sign. One call of
   [iteration] is one full set-up plus one measured phase. Every call
   into a layer is wrapped in a span of the recorder it is given
   (disabled for timing runs). *)

module Os = Occlum_libos.Os
module Net = Occlum_libos.Net
module Sefs = Occlum_libos.Sefs
module Obs = Occlum_obs.Obs
module Metrics = Occlum_obs.Metrics
module W = Occlum_workloads

type workload = Fish | Gcc | C10k | Hackbench

let all = [ Fish; Gcc; C10k; Hackbench ]

let name = function
  | Fish -> "fish"
  | Gcc -> "gcc"
  | C10k -> "c10k"
  | Hackbench -> "hackbench"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Simulated cores per workload: hackbench alone runs the multi-core
   epoch scheduler. *)
let cores = function Hackbench -> 2 | Fish | Gcc | C10k -> 1

(* What one operation is, for the throughput metric. *)
let op_name = function
  | Fish -> "spawns"
  | Gcc -> "lines"
  | C10k -> "responses"
  | Hackbench -> "MiB"

(* Simulated statistics of the measured phase. They depend only on the
   seed and the sizes, so reruns — traced or not — must agree exactly. *)
type sim = {
  vclock_ns : int64;
  syscalls : int;
  gate_crossings : int;
  spawns : int;
  latencies : int array;  (** sorted virtual ns per request (c10k) *)
}

(* Counters the program already keeps in its Obs registry, as deltas
   over the measured phase. Only read when Obs is enabled. *)
type counters = {
  insns : int;
  blocked : int;
  obs_syscalls : int;
  sefs_read : int;
  sefs_written : int;
  epochs : int;
  steals : int;
  cross_wakes : int;
  ewb : int;
  eldu : int;
}

type result = {
  setup_s : float;
  measure_s : float;  (** host wall time of the measured phase *)
  cpu_s : float;  (** process CPU time over the measured phase *)
  ops : float;
  checked : int;  (** outputs checked against the oracle *)
  failed : int;  (** of those, wrong or missing *)
  why : string list;  (** one line per failure kind *)
  sim : sim;
  counters : counters option;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  dcache : int * int;  (** hits, misses (whole boot) *)
  jit : int * int;  (** compiles, hits (whole boot) *)
  jit_deopts : int;  (** traced runs only *)
  epc_peak : int;  (** pages; sampled per step in traced runs *)
  client_bytes : int;
  connects : int;
  connect_eagain : int;
  binary_bytes : int;  (** signed OELF bytes verified *)
}

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

type ctx = {
  sp : Spans.t;
  obs : bool;  (** enable an Obs instance to read the program's counters *)
  sizes : Inputs.sizes;
  seed : int;
  pool : bool;
      (** multi-core workloads: run through Os.run, whose worker domains
          execute each epoch's quanta in parallel, instead of stepping
          the epochs on this domain with Os.step *)
}

(* --- set-up ------------------------------------------------------------- *)

let build c progs =
  let bytes = ref 0 in
  let bins =
    List.map
      (fun (path, prog) ->
        let oelf =
          Spans.with_span c.sp "toolchain.compile" (fun () ->
              Occlum_toolchain.Compile.compile_exn
                ~config:(W.Harness.codegen_config W.Harness.Occlum) prog)
        in
        let signed =
          Spans.with_span c.sp "verifier.verify_sign" (fun () ->
              match Occlum_verifier.Verify.verify_and_sign oelf with
              | Ok s -> s
              | Error rs ->
                  fail "verifier rejected %s: %s" path
                    (Occlum_verifier.Verify.rejection_to_string (List.hd rs)))
        in
        bytes := !bytes + Occlum_oelf.Oelf.size signed;
        (path, signed))
      progs
  in
  (bins, !bytes)

let boot c ~cores ~max_domains =
  let config =
    {
      Os.default_config with
      cores;
      domains = { Occlum_libos.Domain_mgr.default_config with max_domains };
    }
  in
  let obs =
    if c.obs then Some (Obs.create ~capacity:65536 ~events:[ Obs.Lifecycle ] ())
    else None
  in
  Spans.with_span c.sp "libos.boot" (fun () -> Os.boot ~config ?obs ())

let install c os bins =
  Spans.with_span c.sp "libos.install" (fun () ->
      List.iter (fun (p, o) -> Os.install_binary os p o) bins)

let spawn c os path args =
  Spans.with_span c.sp "libos.spawn" (fun () ->
      Os.spawn os ~parent_pid:0 ~path ~args)

(* --- per-step sampling (traced runs) ------------------------------------- *)

type probe = {
  deopts : (int, int) Hashtbl.t;  (** pid -> last seen deopt count *)
  mutable epc_peak : int;
}

let new_probe () = { deopts = Hashtbl.create 64; epc_peak = 0 }

let sample c pr os =
  if c.sp.Spans.enabled then begin
    let id = Spans.enter c.sp "obs.sample" in
    Hashtbl.iter
      (fun pid (p : Os.proc) ->
        Hashtbl.replace pr.deopts pid p.Os.cpu.Occlum_machine.Cpu.jit_deopts)
      os.Os.procs;
    pr.epc_peak <- max pr.epc_peak (Occlum_sgx.Epc.used_pages os.Os.epc);
    Spans.leave c.sp id
  end

let step c pr os =
  let id = Spans.enter c.sp "libos.step" in
  let ran = Os.step os in
  Spans.leave c.sp id;
  sample c pr os;
  ran

(* Step until every SIP has exited. Nothing here sleeps, so a step that
   finds nothing runnable twice in a row with SIPs alive is a deadlock. *)
let drive ?(max_steps = 5_000_000) c pr os =
  let steps = ref 0 and idle = ref 0 and fin = ref false in
  while not !fin do
    if !steps >= max_steps then fail "step quota exhausted (%d steps)" max_steps;
    incr steps;
    if step c pr os then idle := 0
    else if Os.live_procs os = [] then fin := true
    else begin
      incr idle;
      if !idle >= 2 then
        fail "deadlock: pids %s blocked"
          (String.concat ","
             (List.map (fun p -> string_of_int p.Os.pid) (Os.live_procs os)))
    end
  done

(* --- measurement -------------------------------------------------------- *)

(* Read without registering: a get-or-create with other bounds would
   break the multi-core shard merge. *)
let read_counters os =
  let o = os.Os.obs in
  if not o.Obs.enabled then None
  else
    let items = Metrics.to_json_items o.Obs.metrics in
    let get k = match List.assoc_opt k items with Some v -> int_of_float v | None -> 0 in
    Some
      {
        insns = get "os.quantum.insns.sum";
        blocked = get "os.syscalls.blocked";
        obs_syscalls = get "os.syscalls";
        sefs_read = get "sefs.read.bytes";
        sefs_written = get "sefs.write.bytes";
        epochs = get "sched.mc.epochs";
        steals = get "sched.mc.steals";
        cross_wakes = get "sched.mc.cross_wakes";
        ewb = get "epc.ewb";
        eldu = get "epc.eldu";
      }

let diff_counters a b =
  match (a, b) with
  | Some a, Some b ->
      Some
        {
          insns = b.insns - a.insns;
          blocked = b.blocked - a.blocked;
          obs_syscalls = b.obs_syscalls - a.obs_syscalls;
          sefs_read = b.sefs_read - a.sefs_read;
          sefs_written = b.sefs_written - a.sefs_written;
          epochs = b.epochs - a.epochs;
          steals = b.steals - a.steals;
          cross_wakes = b.cross_wakes - a.cross_wakes;
          ewb = b.ewb - a.ewb;
          eldu = b.eldu - a.eldu;
        }
  | _ -> None

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let secs ns = float ns /. 1e9

(* Exit codes from the Obs lifecycle trace (when enabled) and of the
   benchmark's own top-level SIPs, given as (pid, expected code); every
   other SIP must exit 0. Any fault fails too. *)
let exit_failures os top =
  let bad = ref [] in
  if os.Os.faults <> [] then
    bad := Printf.sprintf "%d SIP fault(s)" (List.length os.Os.faults) :: !bad;
  let want pid = Option.value ~default:0 (List.assoc_opt pid top) in
  List.iter
    (fun (pid, code) ->
      match Os.find_proc os pid with
      | Some p when p.Os.state = `Zombie && p.Os.exit_code = code -> ()
      | Some p when p.Os.state = `Zombie ->
          bad := Printf.sprintf "pid %d exited %d" pid p.Os.exit_code :: !bad
      | _ -> bad := Printf.sprintf "pid %d did not exit" pid :: !bad)
    top;
  let o = os.Os.obs in
  if o.Obs.enabled then begin
    if Occlum_obs.Trace.dropped o.Obs.trace > 0 then
      bad := "lifecycle trace dropped events" :: !bad;
    List.iter
      (fun (e : Occlum_obs.Trace.event) ->
        match e.kind with
        | Occlum_obs.Trace.Exit { pid; code } when code <> want pid ->
            bad := Printf.sprintf "pid %d exited %d" pid code :: !bad
        | _ -> ())
      (Occlum_obs.Trace.events o.Obs.trace)
  end;
  List.sort_uniq compare !bad

(* Everything a workload's body hands back to [iteration]. *)
type body = {
  os : Os.t;
  top : (int * int) list;
      (** SIPs the benchmark spawned itself, with their expected exit code *)
  ops_done : float;
  check : unit -> int * int * string list;  (** checked, failed, why *)
  latencies : int array;
  net_bytes : int;
  net_connects : int;
  net_eagain : int;
}

(* --- fish ------------------------------------------------------------- *)

(* One shell per round, so each round gets its own seeded line count;
   the shell then spawns the four-stage pipeline. *)
let fish c ~setup_done ~measure_done =
  let lines = Inputs.fish_lines ~seed:c.seed c.sizes in
  let bins, bytes = build c W.Fish.binaries in
  let os = boot c ~cores:1 ~max_domains:16 in
  install c os bins;
  setup_done os bytes;
  let pr = new_probe () in
  let s0 = os.Os.spawns in
  let top =
    Array.to_list
      (Array.map
         (fun l ->
           let pid = spawn c os "/bin/fish" [ "1"; string_of_int l ] in
           drive c pr os;
           pid)
         lines)
  in
  measure_done pr;
  let check () =
    let console = Os.console_output os in
    let want = Array.to_list (Array.map Oracle.fish_round lines) in
    let got = Array.of_list (String.split_on_char '\n' console) in
    let bad = ref 0 in
    List.iteri
      (fun k w ->
        if k >= Array.length got || got.(k) ^ "\n" <> w then incr bad)
      want;
    (* the console must hold the wc lines and nothing else *)
    let extra = !bad = 0 && console <> String.concat "" want in
    if extra then incr bad;
    ( List.length want, !bad,
      (if !bad > 0 && not extra then [ Printf.sprintf "%d wc count(s) wrong" !bad ] else [])
      @ if extra then [ "console holds output besides the wc counts" ] else [] )
  in
  {
    os; top = List.map (fun p -> (p, 0)) top; ops_done = float (os.Os.spawns - s0);
    check; latencies = [||];
    net_bytes = 0; net_connects = 0; net_eagain = 0;
  }

(* --- gcc -------------------------------------------------------------- *)

let gcc c ~setup_done ~measure_done =
  let src = Inputs.gcc_source ~seed:c.seed c.sizes in
  let bins, bytes = build c W.Gcc_pipeline.binaries in
  let os = boot c ~cores:1 ~max_domains:16 in
  install c os bins;
  Spans.with_span c.sp "sefs.write_input" (fun () ->
      Sefs.ensure_parents os.Os.sefs "/src/x";
      Sefs.ensure_parents os.Os.sefs "/tmp/x";
      match Sefs.write_path os.Os.sefs "/src/input.c" src with
      | Ok _ -> ()
      | Error e -> fail "writing the source: errno %d" e);
  setup_done os bytes;
  let pr = new_probe () in
  let pid = spawn c os "/bin/cc" [ "/src/input.c" ] in
  drive ~max_steps:20_000_000 c pr os;
  Spans.with_span c.sp "sefs.flush" (fun () -> Os.flush_fs os);
  let out =
    Spans.with_span c.sp "sefs.read_output" (fun () ->
        Sefs.read_path os.Os.sefs "/tmp/a.out")
  in
  measure_done pr;
  let check () =
    let want_out, want_console = Oracle.gcc src in
    let why =
      (match out with
      | Ok s when s = want_out -> []
      | Ok _ -> [ "/tmp/a.out differs from the reference" ]
      | Error e -> [ Printf.sprintf "/tmp/a.out unreadable: errno %d" e ])
      @
      if Os.console_output os = want_console then []
      else [ "ld's size line differs from the reference" ]
    in
    (1, (if why = [] then 0 else 1), why)
  in
  {
    os; top = [ (pid, 0) ]; ops_done = float c.sizes.Inputs.gcc_lines; check;
    latencies = [||]; net_bytes = 0; net_connects = 0; net_eagain = 0;
  }

(* --- c10k ------------------------------------------------------------- *)

(* A closed loop of keep-alive clients against one event-loop server:
   a client sends its next request only after the whole previous
   response arrived. Endpoint wake hooks queue ready clients, so each
   pass after a scheduler step touches only the clients that have
   something to read. *)
let c10k c ~setup_done ~measure_done =
  let inp = Inputs.c10k ~seed:c.seed c.sizes in
  let n = c.sizes.Inputs.c10k_clients in
  let total = Array.fold_left ( + ) 0 inp.Inputs.requests in
  let bins, bytes = build c [ ("/bin/httpd_ev", W.Httpd.ev_prog) ] in
  let os = boot c ~cores:1 ~max_domains:16 in
  let net = os.Os.net in
  net.Net.sock_ring_bytes <- 16384;
  install c os bins;
  let server = spawn c os "/bin/httpd_ev" [ string_of_int total; "0"; "0" ] in
  let pr = new_probe () in
  let guard = ref 0 in
  while (not (Net.has_listener net ~port:W.Httpd.port)) && !guard < 100_000 do
    incr guard;
    ignore (step c pr os)
  done;
  if not (Net.has_listener net ~port:W.Httpd.port) then fail "server never listened";
  setup_done os bytes;
  let resp = Oracle.response in
  let rlen = String.length resp in
  let request = W.Httpd.request in
  let eps = Array.make n None in
  let got = Array.make n 0 in
  let left = Array.copy inp.Inputs.requests in
  let sent_at = Array.make n 0L in
  let host_sent = Array.make n 0 in
  let req_of = Array.make n (-1) in
  let queued = Bytes.make n '\000' in
  let ready = Array.make n 0 in
  let rhead = ref 0 and rlen_q = ref 0 in
  let lat = Array.make total 0 in
  let completed = ref 0 and bad_bytes = ref 0 and short_sends = ref 0 in
  let next_req = ref 0 in
  let bytes_moved = ref 0 and connects = ref 0 and eagain = ref 0 in
  let next = ref 0 in
  let scratch = Bytes.create 16384 in
  let enqueue k () =
    if Bytes.unsafe_get queued k = '\000' then begin
      Bytes.unsafe_set queued k '\001';
      ready.((!rhead + !rlen_q) mod n) <- k;
      incr rlen_q
    end
  in
  let send k ep =
    let r = !next_req in
    incr next_req;
    req_of.(k) <- r;
    let id = Spans.enter ~req:r c.sp "net.client_send" in
    let m = Net.external_send net ep request in
    Spans.leave c.sp id;
    if m <> String.length request then incr short_sends;
    bytes_moved := !bytes_moved + m;
    sent_at.(k) <- Os.clock os;
    if c.sp.Spans.enabled then host_sent.(k) <- Spans.now_ns ()
  in
  let connect () =
    let lid = Spans.enter c.sp "loadgen.connect" in
    let stop = ref false in
    while (not !stop) && !next < n do
      let k = inp.Inputs.order.(!next) in
      incr connects;
      let id = Spans.enter c.sp "net.client_connect" in
      let r = Net.external_connect net ~port:W.Httpd.port in
      Spans.leave c.sp id;
      match r with
      | Error e ->
          if e = Occlum_abi.Abi.Errno.eagain then incr eagain
          else fail "connect: errno %d" e;
          stop := true
      | Ok ep ->
          ep.Net.wake <- [ enqueue k ];
          eps.(k) <- Some ep;
          incr next;
          send k ep
    done;
    Spans.leave c.sp lid
  in
  (* compare a received chunk with the expected response bytes *)
  let matches off m =
    let ok = ref true and i = ref 0 in
    while !ok && !i + 8 <= m && off + !i + 8 <= rlen do
      if Bytes.get_int64_ne scratch !i <> String.get_int64_ne resp (off + !i)
      then ok := false;
      i := !i + 8
    done;
    while !ok && !i < m do
      if Bytes.unsafe_get scratch !i <> resp.[(off + !i) mod rlen] then ok := false;
      incr i
    done;
    !ok
  in
  let serve k =
    match eps.(k) with
    | None -> ()
    | Some ep ->
        let go = ref true in
        while !go do
          let id = Spans.enter ~req:req_of.(k) c.sp "net.client_recv" in
          let m = Net.external_recv_into net ep scratch in
          Spans.leave c.sp id;
          if m = 0 then go := false
          else begin
            bytes_moved := !bytes_moved + m;
            if got.(k) + m > rlen || not (matches got.(k) m) then incr bad_bytes;
            got.(k) <- got.(k) + m;
            if got.(k) >= rlen then begin
              got.(k) <- 0;
              if !completed < total then
                lat.(!completed) <- Int64.to_int (Int64.sub (Os.clock os) sent_at.(k));
              incr completed;
              if c.sp.Spans.enabled then
                Spans.add_async c.sp "loadgen.request" ~req:req_of.(k)
                  ~start:host_sent.(k) ~stop:(Spans.now_ns ());
              left.(k) <- left.(k) - 1;
              if left.(k) > 0 then send k ep
              else begin
                let id = Spans.enter c.sp "net.client_close" in
                Net.close_endpoint ep;
                Spans.leave c.sp id;
                eps.(k) <- None;
                go := false
              end
            end
          end
        done
  in
  let dispatch () =
    let id = Spans.enter c.sp "loadgen.dispatch" in
    while !rlen_q > 0 do
      let k = ready.(!rhead) in
      rhead := (!rhead + 1) mod n;
      decr rlen_q;
      Bytes.unsafe_set queued k '\000';
      serve k
    done;
    Spans.leave c.sp id
  in
  connect ();
  let steps = ref 0 and idle = ref 0 in
  while !completed < total do
    incr steps;
    if !steps > 5_000_000 then fail "step quota exhausted with %d/%d responses" !completed total;
    let ran = step c pr os in
    if !rlen_q > 0 then dispatch ();
    if !next < n then connect ();
    if ran then idle := 0
    else begin
      incr idle;
      if !idle > 1000 then fail "stalled with %d/%d responses" !completed total
    end
  done;
  (* the server exits once its quota is served *)
  drive c pr os;
  measure_done pr;
  let check () =
    let why =
      (if !bad_bytes > 0 then [ Printf.sprintf "%d response chunk(s) not byte-exact" !bad_bytes ] else [])
      @ (if !short_sends > 0 then [ Printf.sprintf "%d short request send(s)" !short_sends ] else [])
      @ if !completed <> total then [ Printf.sprintf "%d of %d responses" !completed total ] else []
    in
    (total, min total (!bad_bytes + !short_sends + (total - min total !completed)), why)
  in
  let latencies = Array.sub lat 0 (min total !completed) in
  Array.sort compare latencies;
  {
    (* the server exits with the number of responses it served *)
    os; top = [ (server, total) ]; ops_done = float !completed; check; latencies;
    net_bytes = !bytes_moved; net_connects = !connects; net_eagain = !eagain;
  }

(* --- hackbench ---------------------------------------------------------- *)

(* Groups of pipe_bench parent + writer + reader streaming through one
   pipe each, all live at once on two simulated cores. *)
let hackbench c ~setup_done ~measure_done =
  let s = c.sizes in
  let sizes = Inputs.hb_write_sizes ~seed:c.seed s in
  let bins, bytes = build c W.Harness.pipe_binaries in
  let os = boot c ~cores:2 ~max_domains:((3 * s.Inputs.hb_groups) + 2) in
  install c os bins;
  setup_done os bytes;
  let pr = new_probe () in
  let top =
    Array.to_list
      (Array.map
         (fun b ->
           spawn c os "/bin/pipe_bench"
             [ string_of_int b; string_of_int s.Inputs.hb_bytes ])
         sizes)
  in
  if c.pool then begin
    let st =
      Spans.with_span c.sp "libos.run" (fun () -> Os.run ~max_steps:5_000_000 os)
    in
    sample c pr os;
    match st with
    | Os.All_exited -> ()
    | Os.Quota_exhausted -> fail "step quota exhausted"
    | Os.Deadlock pids ->
        fail "deadlock: pids %s" (String.concat "," (List.map string_of_int pids))
  end
  else begin
    drive c pr os;
    Os.merge_core_metrics os
  end;
  measure_done pr;
  let totals =
    Oracle.hackbench_totals ~bytes:s.Inputs.hb_bytes sizes (Os.console_output os)
  in
  let check () =
    ( s.Inputs.hb_groups,
      (if totals = None then s.Inputs.hb_groups else 0),
      if totals <> None then []
      else
        [ Printf.sprintf "reader byte totals %S do not match the write sizes"
            (Os.console_output os) ] )
  in
  {
    os; top = List.map (fun p -> (p, 0)) top;
    ops_done = float (s.Inputs.hb_groups * s.Inputs.hb_bytes) /. 1048576.;
    check; latencies = [||]; net_bytes = 0; net_connects = 0; net_eagain = 0;
  }

(* The enclave-wide decode cache, or under multi-core the per-core ones. *)
let dcache_stats os =
  match os.Os.sched with
  | None -> Os.decode_cache_stats os
  | Some s ->
      Some
        (Array.fold_left
           (fun (a, b, c) core ->
             match core.Occlum_libos.Sched.dcache with
             | Some d ->
                 let x, y, z = Occlum_machine.Decode_cache.stats d in
                 (a + x, b + y, c + z)
             | None -> (a, b, c))
           (0, 0, 0) s.Occlum_libos.Sched.cores)

(* --- one iteration -------------------------------------------------------- *)

(* Program state read at the edges of the measured phase. *)
type snap = {
  s_clock : int64;
  s_syscalls : int;
  s_gates : int;
  s_spawns : int;
  s_counters : counters option;
  s_cpu : float;
  s_gc : Gc.stat;
  s_ns : int;
}

let take os =
  {
    s_clock = Os.clock os;
    s_syscalls = os.Os.syscalls;
    s_gates = os.Os.gate_crossings;
    s_spawns = os.Os.spawns;
    s_counters = read_counters os;
    s_cpu = cpu_now ();
    s_gc = Gc.quick_stat ();
    s_ns = Spans.now_ns ();
  }

(* Set up, run and check one instance of [w]. Failures of any kind —
   a stuck or faulting program, a wrong output, an exception — come
   back as a result whose [failed] is positive; its timings are then
   not used. *)
let iteration c w =
  let t_start = Spans.now_ns () in
  let phase = ref (Spans.enter c.sp "bench.setup") in
  let edges = ref None and last = ref None in
  let bin_bytes = ref 0 and probe = ref (new_probe ()) in
  let setup_done os bytes =
    Spans.leave c.sp !phase;
    bin_bytes := bytes;
    edges := Some (os, take os);
    phase := Spans.enter c.sp "bench.measure"
  in
  let measure_done pr =
    probe := pr;
    (match !edges with Some (os, s0) -> last := Some (os, s0, take os) | None -> ());
    Spans.leave c.sp !phase;
    phase := Spans.enter c.sp "oracle.check"
  in
  let body =
    try
      Ok
        (match w with
        | Fish -> fish c ~setup_done ~measure_done
        | Gcc -> gcc c ~setup_done ~measure_done
        | C10k -> c10k c ~setup_done ~measure_done
        | Hackbench -> hackbench c ~setup_done ~measure_done)
    with
    | Failed m -> Error m
    | Os.Spawn_error e -> Error (Printf.sprintf "spawn failed: errno %d" e)
    | e -> Error ("exception: " ^ Printexc.to_string e)
  in
  let checked, failed, why =
    match body with
    | Error m -> (1, 1, [ m ])
    | Ok b -> (
        try
          let ch, fl, why = b.check () in
          let ex = exit_failures b.os b.top in
          (ch, (if ex <> [] then max 1 fl else fl), why @ ex)
        with e -> (1, 1, [ "check raised " ^ Printexc.to_string e ]))
  in
  Spans.unwind c.sp !phase;
  let pr = !probe in
  let base =
    {
      setup_s = 0.; measure_s = 0.; cpu_s = 0.; ops = 0.; checked; failed; why;
      sim = { vclock_ns = 0L; syscalls = 0; gate_crossings = 0; spawns = 0; latencies = [||] };
      counters = None; minor_words = 0.; promoted_words = 0.; major_collections = 0;
      dcache = (0, 0); jit = (0, 0); jit_deopts = 0; epc_peak = 0; client_bytes = 0;
      connects = 0; connect_eagain = 0; binary_bytes = !bin_bytes;
    }
  in
  match (body, !last) with
  | Ok b, Some (os, s0, s1) ->
      let dh, dm, _ = Option.value ~default:(0, 0, 0) (dcache_stats os) in
      let jc, jh, _ = Option.value ~default:(0, 0, 0) (Os.jit_stats os) in
      {
        base with
        setup_s = secs (s0.s_ns - t_start);
        measure_s = secs (s1.s_ns - s0.s_ns);
        cpu_s = s1.s_cpu -. s0.s_cpu;
        ops = b.ops_done;
        sim =
          {
            vclock_ns = Int64.sub s1.s_clock s0.s_clock;
            syscalls = s1.s_syscalls - s0.s_syscalls;
            gate_crossings = s1.s_gates - s0.s_gates;
            spawns = s1.s_spawns - s0.s_spawns;
            latencies = b.latencies;
          };
        counters = diff_counters s0.s_counters s1.s_counters;
        minor_words = s1.s_gc.Gc.minor_words -. s0.s_gc.Gc.minor_words;
        promoted_words = s1.s_gc.Gc.promoted_words -. s0.s_gc.Gc.promoted_words;
        major_collections = s1.s_gc.Gc.major_collections - s0.s_gc.Gc.major_collections;
        dcache = (dh, dm);
        jit = (jc, jh);
        jit_deopts = Hashtbl.fold (fun _ d a -> a + d) pr.deopts 0;
        epc_peak = pr.epc_peak;
        client_bytes = b.net_bytes;
        connects = b.net_connects;
        connect_eagain = b.net_eagain;
      }
  | _ -> base
