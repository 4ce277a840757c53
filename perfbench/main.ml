(* Host cost of four paper workloads (fish, gcc, c10k, hackbench).

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one untimed warm-up instance with the program's Obs counters
   enabled (guest instruction count, exit codes), then repeats set-up +
   measured phase until S seconds have passed. With --trace 0 the timed
   instances run with tracing off and the end-to-end metrics are
   printed; with --trace 1 traced and untraced instances alternate
   (plus, for multi-core workloads, instances through Os.run's worker
   domains), the per-layer metrics and a self-time table are printed,
   and the spans of the last traced instance are written as Chrome
   trace_event JSON. Every output is checked against an oracle and the
   simulated statistics of every instance must equal the warm-up's. The
   last line of stdout is the JSON result. *)

open Perfbench

let workload = ref ""
let seed = ref (-1)
let seconds = ref 0
let trace = ref (-1)

(* where the traced run writes its Chrome trace, inside the checkout *)
let out_dir = ".perfbench_out"

let spec =
  [
    ("--workload", Arg.Set_string workload, "fish|gcc|c10k|hackbench");
    ("--seed", Arg.Set_int seed, "N  workload seed (>= 0)");
    ("--seconds", Arg.Set_int seconds, "S  length of the measured part");
    ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) run");
  ]

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let median_of f xs = Stats.median (Array.of_list (List.map f xs))
let now () = Spans.now_ns ()

(* --- result JSON -------------------------------------------------------- *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
          metrics))

let print_metrics metrics =
  List.iter (fun (n, u, v) -> Printf.printf "  %-28s %16.6g %s\n" n v u) metrics

(* --- spans of one traced instance ---------------------------------------- *)

let find sp nm =
  let r = ref (-1) in
  for i = 0 to Spans.length sp - 1 do
    if !r < 0 && Spans.name sp i = nm then r := i
  done;
  !r

(* durations of the spans named [nm] (all, or only inside [under]) *)
let durs ?under sp nm =
  let acc = ref [] in
  for i = Spans.length sp - 1 downto 0 do
    if Spans.name sp i = nm
       && match under with Some u -> Spans.under sp i u | None -> true
    then acc := Spans.duration sp i :: !acc
  done;
  !acc

let sum = List.fold_left ( + ) 0

let words_under sp nm u =
  let w = ref 0. in
  for i = 0 to Spans.length sp - 1 do
    if Spans.name sp i = nm && Spans.under sp i u then w := !w +. sp.Spans.words.(i)
  done;
  !w

let prefixed p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* --- the run ------------------------------------------------------------ *)

let () =
  Arg.parse spec (fun a -> die ("unexpected argument " ^ a)) usage;
  let w =
    match Drive.of_name !workload with
    | Some w -> w
    | None -> die ("unknown workload '" ^ !workload ^ "'; " ^ usage)
  in
  if !seed < 0 then die "--seed N (N >= 0) is required";
  if !seconds < 1 then die "--seconds S (S >= 1) is required";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let traced_run = !trace = 1 in
  let sizes = Inputs.default_sizes in
  let ctx ?(pool = false) sp obs = { Drive.sp; obs; sizes; seed = !seed; pool } in
  let fingerprint =
    [
      ("workload", Drive.name w); ("seed", string_of_int !seed);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version); ("cores", string_of_int (Drive.cores w));
      ("trace", string_of_int !trace);
    ]
  in
  Printf.printf "# perfbench %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fingerprint));
  (* warm-up: untimed, counters on *)
  let warm = Drive.iteration (ctx Spans.disabled true) w in
  let untraced = ref [] and traced = ref [] and pooled = ref [] in
  (* instance kinds taken in turn: timing (tracing off), traced, and for
     multi-core workloads in the traced run, one through the worker
     domains of Os.run *)
  let kinds =
    if not traced_run then [ `Untraced ]
    else if Drive.cores w > 1 then [ `Untraced; `Traced; `Pool ]
    else [ `Untraced; `Traced ]
  in
  let short () =
    List.length !untraced < 3
    || (traced_run && List.length !traced < 3)
    || (List.mem `Pool kinds && !pooled = [])
  in
  let deadline = now () + (!seconds * 1_000_000_000) in
  let k = ref 0 in
  while now () < deadline || short () do
    (* start every instance from a collected heap *)
    Gc.full_major ();
    (match List.nth kinds (!k mod List.length kinds) with
    | `Untraced ->
        untraced := Hostref.around (fun () -> Drive.iteration (ctx Spans.disabled false) w)
                    :: !untraced
    | `Traced ->
        let sp = Spans.create ~enabled:true in
        traced := (Drive.iteration (ctx sp true) w, sp) :: !traced
    | `Pool -> pooled := Drive.iteration (ctx ~pool:true Spans.disabled false) w :: !pooled);
    incr k
  done;
  let timed = List.rev !untraced in
  let untraced = List.map fst timed and traced = List.rev !traced
  and pooled = List.rev !pooled in
  let all = (warm :: untraced) @ List.map fst traced @ pooled in
  (* simulated statistics must repeat exactly, traced or not *)
  let same (r : Drive.result) = r.Drive.sim = warm.Drive.sim in
  let insns_ok (r : Drive.result) =
    match (r.Drive.counters, warm.Drive.counters) with
    | Some a, Some b -> a.Drive.insns = b.Drive.insns
    | _ -> true
  in
  let drift = List.filter (fun r -> r.Drive.failed = 0 && not (same r && insns_ok r)) all in
  let attempted = List.fold_left (fun a r -> a + r.Drive.checked) 0 all + List.length drift in
  let failed = List.fold_left (fun a r -> a + r.Drive.failed) 0 all + List.length drift in
  List.iter
    (fun r -> List.iter (fun m -> Printf.printf "# FAILED: %s\n" m) r.Drive.why)
    all;
  if drift <> [] then
    Printf.printf "# FAILED: simulated statistics differ between %d rerun(s) and the warm-up\n"
      (List.length drift);
  let ok_untraced = List.filter (fun r -> r.Drive.failed = 0) untraced in
  let ok_traced = List.filter (fun (r, _) -> r.Drive.failed = 0) traced in
  let ok_pooled = List.filter (fun r -> r.Drive.failed = 0) pooled in
  let spread label rs =
    if rs <> [] then begin
      let m = Array.of_list (List.map (fun r -> r.Drive.measure_s) rs) in
      Array.sort compare m;
      Printf.printf "# %s: %d instance(s), measured s min %.4f median %.4f max %.4f, setup s median %.4f, cpu/wall median %.2f\n"
        label (Array.length m) m.(0) (Stats.median m) m.(Array.length m - 1)
        (median_of (fun r -> r.Drive.setup_s) rs)
        (median_of (fun r -> r.Drive.cpu_s /. r.Drive.measure_s) rs)
    end
  in
  spread "timed" untraced;
  spread "traced" (List.map fst traced);
  spread "Os.run worker domains" pooled;
  let sim = warm.Drive.sim in
  let insns = match warm.Drive.counters with Some c -> c.Drive.insns | None -> 0 in
  let lat = sim.Drive.latencies in
  Printf.printf "# instances: %d timed, %d traced, warm-up; %d/%d outputs failed\n"
    (List.length untraced) (List.length traced) failed attempted;
  Printf.printf "# simulated: vclock %.6f ms, %d syscalls, %d gate crossings, %d spawns, %d guest insns\n"
    (Int64.to_float sim.Drive.vclock_ns /. 1e6) sim.Drive.syscalls
    sim.Drive.gate_crossings sim.Drive.spawns insns;
  (match Stats.tail ~ladder:[ 99.; 90.; 50. ] lat with
  | Some t ->
      Printf.printf "# request latency (virtual): p50 = %d ns, %s ns\n"
        (Stats.percentile lat 50.) (Stats.tail_to_string t)
  | None -> ());
  let best_measure rs =
    List.fold_left (fun a r -> Float.min a r.Drive.measure_s) infinity rs
  in
  (* Host throughput of the timed instances: per host second, and per
     pass of the host reference timed around each instance (see
     Hostref), which cancels swings in the speed of a shared host. *)
  let ok_timed = List.filter (fun (r, _) -> r.Drive.failed = 0) timed in
  let per_ref f = median_of (fun (r, rf) -> f r /. (r.Drive.measure_s /. rf)) ok_timed in
  let ops_per_s = median_of (fun r -> r.Drive.ops /. r.Drive.measure_s) ok_untraced in
  let metrics =
    if not traced_run then begin
      let rs = ok_untraced in
      let heap_mb =
        float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
      in
      let ops_per_ref = per_ref (fun r -> r.Drive.ops) in
      Printf.printf "# %s: %.6g %s per reference pass, %.6g per host second (medians)\n"
        (Drive.name w) ops_per_ref (Drive.op_name w) ops_per_s;
      (* set-up time in reference passes, read as seconds of the nominal
         host (see Hostref), so that it too is steady across host swings *)
      let setup_s =
        median_of (fun (r, rf) -> r.Drive.setup_s /. rf *. Hostref.nominal_s) ok_timed
      in
      Printf.printf "# set-up: %.6g s on the nominal host, %.6g host s (medians)\n" setup_s
        (median_of (fun r -> r.Drive.setup_s) rs);
      [
        ("setup_s", "s", setup_s);
        ("ops_per_ref", "1/ref", ops_per_ref);
        ("guest_minsn_per_ref", "Minsn/ref", per_ref (fun _ -> float insns /. 1e6));
        ("heap_peak_mb", "MB", heap_mb);
        ("vclock_ms", "ms", Int64.to_float sim.Drive.vclock_ns /. 1e6);
      ]
    end
    else begin
      let rs = List.map fst ok_traced in
      let per f = median_of f rs in
      (* a metric computed from each traced instance's spans *)
      let per_sp f = median_of (fun (r, sp) -> f r sp) ok_traced in
      let measure_of sp = find sp "bench.measure" in
      let ms l = float (sum l) /. 1e6 in
      let in_measure sp nm = durs ~under:(measure_of sp) sp nm in
      let step_durs =
        Array.of_list
          (List.concat_map (fun (_, sp) -> in_measure sp "libos.step") ok_traced)
      in
      Array.sort compare step_durs;
      let pct p = if step_durs = [||] then 0. else float (Stats.percentile step_durs p) /. 1e3 in
      let cnt f = match warm.Drive.counters with Some c -> float (f c) | None -> 0. in
      let ratio a b = if b = 0. then 0. else a /. b in
      let host_layer sp =
        float (sum (in_measure sp "libos.step") + sum (in_measure sp "libos.run"))
      in
      let net_ns sp =
        float
          (sum
             (List.concat_map (in_measure sp)
                [ "net.client_send"; "net.client_recv"; "net.client_connect";
                  "net.client_close" ]))
      in
      let self_loadgen sp =
        let s = Spans.self sp in
        let u = measure_of sp in
        let acc = ref 0 in
        for i = 0 to Spans.length sp - 1 do
          if prefixed "loadgen." (Spans.name sp i) && Spans.under sp i u then
            acc := !acc + fst s.(i)
        done;
        float !acc
      in
      let gc f = median_of (fun r -> f r /. r.Drive.ops) ok_untraced in
      let dh, dm = warm.Drive.dcache and jc, jh = warm.Drive.jit in
      let dh = float dh and dm = float dm and jh = float jh in
      let lat_pct p = if lat = [||] then 0. else float (Stats.percentile lat p) /. 1e3 in
      [
        ("host.ops_per_s", "1/s", ops_per_s);
        ("host.ref_ms", "ms", 1e3 *. median_of snd ok_timed);
        ("toolchain.compile_ms", "ms", per_sp (fun _ sp -> ms (durs sp "toolchain.compile")));
        ("verifier.verify_sign_ms", "ms", per_sp (fun _ sp -> ms (durs sp "verifier.verify_sign")));
        ("verifier.kb", "KiB", float warm.Drive.binary_bytes /. 1024.);
        ("libos.boot_ms", "ms", per_sp (fun _ sp -> ms (durs sp "libos.boot")));
        ("libos.install_ms", "ms", per_sp (fun _ sp -> ms (durs sp "libos.install")));
        ("libos.step_host_s", "s", per_sp (fun _ sp -> float (sum (in_measure sp "libos.step")) /. 1e9));
        ("libos.steps", "count", per_sp (fun _ sp -> float (List.length (in_measure sp "libos.step"))));
        ("libos.step_us_p50", "us", pct 50.);
        ("libos.step_us_p99", "us", pct 99.);
        ("libos.minor_words_per_step", "words",
         per_sp (fun _ sp ->
             ratio (words_under sp "libos.step" (measure_of sp))
               (float (List.length (in_measure sp "libos.step")))));
        ("libos.syscalls", "count", float sim.Drive.syscalls);
        ("libos.gate_crossings", "count", float sim.Drive.gate_crossings);
        ("libos.host_ns_per_syscall", "ns",
         per_sp (fun _ sp -> ratio (host_layer sp) (float sim.Drive.syscalls)));
        ("libos.blocked_share", "ratio",
         ratio (cnt (fun c -> c.Drive.blocked)) (cnt (fun c -> c.Drive.obs_syscalls)));
        ("libos.spawns", "count", float sim.Drive.spawns);
        ("libos.host_us_per_spawn", "us",
         per (fun r -> ratio (r.Drive.measure_s *. 1e6) (float sim.Drive.spawns)));
        ("libos.spawn_call_us", "us",
         per_sp (fun _ sp -> Stats.median (Array.of_list (List.map (fun d -> float d /. 1e3) (durs sp "libos.spawn")))));
        ("machine.guest_insns", "count", float insns);
        ("machine.dcache_hit_ratio", "ratio", ratio dh (dh +. dm));
        ("machine.jit_compiles", "count", float jc);
        ("machine.jit_hit_ratio", "ratio", ratio jh (jh +. dh +. dm));
        ("machine.jit_deopts", "count", per (fun r -> float r.Drive.jit_deopts));
        ("net.client_host_s", "s", per_sp (fun _ sp -> net_ns sp /. 1e9));
        ("net.client_bytes", "B", float warm.Drive.client_bytes);
        ("net.client_ns_per_byte", "ns/B",
         per_sp (fun _ sp -> ratio (net_ns sp) (float warm.Drive.client_bytes)));
        ("net.connect_eagain_share", "ratio",
         ratio (float warm.Drive.connect_eagain) (float warm.Drive.connects));
        ("sefs.write_input_ms", "ms", per_sp (fun _ sp -> ms (durs sp "sefs.write_input")));
        ("sefs.flush_ms", "ms", per_sp (fun _ sp -> ms (durs sp "sefs.flush")));
        ("sefs.read_output_ms", "ms", per_sp (fun _ sp -> ms (durs sp "sefs.read_output")));
        ("sefs.bytes_read", "B", cnt (fun c -> c.Drive.sefs_read));
        ("sefs.bytes_written", "B", cnt (fun c -> c.Drive.sefs_written));
        ("sgx.epc_peak_pages", "pages", per (fun r -> float r.Drive.epc_peak));
        ("sgx.ewb", "count", cnt (fun c -> c.Drive.ewb));
        ("sgx.eldu", "count", cnt (fun c -> c.Drive.eldu));
        ("sched.cpu_per_wall", "ratio",
         median_of (fun r -> r.Drive.cpu_s /. r.Drive.measure_s)
           (if ok_pooled <> [] then ok_pooled else ok_untraced));
        ("sched.pool_slowdown", "ratio",
         if ok_pooled = [] then 0. else best_measure ok_pooled /. best_measure ok_untraced);
        ("sched.mc.epochs", "count", cnt (fun c -> c.Drive.epochs));
        ("sched.mc.steals", "count", cnt (fun c -> c.Drive.steals));
        ("sched.mc.cross_wakes", "count", cnt (fun c -> c.Drive.cross_wakes));
        ("gc.minor_words_per_op", "words", gc (fun r -> r.Drive.minor_words));
        ("gc.promoted_words_per_op", "words", gc (fun r -> r.Drive.promoted_words));
        ("gc.major_collections", "count",
         median_of (fun r -> float r.Drive.major_collections) ok_untraced);
        ("loadgen.host_share", "ratio",
         per_sp (fun r sp -> ratio (self_loadgen sp) (r.Drive.measure_s *. 1e9)));
        ("loadgen.vclock_p50_us", "us", lat_pct 50.);
        ("loadgen.vclock_p99_us", "us", lat_pct 99.);
        ("loadgen.latency_samples", "count", float (Array.length lat));
        ("obs.trace_overhead", "ratio", ratio (best_measure rs) (best_measure ok_untraced) -. 1.);
        ("obs.attributed_share", "ratio",
         per_sp (fun _ sp ->
             let s = Spans.self sp in
             let wall = ref 0 and un = ref 0 in
             for i = 0 to Spans.length sp - 1 do
               if Spans.parent sp i = Spans.root then begin
                 wall := !wall + Spans.duration sp i;
                 if prefixed "bench." (Spans.name sp i) then un := !un + fst s.(i)
               end
             done;
             ratio (float (!wall - !un)) (float !wall)));
      ]
    end
  in
  if traced_run then begin
    (* self time per span name over every traced instance *)
    let h = Hashtbl.create 32 in
    let wall = ref 0 in
    List.iter
      (fun (_, sp) ->
        for i = 0 to Spans.length sp - 1 do
          if Spans.parent sp i = Spans.root then wall := !wall + Spans.duration sp i
        done;
        List.iter
          (fun (r : Spans.row) ->
            let name =
              if prefixed "bench." r.Spans.r_name then "unattributed" else r.Spans.r_name
            in
            let ns, calls, words =
              Option.value ~default:(0, 0, 0.) (Hashtbl.find_opt h name)
            in
            Hashtbl.replace h name
              (ns + r.Spans.r_ns, calls + r.Spans.r_calls, words +. r.Spans.r_words))
          (Spans.table sp))
      ok_traced;
    let n = max 1 (List.length ok_traced) in
    let rows = List.sort (fun (_, (a, _, _)) (_, (b, _, _)) -> compare b a)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []) in
    Printf.printf "# self time per layer, mean over %d traced instance(s) of %s:\n" n (Drive.name w);
    Printf.printf "#   %-24s %12s %7s %10s %14s\n" "span" "host ms" "%" "calls" "minor words";
    List.iter
      (fun (name, (ns, calls, words)) ->
        Printf.printf "#   %-24s %12.3f %6.2f%% %10d %14.0f\n" name
          (float ns /. 1e6 /. float n)
          (100. *. float ns /. float (max 1 !wall))
          (calls / n) (words /. float n))
      rows;
    let un = match Hashtbl.find_opt h "unattributed" with Some (ns, _, _) -> ns | None -> 0 in
    let cov = 1. -. (float un /. float (max 1 !wall)) in
    Printf.printf "#   attributed %.2f%% of %.3f ms%s\n" (100. *. cov)
      (float !wall /. 1e6 /. float n)
      (if cov < 0.95 then " (below 95%: see the unattributed row)" else "");
    match List.rev ok_traced with
    | (_, sp) :: _ -> (
        try
          if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
          let file =
            Filename.concat out_dir
              (Printf.sprintf "trace-%s-seed%d.json" (Drive.name w) !seed)
          in
          Out_channel.with_open_bin file (fun oc ->
              output_string oc (Spans.to_chrome_json ~meta:fingerprint sp));
          Printf.printf "# chrome trace: %s (%d spans)\n" file (Spans.length sp)
        with Sys_error e -> Printf.printf "# chrome trace not written: %s\n" e)
    | [] -> ()
  end;
  print_metrics metrics;
  let usable =
    ok_untraced <> []
    && (not traced_run || ok_traced <> [])
    && (not (List.mem `Pool kinds) || ok_pooled <> [])
  in
  print_endline
    (result_json ~correct:(failed = 0 && usable) ~attempted ~failed metrics)
