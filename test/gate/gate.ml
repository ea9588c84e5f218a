(* The gate executable behind every gate alias:

     gate.exe NAME [--full] [ARG]

   NAME picks an entry of [gates] below.  --full selects the full form
   of a gate that has one (dlin, mod and fams: the @dlin, @mod and
   @fams aliases pass it).  ARG is the gate's one input when it needs
   one: the committed baseline record for mod, fams and crashbench, the
   ptm_bench executable for trace.

   Every gate counts its checks through [check] and ends on one verdict
   line.  A gate with a wall-clock budget (fast and full constants in
   its table entry) also fails when it overruns, even if every check
   passed.  Exit status: 0 pass, 1 a failed check or an overrun budget,
   2 a bad setting — an unknown gate or argument, a malformed env var,
   a CRASHTEST filter that matches no cell or a malformed
   CRASHTEST_REPLAY line. *)

module Config = Memsim.Config
module Engine = Crashtest.Engine
module Scenarios = Crashtest.Scenarios
module Experiments = Workloads.Experiments
module Driver = Workloads.Driver
module Profile = Pstm.Profile
module J = Workloads.Bench_json

(* ---------- the pieces every gate shares ---------- *)

let ran = ref 0
let failed = ref 0

let check label ok =
  incr ran;
  if not ok then begin
    incr failed;
    Printf.printf "FAIL %s\n%!" label
  end

(* A bad setting: the harness turns it into exit 2. *)
let refuse fmt = Printf.ksprintf invalid_arg fmt

(* The one env parser: an unset or blank variable is [None]. *)
let env name =
  match Option.map String.trim (Sys.getenv_opt name) with None | Some "" -> None | v -> v

let env_positive name ~default =
  match env name with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | Some _ | None -> refuse "%s=%S: not a positive integer" name s)

let rendered (outcome : Experiments.outcome) =
  String.concat "\n" (List.map (Format.asprintf "%a" Repro_util.Table.print) outcome.tables)

(* Render at --jobs 1, then once per entry of [jobs], and require the
   same bytes every time. *)
let same_bytes render jobs =
  let reference = render 1 in
  List.iter
    (fun j ->
      let out = render j in
      let same = String.equal reference out in
      check (Printf.sprintf "--jobs %d renders the --jobs 1 bytes" j) same;
      if not same then begin
        let n = min (String.length reference) (String.length out) in
        let rec first i = if i < n && reference.[i] = out.[i] then first (i + 1) else i in
        let i = first 0 in
        let context s =
          let lo = max 0 (i - 40) in
          String.sub s lo (min 80 (String.length s - lo))
        in
        Printf.printf "  differs at byte %d\n  ref: %S\n  got: %S\n%!" i (context reference)
          (context out)
      end)
    jobs

(* Regress a fresh record against the committed baseline at [path].
   The record goes through its JSON text, so a non-finite metric
   reaches the sentinel as the [null] it would be written as. *)
let regress_record path record =
  let label = Printf.sprintf "regress vs committed %s" (Filename.basename path) in
  match J.regress ~baseline:(J.parse_file path) ~current:(J.parse (J.to_string record)) () with
  | findings ->
    let regressions = List.filter (fun f -> f.J.f_severity = J.Regression) findings in
    List.iter (fun f -> Printf.printf "  regress %s: %s\n" f.J.f_path f.J.f_detail) regressions;
    check label (regressions = [])
  | exception J.Parse_error msg -> check (Printf.sprintf "%s: parse (%s)" label msg) false

(* The same for a quick-size record of an experiment's [outcome]. *)
let regress_against path ~experiment ~wall_s (outcome : Experiments.outcome) =
  regress_record path
    (J.outcome_json ~experiment ~quick:true ~jobs:1 ~wall_s ~extra:outcome.extra outcome.results)

(* Every cell of the grid [xs] x [ys] x [zs] is [find]-able and [ok]. *)
let every_cell find what ok xs ys zs =
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          List.iter
            (fun z ->
              let cell = Printf.sprintf "cell %s/%s/%s" x y z in
              match find x y z with
              | None -> check (cell ^ " present") false
              | Some c -> check (cell ^ " " ^ what) (ok c))
            zs)
        ys)
    xs

let need what = function Some arg -> arg | None -> refuse "missing argument: %s" what

(* ---------- crashtest: the crash-matrix sweep ---------- *)

(* Default: a sampled sweep of every cell of Scenarios.matrix, PTM cells
   then FAMS cells.  CRASHTEST_EXHAUSTIVE=1 probes every candidate
   instant; CRASHTEST_POINTS / CRASHTEST_SEED set the sample (read by
   Engine).  CRASHTEST_SCENARIO / CRASHTEST_MODEL / CRASHTEST_ALG keep
   only cells with exactly those names (the FAMS algorithm names are
   fams-line / fams-page).  CRASHTEST_INJECT arms a deliberate ordering
   bug — a PTM one (skip-fence|reorder-log-apply|tear-write) or a FAMS
   one (skip-publish-fence|torn-journal-entry) — in every cell of that
   API and skips the other API's cells (expect failures: this is how
   the oracles themselves are exercised by hand).
   CRASHTEST_REPLAY='scenario:model:algorithm:seed:crash_at[:inject]'
   re-runs one failing point printed by an earlier sweep. *)

let crash_replay spec =
  match Engine.parse_replay spec with
  | None -> refuse "CRASHTEST_REPLAY: cannot parse %S" spec
  | Some (scenario, model, algorithm, seed, crash_at, inject) -> (
    match Scenarios.subject ?inject ~scenario ~algorithm () with
    | Error msg -> refuse "CRASHTEST_REPLAY: %s" msg
    | Ok subject -> (
      match Engine.rerun ~model:(Config.model_of_name model) ~seed ~crash_at subject with
      | Ok () -> Printf.sprintf "replay %s: ok (no violation at t=%d)" spec crash_at
      | Error reason ->
        Printf.printf "replay %s: VIOLATION\n  %s\n%!" spec reason;
        check ("replay " ^ spec) false;
        ""))

let crash_sweep () =
  let inject = env "CRASHTEST_INJECT" in
  let wanted var name = match env var with None -> true | Some v -> v = name in
  List.iter
    (fun { Scenarios.scenario; model; algorithm } ->
      if
        wanted "CRASHTEST_SCENARIO" scenario
        && wanted "CRASHTEST_MODEL" model.Config.model_name
        && wanted "CRASHTEST_ALG" algorithm
      then
        (* A cell of the other API than the armed bug's is skipped. *)
        match Scenarios.subject ?inject ~scenario ~algorithm () with
        | Error _ -> ()
        | Ok subject ->
          let report = Engine.explore_subject ~model subject in
          Format.printf "%a@." Engine.pp_report report;
          check
            (Printf.sprintf "%s/%s/%s" scenario model.Config.model_name algorithm)
            (Engine.ok report))
    (Scenarios.matrix ());
  (* A typo'd filter must not read as a clean bill of health. *)
  if !ran = 0 then refuse "no cells matched the CRASHTEST_SCENARIO/MODEL/ALG filters";
  Printf.sprintf "all %d cells passed" !ran

let crashtest ~full:_ _ =
  match env "CRASHTEST_REPLAY" with Some spec -> crash_replay spec | None -> crash_sweep ()

(* ---------- crashbench: what a crash probe costs ---------- *)

(* The crash-audit benchmark's cells — four PTM cells and the FAMS bank
   cell, at their benchmark sizes — explored at 24 seeded points each.
   Per cell the record holds the candidate and probed instant counts
   and the words allocated per probe (all deterministic, so gated at
   the sentinel's 5% band), plus the cell's wall time (recorded, never
   gated).  The fresh record is written to crashtest.current.json in
   the working directory, then regressed against ARG, the committed
   BENCH_crashtest.json; re-record by copying the former over the
   latter. *)

let crashbench_points = 24
let crashbench_seed = 1

let crashbench_cells () =
  let ptm key model algorithm scenario =
    (key, model, Engine.Subject.ptm ~algorithm scenario)
  in
  [
    ptm "bank.adr.redo" Config.optane_adr Pstm.Ptm.Redo (Scenarios.bank ~threads:4 ~ops:10 ());
    ptm "btree.adr.undo" Config.optane_adr Pstm.Ptm.Undo (Scenarios.btree ~threads:4 ~ops:8 ());
    ptm "kv-batch.eadr.redo" Config.optane_eadr Pstm.Ptm.Redo
      (Scenarios.kv_batch ~threads:4 ~ops:5 ());
    ptm "mod-btree.adr.mod" Config.optane_adr Pstm.Ptm.Mod (Scenarios.mod_btree ~threads:3 ~ops:8 ());
    ( "fams-bank.adr.line",
      Config.optane_adr,
      Engine.Subject.fams ~granularity:Fams.Line (Scenarios.fams_bank ~ops:16 ()) );
  ]

(* Words allocated so far, a word promoted from the minor heap counted
   once.  The minor count comes from [Gc.minor_words]: the minor field
   of [Gc.counters] drifts with the state of the minor heap on OCaml 5
   (the same cell read 289 k to 364 k words), while major minus
   promoted is exact. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let crashbench ~full:_ baseline =
  let baseline = need "the committed BENCH_crashtest.json" baseline in
  let t0 = Unix.gettimeofday () in
  let cells =
    List.map
      (fun (key, model, subject) ->
        let w0 = allocated_words () and c0 = Unix.gettimeofday () in
        let r =
          Engine.explore_subject ~points:crashbench_points ~seed:crashbench_seed ~exhaustive:false
            ~model subject
        in
        let words = allocated_words () -. w0 and wall_s = Unix.gettimeofday () -. c0 in
        check (key ^ ": every probed crash point recovers") (Engine.ok r);
        (* FAMS cells probe every drain candidate on top of the sample. *)
        check (key ^ ": probed the sample")
          (r.Engine.tested >= min crashbench_points r.Engine.candidates);
        ( key,
          J.Obj
            [
              ("candidates", J.Int r.Engine.candidates);
              ("tested", J.Int r.Engine.tested);
              ("words_per_probe", J.Int (int_of_float (words /. float_of_int (max 1 r.Engine.tested))));
              ("wall_s", J.Float wall_s);
            ] ))
      (crashbench_cells ())
  in
  let record =
    J.Obj
      [
        ("experiment", J.String "crashtest");
        ("points", J.Int crashbench_points);
        ("seed", J.Int crashbench_seed);
        ("wall_s", J.Float (Unix.gettimeofday () -. t0));
        ("cells", J.Obj cells);
      ]
  in
  Out_channel.with_open_text "crashtest.current.json" (fun oc ->
      output_string oc (J.to_string record);
      output_char oc '\n');
  regress_record baseline record;
  Printf.sprintf "crashbench: %d cells within the committed record" (List.length cells)

(* ---------- dlin: the durable-linearizability matrix ---------- *)

(* Fast: one cell per durability domain of interest, spread across
   scenarios so the fast gate still exercises bank's read-pair
   responses, the total-order counters spec and the kvserve
   exactly-once spec, plus one armed mutation.  Full: every PTM cell of
   the matrix and every mutation. *)
let dlin_fast_cells =
  [
    ("bank", Config.optane_adr, "redo");
    ("counters", Config.transient_cache, "undo");
    ("kv-incr", Config.htm_commit, "htm");
    ("btree", Config.optane_eadr, "redo");
    ("mod-btree", Config.optane_adr, "mod");
  ]

(* The armed ordering bugs, each on a cell where the weakened ordering
   is actually observable (see test/test_crashtest.ml and
   test/test_fams.ml): the five PTM ones, then the two FAMS ones. *)
let dlin_mutations =
  [
    ("skip-fence", "bank", Config.optane_adr, "redo");
    ("reorder-log-apply", "counters", Config.optane_adr, "redo");
    ("tear-write", "bank", Config.optane_adr, "undo");
    ("skip-fence", "mod-btree", Config.optane_adr, "mod");
    ("tear-write", "mod-hash", Config.optane_adr, "mod");
    ("skip-publish-fence", "fams-bank", Config.optane_adr, "fams-page");
    ("torn-journal-entry", "fams-bank", Config.optane_adr, "fams-line");
  ]

let dlin ~full _ =
  let subject ?inject scenario algorithm =
    match Scenarios.subject ?inject ~scenario ~algorithm () with
    | Ok s -> s
    | Error msg -> invalid_arg msg
  in
  (* A positive cell: the oracle must find a durable linearization at
     every probed crash instant. *)
  let positive ?points scenario model algorithm =
    let report = Engine.explore_subject ?points ~model (subject scenario algorithm) in
    check (Format.asprintf "%a" Engine.pp_report report) (Engine.ok report)
  in
  (* A mutation cell: with the bug armed, the oracle must reject at
     least one crash instant — a clean pass means the checker is blind. *)
  let mutation (inject, scenario, model, algorithm) =
    let report =
      Engine.explore_subject ~points:80 ~seed:1 ~model (subject ~inject scenario algorithm)
    in
    check
      (Printf.sprintf "%s/%s/%s + %s: the oracle must catch the armed mutation" scenario
         model.Config.model_name algorithm inject)
      (not (Engine.ok report))
  in
  if full then begin
    List.iter
      (fun { Scenarios.scenario; model; algorithm } -> positive scenario model algorithm)
      (Scenarios.ptm_cells ());
    List.iter mutation dlin_mutations
  end
  else begin
    List.iter (fun (s, m, a) -> positive ~points:40 s m a) dlin_fast_cells;
    mutation (List.hd dlin_mutations)
  end;
  Printf.sprintf "all %d cells passed" !ran

(* ---------- mod: the MOD algorithm column ---------- *)

(* The `algorithms` experiment held to three promises:
   1. shape: every (workload x algorithm x model) cell is present, the
      ten `mod` rows next to redo and undo;
   2. crossover: MOD commits with at most one fence, and fewer than
      redo, on ADR, and with exactly zero on the eADR-class domains
      where its ordering advantage collapses;
   3. regression: at quick size, the fresh record passes the sentinel
      against the committed BENCH_algorithms.json (the committed
      baseline is quick-sized, so full mode skips this one). *)

let fences_per_commit r =
  match r.Driver.telemetry with
  | None -> nan
  | Some cap ->
    let p = Telemetry.profile cap in
    let sum f = List.fold_left (fun acc tid -> acc + f ~tid) 0 (Profile.tids p) in
    let fences =
      sum (fun ~tid ->
          List.fold_left (fun acc ph -> acc + Profile.phase_fences p ~tid ph) 0
            Profile.all_phases)
    in
    float_of_int fences /. float_of_int (max 1 (sum (Profile.commits p)))

let mod_ ~full baseline =
  let baseline = need "the committed BENCH_algorithms.json" baseline in
  let t0 = Unix.gettimeofday () in
  let outcome = Experiments.algorithms ~quick:(not full) () in
  let results = outcome.results in
  let find workload algorithm model =
    List.find_opt
      (fun r ->
        r.Driver.workload = workload && r.Driver.algorithm = algorithm
        && r.Driver.model = model)
      results
  in
  let workloads = [ "mod-btree"; "mod-hash" ] in
  check "grid: 30 cells" (List.length results = 30);
  every_cell find "committed work"
    (fun r -> r.Driver.commits > 0)
    workloads [ "redo"; "undo"; "mod" ]
    [ "optane-adr"; "optane-eadr"; "transient-cache"; "pdram"; "pdram-lite" ];
  List.iter
    (fun workload ->
      let fpc alg model =
        match find workload alg model with Some r -> fences_per_commit r | None -> nan
      in
      let mod_adr = fpc "mod" "optane-adr" and redo_adr = fpc "redo" "optane-adr" in
      check
        (Printf.sprintf "%s: mod fences/commit <= 1 on ADR (got %.2f)" workload mod_adr)
        (Float.is_finite mod_adr && mod_adr <= 1.0 +. 1e-9);
      check
        (Printf.sprintf "%s: mod beats redo's fence count on ADR (%.2f vs %.2f)" workload
           mod_adr redo_adr)
        (Float.is_finite redo_adr && mod_adr < redo_adr);
      List.iter
        (fun model ->
          let f = fpc "mod" model in
          check
            (Printf.sprintf "%s: mod fences collapse to 0 on %s (got %.2f)" workload model f)
            (f = 0.0))
        [ "optane-eadr"; "transient-cache" ])
    workloads;
  if not full then
    regress_against baseline ~experiment:"algorithms" ~wall_s:(Unix.gettimeofday () -. t0)
      outcome;
  "all checks passed"

(* ---------- fams: the FAMS subsystem ---------- *)

(* The `fams` experiment held to four promises:
   1. shape: 3 workloads x {ptm-redo, fams-line, fams-page} x 5
      durability domains, and every FAMS cell synced work;
   2. granularity economy: line-granularity dirty tracking journals
      strictly fewer bytes per byte dirtied than page granularity, on
      every workload under every domain;
   3. domain economy: FAMS fences only where the domain needs it (ADR /
      PDRAM families), and neither fences nor flushes on eADR-class
      machines;
   4. regression, at quick size only, against the committed
      BENCH_fams.json. *)

let fams ~full baseline =
  let baseline = need "the committed BENCH_fams.json" baseline in
  let t0 = Unix.gettimeofday () in
  let outcome, cells = Experiments.fams_run ~quick:(not full) () in
  let find workload series model =
    List.find_opt
      (fun c ->
        c.Experiments.fc_workload = workload
        && c.Experiments.fc_series = series
        && c.Experiments.fc_model = model)
      cells
  in
  let workloads = [ "fams-bank"; "fams-kv"; "fams-btree" ] in
  let models = [ "ADR"; "eADR"; "transient"; "PDRAM"; "PDRAM-Lite" ] in
  let series = [ "fams-line"; "fams-page" ] in
  check "grid: 45 driver rows" (List.length outcome.results = 45);
  check "grid: 30 fams cells" (List.length cells = 30);
  every_cell find "synced work"
    (fun c -> c.Experiments.fc_syncs > 0 && c.Experiments.fc_bytes_dirtied > 0)
    workloads series models;
  List.iter
    (fun workload ->
      List.iter
        (fun model ->
          match (find workload "fams-line" model, find workload "fams-page" model) with
          | Some l, Some p ->
            let la = l.Experiments.fc_write_amp and pa = p.Experiments.fc_write_amp in
            check
              (Printf.sprintf "%s/%s: line write amp %.2f < page %.2f" workload model la pa)
              (Float.is_finite la && Float.is_finite pa && la < pa);
            check
              (Printf.sprintf "%s/%s: write amp >= 1 (got %.2f)" workload model la)
              (la >= 1.0)
          | _ -> () (* absence already reported by the shape pass *))
        models)
    workloads;
  List.iter
    (fun workload ->
      List.iter
        (fun series ->
          let per f model =
            match find workload series model with Some c -> f c | None -> nan
          in
          let fences = per (fun c -> c.Experiments.fc_fences_per_sync) in
          let flushes = per (fun c -> c.Experiments.fc_flushes_per_sync) in
          check
            (Printf.sprintf "%s/%s: fences on ADR (got %.2f)" workload series (fences "ADR"))
            (fences "ADR" > 0.0);
          List.iter
            (fun model ->
              check
                (Printf.sprintf "%s/%s: 0 fences on %s (got %.2f)" workload series model
                   (fences model))
                (fences model = 0.0);
              check
                (Printf.sprintf "%s/%s: 0 flushes on %s (got %.2f)" workload series model
                   (flushes model))
                (flushes model = 0.0))
            [ "eADR"; "transient" ])
        series)
    workloads;
  if not full then
    regress_against baseline ~experiment:"fams" ~wall_s:(Unix.gettimeofday () -. t0) outcome;
  "all checks passed"

(* ---------- differential: the flush disciplines ---------- *)

(* A fixed-seed slice of the differential stress suite (each seed's
   randomized transaction trace must leave the identical user-visible
   heap under every algorithm x durability model x flush discipline,
   and the coalesced runs must never issue more fences or clwbs than
   the naive ones; see Difftest), then the headline fence-economy
   claim: a 4-thread bank run under ADR with redo logging spends
   strictly fewer fences and clwbs per commit with coalescing than
   without.  DIFFTEST_SEEDS=n (a positive integer) widens the slice
   from 12 seeds. *)

let bank_profile ~coalesce =
  let passive = { Telemetry.default_config with Telemetry.sample_interval_ns = 0 } in
  let r =
    Driver.run ~duration_ns:300_000 ~telemetry:passive ~model:Config.optane_adr
      ~algorithm:Pstm.Ptm.Redo ~threads:4 ~coalesce Workloads.Bank.spec
  in
  let cap = match r.Driver.telemetry with Some c -> c | None -> failwith "no capture" in
  let p = Telemetry.profile cap in
  let sum f = List.fold_left (fun acc tid -> acc + f ~tid) 0 (Profile.tids p) in
  let over phase_metric =
    sum (fun ~tid ->
        List.fold_left (fun acc ph -> acc + phase_metric p ~tid ph) 0 Profile.all_phases)
  in
  ( r.Driver.commits,
    over Profile.phase_fences,
    over Profile.phase_flushes,
    sum (Profile.fences_saved p) )

let differential ~full:_ _ =
  let seeds = env_positive "DIFFTEST_SEEDS" ~default:12 in
  for seed = 1 to seeds do
    let verdict = Difftest.check_seed seed in
    check
      (match verdict with Ok () -> "" | Error e -> "difftest: " ^ e)
      (Result.is_ok verdict)
  done;
  let commits_c, fences_c, clwbs_c, saved_c = bank_profile ~coalesce:true in
  let commits_n, fences_n, clwbs_n, saved_n = bank_profile ~coalesce:false in
  let per count commits = float_of_int count /. float_of_int (max 1 commits) in
  check
    (Printf.sprintf "bank economy: commits (coalesced %d, naive %d)" commits_c commits_n)
    (commits_c > 0 && commits_n > 0);
  check
    (Printf.sprintf "bank economy: coalesced fences/commit %.2f below naive %.2f"
       (per fences_c commits_c) (per fences_n commits_n))
    (per fences_c commits_c < per fences_n commits_n);
  check
    (Printf.sprintf "bank economy: coalesced clwbs/commit %.2f below naive %.2f"
       (per clwbs_c commits_c) (per clwbs_n commits_n))
    (per clwbs_c commits_c < per clwbs_n commits_n);
  check "bank economy: coalesced run reports fences saved" (saved_c > 0);
  check (Printf.sprintf "bank economy: naive run reports %d fences saved" saved_n) (saved_n = 0);
  Printf.sprintf "differential: %d seeds x %d configurations ok, bank economy ok" seeds
    (List.length Difftest.matrix)

(* ---------- parallel and kvserve: --jobs buys wall time only ---------- *)

(* One quick Fig 3 panel (the cheap bank workload: all eight
   placement/durability/logging series across the thread axis) at
   --jobs 1, 2 and 4.  A mismatch means a cell observed state outside
   itself — a shared RNG, a process-global counter, a telemetry sink
   written from two domains. *)
let parallel ~full:_ _ =
  same_bytes
    (fun jobs -> rendered (Experiments.fig3_panel ~quick:true ~jobs Workloads.Bank.spec))
    [ 2; 4 ];
  "parallel: --jobs 2 and 4 byte-identical to serial"

(* The quick service sweep (working-set sizes x durability domains, and
   the crash-recovery table: the full codec -> router -> batch ->
   commit path) twice at --jobs 1 and once at --jobs 2. *)
let kvserve ~full:_ _ =
  same_bytes (fun jobs -> rendered (Kvserve.Bench.run ~quick:true ~jobs ())) [ 1; 2 ];
  "kvserve: repeat run and --jobs 2 byte-identical"

(* ---------- telemetry: artifact schema and determinism ---------- *)

(* A short instrumented bank run under {ADR, eADR} x {Redo, Undo}; for
   every cell the profile JSONL is well-formed objects of the expected
   record types, per-thread phase time sums to transaction time, the
   series CSV has a fixed column count and data rows, the Chrome trace
   is one JSON object, no artifact holds "nan", "inf" or a negative
   value, and a repeat run is byte-identical. *)

let telemetry_artifacts model algorithm =
  let duration_ns = 300_000 in
  let r =
    Driver.run ~duration_ns ~telemetry:Telemetry.default_config ~model ~algorithm ~threads:4
      Workloads.Bank.spec
  in
  let cap = match r.Driver.telemetry with Some c -> c | None -> failwith "no capture" in
  let meta = Driver.run_meta r ~seed:Driver.default_seed ~duration_ns in
  (r, cap, Telemetry.files meta cap)

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_jsonl cell ls =
  check (cell ^ " profile.jsonl: not empty") (ls <> []);
  List.iteri
    (fun i l ->
      let n = String.length l in
      check
        (Printf.sprintf "%s profile.jsonl:%d: a JSON object" cell (i + 1))
        (n >= 2 && l.[0] = '{' && l.[n - 1] = '}'))
    ls;
  let count_type ty =
    let tag = Printf.sprintf "{\"type\":%S" ty in
    List.length (List.filter (String.starts_with ~prefix:tag) ls)
  in
  check (cell ^ " profile.jsonl: exactly one run header") (count_type "run" = 1);
  check (cell ^ " profile.jsonl: phase rows") (count_type "phase" > 0);
  check (cell ^ " profile.jsonl: run-phase rows") (count_type "run-phase" > 0);
  check (cell ^ " profile.jsonl: thread rows") (count_type "thread" > 0)

let check_csv cell = function
  | [] -> check (cell ^ " series.csv: not empty") false
  | header :: rows ->
    let cols l = List.length (String.split_on_char ',' l) in
    check (cell ^ " series.csv: header") (header = Telemetry.Series.csv_header);
    check (cell ^ " series.csv: data rows") (rows <> []);
    List.iteri
      (fun i row ->
        check (Printf.sprintf "%s series.csv:%d: column count" cell (i + 2)) (cols row = cols header))
      rows

let telemetry ~full:_ _ =
  List.iter
    (fun (model, algorithm) ->
      let cell =
        Printf.sprintf "%s/%s" model.Config.model_name (Pstm.Ptm.algorithm_name algorithm)
      in
      let r, cap, files = telemetry_artifacts model algorithm in
      check (cell ^ ": commits") (r.Driver.commits > 0);
      let p = Telemetry.profile cap in
      List.iter
        (fun tid ->
          check
            (Printf.sprintf "%s: tid %d phase sum = txn time" cell tid)
            (Profile.total_phase_ns p ~tid = Profile.txn_ns p ~tid))
        (Profile.tids p);
      List.iter
        (fun (name, content) ->
          (* "nan"/"inf" can only come from a float leaking into the
             emitters; a "-" digit only from a negative duration or
             counter. *)
          check (Printf.sprintf "%s %s: no \"nan\"" cell name) (not (contains content "nan"));
          check (Printf.sprintf "%s %s: no \"inf\"" cell name) (not (contains content "inf"));
          check
            (Printf.sprintf "%s %s: no negative value" cell name)
            (not (contains content ":-" || contains content ",-"));
          let trimmed = String.trim content in
          match name with
          | "profile.jsonl" -> check_jsonl cell (String.split_on_char '\n' trimmed)
          | "series.csv" -> check_csv cell (String.split_on_char '\n' trimmed)
          | "trace.json" ->
            let n = String.length trimmed in
            check (cell ^ " trace.json: a JSON object")
              (n >= 2 && trimmed.[0] = '{' && trimmed.[n - 1] = '}')
          | _ -> check (Printf.sprintf "%s: expected artifact %s" cell name) false)
        files;
      let _, _, files2 = telemetry_artifacts model algorithm in
      check (cell ^ ": repeat run byte-identical") (files = files2);
      Printf.printf "telemetry %-24s (%d commits, %d samples)\n%!" cell r.Driver.commits
        (Telemetry.Series.recorded (Telemetry.series cap)))
    [
      (Config.optane_adr, Pstm.Ptm.Redo);
      (Config.optane_adr, Pstm.Ptm.Undo);
      (Config.optane_eadr, Pstm.Ptm.Redo);
      (Config.optane_eadr, Pstm.Ptm.Undo);
    ];
  "telemetry: all cells pass"

(* ---------- trace: the promises behind `--trace` ---------- *)

(* 1. Off-path cost is zero: tracing leaves the service's observable
      output (metrics JSONL + every reply byte) identical — recording a
      span reads the virtual clock, it never advances it.
   2. Span digests are identical across repeat runs and pool sizes,
      clean and crashed.
   3. On every durability domain each request's exclusive span times
      sum exactly to its latency (the fleet is single-key, so there is
      no overlap slack).
   4. The sentinel bites: `ptm_bench regress` exits 0 on an identical
      BENCH_trace.json and 1 once every p99_ns in the copy is doubled. *)

let trace_config model =
  {
    (Kvserve.Service.default_config model) with
    Kvserve.Service.shards = 2;
    prepopulate_items = 64;
    buckets_per_shard = 256;
    heap_words_per_shard = 1 lsl 17;
  }

let trace ~full:_ bench_exe =
  let bench_exe = need "the ptm_bench executable" bench_exe in
  let module Service = Kvserve.Service in
  let module Trace = Telemetry.Trace in
  let fleet =
    Kvserve.Client.generate ~seed:0x7ACE ~conns:3 ~requests_per_conn:20 ~items:64
      ~value_bytes:32 ~set_ratio:0.3 ~delete_ratio:0.05 ~incr_ratio:0.1 ~mean_gap_ns:1_500
      ~theta:0.9 ()
  in
  let fingerprint cfg (r : Service.result) =
    Service.metrics_jsonl cfg r ^ String.concat "\x00" (Array.to_list r.Service.replies)
  in
  let digest (r : Service.result) =
    match r.Service.trace with
    | Some tr -> Trace.digest tr
    | None ->
      check "an enabled run returns a trace store" false;
      "<missing>"
  in
  let off = trace_config Config.optane_adr in
  let on = { off with Service.trace = true } in
  let run ?crash_at ~jobs cfg = Service.run ?crash_at ~jobs cfg fleet in
  check "disabled vs enabled byte-identical (clean)"
    (String.equal (fingerprint off (run ~jobs:1 off)) (fingerprint on (run ~jobs:1 on)));
  check "disabled vs enabled byte-identical (crash)"
    (String.equal
       (fingerprint off (run ~crash_at:15_000 ~jobs:1 off))
       (fingerprint on (run ~crash_at:15_000 ~jobs:1 on)));
  let d1 = digest (run ~jobs:1 on) in
  check "digest stable across runs" (String.equal d1 (digest (run ~jobs:1 on)));
  check "digest stable across jobs" (String.equal d1 (digest (run ~jobs:2 on)));
  let c1 = digest (run ~crash_at:15_000 ~jobs:1 on) in
  check "crash digest stable across jobs"
    (String.equal c1 (digest (run ~crash_at:15_000 ~jobs:2 on)));
  check "crash changes the span story" (not (String.equal d1 c1));
  List.iter
    (fun model ->
      let r = run ~jobs:1 { (trace_config model) with Service.trace = true } in
      match r.Service.trace with
      | None -> check (r.Service.model ^ ": trace present") false
      | Some tr ->
        let rows = Trace.accounting tr in
        check
          (Printf.sprintf "%s: %d requests, exclusive spans sum to latency" r.Service.model
             (List.length rows))
          (List.length rows = fleet.Kvserve.Client.requests
          && List.for_all (fun (_, latency, attributed) -> latency = attributed) rows);
        let b = Trace.blame tr ~lo_pct:95.0 ~hi_pct:100.0 in
        check (r.Service.model ^ ": tail blame attributes its band")
          (b.Trace.brequests > 0 && b.Trace.battributed_ns = b.Trace.btotal_latency_ns))
    [ Config.dram_adr; Config.optane_adr; Config.optane_eadr; Config.pdram_lite ];
  let outcome = Kvserve.Bench.run_trace ~quick:true ~jobs:1 () in
  let record =
    J.outcome_json ~experiment:"trace" ~quick:true ~jobs:1 ~wall_s:1.0 ~extra:outcome.extra []
  in
  let rec inflate = function
    | J.Obj kvs ->
      J.Obj
        (List.map
           (fun (k, v) ->
             match v with
             | J.Int n when k = "p99_ns" -> (k, J.Int (n * 2))
             | J.Float n when k = "p99_ns" -> (k, J.Float (n *. 2.0))
             | v -> (k, inflate v))
           kvs)
    | J.List vs -> J.List (List.map inflate vs)
    | leaf -> leaf
  in
  let write_tmp json =
    let path = Filename.temp_file "gate_trace" ".json" in
    Out_channel.with_open_bin path (fun oc -> output_string oc (J.to_string json));
    path
  in
  let baseline = write_tmp record in
  let regress current =
    let path = write_tmp current in
    let code =
      Sys.command
        (Filename.quote_command bench_exe
           [ "regress"; "-b"; baseline; "-c"; path ]
           ~stdout:Filename.null ~stderr:Filename.null)
    in
    Sys.remove path;
    code
  in
  check "regress: identical record passes" (regress record = 0);
  check "regress: injected p99 regression fails" (regress (inflate record) = 1);
  Sys.remove baseline;
  "trace: all checks passed"

(* ---------- the table ---------- *)

type gate = {
  name : string;
  budget_s : (float * float) option;
      (** fast and full wall-clock budgets; a gate with a budget has a
          --full form *)
  run : full:bool -> string option -> string;
      (** the checks, given --full and ARG; returns the text of the
          verdict line on success (the harness prefixes the label and
          appends the time of a budgeted gate) *)
}

let gates =
  [
    { name = "crashtest"; budget_s = None; run = crashtest };
    { name = "crashbench"; budget_s = None; run = crashbench };
    { name = "dlin"; budget_s = Some (60.0, 600.0); run = dlin };
    { name = "mod"; budget_s = Some (120.0, 900.0); run = mod_ };
    { name = "fams"; budget_s = Some (120.0, 900.0); run = fams };
    { name = "differential"; budget_s = None; run = differential };
    { name = "parallel"; budget_s = None; run = parallel };
    { name = "kvserve"; budget_s = None; run = kvserve };
    { name = "telemetry"; budget_s = None; run = telemetry };
    { name = "trace"; budget_s = None; run = trace };
  ]

let main args =
  let name, full, arg =
    match args with
    | [ name ] -> (name, false, None)
    | [ name; "--full" ] -> (name, true, None)
    | [ name; "--full"; arg ] -> (name, true, Some arg)
    | [ name; arg ] -> (name, false, Some arg)
    | _ -> refuse "usage: gate.exe NAME [--full] [ARG]"
  in
  let gate =
    match List.find_opt (fun g -> g.name = name) gates with
    | Some g -> g
    | None ->
      refuse "unknown gate %S (one of: %s)" name
        (String.concat ", " (List.map (fun g -> g.name) gates))
  in
  let label, budget =
    match gate.budget_s with
    | None when full -> refuse "%s has no --full form" name
    | None -> (name, None)
    | Some (fast, whole) ->
      (Printf.sprintf "%s(%s)" name (if full then "full" else "fast"),
       Some (if full then whole else fast))
  in
  let t0 = Unix.gettimeofday () in
  let summary = gate.run ~full arg in
  let elapsed = Unix.gettimeofday () -. t0 in
  if !failed > 0 then begin
    Printf.printf "%s: %d/%d check(s) FAILED in %.1fs\n%!" label !failed !ran elapsed;
    exit 1
  end;
  match budget with
  | None -> print_endline summary
  | Some b when elapsed > b ->
    Printf.printf "%s: all checks passed but %.1fs exceeds the %.0fs budget\n%!" label elapsed b;
    exit 1
  | Some b -> Printf.printf "%s: %s in %.1fs (budget %.0fs)\n%!" label summary elapsed b

let () =
  try main (List.tl (Array.to_list Sys.argv))
  with Invalid_argument msg ->
    Printf.eprintf "gate: %s\n%!" msg;
    exit 2
