(* Command-line front end: the paper's experiments, single
   configurations, and the bench-regression sentinel.

     ptm_bench list
     ptm_bench experiment all --quick          # every paper experiment
     ptm_bench experiment fig3 table1          # selected experiments
     ptm_bench experiment fig8 --csv out/
     ptm_bench experiment fig3 --jobs 4 --json
     ptm_bench experiment speedup --json       # serial-vs-parallel self-bench
     ptm_bench run --workload tpcc-hash --model optane-adr --algorithm undo \
                   --threads 8 --duration-ms 3
     ptm_bench sweep --workload tatp --model pdram
     ptm_bench regress -b BENCH_fams.json -c out/BENCH_fams.json

   Experiment tables mirror the paper's rows/series (see DESIGN.md's
   experiment index); CSVs are written when --csv DIR is given.
   --jobs N fans the independent simulation cells of each experiment
   across N domains (tables stay byte-identical to --jobs 1); --json
   additionally writes BENCH_<experiment>.json next to the CSVs (or in
   the current directory). *)

open Cmdliner

let workloads () =
  [
    ("bank", Workloads.Bank.spec);
    ("tatp", Workloads.Tatp.spec);
    ("tpcc-hash", Workloads.Tpcc.spec Workloads.Tpcc.Hash);
    ("tpcc-btree", Workloads.Tpcc.spec Workloads.Tpcc.Btree);
    ("btree-insert", Workloads.Btree_bench.insert_only);
    ("btree-mixed", Workloads.Btree_bench.mixed);
    ("vacation-low", Workloads.Vacation.spec Workloads.Vacation.Low);
    ("vacation-high", Workloads.Vacation.spec Workloads.Vacation.High);
    ("memcached", Workloads.Memcached.spec ~items:2_000);
    ("ycsb-a", Workloads.Ycsb.spec Workloads.Ycsb.A);
    ("ycsb-b", Workloads.Ycsb.spec Workloads.Ycsb.B);
    ("ycsb-c", Workloads.Ycsb.spec Workloads.Ycsb.C);
    ("ycsb-d", Workloads.Ycsb.spec Workloads.Ycsb.D);
    ("ycsb-e", Workloads.Ycsb.spec Workloads.Ycsb.E);
    ("ycsb-f", Workloads.Ycsb.spec Workloads.Ycsb.F);
    ("mod-btree", Workloads.Mod_bench.btree);
    ("mod-hash", Workloads.Mod_bench.hash);
  ]

let workload_conv =
  let parse s =
    match List.assoc_opt s (workloads ()) with
    | Some spec -> Ok spec
    | None -> Error (`Msg (Printf.sprintf "unknown workload %S" s))
  in
  Arg.conv (parse, fun ppf s -> Format.fprintf ppf "%s" s.Workloads.Driver.name)

let model_conv =
  let parse s =
    match Memsim.Config.model_of_name s with
    | m -> Ok m
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf m -> Format.fprintf ppf "%s" m.Memsim.Config.model_name)

let algorithm_conv =
  let parse = function
    | "redo" -> Ok Pstm.Ptm.Redo
    | "undo" -> Ok Pstm.Ptm.Undo
    | "htm" -> Ok Pstm.Ptm.Htm
    | "mod" -> Ok Pstm.Ptm.Mod
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S (redo|undo|htm|mod)" s))
  in
  Arg.conv (parse, fun ppf a -> Format.fprintf ppf "%s" (Pstm.Ptm.algorithm_name a))

let workload_arg =
  Arg.(
    required
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload (see $(b,list)).")

let model_arg =
  Arg.(
    value
    & opt model_conv Memsim.Config.optane_adr
    & info [ "m"; "model" ] ~docv:"MODEL"
        ~doc:"Durability/placement model: dram-adr, dram-eadr, optane-adr, optane-adr-nofence, \
              optane-eadr, pdram, pdram-lite, memory-mode.")

let algorithm_arg =
  Arg.(
    value
    & opt algorithm_conv Pstm.Ptm.Redo
    & info [ "a"; "algorithm" ] ~docv:"ALG"
        ~doc:
          "Algorithm: redo, undo, htm (eADR-class models only), or mod (minimally-ordered \
           durability; pair with the mod-* workloads to run the shadow structures).")

let threads_arg =
  Arg.(value & opt int 8 & info [ "t"; "threads" ] ~docv:"N" ~doc:"Simulated threads.")

let duration_arg =
  Arg.(
    value
    & opt float 3.0
    & info [ "d"; "duration-ms" ] ~docv:"MS" ~doc:"Virtual measurement window.")

let no_coalesce_arg =
  Arg.(
    value
    & flag
    & info [ "no-coalesce" ]
        ~doc:
          "Disable the PTM's flush coalescing and commit pipelining: commits fall back to the \
           naive per-entry discipline (a clwb + fence per log entry and per written word).  For \
           A/B runs against the default coalesced path.")

(* Non-finite statistics (e.g. percentiles of an empty histogram)
   render as "-", never "nan". *)
let ns_cell v = if Float.is_finite v then Printf.sprintf "%.0fns" v else "-"

let print_result (r : Workloads.Driver.result) =
  Format.printf "workload   : %s@." r.Workloads.Driver.workload;
  Format.printf "model/alg  : %s / %s@." r.Workloads.Driver.model r.Workloads.Driver.algorithm;
  Format.printf "threads    : %d@." r.Workloads.Driver.threads;
  Format.printf "throughput : %.3f M tx/s@." (r.Workloads.Driver.txs_per_sec /. 1e6);
  Format.printf "commits    : %d@." r.Workloads.Driver.commits;
  Format.printf "aborts     : %d (%s commits/abort)@." r.Workloads.Driver.aborts
    (Repro_util.Table.cell_f r.Workloads.Driver.commits_per_abort);
  Format.printf "log size   : %d cache lines max@." r.Workloads.Driver.max_log_lines;
  let h = r.Workloads.Driver.latency in
  Format.printf "latency    : p50=%s p95=%s p99=%s mean=%s@."
    (ns_cell (Repro_util.Histogram.percentile h 50.0))
    (ns_cell (Repro_util.Histogram.percentile h 95.0))
    (ns_cell (Repro_util.Histogram.percentile h 99.0))
    (ns_cell (Repro_util.Histogram.mean h));
  let s = r.Workloads.Driver.sim in
  Format.printf "machine    : loads=%d stores=%d l3miss=%d clwb=%d sfence=%d@."
    s.Memsim.Sim.Stats.loads s.Memsim.Sim.Stats.stores s.Memsim.Sim.Stats.l3_misses
    s.Memsim.Sim.Stats.clwbs s.Memsim.Sim.Stats.sfences;
  Format.printf "             fence-wait=%dns wpq-stall=%dns nvm-reads=%d@."
    s.Memsim.Sim.Stats.fence_wait_ns s.Memsim.Sim.Stats.wpq_stall_ns s.Memsim.Sim.Stats.nvm_reads

let print_phase_table (p : Pstm.Profile.t) =
  let t =
    Repro_util.Table.create ~title:"phase profile (all threads)"
      ~header:[ "phase"; "count"; "total ns"; "fences"; "flushes"; "p50 ns"; "p95 ns" ]
  in
  let tids = Pstm.Profile.tids p in
  List.iter
    (fun phase ->
      let sum f = List.fold_left (fun acc tid -> acc + f ~tid phase) 0 tids in
      let count = sum (Pstm.Profile.phase_count p) in
      if count > 0 then begin
        let h = Pstm.Profile.merged_phase_hist p phase in
        Repro_util.Table.add_row t
          [
            Pstm.Profile.phase_name phase;
            string_of_int count;
            string_of_int (sum (Pstm.Profile.phase_ns p));
            string_of_int (sum (Pstm.Profile.phase_fences p));
            string_of_int (sum (Pstm.Profile.phase_flushes p));
            Repro_util.Table.cell_f (Repro_util.Histogram.percentile h 50.0);
            Repro_util.Table.cell_f (Repro_util.Histogram.percentile h 95.0);
          ]
      end)
    Pstm.Profile.all_phases;
  Format.printf "%a" Repro_util.Table.print t;
  let sum f = List.fold_left (fun acc tid -> acc + f ~tid) 0 tids in
  let fences_saved = sum (Pstm.Profile.fences_saved p) in
  let flushes_saved = sum (Pstm.Profile.flushes_saved p) in
  if fences_saved > 0 || flushes_saved > 0 then
    Format.printf "coalescing : saved %d fences, %d clwbs vs the naive per-entry path@."
      fences_saved flushes_saved

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"DIR"
        ~doc:
          "Capture telemetry (phase profile, time series, Chrome trace) and write \
           $(i,DIR)/profile.jsonl, $(i,DIR)/series.csv and $(i,DIR)/trace.json.  Load the trace \
           at https://ui.perfetto.dev.  Output is bit-deterministic for a given configuration.")

let run_cmd =
  let run spec model algorithm threads duration_ms no_coalesce telemetry_dir =
    let duration_ns = int_of_float (duration_ms *. 1e6) in
    let telemetry =
      match telemetry_dir with None -> None | Some _ -> Some Telemetry.default_config
    in
    let r =
      Workloads.Driver.run ~duration_ns ~coalesce:(not no_coalesce) ?telemetry ~model ~algorithm
        ~threads spec
    in
    print_result r;
    match (telemetry_dir, r.Workloads.Driver.telemetry) with
    | Some dir, Some cap ->
      print_phase_table (Telemetry.profile cap);
      let meta =
        Workloads.Driver.run_meta r ~seed:Workloads.Driver.default_seed ~duration_ns
      in
      List.iter (Format.printf "telemetry  : wrote %s@.") (Telemetry.dump ~dir meta cap)
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under one configuration.")
    Term.(
      const run $ workload_arg $ model_arg $ algorithm_arg $ threads_arg $ duration_arg
      $ no_coalesce_arg $ telemetry_arg)

let sweep_cmd =
  let sweep spec model algorithm duration_ms no_coalesce =
    let duration_ns = int_of_float (duration_ms *. 1e6) in
    let t =
      Repro_util.Table.create
        ~title:
          (Printf.sprintf "%s on %s (%s%s)" spec.Workloads.Driver.name
             model.Memsim.Config.model_name
             (Pstm.Ptm.algorithm_name algorithm)
             (if no_coalesce then ", naive flushes" else ""))
        ~header:[ "threads"; "M tx/s"; "commits/abort" ]
    in
    List.iter
      (fun threads ->
        let r =
          Workloads.Driver.run ~duration_ns ~coalesce:(not no_coalesce) ~model ~algorithm
            ~threads spec
        in
        Repro_util.Table.add_row t
          [
            string_of_int threads;
            Repro_util.Table.cell_f (r.Workloads.Driver.txs_per_sec /. 1e6);
            Repro_util.Table.cell_f r.Workloads.Driver.commits_per_abort;
          ])
      Workloads.Experiments.threads_axis;
    Format.printf "%a" Repro_util.Table.print t
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep the paper's thread axis for one configuration.")
    Term.(const sweep $ workload_arg $ model_arg $ algorithm_arg $ duration_arg $ no_coalesce_arg)

(* ---------- the experiment registry ---------- *)

module Experiments = Workloads.Experiments
module Table = Repro_util.Table
module Pool = Parallel.Pool

(* The `experiment` command line, handed to every registry entry. *)
type ctx = { quick : bool; jobs : int option; csv_dir : string option; json : bool }

let write_csv ctx name (t : Table.t) =
  match ctx.csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    output_string oc (Table.to_csv t);
    close_out oc;
    Format.printf "  (csv written to %s)@." path

let write_json ctx ?(jobs = Option.value ctx.jobs ~default:(Pool.default_jobs ()))
    ?(quick = ctx.quick) name ~wall_s ~extra results =
  if ctx.json then begin
    let dir = Option.value ctx.csv_dir ~default:"." in
    let path = Workloads.Bench_json.write ~dir ~experiment:name ~quick ~jobs ~wall_s ~extra results in
    Format.printf "  (json written to %s)@." path
  end

(* An experiment that returns an outcome: print its tables, then the
   optional CSV and JSON records. *)
let tabulate name (f : ?quick:bool -> ?jobs:int -> unit -> Experiments.outcome) ctx =
  let t0 = Unix.gettimeofday () in
  let outcome = f ~quick:ctx.quick ?jobs:ctx.jobs () in
  let wall_s = Unix.gettimeofday () -. t0 in
  List.iteri
    (fun i table ->
      Format.printf "%a" Table.print table;
      write_csv ctx (Printf.sprintf "%s-%d" name i) table)
    outcome.Experiments.tables;
  write_json ctx name ~wall_s ~extra:outcome.Experiments.extra outcome.Experiments.results;
  Format.printf "  [%s: %d data points, %.1fs]@." name
    (List.length outcome.Experiments.results)
    wall_s

(* ---------- speedup: serial vs parallel self-benchmark ---------- *)

(* Runs one quick-sized Fig 3 panel twice — once with a single worker,
   once with the requested pool — checks the rendered tables are
   byte-identical, and reports wall time and simulated-events/sec for
   both; with --json the measurement lands in BENCH_speedup.json so the
   simulator's speed trajectory can be tracked across commits.  The
   parallel leg uses --jobs if given, else every available core (at
   least 2, so the domain machinery is exercised even on one core —
   where the honest expectation is no speedup). *)
let speedup ctx =
  let spec = Workloads.Btree_bench.insert_only in
  let par_jobs = max 2 (Option.value ctx.jobs ~default:(Pool.default_jobs ())) in
  (* Each leg also samples the GC before/after: with jobs = 1 the whole
     panel runs in the calling domain, so the minor/major word deltas
     divided by simulated events give the allocation cost of one DES
     event — the metric the zero-allocation hot-loop work is tracked
     by (wall clock on a shared machine is too noisy to regress on). *)
  let leg jobs =
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let outcome = Experiments.fig3_panel ~quick:true ~jobs spec in
    let wall = Unix.gettimeofday () -. t0 in
    let g1 = Gc.quick_stat () in
    let rendered =
      String.concat "\n"
        (List.map (Format.asprintf "%a" Table.print) outcome.Experiments.tables)
    in
    (outcome, wall, rendered, g1.Gc.minor_words -. g0.Gc.minor_words,
     g1.Gc.major_words -. g0.Gc.major_words)
  in
  let serial, serial_wall, serial_out, serial_minor, serial_major = leg 1 in
  let jobs2, jobs2_wall, jobs2_out, _, _ = leg 2 in
  (* The headline parallel leg reuses the jobs=2 measurement when the
     pool would be the same size — no point timing it twice. *)
  let parallel, par_wall, par_out =
    if par_jobs = 2 then (jobs2, jobs2_wall, jobs2_out)
    else
      let o, w, r, _, _ = leg par_jobs in
      (o, w, r)
  in
  let identical = String.equal serial_out par_out && String.equal serial_out jobs2_out in
  let events o =
    List.fold_left (fun acc r -> acc + Workloads.Bench_json.events r) 0 o.Experiments.results
  in
  let rate o wall = float_of_int (events o) /. wall in
  let sp = serial_wall /. par_wall in
  let sp2 = serial_wall /. jobs2_wall in
  let cells = List.length serial.Experiments.results in
  let pool_chunk = Pool.default_chunk ~n:cells ~jobs:par_jobs in
  let serial_events = events serial in
  let minor_per_event = serial_minor /. float_of_int (max 1 serial_events) in
  let major_per_event = serial_major /. float_of_int (max 1 serial_events) in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Speedup — quick Fig 3 panel (%s), %d cells, %d cores, chunk %d"
           spec.Workloads.Driver.name cells
           (Domain.recommended_domain_count ())
           pool_chunk)
      ~header:[ "mode"; "jobs"; "wall s"; "sim events/s"; "speedup" ]
  in
  Table.add_row t
    [ "serial"; "1"; Table.cell_f serial_wall; Table.cell_f (rate serial serial_wall); "1.00" ];
  Table.add_row t
    [ "parallel"; "2"; Table.cell_f jobs2_wall; Table.cell_f (rate jobs2 jobs2_wall);
      Table.cell_f sp2 ];
  if par_jobs <> 2 then
    Table.add_row t
      [
        "parallel";
        string_of_int par_jobs;
        Table.cell_f par_wall;
        Table.cell_f (rate parallel par_wall);
        Table.cell_f sp;
      ];
  Format.printf "%a" Table.print t;
  Format.printf "  parallel output byte-identical to serial: %b@." identical;
  (* One-line human summaries of the measurement, greppable from CI logs. *)
  Format.printf "  speedup: %.2fx with %d jobs on %d cores — %.2fM events/s parallel vs %.2fM serial@."
    sp par_jobs
    (Domain.recommended_domain_count ())
    (rate parallel par_wall /. 1e6)
    (rate serial serial_wall /. 1e6);
  Format.printf "  allocation: %.2f minor words/event, %.4f major words/event (serial leg)@."
    minor_per_event major_per_event;
  write_json ctx "speedup" ~jobs:par_jobs ~quick:true ~wall_s:par_wall
    ~extra:
      [
        ("serial_wall_s", Workloads.Bench_json.Float serial_wall);
        ("parallel_wall_s", Workloads.Bench_json.Float par_wall);
        ("parallel_jobs", Workloads.Bench_json.Int par_jobs);
        ("speedup", Workloads.Bench_json.Float sp);
        ("serial_events_per_sec", Workloads.Bench_json.Float (rate serial serial_wall));
        ("parallel_events_per_sec", Workloads.Bench_json.Float (rate parallel par_wall));
        ("jobs2_wall_s", Workloads.Bench_json.Float jobs2_wall);
        ("jobs2_events_per_sec", Workloads.Bench_json.Float (rate jobs2 jobs2_wall));
        ("speedup_jobs2", Workloads.Bench_json.Float sp2);
        ("pool_chunk", Workloads.Bench_json.Int pool_chunk);
        ("minor_words_per_event", Workloads.Bench_json.Float minor_per_event);
        ("major_words_per_event", Workloads.Bench_json.Float major_per_event);
        ("byte_identical", Workloads.Bench_json.Bool identical);
      ]
    parallel.Experiments.results;
  if not identical then begin
    Format.eprintf "speedup: parallel output differs from serial!@.";
    exit 1
  end

(* ---------- telemetry: instrumented bank runs with phase profiles ---------- *)

(* Short instrumented runs under ADR and eADR for both log algorithms.
   Shows where virtual time goes per phase (the paper's fence-cost
   story: undo pays a flush+fence per write, redo defers to commit)
   and, with --csv DIR, dumps full profile/series/trace files per
   configuration under DIR/telemetry/<model>-<alg>/. *)
let telemetry ctx =
  let duration_ns = if ctx.quick then 200_000 else 1_000_000 in
  let configs =
    [
      (Memsim.Config.optane_adr, Pstm.Ptm.Redo);
      (Memsim.Config.optane_adr, Pstm.Ptm.Undo);
      (Memsim.Config.optane_eadr, Pstm.Ptm.Redo);
      (Memsim.Config.optane_eadr, Pstm.Ptm.Undo);
    ]
  in
  List.iter
    (fun (model, algorithm) ->
      let r =
        Workloads.Driver.run ~duration_ns ~telemetry:Telemetry.default_config ~model ~algorithm
          ~threads:4 Workloads.Bank.spec
      in
      let cap =
        match r.Workloads.Driver.telemetry with
        | Some cap -> cap
        | None -> failwith "telemetry capture missing"
      in
      let p = Telemetry.profile cap in
      let tids = Pstm.Profile.tids p in
      let sum f = List.fold_left (fun acc tid -> acc + f ~tid) 0 tids in
      let total_txn_ns = sum (Pstm.Profile.txn_ns p) in
      let table =
        Table.create
          ~title:
            (Printf.sprintf "phase profile: bank on %s (%s, %d commits)"
               model.Memsim.Config.model_name
               (Pstm.Ptm.algorithm_name algorithm)
               r.Workloads.Driver.commits)
          ~header:[ "phase"; "count"; "total ns"; "share %"; "fences"; "flushes" ]
      in
      List.iter
        (fun phase ->
          let count = sum (fun ~tid -> Pstm.Profile.phase_count p ~tid phase) in
          if count > 0 then
            let ns = sum (fun ~tid -> Pstm.Profile.phase_ns p ~tid phase) in
            Table.add_row table
              [
                Pstm.Profile.phase_name phase;
                string_of_int count;
                string_of_int ns;
                Table.cell_f (100.0 *. float_of_int ns /. float_of_int (max 1 total_txn_ns));
                string_of_int (sum (fun ~tid -> Pstm.Profile.phase_fences p ~tid phase));
                string_of_int (sum (fun ~tid -> Pstm.Profile.phase_flushes p ~tid phase));
              ])
        Pstm.Profile.all_phases;
      Format.printf "%a" Table.print table;
      let fences_saved = sum (Pstm.Profile.fences_saved p) in
      let flushes_saved = sum (Pstm.Profile.flushes_saved p) in
      if fences_saved > 0 || flushes_saved > 0 then
        Format.printf "  (coalescing saved %d fences, %d clwbs vs the naive per-entry path)@."
          fences_saved flushes_saved;
      match ctx.csv_dir with
      | None -> ()
      | Some dir ->
        let sub =
          Filename.concat
            (Filename.concat dir "telemetry")
            (Printf.sprintf "%s-%s" model.Memsim.Config.model_name
               (Pstm.Ptm.algorithm_name algorithm))
        in
        let meta =
          Workloads.Driver.run_meta r ~seed:Workloads.Driver.default_seed ~duration_ns
        in
        List.iter (Format.printf "  (telemetry written to %s)@.") (Telemetry.dump ~dir:sub meta cap))
    configs

(* ---------- microbench: Bechamel timings of the primitives ---------- *)

let microbench ctx =
  let open Bechamel in
  let open Toolkit in
  (* A standing simulated machine; primitives run outside simulated
     threads (untimed virtually — what we measure here is the real
     cost of the simulator itself). *)
  let m =
    Memsim.Sim.machine
      (Memsim.Sim.create
         (Memsim.Config.make ~heap_words:(1 lsl 18) ~track_media:false
            Memsim.Config.optane_adr))
  in
  let ptm = Pstm.Ptm.create ~max_threads:4 m in
  let counter =
    Pstm.Ptm.atomic ptm (fun tx ->
        let a = Pstm.Ptm.alloc tx 1 in
        Pstm.Ptm.write tx a 0;
        a)
  in
  let rng = Repro_util.Rng.create 1 in
  let zipf = Repro_util.Zipf.create 4096 in
  let tests =
    [
      Test.make ~name:"sim-load" (Staged.stage (fun () -> m.Machine.load 4096));
      Test.make ~name:"sim-store" (Staged.stage (fun () -> m.Machine.store 4096 1));
      Test.make ~name:"sim-clwb" (Staged.stage (fun () -> m.Machine.clwb 4096));
      Test.make ~name:"orec-cas" (Staged.stage (fun () -> m.Machine.meta_cas 70_000 0 0));
      Test.make ~name:"ptm-tx-1-write"
        (Staged.stage (fun () ->
             Pstm.Ptm.atomic ptm (fun tx ->
                 Pstm.Ptm.write tx counter (Pstm.Ptm.read tx counter + 1))));
      Test.make ~name:"rng-next" (Staged.stage (fun () -> Repro_util.Rng.next rng));
      Test.make ~name:"zipf-sample" (Staged.stage (fun () -> Repro_util.Zipf.sample zipf rng));
    ]
  in
  let grouped = Test.make_grouped ~name:"prim" ~fmt:"%s/%s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Table.create ~title:"Microbenchmarks (real ns per call, Bechamel OLS)"
      ~header:[ "primitive"; "ns/call" ]
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let cell =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Table.cell_f est
        | Some _ | None -> "-"
      in
      Table.add_row table [ name; cell ])
    (List.sort compare rows);
  Format.printf "%a" Table.print table;
  write_csv ctx "microbench" table

(* What `experiment all` runs, in order: the paper's tables and
   figures, the KV service, tracing and telemetry experiments, and the
   primitive microbenchmarks. *)
let in_all =
  List.map
    (fun (name, f) -> (name, tabulate name f))
    (Experiments.all @ [ ("kvserve", Kvserve.Bench.run); ("trace", Kvserve.Bench.run_trace) ])
  @ [ ("telemetry", telemetry); ("microbench", microbench) ]

(* Every experiment by CLI name.  [speedup] times the harness itself
   rather than regenerating a result, so `all` leaves it out. *)
let registry = in_all @ [ ("speedup", speedup) ]

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let experiment_cmd =
  let names_arg =
    let names = "all" :: List.map fst registry in
    Arg.(
      non_empty
      & pos_all (enum (List.map (fun n -> (n, n)) names)) []
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiments to run (see $(b,list)), or $(b,all).")
  in
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Short measurement window.") in
  let jobs_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the sweep's independent simulation cells (default: the \
             available cores).  Tables are byte-identical for every value; only wall time \
             changes.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Write every table as $(i,DIR)/$(i,EXPERIMENT)-$(i,i).csv (and, for telemetry, \
                the per-configuration dumps under $(i,DIR)/telemetry/).")
  in
  let json_arg =
    Arg.(
      value
      & flag
      & info [ "json" ]
          ~doc:
            "Also write BENCH_$(i,EXPERIMENT).json (in the --csv directory, else the current \
             one): per-cell throughput/abort/fence metrics plus run totals and wall time.")
  in
  let exp names quick jobs csv_dir json =
    let ctx = { quick; jobs; csv_dir; json } in
    List.iter
      (fun name ->
        let runs = if name = "all" then in_all else [ (name, List.assoc name registry) ] in
        List.iter (fun (_, run) -> run ctx) runs)
      names
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's tables and figures (fig3 fig4 table1 ... fig8, see $(b,list)).")
    Term.(const exp $ names_arg $ quick_arg $ jobs_arg $ csv_arg $ json_arg)

let regress_cmd =
  let module J = Workloads.Bench_json in
  let baseline_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "b"; "baseline" ] ~docv:"FILE" ~doc:"Committed baseline BENCH_*.json.")
  in
  let current_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "c"; "current" ] ~docv:"FILE" ~doc:"Freshly produced BENCH_*.json to check.")
  in
  let tolerance_arg =
    Arg.(
      value
      & opt float 5.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Tolerance band, in percent: metric moves within it are ignored.")
  in
  let include_wall_arg =
    Arg.(
      value
      & flag
      & info [ "include-wall" ]
          ~doc:
            "Also gate wall-clock / environment fields (wall_s, cores, jobs, events_per_sec, \
             *_wall_ns).  Off by default: they move with the host machine, not the code.")
  in
  let regress baseline current tolerance_pct include_wall =
    let parse_or_die path =
      try J.parse_file path
      with J.Parse_error msg ->
        Format.eprintf "regress: %s: %s@." path msg;
        exit 2
    in
    let b = parse_or_die baseline and c = parse_or_die current in
    let findings = J.regress ~tolerance_pct ~include_wall ~baseline:b ~current:c () in
    let tag = function
      | J.Regression -> "REGRESSION"
      | J.Improvement -> "improvement"
      | J.Note -> "note"
    in
    List.iter
      (fun f -> Format.printf "%-11s %s: %s@." (tag f.J.f_severity) f.J.f_path f.J.f_detail)
      findings;
    let count sev = List.length (List.filter (fun f -> f.J.f_severity = sev) findings) in
    let regressions = count J.Regression in
    Format.printf "regress    : %d regressions, %d improvements, %d notes (tolerance %.1f%%)@."
      regressions (count J.Improvement) (count J.Note) tolerance_pct;
    if regressions > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "regress"
       ~doc:
         "Diff a BENCH_*.json against a committed baseline with tolerance bands; exit non-zero \
          when a gated metric regressed.  Direction comes from the metric name (throughput-like \
          must not fall, cost-like must not rise).")
    Term.(const regress $ baseline_arg $ current_arg $ tolerance_arg $ include_wall_arg)

let list_cmd =
  let list () =
    Format.printf "workloads:@.";
    List.iter (fun (n, _) -> Format.printf "  %s@." n) (workloads ());
    Format.printf "models:@.";
    List.iter
      (fun m -> Format.printf "  %s@." m.Memsim.Config.model_name)
      Memsim.Config.all_models;
    Format.printf "experiments:@.";
    List.iter (fun (n, _) -> Format.printf "  %s@." n) registry
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads, models and experiments.") Term.(const list $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "ptm_bench" ~version:"1.0"
      ~doc:"Persistent transactional memory on (simulated) Optane DC — experiment driver."
  in
  exit
    (Cmd.eval (Cmd.group ~default info [ run_cmd; sweep_cmd; experiment_cmd; regress_cmd; list_cmd ]))
