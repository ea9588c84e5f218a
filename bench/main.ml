(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index) and runs Bechamel
   microbenchmarks of the core primitives.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig3 table1  # selected experiments
     dune exec bench/main.exe -- --quick all  # fast smoke sweep
     dune exec bench/main.exe -- --csv out/ fig8
     dune exec bench/main.exe -- --jobs 4 --json fig3
     dune exec bench/main.exe -- speedup      # serial-vs-parallel self-bench

   Output tables mirror the paper's rows/series; CSVs are written when
   --csv DIR is given.  --jobs N fans the independent simulation cells
   of each experiment across N domains (tables stay byte-identical to
   --jobs 1); --json additionally writes BENCH_<experiment>.json next
   to the CSVs (or in the cwd). *)

module Experiments = Workloads.Experiments
module Table = Repro_util.Table
module Pool = Parallel.Pool

let csv_dir = ref None
let quick = ref false
let jobs = ref None
let json = ref false

let effective_jobs () =
  match !jobs with Some j -> j | None -> Pool.default_jobs ()

let write_csv name (t : Table.t) =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    output_string oc (Table.to_csv t);
    close_out oc;
    Format.printf "  (csv written to %s)@." path

let write_json ?jobs:jobs_used ?quick:quick_used name ~wall_s ?extra results =
  if !json then begin
    let dir = Option.value !csv_dir ~default:"." in
    let jobs = Option.value jobs_used ~default:(effective_jobs ()) in
    let quick = Option.value quick_used ~default:!quick in
    let path =
      Workloads.Bench_json.write ~dir ~experiment:name ~quick ~jobs ~wall_s ?extra results
    in
    Format.printf "  (json written to %s)@." path
  end

let run_experiment name =
  match List.assoc_opt name Experiments.all with
  | None -> Format.eprintf "unknown experiment %S@." name
  | Some f ->
    let t0 = Unix.gettimeofday () in
    let outcome = f ~quick:!quick ?jobs:!jobs () in
    let wall_s = Unix.gettimeofday () -. t0 in
    List.iteri
      (fun i table ->
        Format.printf "%a" Table.print table;
        write_csv (Printf.sprintf "%s-%d" name i) table)
      outcome.Experiments.tables;
    write_json name ~wall_s ~extra:outcome.Experiments.extra outcome.Experiments.results;
    Format.printf "  [%s: %d data points, %.1fs]@." name
      (List.length outcome.Experiments.results)
      wall_s

(* ---------- speedup: serial vs parallel self-benchmark ---------- *)

(* Runs one quick-sized Fig 3 panel twice — once with a single worker,
   once with the requested pool — checks the rendered tables are
   byte-identical, and reports wall time and simulated-events/sec for
   both.  Always records the measurement in BENCH_speedup.json so the
   simulator's speed trajectory can be tracked across commits.  The
   parallel leg uses --jobs if given, else every available core (at
   least 2, so the domain machinery is exercised even on one core —
   where the honest expectation is no speedup). *)
let speedup () =
  let spec = Workloads.Btree_bench.insert_only in
  let par_jobs = match !jobs with Some j -> max j 2 | None -> max 2 (Pool.default_jobs ()) in
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
  let saved_json = !json in
  json := true;
  write_json "speedup" ~jobs:par_jobs ~quick:true ~wall_s:par_wall
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
  json := saved_json;
  if not identical then begin
    Format.eprintf "speedup: parallel output differs from serial!@.";
    exit 1
  end

(* ---------- kvserve: sharded KV service sweep + recovery ---------- *)

(* Working-set sweep through the full service path (codec → router →
   batch → commit) and the per-domain restart-recovery table, from
   lib/kvserve.  No Driver.results — the per-run metrics land in the
   JSON extras instead. *)
let kvserve_experiment () =
  let t0 = Unix.gettimeofday () in
  let outcome = Kvserve.Bench.run ~quick:!quick ?jobs:!jobs () in
  let wall_s = Unix.gettimeofday () -. t0 in
  List.iteri
    (fun i table ->
      Format.printf "%a" Table.print table;
      write_csv (Printf.sprintf "kvserve-%d" i) table)
    outcome.Kvserve.Bench.tables;
  write_json "kvserve" ~wall_s ~extra:outcome.Kvserve.Bench.extra [];
  Format.printf "  [kvserve: %.1fs]@." wall_s

(* ---------- trace: request tracing + tail-latency attribution ---------- *)

(* Every durability domain served with request tracing on: end-to-end
   latency percentiles measured from the request spans and a blame
   table attributing exclusive time per span kind over the p95..p100
   band.  With --json, the full blame vectors and the span digest land
   in BENCH_trace.json — the regression sentinel's input. *)
let trace_experiment () =
  let t0 = Unix.gettimeofday () in
  let outcome = Kvserve.Bench.run_trace ~quick:!quick ?jobs:!jobs () in
  let wall_s = Unix.gettimeofday () -. t0 in
  List.iteri
    (fun i table ->
      Format.printf "%a" Table.print table;
      write_csv (Printf.sprintf "trace-%d" i) table)
    outcome.Kvserve.Bench.tables;
  write_json "trace" ~wall_s ~extra:outcome.Kvserve.Bench.extra [];
  Format.printf "  [trace: %.1fs]@." wall_s

(* ---------- Telemetry: instrumented bank runs with phase profiles ---------- *)

(* Short instrumented runs under ADR and eADR for both log algorithms.
   Shows where virtual time goes per phase (the paper's fence-cost
   story: undo pays a flush+fence per write, redo defers to commit)
   and, with --csv DIR, dumps full profile/series/trace files per
   configuration under DIR/telemetry/<model>-<alg>/. *)
let telemetry_experiment () =
  let duration_ns = if !quick then 200_000 else 1_000_000 in
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
      (match !csv_dir with
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
        List.iter (Format.printf "  (telemetry written to %s)@.") (Telemetry.dump ~dir:sub meta cap)))
    configs

(* ---------- Bechamel microbenchmarks of the primitives ---------- *)

let microbench () =
  let open Bechamel in
  let open Toolkit in
  (* A standing simulated machine; primitives run outside simulated
     threads (untimed virtually — what we measure here is the real
     cost of the simulator itself). *)
  let sim, m =
    let cfg =
      Memsim.Config.make ~heap_words:(1 lsl 18) ~track_media:false Memsim.Config.optane_adr
    in
    let s = Memsim.Sim.create cfg in
    (s, Memsim.Sim.machine s)
  in
  ignore sim;
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
  write_csv "microbench" table

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      parse acc rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 1 -> jobs := Some j
      | Some _ | None ->
        Format.eprintf "--jobs expects a positive integer, got %S@." n;
        exit 2);
      parse acc rest
    | "--json" :: rest ->
      json := true;
      parse acc rest
    | arg :: rest -> parse (arg :: acc) rest
  in
  let selected = parse [] args in
  let selected =
    if selected = [] || selected = [ "all" ] then
      List.map fst Experiments.all @ [ "kvserve"; "trace"; "telemetry"; "microbench" ]
    else selected
  in
  List.iter
    (fun name ->
      match name with
      | "microbench" -> microbench ()
      | "kvserve" -> kvserve_experiment ()
      | "trace" -> trace_experiment ()
      | "telemetry" -> telemetry_experiment ()
      | "speedup" -> speedup ()
      | _ -> run_experiment name)
    selected
