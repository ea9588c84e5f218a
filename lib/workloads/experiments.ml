module Table = Repro_util.Table
module Config = Memsim.Config
module Ptm = Pstm.Ptm
module Pool = Parallel.Pool

type outcome = {
  tables : Table.t list;
  results : Driver.result list;
  extra : (string * Bench_json.json) list;  (* experiment-specific JSON spliced into BENCH_*.json *)
}

let threads_axis = [ 1; 2; 4; 8; 16; 32 ]

let duration quick = if quick then 500_000 else 3_000_000

(* [xs] cut into one run of [n] consecutive items per element of [keys]. *)
let regroup keys n xs =
  let a = Array.of_list xs in
  List.mapi (fun i _ -> Array.to_list (Array.sub a (i * n) n)) keys

(* Every grid experiment names its axes once: [grid rows cols cell]
   runs [cell r c] for every row x column — independent, deterministic
   simulation cells — as one batch on the domain pool, and returns the
   results row by row in the order given.  The pool reassembles results
   in submission order, so [List.concat] of the rows is the serial
   order and every table is byte-identical whatever [jobs] is. *)
let grid ?jobs rows cols cell =
  regroup rows (List.length cols)
    (Pool.run ?jobs (List.concat_map (fun r -> List.map (fun c () -> cell r c) cols) rows))

let table ~title ~header rows =
  let t = Table.create ~title ~header in
  List.iter (Table.add_row t) rows;
  t

let mtx_per_sec r = Table.cell_f (r.Driver.txs_per_sec /. 1e6)

(* An A/B row's second run relative to its first, in percent. *)
let gain_pct = function
  | [ a; b ] -> 100.0 *. ((b.Driver.txs_per_sec /. a.Driver.txs_per_sec) -. 1.0)
  | _ -> invalid_arg "Experiments.gain_pct: not an A/B pair"

(* Fences and clwbs per commit, actual then saved by coalescing, from a
   run's passive profile: the last four columns of an economy table. *)
let economy_cells r =
  match r.Driver.telemetry with
  | None -> invalid_arg "Experiments.economy_cells: a run without telemetry"
  | Some cap ->
    let t = Pstm.Profile.totals (Telemetry.profile cap) in
    let per x = Table.cell_f (float_of_int x /. float_of_int (max 1 t.Pstm.Profile.commits)) in
    [ per t.fences; per t.flushes; per t.fences_saved; per t.flushes_saved ]

let passive = { Telemetry.default_config with Telemetry.sample_interval_ns = 0 }

(* The eight Fig 3/4 series: placement x durability x logging. *)
let fig3_series =
  [
    ("DRAM_ADR_R", Config.dram_adr, Ptm.Redo);
    ("DRAM_ADR_U", Config.dram_adr, Ptm.Undo);
    ("DRAM_eADR_R", Config.dram_eadr, Ptm.Redo);
    ("DRAM_eADR_U", Config.dram_eadr, Ptm.Undo);
    ("Optane_ADR_R", Config.optane_adr, Ptm.Redo);
    ("Optane_ADR_U", Config.optane_adr, Ptm.Undo);
    ("Optane_eADR_R", Config.optane_eadr, Ptm.Redo);
    ("Optane_eADR_U", Config.optane_eadr, Ptm.Undo);
  ]

(* The five Fig 6/7 series (durability models; redo unless noted). *)
let fig6_series =
  [
    ("DRAM", Config.dram_eadr, Ptm.Redo);
    ("eADR", Config.optane_eadr, Ptm.Redo);
    ("PDRAM_R", Config.pdram, Ptm.Redo);
    ("PDRAM_U", Config.pdram, Ptm.Undo);
    ("PDRAM-Lite", Config.pdram_lite, Ptm.Redo);
  ]

let main_panels () =
  [
    Btree_bench.insert_only;
    Btree_bench.mixed;
    Tpcc.spec Tpcc.Btree;
    Tpcc.spec Tpcc.Hash;
    Vacation.spec Vacation.Low;
    Vacation.spec Vacation.High;
  ]

(* One throughput-vs-threads table per workload panel. *)
let sweep ?jobs ~quick ~title ~series specs =
  let dur = duration quick in
  let rows = List.concat_map (fun spec -> List.map (fun s -> (spec, s)) series) specs in
  let results =
    grid ?jobs rows threads_axis (fun (spec, (_, model, algorithm)) threads ->
        Driver.run ~duration_ns:dur ~model ~algorithm ~threads spec)
  in
  let tables =
    List.map2
      (fun spec panel ->
        table
          ~title:(Printf.sprintf "%s — %s (M tx/s by thread count)" title spec.Driver.name)
          ~header:("series" :: List.map string_of_int threads_axis)
          (List.map2 (fun (label, _, _) row -> label :: List.map mtx_per_sec row) series panel))
      specs
      (regroup specs (List.length series) results)
  in
  { tables; results = List.concat results; extra = [] }

let fig3 ?(quick = false) ?jobs () =
  sweep ?jobs ~quick ~title:"Fig 3" ~series:fig3_series (main_panels ())

let fig4 ?(quick = false) ?jobs () =
  sweep ?jobs ~quick ~title:"Fig 4" ~series:fig3_series [ Tatp.spec ]

(* One panel of Fig 3 — the unit the parallel byte-identity gate and
   the speedup self-benchmark sweep, so they stay quick-sized. *)
let fig3_panel ?(quick = false) ?jobs spec =
  sweep ?jobs ~quick ~title:"Fig 3" ~series:fig3_series [ spec ]

(* Tables I/II: commits-per-abort for TPCC (hash), one row per
   placement/durability pair, one column per thread count >= 2. *)
let ratio_table ?jobs ~quick ~title algorithm =
  let dur = duration quick in
  let rows =
    [
      ("DRAM_ADR", Config.dram_adr);
      ("DRAM_eADR", Config.dram_eadr);
      ("Optane_ADR", Config.optane_adr);
      ("Optane_eADR", Config.optane_eadr);
    ]
  in
  let threads = List.filter (fun n -> n > 1) threads_axis in
  let results =
    grid ?jobs rows threads (fun (_, model) n ->
        Driver.run ~duration_ns:dur ~model ~algorithm ~threads:n (Tpcc.spec Tpcc.Hash))
  in
  let t =
    table
      ~title:(Printf.sprintf "%s — commits per abort, TPCC (hash), %s" title
                (Ptm.algorithm_name algorithm))
      ~header:("config" :: List.map string_of_int threads)
      (List.map2
         (fun (label, _) row ->
           label :: List.map (fun r -> Table.cell_f r.Driver.commits_per_abort) row)
         rows results)
  in
  { tables = [ t ]; results = List.concat results; extra = [] }

let table1 ?(quick = false) ?jobs () = ratio_table ?jobs ~quick ~title:"Table I" Ptm.Redo

let table2 ?(quick = false) ?jobs () = ratio_table ?jobs ~quick ~title:"Table II" Ptm.Undo

(* Table III: throughput gain of the (incorrect) flush-without-fence
   variant over correct ADR.  Measured at 4 threads: past the write
   bandwidth saturation point (~4 threads on Optane) both variants are
   WPQ-throughput-bound and the fence gain disappears — the paper's
   machine shows its gains below saturation. *)
let table3 ?(quick = false) ?jobs () =
  let dur = duration quick in
  let specs =
    [ Tpcc.spec Tpcc.Hash; Tatp.spec; Vacation.spec Vacation.Low; Vacation.spec Vacation.High ]
  in
  let algorithms = [ Ptm.Undo; Ptm.Redo ] in
  let cols =
    List.concat_map (fun spec -> [ (spec, Config.optane_adr); (spec, Config.optane_adr_nofence) ])
      specs
  in
  let results =
    grid ?jobs algorithms cols (fun algorithm (spec, model) ->
        Driver.run ~duration_ns:dur ~model ~algorithm ~threads:4 spec)
  in
  let t =
    table ~title:"Table III — speedup from removing fences (ADR, 4 threads)"
      ~header:("logging" :: List.map (fun s -> s.Driver.name) specs)
      (List.map2
         (fun algorithm row ->
           Ptm.algorithm_name algorithm
           :: List.map (fun ab -> Printf.sprintf "%+.0f%%" (gain_pct ab)) (regroup specs 2 row))
         algorithms results)
  in
  { tables = [ t ]; results = List.concat results; extra = [] }

let fig6 ?(quick = false) ?jobs () =
  sweep ?jobs ~quick ~title:"Fig 6" ~series:fig6_series (main_panels ())

let fig7 ?(quick = false) ?jobs () =
  sweep ?jobs ~quick ~title:"Fig 7" ~series:fig6_series [ Tatp.spec ]

(* Fig 8: memcached, one worker, sweeping the working set across the
   L3 (32 KB) and the PDRAM DRAM-cache (96 MB) boundaries.  Sizes are
   the paper's GB values scaled by 2^10 to MB. *)
let fig8_sizes =
  [
    ("32KB", 32 * 1024);
    ("32MB", 32 * 1024 * 1024);
    ("96MB", 96 * 1024 * 1024);
    ("160MB", 160 * 1024 * 1024);
    ("224MB", 224 * 1024 * 1024);
    ("288MB", 288 * 1024 * 1024);
    ("320MB", 320 * 1024 * 1024);
  ]

let fig8_series =
  [
    ("DRAM_R", Config.dram_eadr, Ptm.Redo);
    ("ADR_R", Config.optane_adr, Ptm.Redo);
    ("ADR_U", Config.optane_adr, Ptm.Undo);
    ("eADR_R", Config.optane_eadr, Ptm.Redo);
    ("eADR_U", Config.optane_eadr, Ptm.Undo);
    ("PDRAM", Config.pdram, Ptm.Redo);
    ("PDRAM-Lite", Config.pdram_lite, Ptm.Redo);
  ]

let fig8 ?(quick = false) ?jobs () =
  let dur = duration quick in
  let sizes = if quick then [ List.nth fig8_sizes 0; List.nth fig8_sizes 1 ] else fig8_sizes in
  let dram_capacity = 96 * 1024 * 1024 in
  (* The paper cannot run the DRAM baseline beyond DRAM; those cells
     run nothing and render "n/a". *)
  let results =
    grid ?jobs fig8_series sizes (fun (_, (model : Config.model), algorithm) (_, bytes) ->
        if model.Config.data_media = Config.Dram && bytes > dram_capacity then None
        else
          let spec = Memcached.spec ~items:(Memcached.items_for_bytes bytes) in
          Some (Driver.run ~duration_ns:dur ~model ~algorithm ~threads:1 spec))
  in
  let t =
    table ~title:"Fig 8 — memcached, 1 worker (k req/s by working set)"
      ~header:("series" :: List.map fst sizes)
      (List.map2
         (fun (label, _, _) row ->
           label
           :: List.map
                (function
                  | None -> "n/a" | Some r -> Table.cell_f (r.Driver.txs_per_sec /. 1e3))
                row)
         fig8_series results)
  in
  { tables = [ t ]; results = List.filter_map Fun.id (List.concat results); extra = [] }

(* §IV-B: the compactness of redo logs that motivates PDRAM-Lite. *)
let log_footprint ?(quick = false) ?jobs () =
  let dur = duration quick in
  let rows =
    [
      (Vacation.spec Vacation.Low, "37 (\"never more than 37 contiguous lines\")");
      (Tpcc.spec Tpcc.Hash, "36 (\"at most 36 cache lines\")");
      (Tatp.spec, "(small)");
    ]
  in
  let results =
    Pool.map ?jobs
      (fun (spec, _) ->
        Driver.run ~duration_ns:dur ~model:Config.optane_eadr ~algorithm:Ptm.Redo ~threads:8 spec)
      rows
  in
  let t =
    table ~title:"Redo-log footprint (max cache lines per transaction)"
      ~header:[ "workload"; "max lines"; "paper" ]
      (List.map2
         (fun (spec, paper) r -> [ spec.Driver.name; string_of_int r.Driver.max_log_lines; paper ])
         rows results)
  in
  { tables = [ t ]; results; extra = [] }

(* §III-B: incremental vs commit-time flushing of the redo log. *)
let flush_timing_ablation ?(quick = false) ?jobs () =
  let dur = duration quick in
  let rows =
    List.concat_map
      (fun spec -> List.map (fun threads -> (spec, threads)) [ 1; 8 ])
      [ Tpcc.spec Tpcc.Hash; Tatp.spec ]
  in
  let results =
    grid ?jobs rows [ Ptm.At_commit; Ptm.Incremental ] (fun (spec, threads) flush_timing ->
        Driver.run ~duration_ns:dur ~flush_timing ~model:Config.optane_adr ~algorithm:Ptm.Redo
          ~threads spec)
  in
  let t =
    table ~title:"Ablation — clwb timing of the redo log (ADR, M tx/s)"
      ~header:[ "workload"; "threads"; "at-commit"; "incremental"; "delta" ]
      (List.map2
         (fun (spec, threads) row ->
           (spec.Driver.name :: string_of_int threads :: List.map mtx_per_sec row)
           @ [ Printf.sprintf "%+.1f%%" (gain_pct row) ])
         rows results)
  in
  { tables = [ t ]; results = List.concat results; extra = [] }

(* Design-choice ablation: orec-table size vs false conflicts. *)
let orec_ablation ?(quick = false) ?jobs () =
  let dur = duration quick in
  let sizes = [ 10; 12; 14; 16; 18; 20 ] in
  let results =
    Pool.map ?jobs
      (fun bits ->
        Driver.run ~duration_ns:dur ~orec_bits:bits ~model:Config.optane_eadr ~algorithm:Ptm.Redo
          ~threads:16 (Tpcc.spec Tpcc.Hash))
      sizes
  in
  let t =
    table ~title:"Ablation — ownership-record table size (TPCC hash, redo, 16 threads)"
      ~header:[ "orec bits"; "M tx/s"; "commits/abort" ]
      (List.map2
         (fun bits r ->
           [ string_of_int bits; mtx_per_sec r; Table.cell_f r.Driver.commits_per_abort ])
         sizes results)
  in
  { tables = [ t ]; results; extra = [] }

(* ---------- extensions beyond the paper's evaluation ---------- *)

(* §V future work: "is HTM a viable strategy for accelerating PTM?  It
   might work with eADR and PDRAM."  Compare the TSX-style mode against
   the software paths under the flush-free domains. *)
let htm ?(quick = false) ?jobs () =
  let series =
    [
      ("eADR_redo", Config.optane_eadr, Ptm.Redo);
      ("eADR_undo", Config.optane_eadr, Ptm.Undo);
      ("eADR_htm", Config.optane_eadr, Ptm.Htm);
      ("PDRAM_redo", Config.pdram, Ptm.Redo);
      ("PDRAM_htm", Config.pdram, Ptm.Htm);
      ("Transient_htm", Config.transient_cache, Ptm.Htm);
      ("HTMcommit_htm", Config.htm_commit, Ptm.Htm);
      ("HTMcommit_redo", Config.htm_commit, Ptm.Redo);
    ]
  in
  sweep ?jobs ~quick ~title:"Extension — HTM under eADR/PDRAM" ~series
    [ Tpcc.spec Tpcc.Hash; Btree_bench.insert_only; Tatp.spec ]

(* §IV-C's cost argument: PDRAM's mechanics are Memory Mode's; how much
   performance does persistence cost relative to the non-persistent
   cache, and where do both sit against eADR? *)
let memory_mode ?(quick = false) ?jobs () =
  let series =
    [
      ("MemoryMode", Config.memory_mode, Ptm.Redo);
      ("PDRAM", Config.pdram, Ptm.Redo);
      ("eADR", Config.optane_eadr, Ptm.Redo);
      ("DRAM", Config.dram_eadr, Ptm.Redo);
    ]
  in
  sweep ?jobs ~quick ~title:"Extension — PDRAM vs Memory Mode" ~series
    [ Tatp.spec; Tpcc.spec Tpcc.Hash ]

(* §V future work: reserve-power requirements per durability domain.
   A monitor thread samples the persistence debt every 5 us; the table
   reports the worst case and the derived reserve energy.  The monitor
   refs live inside each cell, so cells stay shared-nothing. *)
let reserve_energy ?(quick = false) ?jobs () =
  let dur = duration quick in
  let models =
    [
      Config.optane_adr; Config.optane_eadr; Config.transient_cache; Config.pdram_lite;
      Config.pdram;
    ]
  in
  let cells =
    Pool.map ?jobs
      (fun model ->
        let max_debt = ref { Memsim.Sim.Debt.wpq_lines = 0; dirty_l3_lines = 0;
                             dirty_dram_pages = 0; armed_log_lines = 0 } in
        let max_energy = ref 0.0 in
        let sample sim =
          let d = Memsim.Sim.Debt.sample sim in
          let e = Memsim.Sim.Debt.reserve_energy_nj sim d in
          if e > !max_energy then begin
            max_energy := e;
            max_debt := d
          end
        in
        let r =
          Driver.run ~duration_ns:dur ~monitor:(5_000, sample) ~model ~algorithm:Ptm.Redo
            ~threads:8 (Tpcc.spec Tpcc.Hash)
        in
        (r, !max_debt, !max_energy))
      models
  in
  let t =
    table ~title:"Extension — reserve-power requirements (TPCC hash, redo, 8 threads)"
      ~header:
        [ "model"; "max WPQ lines"; "max dirty L3"; "max dirty pages"; "max log lines";
          "reserve energy (uJ)" ]
      (List.map2
         (fun model (_, d, max_energy) ->
           [
             model.Config.model_name;
             string_of_int d.Memsim.Sim.Debt.wpq_lines;
             string_of_int d.Memsim.Sim.Debt.dirty_l3_lines;
             string_of_int d.Memsim.Sim.Debt.dirty_dram_pages;
             string_of_int d.Memsim.Sim.Debt.armed_log_lines;
             Table.cell_f (max_energy /. 1e3);
           ])
         models cells)
  in
  { tables = [ t ]; results = List.map (fun (r, _, _) -> r) cells; extra = [] }

(* Extension: DIMM interleaving (§III-A: "the Optane memory was split
   across 12 DIMMs, and interleaving was enabled.  This is the
   recommended configuration for maximizing throughput").  Channels
   carry per-DIMM service times; aggregate bandwidth grows with the
   channel count. *)
let dimm_interleave ?(quick = false) ?jobs () =
  let dur = duration quick in
  let channel_axis = [ 1; 2; 3; 6; 12 ] in
  let thread_points = [ 1; 8; 16; 32 ] in
  let base = Config.default_latency in
  (* Per-DIMM service = 6x the aggregate default (the default
     calibration folds ~6 interleaved DIMMs into one channel). *)
  let lat =
    {
      base with
      Config.nvm_wpq_service_ns = base.Config.nvm_wpq_service_ns * 6;
      nvm_read_service_ns = base.Config.nvm_read_service_ns * 6;
    }
  in
  let results =
    grid ?jobs channel_axis thread_points (fun channels threads ->
        Driver.run ~duration_ns:dur ~lat ~nvm_channels:channels ~model:Config.optane_adr
          ~algorithm:Ptm.Redo ~threads (Tpcc.spec Tpcc.Hash))
  in
  let t =
    table ~title:"Extension — DIMM interleaving (TPCC hash, redo, ADR, M tx/s)"
      ~header:("channels" :: List.map string_of_int thread_points)
      (List.map2
         (fun channels row -> string_of_int channels :: List.map mtx_per_sec row)
         channel_axis results)
  in
  { tables = [ t ]; results = List.concat results; extra = [] }

(* Extension: transaction latency distributions (the paper reports
   only throughput; tail latency is where fences actually hurt). *)
let latency ?(quick = false) ?jobs () =
  let dur = duration quick in
  let specs = [ Tatp.spec; Tpcc.spec Tpcc.Hash ] in
  let models = [ Config.dram_eadr; Config.optane_adr; Config.optane_eadr; Config.pdram ] in
  let results =
    grid ?jobs specs models (fun spec model ->
        Driver.run ~duration_ns:dur ~model ~algorithm:Ptm.Redo ~threads:8 spec)
  in
  let pct h p = Table.cell_f (Repro_util.Histogram.percentile h p) in
  let t =
    table ~title:"Extension — transaction latency, 8 threads (virtual ns)"
      ~header:[ "workload"; "model"; "p50"; "p95"; "p99"; "mean" ]
      (List.concat
         (List.map2
            (fun spec row ->
              List.map2
                (fun model r ->
                  let h = r.Driver.latency in
                  [
                    spec.Driver.name;
                    model.Config.model_name;
                    pct h 50.0;
                    pct h 95.0;
                    pct h 99.0;
                    Table.cell_f (Repro_util.Histogram.mean h);
                  ])
                models row)
            specs results))
  in
  { tables = [ t ]; results = List.concat results; extra = [] }

(* Extension: the YCSB core mixes across the durability models. *)
let ycsb ?(quick = false) ?jobs () =
  let dur = duration quick in
  let mixes = [ Ycsb.A; Ycsb.B; Ycsb.C; Ycsb.D; Ycsb.E; Ycsb.F ] in
  let series =
    [
      ("ADR_R", Config.optane_adr, Ptm.Redo);
      ("ADR_U", Config.optane_adr, Ptm.Undo);
      ("eADR_R", Config.optane_eadr, Ptm.Redo);
      ("PDRAM_R", Config.pdram, Ptm.Redo);
    ]
  in
  let results =
    grid ?jobs series mixes (fun (_, model, algorithm) mix ->
        Driver.run ~duration_ns:dur ~model ~algorithm ~threads:8 (Ycsb.spec mix))
  in
  let t =
    table ~title:"Extension — YCSB mixes, 8 threads (M tx/s)"
      ~header:("series" :: List.map (fun m -> "ycsb-" ^ Ycsb.mix_name m) mixes)
      (List.map2 (fun (label, _, _) row -> label :: List.map mtx_per_sec row) series results)
  in
  { tables = [ t ]; results = List.concat results; extra = [] }

(* Tentpole extension: what software flush coalescing buys.  The bank
   workload's 2-write transfers under ADR pay the full per-entry
   flush/fence discipline when naive; coalesced commits batch the log
   sweep and dedup data lines behind single fences.  Under eADR no
   flushes are issued at all, so the two modes coincide — the hardware
   already did the optimisation. *)
let scaling ?(quick = false) ?jobs () =
  let dur = duration quick in
  let axis = if quick then [ 1; 2; 4 ] else threads_axis in
  let series =
    [
      ("ADR_coalesced", Config.optane_adr, true);
      ("ADR_naive", Config.optane_adr, false);
      ("eADR_coalesced", Config.optane_eadr, true);
      ("eADR_naive", Config.optane_eadr, false);
    ]
  in
  let results =
    grid ?jobs series axis (fun (_, model, coalesce) threads ->
        Driver.run ~duration_ns:dur ~coalesce ~telemetry:passive ~model ~algorithm:Ptm.Redo
          ~threads Bank.spec)
  in
  let tput =
    table ~title:"Scaling — bank, redo: coalesced vs naive (M tx/s by thread count)"
      ~header:("series" :: List.map string_of_int axis)
      (List.map2 (fun (label, _, _) row -> label :: List.map mtx_per_sec row) series results)
  in
  let economy =
    table ~title:"Scaling — flush/fence economy per commit (bank, redo)"
      ~header:
        [ "series"; "threads"; "fences/commit"; "clwbs/commit"; "fences saved"; "clwbs saved" ]
      (List.concat
         (List.map2
            (fun (label, _, _) row ->
              List.map2
                (fun threads r -> label :: string_of_int threads :: economy_cells r)
                axis row)
            series results))
  in
  { tables = [ tput; economy ]; results = List.concat results; extra = [] }

(* Extension: the MOD algorithm column.  The same mixed btree/hash op
   stream runs under redo, undo and MOD across every durability domain
   (Mod_bench routes to the shadow structures under [Mod]), with
   passive telemetry summing the profiler's fence/flush counters per
   commit.  The economy table is the paper-style argument in numbers:
   on ADR, MOD commits with at most one fence per op where the logged
   algorithms pay several, and on eADR / transient-cache every
   algorithm's fence count collapses to zero — the crossover where
   MOD keeps paying its path-copying tax but its ordering advantage
   is gone. *)
let algorithms ?(quick = false) ?jobs () =
  let dur = duration quick in
  let threads = if quick then 2 else 4 in
  let models =
    [
      ("ADR", Config.optane_adr);
      ("eADR", Config.optane_eadr);
      ("transient", Config.transient_cache);
      ("PDRAM", Config.pdram);
      ("PDRAM-Lite", Config.pdram_lite);
    ]
  in
  let rows =
    List.concat_map
      (fun spec ->
        List.map
          (fun alg -> (spec, alg))
          [ ("redo", Ptm.Redo); ("undo", Ptm.Undo); ("mod", Ptm.Mod) ])
      [ Mod_bench.btree; Mod_bench.hash ]
  in
  let results =
    grid ?jobs rows models (fun (spec, (_, algorithm)) (_, model) ->
        Driver.run ~duration_ns:dur ~telemetry:passive ~model ~algorithm ~threads spec)
  in
  let tput =
    table
      ~title:
        (Printf.sprintf "Algorithms — mixed btree/hash throughput, %d threads (M tx/s)" threads)
      ~header:("workload/algorithm" :: List.map fst models)
      (List.map2
         (fun (spec, (alg_name, _)) row ->
           (spec.Driver.name ^ "/" ^ alg_name) :: List.map mtx_per_sec row)
         rows results)
  in
  let economy =
    table ~title:"Algorithms — ordering economy per commit (profiler counters)"
      ~header:
        [
          "workload"; "algorithm"; "model"; "fences/commit"; "clwbs/commit"; "fences saved";
          "clwbs saved";
        ]
      (List.concat
         (List.map2
            (fun (spec, (alg_name, _)) row ->
              List.map2
                (fun (model_name, _) r ->
                  spec.Driver.name :: alg_name :: model_name :: economy_cells r)
                models row)
            rows results))
  in
  { tables = [ tput; economy ]; results = List.concat results; extra = [] }

(* Extension: recovery cost.  Crash a run mid-flight and measure the
   real time Ptm.recover takes as the heap gets fuller.  Stays serial
   regardless of [jobs]: the metric is wall-clock, and concurrent cells
   contending for cores would distort it. *)
let recovery_time ?(quick = false) ?jobs:_ () =
  let t =
    Repro_util.Table.create ~title:"Extension — recovery time after a crash (redo, B+Tree)"
      ~header:[ "pre-crash inserts"; "live blocks"; "recovery (real ms)" ]
  in
  let sizes = if quick then [ 1_000; 4_000 ] else [ 1_000; 10_000; 50_000; 200_000 ] in
  List.iter
    (fun inserts ->
      let heap_words = max (1 lsl 20) (16 * inserts) in
      let cfg = Memsim.Config.make ~heap_words Config.optane_adr in
      let sim = Memsim.Sim.create cfg in
      let m = Memsim.Sim.machine sim in
      let ptm = Ptm.create m in
      let tree = Pstructs.Bptree.create ptm in
      Ptm.root_set ptm 0 (Pstructs.Bptree.descriptor tree);
      for i = 1 to inserts do
        Ptm.atomic ptm (fun tx -> ignore (Pstructs.Bptree.insert tx tree ~key:i ~value:i))
      done;
      Memsim.Sim.persist_all sim;
      (* A short burst of work, then the plug is pulled. *)
      ignore
        (Memsim.Sim.spawn sim (fun () ->
             for i = 1 to 10_000 do
               Ptm.atomic ptm (fun tx ->
                   ignore (Pstructs.Bptree.insert tx tree ~key:(inserts + i) ~value:i))
             done));
      Memsim.Sim.run ~crash_at:100_000 sim;
      let sim' = Memsim.Sim.reboot sim in
      let t0 = Unix.gettimeofday () in
      let ptm' = Ptm.recover (Memsim.Sim.machine sim') in
      let elapsed_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
      let live = List.length (Pmem.Alloc.live_blocks (Ptm.allocator ptm')) in
      Repro_util.Table.add_row t
        [ string_of_int inserts; string_of_int live; Repro_util.Table.cell_f elapsed_ms ])
    sizes;
  { tables = [ t ]; results = []; extra = [] }

(* FAMS: the second crash-consistency API.  Each workload shape runs
   through the PTM (redo, one thread — the honest comparison for
   FAMS's single-writer contract) and through failure-atomic msync at
   line and page granularity, across all five durability domains.  The
   economy table carries the subsystem's headline metric: write
   amplification (bytes journaled per byte logically dirtied), plus
   FAMS-issued fences and flushes per sync. *)

type fams_cell = {
  fc_workload : string;
  fc_model : string;
  fc_series : string;
  fc_tx_per_sec : float;
  fc_write_amp : float;
  fc_fences_per_sync : float;
  fc_flushes_per_sync : float;
  fc_bytes_journaled : int;
  fc_bytes_dirtied : int;
  fc_syncs : int;
}

let fams_cell_json c =
  let f x = if Float.is_finite x then Bench_json.Float x else Bench_json.Null in
  Bench_json.Obj
    [
      ("workload", Bench_json.String c.fc_workload);
      ("model", Bench_json.String c.fc_model);
      ("series", Bench_json.String c.fc_series);
      ("tx_per_sec", f c.fc_tx_per_sec);
      ("write_amp", f c.fc_write_amp);
      ("fences_per_sync", f c.fc_fences_per_sync);
      ("flushes_per_sync", f c.fc_flushes_per_sync);
      ("bytes_journaled", Bench_json.Int c.fc_bytes_journaled);
      ("bytes_dirtied", Bench_json.Int c.fc_bytes_dirtied);
      ("syncs", Bench_json.Int c.fc_syncs);
    ]

let fams_run ?(quick = false) ?jobs () =
  let dur = duration quick in
  let models =
    [
      ("ADR", Config.optane_adr);
      ("eADR", Config.optane_eadr);
      ("transient", Config.transient_cache);
      ("PDRAM", Config.pdram);
      ("PDRAM-Lite", Config.pdram_lite);
    ]
  in
  (* Each FAMS shape next to its PTM twin, under PTM redo and both
     snapshot granularities. *)
  let rows =
    List.concat_map
      (fun pair ->
        List.map (fun s -> (pair, s))
          [
            ("ptm-redo", None);
            (Fams_bench.series_name Fams.Line, Some Fams.Line);
            (Fams_bench.series_name Fams.Page, Some Fams.Page);
          ])
      [
        (Fams_bench.bank, Bank.spec);
        (Fams_bench.kv, Mod_bench.hash);
        (Fams_bench.btree, Btree_bench.insert_only);
      ]
  in
  let results =
    grid ?jobs rows models (fun ((fspec, ptm_spec), (series_name, g)) (model_name, model) ->
        match g with
        | None -> (Driver.run ~duration_ns:dur ~model ~algorithm:Ptm.Redo ~threads:1 ptm_spec, None)
        | Some granularity ->
          let r = Fams_bench.run ~duration_ns:dur ~model ~granularity fspec in
          let st = r.Fams_bench.fams in
          let per x = float_of_int x /. float_of_int (max 1 st.Fams.Stats.syncs) in
          ( r.Fams_bench.driver,
            Some
              {
                fc_workload = fspec.Fams_bench.name;
                fc_model = model_name;
                fc_series = series_name;
                fc_tx_per_sec = r.Fams_bench.driver.Driver.txs_per_sec;
                fc_write_amp = Fams.Stats.write_amp st;
                fc_fences_per_sync = per st.Fams.Stats.fences;
                fc_flushes_per_sync = per st.Fams.Stats.flushes;
                fc_bytes_journaled = st.Fams.Stats.bytes_journaled;
                fc_bytes_dirtied = st.Fams.Stats.bytes_dirtied;
                fc_syncs = st.Fams.Stats.syncs;
              } ))
  in
  let tput =
    table ~title:"FAMS — PTM redo vs failure-atomic msync, 1 thread (M ops/s)"
      ~header:("workload/series" :: List.map fst models)
      (List.map2
         (fun (((fspec : Fams_bench.spec), _), (series_name, _)) row ->
           (fspec.Fams_bench.name ^ "/" ^ series_name)
           :: List.map (fun (r, _) -> mtx_per_sec r) row)
         rows results)
  in
  let cells = List.filter_map snd (List.concat results) in
  let kib n = Table.cell_f (float_of_int n /. 1024.) in
  let economy =
    table ~title:"FAMS — snapshot economy per sync (line vs page granularity)"
      ~header:
        [
          "workload"; "series"; "model"; "write amp"; "fences/sync"; "flushes/sync";
          "KiB journaled"; "KiB dirtied";
        ]
      (List.map
         (fun c ->
           [
             c.fc_workload;
             c.fc_series;
             c.fc_model;
             Table.cell_f c.fc_write_amp;
             Table.cell_f c.fc_fences_per_sync;
             Table.cell_f c.fc_flushes_per_sync;
             kib c.fc_bytes_journaled;
             kib c.fc_bytes_dirtied;
           ])
         cells)
  in
  let outcome =
    {
      tables = [ tput; economy ];
      results = List.map fst (List.concat results);
      extra = [ ("fams_cells", Bench_json.List (List.map fams_cell_json cells)) ];
    }
  in
  (outcome, cells)

let fams ?quick ?jobs () = fst (fams_run ?quick ?jobs ())

let all =
  [
    ("fig3", fig3);
    ("fig4", fig4);
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("logsize", log_footprint);
    ("flush-timing", flush_timing_ablation);
    ("orec-size", orec_ablation);
    ("htm", htm);
    ("scaling", scaling);
    ("ycsb", ycsb);
    ("latency", latency);
    ("dimm-interleave", dimm_interleave);
    ("memory-mode", memory_mode);
    ("reserve-energy", reserve_energy);
    ("algorithms", algorithms);
    ("fams", fams);
    ("recovery-time", recovery_time);
  ]
