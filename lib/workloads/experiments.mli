(** One entry point per table/figure of the paper's evaluation.

    Each function sweeps the corresponding workloads, durability models
    and thread counts, and returns printable tables whose rows mirror
    what the paper reports.  [quick] shrinks the virtual measurement
    window (for smoke runs); results remain deterministic either way.

    [jobs] bounds the worker pool that executes the sweep's independent
    simulation cells across OCaml domains (default: the available
    cores, {!Parallel.Pool.default_jobs}).  Cells are keyed by
    submission order and reassembled before any table is built, so the
    printed tables and CSVs are byte-identical for every [jobs] value —
    parallelism buys wall-clock time only, never different numbers.

    The experiment index lives in DESIGN.md; shape expectations and
    measured outcomes in EXPERIMENTS.md. *)

type outcome = {
  tables : Repro_util.Table.t list;
  results : Driver.result list;  (** every underlying data point *)
  extra : (string * Bench_json.json) list;
      (** experiment-specific JSON spliced into the BENCH_*.json root *)
}

val threads_axis : int list
(** The paper's thread sweep: 1, 2, 4, 8, 16, 32. *)

val fig3 : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Throughput vs threads for the six B+Tree/TPCC/Vacation panels,
    DRAM vs Optane x ADR vs eADR x undo vs redo. *)

val fig3_panel : ?quick:bool -> ?jobs:int -> Driver.spec -> outcome
(** One panel of {!fig3} (all eight series, the full thread axis) for a
    single workload — the quick-sized unit used by the [@parallel]
    byte-identity gate and the [speedup] self-benchmark. *)

val fig4 : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Same comparison for TATP. *)

val table1 : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Commits-per-abort, TPCC (hash) with redo logging. *)

val table2 : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Commits-per-abort, TPCC (hash) with undo logging. *)

val table3 : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Speedup from removing fences from ADR write instrumentation. *)

val fig6 : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Durability-model comparison (DRAM, eADR, PDRAM-R/U, PDRAM-Lite)
    for the six main panels. *)

val fig7 : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Durability-model comparison for TATP. *)

val fig8 : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Memcached throughput vs working-set size, one worker thread. *)

val log_footprint : ?quick:bool -> ?jobs:int -> unit -> outcome
(** §IV-B: largest persistent redo-log footprint (cache lines) per
    workload — the paper reports 37 lines for Vacation, 36 for TPCC. *)

val flush_timing_ablation : ?quick:bool -> ?jobs:int -> unit -> outcome
(** §III-B: incremental vs commit-time clwb of the redo log (the paper
    found no noticeable difference). *)

val orec_ablation : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Extra ablation called out in DESIGN.md: sensitivity to the
    ownership-record table size (false-conflict rate). *)

(** {1 Extensions beyond the paper's evaluation (DESIGN.md §3b)} *)

val htm : ?quick:bool -> ?jobs:int -> unit -> outcome
(** §V future work: TSX-style hardware transactions vs the software
    paths under eADR and PDRAM. *)

val scaling : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Flush-coalescing A/B: bank throughput vs threads for
    {coalesced, naive} x {ADR, eADR} (redo), plus a per-commit
    flush/fence economy table (actual and saved counts from the
    profiler's coalescing ledger). *)

val ycsb : ?quick:bool -> ?jobs:int -> unit -> outcome
(** The YCSB core mixes A–F across durability models. *)

val latency : ?quick:bool -> ?jobs:int -> unit -> outcome
(** p50/p95/p99 transaction latency per workload and model. *)

val dimm_interleave : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Throughput vs the number of interleaved Optane channels. *)

val memory_mode : ?quick:bool -> ?jobs:int -> unit -> outcome
(** PDRAM vs (non-persistent) Memory Mode vs eADR vs DRAM. *)

val reserve_energy : ?quick:bool -> ?jobs:int -> unit -> outcome
(** §V future work: sampled persistence debt and the reserve energy
    each durability domain would need on a power failure. *)

val algorithms : ?quick:bool -> ?jobs:int -> unit -> outcome
(** The MOD algorithm column: {!Mod_bench} btree/hash mixed streams
    under redo vs undo vs MOD across every durability domain, with a
    per-commit fence/flush economy table from the profiler.  Shows
    MOD's one-fence commit on ADR and the eADR / transient-cache
    crossover where its ordering advantage collapses. *)

(** One FAMS grid point's exported metrics (also serialised under the
    ["fams_cells"] key of [BENCH_fams.json]). *)
type fams_cell = {
  fc_workload : string;
  fc_model : string;
  fc_series : string;  (** ["fams-line"] / ["fams-page"] *)
  fc_tx_per_sec : float;
  fc_write_amp : float;  (** bytes journaled / bytes logically dirtied *)
  fc_fences_per_sync : float;
  fc_flushes_per_sync : float;
  fc_bytes_journaled : int;
  fc_bytes_dirtied : int;
  fc_syncs : int;
}

val fams_run : ?quick:bool -> ?jobs:int -> unit -> outcome * fams_cell list
(** The FAMS grid: three workload shapes (scattered bank, hash puts,
    clustered appends) x {ptm-redo, fams-line, fams-page} x all five
    durability domains, single-writer.  Returns the outcome plus the
    typed per-cell metrics for the FAMS rows (the [@fams] gate asserts
    write-amplification direction on these). *)

val fams : ?quick:bool -> ?jobs:int -> unit -> outcome
(** {!fams_run}, outcome only — the CLI entry point. *)

val recovery_time : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Wall-clock cost of [Ptm.recover] as the heap gets fuller.  Always
    serial: the metric is real time, which concurrent cells would
    distort; [jobs] is accepted and ignored. *)

val all : (string * (?quick:bool -> ?jobs:int -> unit -> outcome)) list
(** Every experiment of this module, keyed by its CLI name.  The
    [ptm_bench] registry runs these and adds the service, tracing,
    telemetry and microbenchmark experiments, which live outside this
    library. *)
