(* The metric catalog: every metric's name and unit, in print order.
   BENCHMARK.json lists the same names and units (the self-test in
   run.py compares them); README.md gives each one's layer, direction,
   host/virtual tag and the end-to-end metric it should move. *)

let end_to_end =
  [ ("setup_s", "s"); ("peak_heap_mb", "MB"); ("alloc_words_per_op", "words"); ("virtual_ops_per_s", "1/s") ]

let rates = [ "0.5"; "1.0"; "1.5"; "2.0"; "2.5" ]
let rate_key r = String.map (fun c -> if c = '.' then '_' else c) r

let ptm_cells = [ "btree-insert.t1"; "btree-insert.t8"; "bank.t8"; "tpcc-hash.t8"; "mod-btree.t4" ]
let crash_cells = [ "bank.adr.redo"; "btree.adr.undo"; "kv-batch.eadr.redo"; "mod-btree.adr.mod"; "fams-bank.adr.line" ]

let per_layer =
  [
    ("host_ops_per_s", "1/s");
    ("memsim.host_ns_per_event_t1", "ns");
    ("memsim.host_ns_per_event_t8", "ns");
    ("memsim.events_per_host_s", "1/s");
    ("memsim.minor_words_per_event", "words");
    ("memsim.major_words_per_event", "words");
    ("memsim.l3_hit_rate", "ratio");
    ("memsim.writebacks", "count");
    ("memsim.nvm_reads", "count");
    ("memsim.fence_wait_ns", "ns");
    ("memsim.wpq_stall_ns", "ns");
    ("memsim.self_ns_per_call", "ns");
    ("machine.calls_per_commit", "count");
    ("pmem.check_ms", "ms");
    ("pstm.commits_per_abort", "ratio");
    ("pstm.fences_per_commit", "count");
    ("pstm.clwbs_per_commit", "count");
    ("pstm.max_log_lines", "lines");
    ("pstm.self_ns_per_commit", "ns");
  ]
  @ List.map
      (fun ph -> ("pstm.phase." ^ Pstm.Profile.phase_name ph ^ "_share", "ratio"))
      Pstm.Profile.all_phases
  @ List.map (fun c -> ("pstructs.setup_s." ^ c, "s")) ptm_cells
  @ [ ("fams.write_amp", "ratio"); ("fams.fences_per_sync", "count"); ("fams.flushes_per_sync", "count") ]
  @ List.map (fun c -> ("workloads.virtual_tx_per_s." ^ c, "1/s")) (ptm_cells @ [ "fams-bank" ])
  @ [
      ("kvserve.p50_us", "us");
      ("kvserve.p99_us", "us");
      ("kvserve.p99_samples", "count");
      ("kvserve.max_rate_mrps", "Mreq/s");
      ("kvserve.max_grid_rate_mrps", "Mreq/s");
      ("kvserve.req_per_host_s", "1/s");
      ("kvserve.codec_ns_per_req", "ns");
      ("kvserve.router_ns_per_key", "ns");
      ("kvserve.batch_occupancy_mean", "writes");
      ("kvserve.throttled_batches", "count");
      ("kvserve.imbalance", "ratio");
    ]
  @ List.map (fun r -> ("kvserve.p99_us.r" ^ rate_key r, "us")) rates
  @ List.map (fun r -> ("kvserve.drain_lag_us.r" ^ rate_key r, "us")) rates
  @ [
      ("kvserve.tail_queue_wait_share", "ratio");
      ("kvserve.tail_batch_wait_share", "ratio");
      ("kvserve.prepopulate_s", "s");
      ("kvserve.recovery_modeled_us", "us");
      ("kvserve.recovery_wall_ms", "ms");
      ("kvserve.replayed_ops", "count");
    ]
  @ List.concat_map
      (fun c -> [ ("crashtest.candidates." ^ c, "count"); ("crashtest.tested." ^ c, "count") ])
      crash_cells
  @ [
      ("crashtest.mutation_caught_at", "probes");
      ("crashtest.image_load_ms", "ms");
      ("crashtest.rerun_ms", "ms");
      ("crashtest.reboot_ms", "ms");
      ("crashtest.recover_ms", "ms");
      ("crashtest.validate_ms", "ms");
      ("dlin.oracle_ms", "ms");
      ("telemetry.tracing_overhead", "ratio");
    ]

(* Order [ms] by the catalog [cat].  A catalogued metric the run did not
   produce is an error for end-to-end rows and reads 0 for per-layer
   rows (the layer did not run in this workload). *)
let select ?(missing_is_zero = false) cat ms =
  List.iter
    (fun x ->
      if not (List.mem_assoc x.Common.name cat) then
        Printf.eprintf "perfbench: metric %s is not in the catalog\n%!" x.Common.name)
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.Common.name = name) ms with
      | Some x ->
        if x.Common.unit_ <> unit_ then
          failwith (Printf.sprintf "metric %s: unit %s, catalog says %s" name x.Common.unit_ unit_);
        x
      | None ->
        if missing_is_zero then Common.m name unit_ 0.0
        else failwith (Printf.sprintf "end-to-end metric %s was not measured" name))
    cat
