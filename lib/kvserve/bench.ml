module Config = Memsim.Config
module Table = Repro_util.Table
module Json = Workloads.Bench_json
module Trace = Telemetry.Trace
module Histogram = Repro_util.Histogram

(* Working-set sizes: below the L3, around it, and well past it (the
   paper's Fig 8 story at simulation scale — value_bytes is fixed at
   64, so size sweeps the item count and with it the hit rate of the
   Zipf-skewed key stream). *)
let sizes = [ ("32KB", 32 * 1024); ("512KB", 512 * 1024); ("4MB", 4 * 1024 * 1024) ]

let series =
  [
    ("DRAM", Config.dram_eadr);
    ("ADR", Config.optane_adr);
    ("eADR", Config.optane_eadr);
    ("PDRAM-Lite", Config.pdram_lite);
  ]

let recovery_series =
  [
    ("ADR", Config.optane_adr);
    ("eADR", Config.optane_eadr);
    ("PDRAM-Lite", Config.pdram_lite);
  ]

let value_bytes = 64

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let config ?(shards = 4) model ~items =
  let per_shard = (items / shards) + 1 in
  let base = Service.default_config model in
  {
    base with
    Service.shards;
    model;
    prepopulate_items = items;
    value_bytes;
    buckets_per_shard = max 256 (next_pow2 per_shard 1);
    heap_words_per_shard = max (1 lsl 16) (next_pow2 (per_shard * 48) 1);
  }

let fleet ~quick ~seed ~items =
  Client.generate ~seed ~conns:8
    ~requests_per_conn:(if quick then 60 else 240)
    ~items ~value_bytes ~set_ratio:0.20 ~delete_ratio:0.02 ~incr_ratio:0.05
    ~mean_gap_ns:2_000 ~theta:0.8 ()

let run ?(quick = false) ?jobs () =
  let sizes = if quick then [ List.nth sizes 0; List.nth sizes 1 ] else sizes in
  let seed = 0x5EED in
  (* -- throughput sweep ------------------------------------------- *)
  let sweep =
    Table.create
      ~title:"kvserve — sharded KV service, 4 shards (k ops/s by working set)"
      ~header:("series" :: List.map fst sizes)
  in
  let sweep_json = ref [] in
  List.iter
    (fun (label, model) ->
      let cells =
        List.map
          (fun (size_label, bytes) ->
            let items = bytes / value_bytes in
            let cfg = config model ~items in
            let r = Service.run ?jobs cfg (fleet ~quick ~seed ~items) in
            sweep_json :=
              Json.Obj
                [
                  ("series", Json.String label);
                  ("working_set", Json.String size_label);
                  ("kv_ops", Json.Int r.Service.kv_ops);
                  ("elapsed_ns", Json.Int r.Service.elapsed_ns);
                  ("ops_per_sec", Json.Float r.Service.ops_per_sec);
                  ("get_hits", Json.Int r.Service.get_hits);
                  ("get_misses", Json.Int r.Service.get_misses);
                  ("imbalance", Json.Float r.Service.imbalance);
                ]
              :: !sweep_json;
            Table.cell_f (r.Service.ops_per_sec /. 1e3))
          sizes
      in
      Table.add_row sweep (label :: cells))
    series;
  (* -- recovery after a mid-run crash, per durability domain ------- *)
  let recovery =
    Table.create
      ~title:"kvserve — full-service restart recovery (crash mid-run)"
      ~header:
        [
          "domain"; "recovery us"; "words scanned"; "replayed"; "rolled back";
          "durable batches"; "re-run ops";
        ]
  in
  let recovery_json = ref [] in
  let crash_items = (256 * 1024) / value_bytes in
  List.iter
    (fun (label, model) ->
      let cfg = config model ~items:crash_items in
      (* Mid-run for either fleet size: the quick fleet's arrival
         horizon is ~120 us, the full one ~480 us. *)
      let crash_at = if quick then 60_000 else 150_000 in
      let r = Service.run ?jobs ~crash_at cfg (fleet ~quick ~seed ~items:crash_items) in
      let recs = r.Service.recoveries in
      let sum f = List.fold_left (fun acc rc -> acc + f rc) 0 recs in
      (* Shards recover in parallel on restart: the service is back
         when the slowest shard is. *)
      let modeled =
        List.fold_left (fun acc rc -> max acc rc.Service.r_modeled_ns) 0 recs
      in
      let wall = sum (fun rc -> rc.Service.r_wall_ns) in
      Table.add_row recovery
        [
          label;
          Table.cell_f (float_of_int modeled /. 1e3);
          string_of_int (sum (fun rc -> rc.Service.r_words_scanned));
          string_of_int (sum (fun rc -> rc.Service.r_entries_replayed));
          string_of_int (sum (fun rc -> rc.Service.r_entries_rolled_back));
          string_of_int (sum (fun rc -> rc.Service.r_durable_marker));
          string_of_int (sum (fun rc -> rc.Service.r_replayed_ops));
        ];
      recovery_json :=
        Json.Obj
          [
            ("domain", Json.String label);
            ("modeled_recovery_ns", Json.Int modeled);
            ("recovery_wall_ns", Json.Int wall);
            ("words_scanned", Json.Int (sum (fun rc -> rc.Service.r_words_scanned)));
            ("entries_replayed", Json.Int (sum (fun rc -> rc.Service.r_entries_replayed)));
            ("entries_rolled_back", Json.Int (sum (fun rc -> rc.Service.r_entries_rolled_back)));
            ("durable_batches", Json.Int (sum (fun rc -> rc.Service.r_durable_marker)));
            ("replayed_ops", Json.Int (sum (fun rc -> rc.Service.r_replayed_ops)));
          ]
        :: !recovery_json)
    recovery_series;
  {
    Workloads.Experiments.tables = [ sweep; recovery ];
    results = [];
    extra =
      [
        ("kvserve_sweep", Json.List (List.rev !sweep_json));
        ("kvserve_recovery", Json.List (List.rev !recovery_json));
      ];
  }

(* -- trace experiment: tail-latency attribution per domain ---------- *)

let blame_json (b : Trace.blame) =
  Json.Obj
    [
      ("requests", Json.Int b.Trace.brequests);
      ("band_lo_ns", Json.Int b.Trace.bband_lo_ns);
      ("band_hi_ns", Json.Int b.Trace.bband_hi_ns);
      ("total_latency_ns", Json.Int b.Trace.btotal_latency_ns);
      ("attributed_ns", Json.Int b.Trace.battributed_ns);
      ("slack_ns", Json.Int b.Trace.bslack_ns);
      ( "rows",
        Json.List
          (List.map
             (fun (row : Trace.blame_row) ->
               Json.Obj
                 [
                   ("kind", Json.String row.Trace.bkind);
                   ("spans", Json.Int row.Trace.bspans);
                   ("exclusive_ns", Json.Int row.Trace.bexclusive_ns);
                   ("share_pct", Json.Float row.Trace.bshare);
                 ])
             b.Trace.brows) );
    ]

let run_trace ?(quick = false) ?jobs () =
  let seed = 0x5EED in
  let items = (512 * 1024) / value_bytes in
  let latency_tbl =
    Table.create
      ~title:"trace — end-to-end request latency by domain (us, from request spans)"
      ~header:[ "domain"; "requests"; "p50"; "p95"; "p99"; "max"; "slack ns" ]
  in
  let blame_tbl =
    Table.create
      ~title:"trace — tail blame, p95..p100 band (exclusive time by span kind)"
      ~header:[ "domain"; "kind"; "spans"; "exclusive us"; "share %" ]
  in
  let json = ref [] in
  List.iter
    (fun (label, model) ->
      let cfg = { (config model ~items) with Service.trace = true } in
      let r = Service.run ?jobs cfg (fleet ~quick ~seed ~items) in
      let tr = match r.Service.trace with Some tr -> tr | None -> assert false in
      let h = Trace.latency_hist tr in
      let acct = Trace.accounting tr in
      (* Accounting slack: |latency - attributed| summed over requests.
         0 for this fleet (single-key gets), so any drift is a bug. *)
      let slack = List.fold_left (fun acc (_, lat, att) -> acc + abs (lat - att)) 0 acct in
      let whole = Trace.blame tr ~lo_pct:0.0 ~hi_pct:100.0 in
      let tail = Trace.blame tr ~lo_pct:95.0 ~hi_pct:100.0 in
      Table.add_row latency_tbl
        [
          label;
          string_of_int (Histogram.count h);
          Table.cell_f (Histogram.percentile h 50.0 /. 1e3);
          Table.cell_f (Histogram.percentile h 95.0 /. 1e3);
          Table.cell_f (Histogram.percentile h 99.0 /. 1e3);
          Table.cell_f (float_of_int (Histogram.max_value h) /. 1e3);
          string_of_int slack;
        ];
      List.iteri
        (fun i (row : Trace.blame_row) ->
          if i < 4 then
            Table.add_row blame_tbl
              [
                label;
                row.Trace.bkind;
                string_of_int row.Trace.bspans;
                Table.cell_f (float_of_int row.Trace.bexclusive_ns /. 1e3);
                Table.cell_f row.Trace.bshare;
              ])
        tail.Trace.brows;
      json :=
        Json.Obj
          [
            ("domain", Json.String label);
            ("requests", Json.Int (Histogram.count h));
            ("p50_ns", Json.Float (Histogram.percentile h 50.0));
            ("p95_ns", Json.Float (Histogram.percentile h 95.0));
            ("p99_ns", Json.Float (Histogram.percentile h 99.0));
            ("max_ns", Json.Int (Histogram.max_value h));
            ("slack_ns", Json.Int slack);
            ("spans", Json.Int (Trace.length tr));
            ("digest", Json.String (Trace.digest tr));
            ("blame", blame_json whole);
            ("tail_blame", blame_json tail);
          ]
        :: !json)
    series;
  {
    Workloads.Experiments.tables = [ latency_tbl; blame_tbl ];
    results = [];
    extra = [ ("trace_domains", Json.List (List.rev !json)) ];
  }
