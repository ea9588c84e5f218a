(* ptm-update: the DES hot loop and the redo, undo, MOD and FAMS commit
   pipelines over six update-heavy cells at fixed virtual durations.
   No codec, image I/O, recovery or oracle runs here.  The btree-insert
   t1/t8 twins separate Sched's inline fast path from real context
   switches. *)

open Common
module Config = Memsim.Config
module Sim = Memsim.Sim
module Ptm = Pstm.Ptm
module Profile = Pstm.Profile
module Driver = Workloads.Driver
module Rng = Repro_util.Rng

type kind =
  | Ptm_cell of {
      spec : Driver.spec;
      algorithm : Ptm.algorithm;
      threads : int;
      bank : bool;  (** money conservation is checked *)
    }
  | Fams_cell of Workloads.Fams_bench.spec

type cell = { name : string; key : string; model : Config.model; duration_ns : int; kind : kind }

let cells ~quick =
  let d ns = if quick then ns / 10 else ns in
  let ptm name key spec model algorithm threads ns =
    { name; key; model; duration_ns = d ns;
      kind = Ptm_cell { spec; algorithm; threads; bank = spec == Workloads.Bank.spec } }
  in
  [
    ptm "btree-insert/optane-adr/redo/t1" "btree-insert.t1" Workloads.Btree_bench.insert_only
      Config.optane_adr Ptm.Redo 1 20_000_000;
    ptm "btree-insert/optane-adr/redo/t8" "btree-insert.t8" Workloads.Btree_bench.insert_only
      Config.optane_adr Ptm.Redo 8 4_000_000;
    ptm "bank/optane-adr/redo/t8" "bank.t8" Workloads.Bank.spec Config.optane_adr Ptm.Redo 8
      4_000_000;
    ptm "tpcc-hash/optane-eadr/undo/t8" "tpcc-hash.t8"
      (Workloads.Tpcc.spec Workloads.Tpcc.Hash)
      Config.optane_eadr Ptm.Undo 8 4_000_000;
    ptm "mod-btree/optane-adr/mod/t4" "mod-btree.t4" Workloads.Mod_bench.btree
      Config.optane_adr Ptm.Mod 4 4_000_000;
    { name = "fams-bank/optane-adr/fams-line"; key = "fams-bank"; model = Config.optane_adr;
      duration_ns = d 20_000_000; kind = Fams_cell Workloads.Fams_bench.bank };
  ]

type outcome = {
  cell : cell;
  r : Driver.result;
  host_s : float;  (** the run minus its setup *)
  setup_s : float;
  gc : words;  (** allocated by the run minus its setup *)
  fams : Fams.Stats.t option;
  profile : Profile.t option;
}

let check_ms = ref []

let checked_region c what region =
  let rep, s = timed (fun () -> Pmem.Check.run region) in
  check_ms := (s *. 1e3) :: !check_ms;
  check c (Pmem.Check.is_clean rep) (what ^ ": region check after the run")

(* Wrap a setup function so its host time and allocation are known and
   can be taken out of the run's. *)
let wrap_setup setup =
  let setup_s = ref 0.0 and setup_gc = ref (words () -- words ()) in
  let captured = ref None in
  let setup' x =
    captured := Some x;
    let ((), s), w = allocating (fun () -> timed (fun () -> setup x)) in
    setup_s := s;
    setup_gc := w
  in
  (setup', captured, setup_s, setup_gc)

let run_cell ?telemetry chk ~seed cell =
  match cell.kind with
  | Ptm_cell { spec; algorithm; threads; bank } ->
    let setup, captured, setup_s, setup_gc = wrap_setup spec.Driver.setup in
    let (r, s), gc =
      allocating (fun () ->
          timed (fun () ->
              Driver.run ~duration_ns:cell.duration_ns ~seed ?telemetry ~model:cell.model ~algorithm
                ~threads { spec with Driver.setup }))
    in
    let ptm = Option.get !captured in
    checked_region chk cell.name (Ptm.region ptm);
    if bank then
      check chk (Workloads.Bank.total ptm = Workloads.Bank.expected_total)
        (cell.name ^ ": bank total conserved");
    { cell; r; host_s = s -. !setup_s; setup_s = !setup_s; gc = gc -- !setup_gc; fams = None;
      profile = Option.map Telemetry.profile r.Driver.telemetry }
  | Fams_cell fspec ->
    let setup, captured, setup_s, setup_gc = wrap_setup fspec.Workloads.Fams_bench.setup in
    let (fr, s), gc =
      allocating (fun () ->
          timed (fun () ->
              Workloads.Fams_bench.run ~duration_ns:cell.duration_ns ~seed ~model:cell.model
                ~granularity:Fams.Line { fspec with Workloads.Fams_bench.setup }))
    in
    checked_region chk cell.name (Fams.region (Option.get !captured));
    { cell; r = fr.Workloads.Fams_bench.driver; host_s = s -. !setup_s; setup_s = !setup_s;
      gc = gc -- !setup_gc; fams = Some fr.Workloads.Fams_bench.fams; profile = Some fr.Workloads.Fams_bench.profile }

(* The virtual outcome of a cell: equal seeds must reproduce it bit for
   bit, in every round and under tracing. *)
let fingerprint o =
  let r = o.r in
  (r.Driver.commits, r.Driver.aborts, r.Driver.elapsed_ns, sim_events r.Driver.sim,
   r.Driver.sim.Sim.Stats.fence_wait_ns)

(* ---------- traced t1 cell: every machine call a memsim span ---------- *)

let k_op = Ledger.kind "pstm.op"
let k_load = Ledger.kind "memsim.load"
let k_store = Ledger.kind "memsim.store"
let k_clwb = Ledger.kind "memsim.clwb"
let k_clwb_many = Ledger.kind "memsim.clwb_many"
let k_sfence = Ledger.kind "memsim.sfence"
let k_meta = Ledger.kind "memsim.meta"
let memsim_kinds =
  [ "memsim.load"; "memsim.store"; "memsim.clwb"; "memsim.clwb_many"; "memsim.sfence"; "memsim.meta" ]

(* The same run [Driver.run] makes for a one-thread cell, on a machine
   whose timed calls are wrapped in spans: the PTM sees an identical
   [Machine.t], so the virtual timeline is unchanged. *)
let traced_t1 ~seed cell spec algorithm =
  let cfg = Config.make ~heap_words:spec.Driver.heap_words ~track_media:false cell.model in
  let sim = Sim.create cfg in
  let m = Sim.machine sim in
  let on = ref false in
  (* Spelled out rather than through [Ledger.span], which would allocate
     a closure on every machine call. *)
  let w1 k f a =
    if !on then begin
      Ledger.enter k;
      let v = f a in
      Ledger.leave ();
      v
    end
    else f a
  in
  let w2 k f a b =
    if !on then begin
      Ledger.enter k;
      let v = f a b in
      Ledger.leave ();
      v
    end
    else f a b
  in
  let wm =
    {
      m with
      Machine.load = w1 k_load m.Machine.load;
      store = w2 k_store m.Machine.store;
      clwb = w1 k_clwb m.Machine.clwb;
      clwb_many = w2 k_clwb_many m.Machine.clwb_many;
      sfence = w1 k_sfence m.Machine.sfence;
      meta_get = w1 k_meta m.Machine.meta_get;
      meta_set = w2 k_meta m.Machine.meta_set;
      meta_cas =
        (fun i e v ->
          if !on then begin
            Ledger.enter k_meta;
            let r = m.Machine.meta_cas i e v in
            Ledger.leave ();
            r
          end
          else m.Machine.meta_cas i e v);
      meta_fetch_add = w2 k_meta m.Machine.meta_fetch_add;
    }
  in
  let ptm = Ptm.create ~algorithm ~orec_bits:20 ~max_threads:32 ~rng_seed:seed wm in
  spec.Driver.setup ptm;
  Sim.reset_timing sim;
  Ptm.Stats.reset ptm;
  let root_rng = Rng.create seed in
  let rng = Rng.split root_rng in
  ignore
    (Sim.spawn sim (fun () ->
         let op = spec.Driver.make_op ptm ~tid:0 ~rng in
         let rec loop () =
           if Sim.now sim < cell.duration_ns then begin
             Ledger.enter k_op;
             op ();
             Ledger.leave ();
             loop ()
           end
         in
         loop ()));
  on := true;
  let (), s = timed (fun () -> Sim.run sim) in
  on := false;
  let st = Ptm.Stats.get ptm in
  (st.Ptm.Stats.commits, st.Ptm.Stats.aborts, s, sim_events (Sim.Stats.get sim))

(* ---------- the workload ---------- *)

let telemetry_cfg =
  { Telemetry.default_config with Telemetry.sample_interval_ns = 0; machine_trace_capacity = 0 }

(* One run of every cell; [traced] attaches the phase profiler to the
   PTM cells (the FAMS cell always records its profile). *)
let round ?(traced = false) chk ~seed cells =
  let telemetry = if traced then Some telemetry_cfg else None in
  List.map (run_cell ?telemetry chk ~seed) cells

let commits_of os = sumi (List.map (fun o -> o.r.Driver.commits) os)
let host_of os = sum (List.map (fun o -> o.host_s) os)

let run ~quick ~seed ~seconds ~trace =
  let chk = checks () in
  let cells = cells ~quick in
  let budget = budget (if trace then seconds /. 2.0 else seconds) in
  let rounds = Common.rounds ~min_rounds:2 budget (fun _ -> round chk ~seed cells) in
  let first = List.hd rounds in
  List.iter
    (fun os ->
      List.iter2
        (fun a b ->
          check chk (fingerprint a = fingerprint b) (a.cell.name ^ ": deterministic across rounds"))
        first os)
    (List.tl rounds);
  let attempted =
    sumi (List.map (fun os -> sumi (List.map (fun o -> o.r.Driver.commits + o.r.Driver.aborts) os)) rounds)
  in
  let per_cell f = medians (List.map (List.map f) rounds) in
  let host = per_cell (fun o -> o.host_s) in
  let setup_s = sum (per_cell (fun o -> o.setup_s)) in
  let work = float_of_int (commits_of first) /. sum host in
  let vtx = geomean (List.map (fun o -> o.r.Driver.txs_per_sec) first) in
  let alloc = sum (List.map (fun o -> o.gc.total) first) /. float_of_int (commits_of first) in
  let e2e = [ m "alloc_words_per_op" "words" alloc; m "virtual_ops_per_s" "1/s" vtx ] in
  let layers =
    if not trace then []
    else begin
      let find os key = List.find (fun o -> o.cell.key = key) os in
      let ns_per_event key =
        let o, h = List.find (fun (o, _) -> o.cell.key = key) (List.combine first host) in
        h *. 1e9 /. float_of_int (max 1 (sim_events o.r.Driver.sim))
      in
      let events os = sumi (List.map (fun o -> sim_events o.r.Driver.sim) os) in
      let sim_sum f = sumi (List.map (fun o -> f o.r.Driver.sim) first) in
      let ptm_cells = List.filter (fun o -> o.fams = None) first in
      let psum f = sumi (List.map (fun o -> f o.r) ptm_cells) in
      let commits = psum (fun r -> r.Driver.commits) in
      let fams = List.find_map (fun o -> o.fams) first |> Option.get in
      let syncs = max 1 fams.Fams.Stats.syncs in
      (* Traced round: the t1 cell on the span-wrapped machine, the
         others with the phase profiler attached. *)
      let t1 = List.find (fun c -> c.key = "btree-insert.t1") cells in
      let t1_spec, t1_alg =
        match t1.kind with Ptm_cell { spec; algorithm; _ } -> (spec, algorithm) | Fams_cell _ -> assert false
      in
      let tr_commits, tr_aborts, t1_s, t1_events = traced_t1 ~seed t1 t1_spec t1_alg in
      let t1_untraced = find first "btree-insert.t1" in
      check chk
        (tr_commits = t1_untraced.r.Driver.commits && tr_aborts = t1_untraced.r.Driver.aborts
        && t1_events = sim_events t1_untraced.r.Driver.sim)
        "btree-insert t1: span-wrapped machine reproduces the untraced run";
      let others = List.filter (fun c -> c.key <> "btree-insert.t1") cells in
      let traced_os = round ~traced:true chk ~seed others in
      List.iter
        (fun o ->
          let u = find first o.cell.key in
          check chk (fingerprint o = fingerprint u) (o.cell.name ^ ": profiler does not perturb the run"))
        traced_os;
      let traced_work =
        float_of_int (commits_of traced_os + tr_commits) /. (host_of traced_os +. t1_s)
      in
      let memsim_calls = sumi (List.map Ledger.count_of memsim_kinds) in
      let memsim_s = sum (List.map Ledger.total_s memsim_kinds) in
      let profiles = List.filter_map (fun o -> o.profile) traced_os in
      let phase_ns ph =
        sumi
          (List.map
             (fun p -> sumi (List.map (fun tid -> Profile.phase_ns p ~tid ph) (Profile.tids p)))
             profiles)
      in
      let all_phase = sumi (List.map phase_ns Profile.all_phases) in
      let gc_per_event f = sum (List.map f first) /. float_of_int (max 1 (events first)) in
      [
        m "host_ops_per_s" "1/s" work;
        m "memsim.host_ns_per_event_t1" "ns" (ns_per_event "btree-insert.t1");
        m "memsim.host_ns_per_event_t8" "ns" (ns_per_event "btree-insert.t8");
        m "memsim.events_per_host_s" "1/s" (float_of_int (events first) /. sum host);
        m "memsim.minor_words_per_event" "words" (gc_per_event (fun o -> o.gc.minor));
        m "memsim.major_words_per_event" "words" (gc_per_event (fun o -> o.gc.major));
        m "memsim.l3_hit_rate" "ratio"
          (ratio (sim_sum (fun s -> s.Sim.Stats.l3_hits))
             (sim_sum (fun s -> s.Sim.Stats.l3_hits + s.Sim.Stats.l3_misses)));
        m "memsim.writebacks" "count" (float_of_int (sim_sum (fun s -> s.Sim.Stats.writebacks)));
        m "memsim.nvm_reads" "count" (float_of_int (sim_sum (fun s -> s.Sim.Stats.nvm_reads)));
        m "memsim.fence_wait_ns" "ns" (float_of_int (sim_sum (fun s -> s.Sim.Stats.fence_wait_ns)));
        m "memsim.wpq_stall_ns" "ns" (float_of_int (sim_sum (fun s -> s.Sim.Stats.wpq_stall_ns)));
        m "memsim.self_ns_per_call" "ns" (memsim_s *. 1e9 /. float_of_int (max 1 memsim_calls));
        m "machine.calls_per_commit" "count" (ratio memsim_calls tr_commits);
        m "pstm.commits_per_abort" "ratio"
          (ratio commits (commits + psum (fun r -> r.Driver.aborts)));
        m "pstm.fences_per_commit" "count" (ratio (psum (fun r -> r.Driver.sim.Sim.Stats.sfences)) commits);
        m "pstm.clwbs_per_commit" "count" (ratio (psum (fun r -> r.Driver.sim.Sim.Stats.clwbs)) commits);
        m "pstm.max_log_lines" "lines"
          (float_of_int (List.fold_left (fun a o -> max a o.r.Driver.max_log_lines) 0 ptm_cells));
        m "pstm.self_ns_per_commit" "ns" (Ledger.self_s "pstm.op" *. 1e9 /. float_of_int (max 1 tr_commits));
        m "fams.write_amp" "ratio" (Fams.Stats.write_amp fams);
        m "fams.fences_per_sync" "count" (ratio fams.Fams.Stats.fences syncs);
        m "fams.flushes_per_sync" "count" (ratio fams.Fams.Stats.flushes syncs);
        m "pmem.check_ms" "ms" (median !check_ms);
        m "telemetry.tracing_overhead" "ratio" ((work /. traced_work) -. 1.0);
      ]
      @ List.map
          (fun ph ->
            m ("pstm.phase." ^ Profile.phase_name ph ^ "_share") "ratio"
              (ratio (phase_ns ph) all_phase))
          Profile.all_phases
      @ List.filter_map
          (fun (o, setup) ->
            if o.fams <> None then None else Some (m ("pstructs.setup_s." ^ o.cell.key) "s" setup))
          (List.combine first (per_cell (fun o -> o.setup_s)))
      @ List.map (fun o -> m ("workloads.virtual_tx_per_s." ^ o.cell.key) "1/s" o.r.Driver.txs_per_sec) first
    end
  in
  (setup_s, attempted, chk, e2e, layers)
