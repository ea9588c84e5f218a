(* Crash-point exploration harness: the durable-linearizability matrix,
   the missing-fence expected-failure meta-test, recovery idempotence,
   run determinism, and the crash-leak severity regression. *)

open Pstm
module Config = Memsim.Config
module Sim = Memsim.Sim
module Engine = Crashtest.Engine
module Scenarios = Crashtest.Scenarios

let seed = 1

(* ---------- the {Redo, Undo} x durability-domain matrix ---------- *)

let matrix_models =
  [ Config.optane_adr; Config.optane_eadr; Config.pdram; Config.pdram_lite ]

let test_cell scenario model algorithm () =
  let report = Engine.explore ~points:50 ~seed ~model ~algorithm scenario in
  Helpers.check_bool
    (Format.asprintf "%a" Engine.pp_report report)
    true (Engine.ok report);
  Helpers.check_bool "probed at least 50 instants" true (report.Engine.tested >= 50)

let matrix_cases =
  (* Rotate scenarios through the cells so every durability domain and
     both algorithms see >= 50 crash points, and every scenario runs
     under at least two domains. *)
  let scenarios =
    [| Scenarios.bank (); Scenarios.counters (); Scenarios.btree (); Scenarios.alloc_churn () |]
  in
  List.concat
    (List.mapi
       (fun i model ->
         List.mapi
           (fun j algorithm ->
             let scenario = scenarios.(((2 * i) + j) mod Array.length scenarios) in
             let name =
               Printf.sprintf "matrix %s/%s/%s" scenario.Engine.name
                 model.Config.model_name
                 (Ptm.algorithm_name algorithm)
             in
             Alcotest.test_case name `Slow (test_cell scenario model algorithm))
           [ Ptm.Redo; Ptm.Undo ])
       matrix_models)

(* ---------- both flush schedules at every crash point ---------- *)

(* The matrix above runs bank and btree with coalescing on (the
   default), so the batched-persist pipeline's crash points are already
   swept.  These cells sweep the same workloads on the naive per-entry
   schedule under ADR — the two disciplines reach "durable" at
   different instants, so each needs its own exploration. *)
let coalescing_cases =
  List.concat_map
    (fun scenario ->
      List.map
        (fun algorithm ->
          let name =
            Printf.sprintf "matrix %s/%s/%s" scenario.Engine.name
              Config.optane_adr.Config.model_name
              (Ptm.algorithm_name algorithm)
          in
          Alcotest.test_case name `Slow (test_cell scenario Config.optane_adr algorithm))
        [ Ptm.Redo; Ptm.Undo ])
    [ Scenarios.bank ~coalesce:false (); Scenarios.btree ~coalesce:false () ]

(* ---------- MOD structures: buffered durability cells ---------- *)

(* The MOD scenarios crash inside the shadow-copy sweep and at the
   root-swap instant (every instant between the first shadow store and
   the publish flush is a candidate), under the `Buffered dlin
   criterion.  ADR is where the single-fence protocol actually orders
   anything; eADR is the crossover domain (no flushes at all); the
   Redo cell runs the same structures as a strict-durability
   differential. *)
let mod_cases =
  [
    Alcotest.test_case "matrix mod-btree/optane-adr/mod" `Slow
      (test_cell (Scenarios.mod_btree ()) Config.optane_adr Ptm.Mod);
    Alcotest.test_case "matrix mod-btree/optane-eadr/mod" `Slow
      (test_cell (Scenarios.mod_btree ()) Config.optane_eadr Ptm.Mod);
    Alcotest.test_case "matrix mod-hash/optane-adr/mod" `Slow
      (test_cell (Scenarios.mod_hash ()) Config.optane_adr Ptm.Mod);
    Alcotest.test_case "matrix mod-hash/pdram-lite/mod" `Slow
      (test_cell (Scenarios.mod_hash ()) Config.pdram_lite Ptm.Mod);
    Alcotest.test_case "matrix mod-btree/transient-cache/mod" `Slow
      (test_cell (Scenarios.mod_btree ()) Config.transient_cache Ptm.Mod);
    Alcotest.test_case "matrix mod-btree/optane-adr/redo" `Slow
      (test_cell (Scenarios.mod_btree ()) Config.optane_adr Ptm.Redo);
  ]

(* ---------- the KV service's crash contracts ---------- *)

(* kv-batch sweeps the coalesced multi-set commit (all-or-nothing plus
   the batch marker); kv-xshard sweeps the window between two shards'
   commits (markers must stay within one op, in commit order).  The
   full matrix for both runs under @crashtest; these cells keep one
   redo and one undo probe of each in tier 1. *)
let kvserve_cases =
  [
    Alcotest.test_case "matrix kv-batch/optane-adr/redo" `Slow
      (test_cell (Scenarios.kv_batch ()) Config.optane_adr Ptm.Redo);
    Alcotest.test_case "matrix kv-batch/pdram-lite/undo" `Slow
      (test_cell (Scenarios.kv_batch ()) Config.pdram_lite Ptm.Undo);
    Alcotest.test_case "matrix kv-xshard/optane-adr/undo" `Slow
      (test_cell (Scenarios.kv_xshard ()) Config.optane_adr Ptm.Undo);
    Alcotest.test_case "matrix kv-xshard/optane-eadr/redo" `Slow
      (test_cell (Scenarios.kv_xshard ()) Config.optane_eadr Ptm.Redo);
  ]

(* ---------- the two extension durability domains ---------- *)

(* transient-cache (whole-cache-persistence, arXiv 2210.17377): caches
   survive the crash, so like eADR nothing needs flushing; HTM-commit
   (arXiv 1806.01108): an ADR-class domain whose publish hardens a
   hardware transaction's write set as one unit, making the Htm
   algorithm legal under a flush-requiring domain.  Both get their own
   crash sweeps, including the Htm algorithm itself on HTM-commit. *)
let extension_domain_cases =
  [
    Alcotest.test_case "matrix bank/transient-cache/redo" `Slow
      (test_cell (Scenarios.bank ()) Config.transient_cache Ptm.Redo);
    Alcotest.test_case "matrix counters/transient-cache/undo" `Slow
      (test_cell (Scenarios.counters ()) Config.transient_cache Ptm.Undo);
    Alcotest.test_case "matrix bank/htm-commit/htm" `Slow
      (test_cell (Scenarios.bank ()) Config.htm_commit Ptm.Htm);
    Alcotest.test_case "matrix counters/htm-commit/redo" `Slow
      (test_cell (Scenarios.counters ()) Config.htm_commit Ptm.Redo);
    Alcotest.test_case "matrix kv-incr/optane-adr/redo" `Slow
      (test_cell (Scenarios.kv_incr ()) Config.optane_adr Ptm.Redo);
    Alcotest.test_case "matrix kv-incr/htm-commit/htm" `Slow
      (test_cell (Scenarios.kv_incr ()) Config.htm_commit Ptm.Htm);
  ]

(* ---------- expected failure: ADR without fences ---------- *)

(* Table III's broken variant: clwb without sfence leaves write-backs
   racing in the interleaved WPQ.  The harness must *catch* it — an
   all-pass report here means the oracle is blind. *)
let test_nofence algorithm () =
  let scenario = Scenarios.bank () in
  let report =
    Engine.explore ~points:80 ~seed ~model:Config.optane_adr_nofence ~algorithm scenario
  in
  Helpers.check_bool "oracle detects the missing fences" false (Engine.ok report);
  match report.Engine.failures with
  | [] -> Alcotest.fail "report not ok but carries no failure record"
  | f :: _ ->
    Helpers.check_bool "minimal crash time is positive" true (f.Engine.min_crash_at > 0);
    Helpers.check_bool "shrinking did not grow the crash time" true
      (f.Engine.min_crash_at <= f.Engine.crash_at);
    Helpers.check_bool "failure explains itself" true (String.length f.Engine.reason > 0);
    (* The replay line must reproduce the violation in one command. *)
    Helpers.check_replay_reproduces ~seed (Engine.Subject.ptm ~algorithm scenario) f;
    (* The failure must come with a telemetry capture of the minimal
       failing re-run, including a profile of the post-crash recovery. *)
    (match f.Engine.telemetry_dir with
    | None -> Alcotest.fail "failure carries no telemetry dump"
    | Some dir ->
      List.iter
        (fun file ->
          Helpers.check_bool (Printf.sprintf "telemetry dump has %s" file) true
            (Sys.file_exists (Filename.concat dir file)))
        [ "profile.jsonl"; "series.csv"; "trace.json"; "recovery.jsonl" ])

(* ---------- mutation tests: injected ordering bugs must be caught ---------- *)

(* ---------- single pass vs re-run ---------- *)

(* The explorer probes every instant in one paused run; the re-run path
   it replaced stays as the oracle (see [Helpers.check_single_pass]). *)
let single_pass_cases =
  List.map
    (fun (scenario, model, algorithm) ->
      let s = Engine.Subject.ptm ~algorithm scenario in
      Alcotest.test_case
        ("single pass = re-run " ^ Helpers.cell_name ~model s)
        `Slow
        (fun () -> Helpers.check_single_pass ~points:64 ~model ~seed s))
    [
      (Scenarios.bank (), Config.optane_adr, Ptm.Redo);
      (Scenarios.btree (), Config.optane_eadr, Ptm.Undo);
      (Scenarios.counters (), Config.pdram, Ptm.Redo);
      (Scenarios.counters (), Config.pdram_lite, Ptm.Undo);
      (Scenarios.bank (), Config.transient_cache, Ptm.Redo);
      (Scenarios.kv_incr (), Config.htm_commit, Ptm.Htm);
      (Scenarios.mod_btree (), Config.optane_adr, Ptm.Mod);
    ]

(* ---------- mutation tests: injected ordering bugs must be caught ---------- *)

(* Each case arms one deliberate PTM ordering bug (Ptm.inject) on a
   (scenario, model, algorithm) cell where the bug's durability hole is
   reachable, and requires the crash sweep to reject it — a checker
   that never fails is untested.  The failure must round-trip (see
   [Helpers.check_mutation_caught]). *)
let test_mutation ~inject ~scenario ~model ~algorithm () =
  Helpers.check_mutation_caught ~points:80 ~model ~seed
    (Engine.Subject.ptm ~inject ~algorithm scenario)

let mutation_cases =
  [
    (* Elided fences leave the redo log racing its status word in the
       WPQ — the same hole as the nofence domain, now as a code bug. *)
    Alcotest.test_case "inject skip-fence is caught (bank/adr/redo)" `Slow
      (test_mutation ~inject:Ptm.Skip_fence ~scenario:(Scenarios.bank ())
         ~model:Config.optane_adr ~algorithm:Ptm.Redo);
    (* Status raised before the log persists: recovery replays stale
       media log entries; counters' 8-slot write set spans three log
       lines, so the stale tail diverges the slots. *)
    Alcotest.test_case "inject reorder-log-apply is caught (counters/adr/redo)" `Slow
      (test_mutation ~inject:Ptm.Reorder_log_apply ~scenario:(Scenarios.counters ())
         ~model:Config.optane_adr ~algorithm:Ptm.Redo);
    (* The coalesced write-back sweep drops its last gathered line —
       bank's per-thread sequence cell — so a committed transfer's
       sequence write never becomes durable. *)
    Alcotest.test_case "inject tear-write is caught (bank/adr/undo)" `Slow
      (test_mutation ~inject:Ptm.Tear_write ~scenario:(Scenarios.bank ())
         ~model:Config.optane_adr ~algorithm:Ptm.Undo);
    (* MOD's one fence stands between the shadow sweep and the root
       swap; eliding it publishes a root whose shadow nodes are still
       racing the WPQ, so recovery walks into unswept memory. *)
    Alcotest.test_case "inject skip-fence is caught (mod-btree/adr/mod)" `Slow
      (test_mutation ~inject:Ptm.Skip_fence ~scenario:(Scenarios.mod_btree ())
         ~model:Config.optane_adr ~algorithm:Ptm.Mod);
    (* A torn root swap lands only the low byte of the new root on
       media (the cache keeps the full pointer, so only recovery can
       see it) — the recovered root points into garbage. *)
    Alcotest.test_case "inject tear-write is caught (mod-hash/adr/mod)" `Slow
      (test_mutation ~inject:Ptm.Tear_write ~scenario:(Scenarios.mod_hash ())
         ~model:Config.optane_adr ~algorithm:Ptm.Mod);
    (* Root swap issued before the shadow sweep: the published root
       races every shadow line instead of following them. *)
    Alcotest.test_case "inject reorder-log-apply is caught (mod-btree/adr/mod)" `Slow
      (test_mutation ~inject:Ptm.Reorder_log_apply ~scenario:(Scenarios.mod_btree ())
         ~model:Config.optane_adr ~algorithm:Ptm.Mod);
  ]

(* ---------- recovery idempotence ---------- *)

let test_recovery_convergence ?(model = Config.optane_adr) algorithm () =
  let scenario = Scenarios.bank () in
  let probe = Engine.explore ~points:1 ~seed ~model ~algorithm scenario in
  let t_final = probe.Engine.final_time in
  List.iter
    (fun eighth ->
      let crash_at = max 1 (t_final * eighth / 8) in
      match Engine.recovery_convergence ~model ~algorithm ~seed ~crash_at scenario with
      | Ok () -> ()
      | Error e ->
        Alcotest.fail (Printf.sprintf "crash_at=%dns (%d/8 of run): %s" crash_at eighth e))
    [ 1; 2; 3; 5; 7 ]

(* ---------- determinism ---------- *)

(* A PTM scenario prepared on a fresh ADR machine under [algorithm],
   with a fresh instance whose workers ran to completion when [run]
   (and never started otherwise). *)
let ptm_instance ?(seed = seed) ~algorithm ~run (sc : Engine.scenario) =
  let cfg =
    Config.make ~nvm_channels:4 ~heap_words:sc.Engine.heap_words ~track_media:true
      Config.optane_adr
  in
  let sim = Sim.create cfg in
  let ptm =
    Ptm.create ~algorithm ~coalesce:sc.Engine.coalesce ~max_threads:sc.Engine.threads
      ~log_words_per_thread:sc.Engine.log_words_per_thread (Sim.machine sim)
  in
  sc.Engine.prepare ptm;
  let inst = sc.Engine.fresh ~seed in
  if run then begin
    for tid = 0 to sc.Engine.threads - 1 do
      ignore (Sim.spawn sim (fun () -> inst.Engine.worker ~tid ptm) : int)
    done;
    Sim.run sim
  end;
  (sim, ptm, inst)

let run_reference_once () =
  let scenario = Scenarios.bank () in
  let sim, ptm, _ = ptm_instance ~seed:42 ~algorithm:Ptm.Redo ~run:true scenario in
  let heap = Array.init scenario.Engine.heap_words (Sim.machine sim).Machine.raw_read in
  (Sim.now sim, Sim.Stats.get sim, Ptm.Stats.get ptm, heap)

let test_determinism () =
  let t1, s1, p1, h1 = run_reference_once () in
  let t2, s2, p2, h2 = run_reference_once () in
  Helpers.check_int "final virtual time" t1 t2;
  Helpers.check_bool "sim stats bit-identical" true (s1 = s2);
  Helpers.check_bool "ptm stats bit-identical" true (p1 = p2);
  Helpers.check_bool "final heap bit-identical" true (h1 = h2)

(* ---------- the oracle's own rules, pinned on hand-made states ---------- *)

(* Each case judges an instance's history against a machine whose state
   the oracle must reject, although a search over every real-time-closed
   cut alone would accept it.  [judge inst ~crashed sim api] is the
   instance's one verdict. *)
let judge (inst : _ Engine.instance) ~crashed sim api =
  Result.map_error
    (fun f -> f.Engine.fail_reason)
    ((Option.get inst.Engine.oracle) ~crashed sim api)

let check_verdict what ok verdict =
  Helpers.check_bool
    (Printf.sprintf "%s (%s)" what
       (match verdict with Ok () -> "accepted" | Error e -> "rejected: " ^ e))
    ok (Result.is_ok verdict)

(* MOD after a crash may lose at most threads + 2 completed operations.
   One thread, so the budget is 3: the untouched structure is judged
   against a finished run of 3 operations, then of 4. *)
let test_mod_lag_budget () =
  List.iter
    (fun (ops, ok) ->
      let sc = Scenarios.mod_btree ~threads:1 ~ops () in
      let _, _, inst = ptm_instance ~algorithm:Ptm.Mod ~run:true sc in
      let sim, ptm, _ = ptm_instance ~algorithm:Ptm.Mod ~run:false sc in
      check_verdict
        (Printf.sprintf "mod-btree losing all %d completed ops (budget 3)" ops)
        ok
        (judge inst ~crashed:true sim ptm))
    [ (3, true); (4, false) ]

(* A run that did not crash must retain every completed operation, even
   under MOD's buffered criterion. *)
let test_mod_clean_run_complete () =
  let sc = Scenarios.mod_btree () in
  let done_sim, done_ptm, inst = ptm_instance ~algorithm:Ptm.Mod ~run:true sc in
  check_verdict "mod-btree clean run, finished structure" true
    (judge inst ~crashed:false done_sim done_ptm);
  let sim, ptm, _ = ptm_instance ~algorithm:Ptm.Mod ~run:false sc in
  check_verdict "mod-btree clean run, structure stopped short" false
    (judge inst ~crashed:false sim ptm)

(* FAMS recovery restores the last completed sync: 12 operations synced
   at 8, judged against working areas that stopped after 8 and after 7
   (runs of the same seed, so the same transfers). *)
let test_fams_completed_sync () =
  let fams_run ops =
    let sc = Scenarios.fams_bank ~ops ~sync_every:8 () in
    let cfg =
      Config.make ~nvm_channels:4
        ~heap_words:(Fams.required_heap_words ~words:sc.Engine.f_words)
        ~track_media:true Config.optane_adr
    in
    let sim = Sim.create cfg in
    let fams = Fams.create ~granularity:Fams.Line ~words:sc.Engine.f_words sim in
    sc.Engine.f_prepare fams;
    Fams.checkpoint_raw fams;
    let inst = sc.Engine.f_fresh ~seed in
    ignore (Sim.spawn sim (fun () -> inst.Engine.worker ~tid:0 fams) : int);
    Sim.run sim;
    (sim, fams, inst)
  in
  let _, _, inst = fams_run 12 in
  List.iter
    (fun (ops, ok) ->
      let sim, fams, _ = fams_run ops in
      check_verdict (Printf.sprintf "fams-bank at op %d, last sync at 8" ops) ok
        (judge inst ~crashed:true sim fams))
    [ (8, true); (7, false) ]

(* A directory slot must name a block the allocator holds live: free
   one slot's block behind the directory's back, leaving its stamp and
   signature words in place. *)
let test_alloc_slot_names_live_block () =
  let ops = 10 in
  let sc = Scenarios.alloc_churn ~ops () in
  let sim, ptm, inst = ptm_instance ~algorithm:Ptm.Redo ~run:true sc in
  check_verdict "alloc finished run" true (judge inst ~crashed:false sim ptm);
  let dir = Ptm.root_get ptm 0 in
  let slot =
    List.find
      (fun i -> (Sim.machine sim).Machine.raw_read (dir + i) <> 0)
      (List.init (sc.Engine.threads * ops) Fun.id)
  in
  Ptm.atomic ptm (fun tx -> Ptm.free tx (Ptm.read tx (dir + slot)));
  check_verdict "alloc slot naming a freed block" false (judge inst ~crashed:false sim ptm)

(* ---------- crash-leaked arenas are warnings, not corruption ---------- *)

(* [Alloc.claim_chunk] durably advances the high-water mark before the
   arena header's flush completes; a crash in between strands a chunk
   with no recognizable header.  The checker must report that as a
   Warning (bounded leak, by design) and [is_clean] must hold so
   recovery proceeds. *)
let test_crash_leak_is_warning () =
  let probe crash_at =
    let sim, _m, ptm = Helpers.ptm_fixture ~model:Config.optane_adr ~max_threads:1 () in
    Sim.persist_all sim;
    ignore
      (Sim.spawn sim (fun () -> Ptm.atomic ptm (fun tx -> ignore (Ptm.alloc tx 600 : int)))
        : int);
    Sim.run ~crash_at sim;
    if not (Sim.crashed sim) then None
    else begin
      let _sim', _m', ptm' = Helpers.reboot_and_recover sim in
      Some (Pmem.Check.run (Ptm.region ptm'))
    end
  in
  let rec hunt t =
    if t > 2000 then Alcotest.fail "no crash point leaked an arena within 2000ns"
    else
      match probe t with
      | None -> Alcotest.fail "run completed before any leak window was found"
      | Some rep when rep.Pmem.Check.leaked_arenas > 0 ->
        Helpers.check_bool "region is clean after recovery despite the leak" true
          (Pmem.Check.is_clean rep);
        List.iter
          (fun f ->
            Helpers.check_bool
              (Printf.sprintf "finding %S is not corruption" f.Pmem.Check.what)
              true
              (f.Pmem.Check.severity <> Pmem.Check.Corruption))
          rep.Pmem.Check.findings
      | Some _ -> hunt (t + 1)
  in
  hunt 1

(* ---------- allocation guard ---------- *)

(* Host cost of one crash cell is dominated by what each probe
   allocates.  Word counts are host-stable, so a fixed bound is a fair
   tier-1 gate: one [Engine.rerun] (prepare, image reload, crashed run,
   reboot, recovery, oracle) on bank/optane-adr/redo must stay well
   below the ~3.2 M words it costs when every machine zeroes a flat
   8.4 MB metadata table. *)
let alloc_bound_words = 400_000.

(* [Gc.minor_words] is exact; the minor field of [Gc.counters] drifts
   with the minor heap's state on OCaml 5. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let test_run_point_alloc () =
  let scenario = Scenarios.bank () in
  let model = Config.optane_adr and algorithm = Ptm.Redo in
  let probe = Engine.explore ~points:1 ~seed ~model ~algorithm scenario in
  let crash_at = max 1 (probe.Engine.final_time / 2) in
  let before = allocated_words () in
  let result = Engine.rerun ~model ~seed ~crash_at (Engine.Subject.ptm ~algorithm scenario) in
  let words = allocated_words () -. before in
  Helpers.check_bool "probe passes the oracles" true (Result.is_ok result);
  Helpers.check_bool
    (Printf.sprintf "rerun allocated %.0f words (bound %.0f)" words alloc_bound_words)
    true (words < alloc_bound_words)

(* Single-pass probing: one workload run for all instants instead of
   one re-run each.  A cell of 64 probes must stay under 50 k words per
   probe, image making and the reference run included; re-running the
   workload per probe costs about 77 k. *)
let explore_alloc_bound_words = 50_000.

let test_explore_alloc () =
  let before = allocated_words () in
  let report =
    Engine.explore ~points:64 ~seed ~model:Config.optane_adr ~algorithm:Ptm.Redo
      (Scenarios.bank ())
  in
  let per_probe = (allocated_words () -. before) /. float_of_int report.Engine.tested in
  Helpers.check_bool "cell passes" true (Engine.ok report);
  Helpers.check_int "probed 64 instants" 64 report.Engine.tested;
  Helpers.check_bool
    (Printf.sprintf "explore allocated %.0f words per probe (bound %.0f)" per_probe
       explore_alloc_bound_words)
    true
    (per_probe < explore_alloc_bound_words)

(* ---------- bad settings and replay lines are refused ---------- *)

let rejects what f =
  match f () with
  | (_ : Engine.report) -> Alcotest.fail (what ^ " was accepted")
  | exception Invalid_argument _ -> ()

let test_points_rejected () =
  rejects "explore ~points:0" (fun () ->
      Engine.explore ~points:0 ~seed ~model:Config.optane_adr ~algorithm:Ptm.Redo
        (Scenarios.bank ()));
  rejects "explore_fams ~points:-1" (fun () ->
      Engine.explore_fams ~points:(-1) ~seed ~model:Config.optane_adr ~granularity:Fams.Line
        (Scenarios.fams_bank ()));
  match
    Engine.choose_instants ~points:0 ~seed ~exhaustive:true ~final_time:100
      (Memsim.Trace.create ())
  with
  | _ -> Alcotest.fail "choose_instants ~points:0 was accepted"
  | exception Invalid_argument _ -> ()

let test_replay_grammar () =
  let parses spec want =
    Helpers.check_bool (Printf.sprintf "parse %S" spec) true (Engine.parse_replay spec = want)
  in
  parses "bank:optane-adr:redo:1:2229" (Some ("bank", "optane-adr", "redo", 1, 2229, None));
  parses " fams-bank:optane-adr:fams-line:1:10610:skip-publish-fence\n"
    (Some ("fams-bank", "optane-adr", "fams-line", 1, 10610, Some "skip-publish-fence"));
  (* The explorer never prints an instant <= 0. *)
  parses "bank:optane-adr:redo:1:-5" None;
  parses "bank:optane-adr:redo:1:0" None;
  parses "bank:optane-adr:redo:x:5" None;
  parses "bank:optane-adr:redo:1" None;
  parses "bank:optane-adr:redo:1:5:skip-fence:extra" None

let test_replay_resolve () =
  let resolve ?inject scenario algorithm = Scenarios.subject ?inject ~scenario ~algorithm () in
  let refused what f =
    match f () with
    | (_ : (Engine.Subject.t, string) result) -> Alcotest.fail (what ^ " resolved")
    | exception Invalid_argument _ -> ()
  in
  (* A present-but-unknown inject name must not silently replay the
     un-mutated runtime. *)
  refused "unknown inject" (fun () -> resolve ~inject:"bogus" "bank" "redo");
  refused "unknown algorithm" (fun () -> resolve "bank" "fams-word");
  refused "PTM algorithm on a FAMS scenario" (fun () -> resolve "fams-bank" "redo");
  Helpers.check_bool "FAMS bug on a PTM cell is refused" true
    (Result.is_error (resolve ~inject:"skip-publish-fence" "bank" "redo"));
  Helpers.check_bool "PTM bug on a FAMS cell is refused" true
    (Result.is_error (resolve ~inject:"skip-fence" "fams-bank" "fams-page"));
  (match (resolve ~inject:"skip-fence" "bank" "REDO", resolve "fams-bank" "fams-page") with
  | Ok p, Ok f ->
    Alcotest.(check (list string))
      "the algorithm column picks the API"
      [ "bank"; "redo"; "skip-fence"; "fams-bank"; "fams-page" ]
      [ p.scenario; p.algorithm; Option.get p.inject; f.scenario; f.algorithm ];
    Helpers.check_bool "only FAMS probes WPQ drain windows" true ((not p.drains) && f.drains)
  | _ -> Alcotest.fail "a matrix cell did not resolve");
  List.iter
    (fun { Scenarios.scenario; algorithm; _ } ->
      Helpers.check_bool
        (Printf.sprintf "matrix cell %s/%s resolves" scenario algorithm)
        true
        (Result.is_ok (resolve scenario algorithm)))
    (Scenarios.matrix ())

let suite =
  matrix_cases @ coalescing_cases @ mod_cases @ kvserve_cases @ extension_domain_cases
  @ single_pass_cases @ mutation_cases
  @ [
      Alcotest.test_case "nofence-adr is caught (redo)" `Slow (test_nofence Ptm.Redo);
      Alcotest.test_case "nofence-adr is caught (undo)" `Slow (test_nofence Ptm.Undo);
      Alcotest.test_case "recovery converges under re-crash (redo)" `Slow
        (test_recovery_convergence Ptm.Redo);
      Alcotest.test_case "recovery converges under re-crash (undo)" `Slow
        (test_recovery_convergence Ptm.Undo);
      Alcotest.test_case "recovery converges under re-crash (transient-cache)" `Slow
        (test_recovery_convergence ~model:Config.transient_cache Ptm.Redo);
      Alcotest.test_case "same config+seed is bit-identical" `Quick test_determinism;
      Alcotest.test_case "crash-leaked arena is a warning" `Quick test_crash_leak_is_warning;
      Alcotest.test_case "oracle: MOD lag over threads + 2 is rejected" `Quick
        test_mod_lag_budget;
      Alcotest.test_case "oracle: MOD clean run that stopped short is rejected" `Quick
        test_mod_clean_run_complete;
      Alcotest.test_case "oracle: FAMS state below the last completed sync is rejected"
        `Quick test_fams_completed_sync;
      Alcotest.test_case "oracle: alloc slot naming a freed block is rejected" `Quick
        test_alloc_slot_names_live_block;
      Alcotest.test_case "run_point allocation bound (bank/adr/redo)" `Quick
        test_run_point_alloc;
      Alcotest.test_case "explore allocation bound per probe (bank/adr/redo)" `Quick
        test_explore_alloc;
      Alcotest.test_case "non-positive sample size is rejected" `Quick test_points_rejected;
      Alcotest.test_case "replay line grammar" `Quick test_replay_grammar;
      Alcotest.test_case "replay names resolve to one subject" `Quick test_replay_resolve;
    ]
