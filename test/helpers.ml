(* Shared fixtures for the test suites. *)

let sim_machine ?(model = Memsim.Config.optane_adr) ?(heap_words = 1 lsl 16) ?lat () =
  let cfg = Memsim.Config.make ?lat ~heap_words model in
  let sim = Memsim.Sim.create cfg in
  (sim, Memsim.Sim.machine sim)

(* Run [threads] simulated workers [f tid] to completion. *)
let run_workers ?crash_at sim threads f =
  for tid = 0 to threads - 1 do
    ignore (Memsim.Sim.spawn sim (fun () -> f tid))
  done;
  Memsim.Sim.run ?crash_at sim

(* Machine plus an attached PTM — the fixture most suites start from.
   Optional arguments mirror [Ptm.create]'s so suites only state what
   they care about. *)
let ptm_fixture ?model ?algorithm ?flush_timing ?(heap_words = 1 lsl 16)
    ?(max_threads = 8) ?(log_words_per_thread = 1024) ?lat () =
  let sim, m = sim_machine ?model ~heap_words ?lat () in
  let ptm = Pstm.Ptm.create ?algorithm ?flush_timing ~max_threads ~log_words_per_thread m in
  (sim, m, ptm)

(* The persistent-structure suites' variant: a bigger heap (splitting
   trees and towers churn allocation) and a bigger per-thread log,
   shared by test_pstructs, test_pstructs2 and test_mod so the sizing
   lives in one place. *)
let pstructs_fixture ?model ?algorithm ?(heap_words = 1 lsl 18) () =
  ptm_fixture ?model ?algorithm ~heap_words ~log_words_per_thread:2048 ()

(* Reboot a crashed (or finished) sim and recover the PTM on it. *)
let reboot_and_recover ?algorithm sim =
  let sim' = Memsim.Sim.reboot sim in
  let m' = Memsim.Sim.machine sim' in
  let ptm' = Pstm.Ptm.recover ?algorithm m' in
  (sim', m', ptm')

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* qcheck bridge: register a property as an alcotest case. *)
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* Key/op traces for the structure-vs-oracle differential properties:
   (key, op-code) pairs with keys in [1, key_range] and op codes in
   [0, ops - 1].  [size] bounds the trace length; without it the list
   uses qcheck's default size distribution. *)
let kv_ops_gen ?size ~key_range ~ops () =
  let open QCheck2.Gen in
  let step = pair (int_range 1 key_range) (int_range 0 (ops - 1)) in
  match size with None -> list step | Some (lo, hi) -> list_size (int_range lo hi) step

(* ---------- crash exploration: single pass vs re-run ---------- *)

module Engine = Crashtest.Engine

(* The engine's steps rebuilt from a subject's public fields: the
   prepared image, and [arm ()], a fresh workload started on a machine
   loaded from it.  [drain] is the configuration whose WPQ drain
   windows join the candidates, for subjects that want them. *)
let with_prepared_image ~model ~seed (s : Engine.Subject.t) f =
  let cfg =
    Memsim.Config.make ~nvm_channels:4 ~heap_words:s.heap_words ~track_media:true model
  in
  let sim = Memsim.Sim.create cfg in
  s.populate sim;
  Memsim.Sim.persist_all sim;
  let image = Filename.temp_file "test-crashtest" ".img" in
  Memsim.Sim.save_image sim image;
  let arm () =
    let sim = Memsim.Sim.load_image cfg image in
    ignore (s.start ~seed ~telemetry:false sim : Engine.Subject.started);
    sim
  in
  let drain = if s.drains then Some cfg else None in
  Fun.protect ~finally:(fun () -> Sys.remove image) (fun () -> f ~drain arm)

(* At every instant of [stops] (sorted, all within the run), the
   durable image of one run of [arm ()] paused there must equal, word
   for word, the image a re-run crashed there leaves. *)
let paused_images_match ~what ~arm stops =
  let sim = arm () in
  let compared = ref 0 in
  Memsim.Sim.run sim ~stops ~on_stop:(fun s ->
      let crashed = arm () in
      Memsim.Sim.run ~crash_at:s crashed;
      check_bool
        (Printf.sprintf "%s: paused image at %dns equals the crash re-run's" what s)
        true
        (Memsim.Pheap.equal (Memsim.Sim.durable_image ~at:s sim) (Memsim.Sim.durable_image crashed));
      incr compared;
      true);
  check_int (what ^ ": every instant compared") (Array.length stops) !compared

(* The explorer's instants for a cell, from a traced crash-free
   reference run of [arm ()]: (final time, candidates, chosen). *)
let reference_instants ?drain ~points ~seed arm =
  let sim = arm () in
  let tr = Memsim.Sim.enable_trace ~capacity:(1 lsl 17) sim in
  Memsim.Sim.run sim;
  let final = Memsim.Sim.now sim in
  let candidates, chosen =
    Engine.choose_instants ?drain ~points ~seed ~exhaustive:false ~final_time:final tr
  in
  (final, candidates, chosen)

(* The report must equal a re-run explorer's over the same instants:
   probe them in order, one [Engine.rerun] each, until the first
   failure — same final time, candidates, probe count and first
   failing instant. *)
let check_against_rerun ~points ~model ~seed s (r : Engine.report) =
  with_prepared_image ~model ~seed s (fun ~drain arm ->
      let final, candidates, chosen = reference_instants ?drain ~points ~seed arm in
      let rec go n = function
        | [] -> (n, None)
        | t :: rest ->
          if Result.is_ok (Engine.rerun ~model ~seed ~crash_at:t s) then go (n + 1) rest
          else (n + 1, Some t)
      in
      let tested, failed = go 0 chosen in
      let what = "single pass vs re-run" in
      check_int (what ^ ": final time") final r.final_time;
      check_int (what ^ ": candidates") candidates r.candidates;
      check_int (what ^ ": tested") tested r.tested;
      Alcotest.(check (option int))
        (what ^ ": first failing instant")
        failed
        (match r.failures with f :: _ -> Some f.crash_at | [] -> None))

let cell_name ~model (s : Engine.Subject.t) =
  Printf.sprintf "%s/%s/%s" s.scenario model.Memsim.Config.model_name s.algorithm

(* A clean cell: at every chosen instant the paused run's durable image
   equals the crash re-run's, and the whole report equals the re-run
   explorer's. *)
let check_single_pass ~points ~model ~seed s =
  let report = Engine.explore_subject ~points ~seed ~model s in
  check_bool (Format.asprintf "%a" Engine.pp_report report) true (Engine.ok report);
  with_prepared_image ~model ~seed s (fun ~drain arm ->
      let _, _, chosen = reference_instants ?drain ~points ~seed arm in
      paused_images_match ~what:(cell_name ~model s) ~arm (Array.of_list chosen));
  check_against_rerun ~points ~model ~seed s report

(* The replay line of [f] must parse, resolve to a subject of the same
   cell and inject, and reproduce the violation in one re-run. *)
let check_replay_reproduces ~seed (s : Engine.Subject.t) (f : Engine.failure) =
  let spec =
    match String.split_on_char '\'' f.replay with
    | _ :: spec :: _ -> spec
    | _ -> Alcotest.fail ("unparseable replay line: " ^ f.replay)
  in
  match Engine.parse_replay spec with
  | None -> Alcotest.fail ("replay spec does not parse: " ^ spec)
  | Some (scenario, model, algorithm, replay_seed, crash_at, inject) ->
    check_int "replay seed matches report" seed replay_seed;
    Alcotest.(check string) "replay line names the algorithm" s.algorithm algorithm;
    Alcotest.(check (option string)) "replay line names the injected bug" s.inject inject;
    let subject =
      match Crashtest.Scenarios.subject ?inject ~scenario ~algorithm () with
      | Ok subject -> subject
      | Error msg -> Alcotest.fail msg
    in
    let result =
      Engine.rerun ~model:(Memsim.Config.model_of_name model) ~seed:replay_seed ~crash_at subject
    in
    check_bool "replay reproduces the violation" true (Result.is_error result)

(* A subject with an armed bug must be rejected by the sweep, and the
   failure must round-trip: the replay line reproduces it, the
   telemetry dump carries the profile and (for an oracle failure, not
   an image the API's recovery rejects) the dlin counterexample, and
   the single pass fails where the re-run explorer does, after as many
   probes. *)
let check_mutation_caught ~points ~model ~seed s =
  let report = Engine.explore_subject ~points ~seed ~model s in
  check_bool
    (Printf.sprintf "checker rejects %s on %s" (Option.get s.Engine.Subject.inject)
       (cell_name ~model s))
    false (Engine.ok report);
  match report.failures with
  | [] -> Alcotest.fail "report not ok but carries no failure record"
  | f :: _ ->
    check_bool "failure explains itself" true (String.length f.reason > 0);
    check_replay_reproduces ~seed s f;
    (match f.telemetry_dir with
    | None -> Alcotest.fail "failure carries no telemetry dump"
    | Some dir ->
      check_bool "telemetry dump has profile.jsonl" true
        (Sys.file_exists (Filename.concat dir "profile.jsonl"));
      if not (String.starts_with ~prefix:"recovery rejected" f.reason) then
        check_bool "dlin counterexample rides the telemetry dump" true
          (Sys.file_exists (Filename.concat dir "dlin.jsonl")));
    check_against_rerun ~points ~model ~seed s report
