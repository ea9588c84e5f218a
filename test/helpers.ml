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

(* [arm ()] spawns a fresh instance of one workload on a fresh machine
   loaded from the same image.  At every instant of [stops] (sorted,
   all within the run), the durable image of one run paused there must
   equal, word for word, the image a re-run crashed there leaves. *)
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

(* The re-run explorer: probe [chosen] in order, one re-run each, until
   the first failure.  Returns how many were probed and the failing
   instant, the two things a single-pass report must agree on. *)
let rerun_explore ~probe chosen =
  let rec go n = function
    | [] -> (n, None)
    | t :: rest -> if Result.is_ok (probe t) then go (n + 1) rest else (n + 1, Some t)
  in
  go 0 chosen

let check_report_matches what (r : Crashtest.Engine.report) ~final ~candidates (tested, failed) =
  check_int (what ^ ": final time") final r.Crashtest.Engine.final_time;
  check_int (what ^ ": candidates") candidates r.Crashtest.Engine.candidates;
  check_int (what ^ ": tested") tested r.Crashtest.Engine.tested;
  Alcotest.(check (option int))
    (what ^ ": first failing instant")
    failed
    (match r.Crashtest.Engine.failures with f :: _ -> Some f.Crashtest.Engine.crash_at | [] -> None)

(* The explorers' instants for a cell, from a traced crash-free
   reference run of [arm ()]: (final time, candidates, chosen). *)
let reference_instants ?drain ~points ~seed arm =
  let sim = arm () in
  let tr = Memsim.Sim.enable_trace ~capacity:(1 lsl 17) sim in
  Memsim.Sim.run sim;
  let final = Memsim.Sim.now sim in
  let candidates, chosen =
    Crashtest.Engine.choose_instants ?drain ~points ~seed ~exhaustive:false ~final_time:final tr
  in
  (final, candidates, chosen)
