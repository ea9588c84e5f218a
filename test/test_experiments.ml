(* The experiment harness itself: registry integrity and a few cheap
   end-to-end regenerations in quick mode. *)

module E = Workloads.Experiments

let test_registry_names_unique () =
  let names = List.map fst E.all in
  Helpers.check_int "no duplicate experiment names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_logsize_experiment () =
  let outcome = E.log_footprint ~quick:true () in
  match outcome.E.tables with
  | [ t ] ->
    let csv = Repro_util.Table.to_csv t in
    Helpers.check_bool "has vacation row" true
      (String.length csv > 0
      && List.exists
           (fun line -> String.length line >= 8 && String.sub line 0 8 = "vacation")
           (String.split_on_char '\n' csv))
  | _ -> Alcotest.fail "expected one table"

let test_orec_ablation_monotone () =
  (* More orecs can only reduce false conflicts: throughput at 2^20
     must beat 2^10 clearly. *)
  let outcome = E.orec_ablation ~quick:true () in
  let results = outcome.E.results in
  Helpers.check_int "six sizes" 6 (List.length results);
  let first = List.hd results and last = List.nth results 5 in
  Helpers.check_bool "bigger table is faster" true
    (last.Workloads.Driver.txs_per_sec > first.Workloads.Driver.txs_per_sec)

let test_recovery_time_experiment () =
  let outcome = E.recovery_time ~quick:true () in
  match outcome.E.tables with
  | [ t ] ->
    let lines = String.split_on_char '\n' (Repro_util.Table.to_csv t) in
    (* header + 2 sizes + trailing newline *)
    Helpers.check_int "two data rows" 4 (List.length lines)
  | _ -> Alcotest.fail "expected one table"

let test_quick_flag_shrinks_fig8 () =
  (* Quick mode runs a reduced working-set axis. *)
  let outcome = E.fig8 ~quick:true () in
  match outcome.E.tables with
  | [ t ] ->
    let header = List.hd (String.split_on_char '\n' (Repro_util.Table.to_csv t)) in
    Helpers.check_bool "only two sizes in quick mode" true
      (String.split_on_char ',' header = [ "series"; "32KB"; "32MB" ])
  | _ -> Alcotest.fail "expected one table"

(* The bench-regression sentinel on a hand-built record: a two-cell
   result list with a direction-bearing latency and counter, a wall
   clock and a root-level allocation metric. *)
module J = Workloads.Bench_json

let record ?(wall_s = 1.0) ?(minor = 6.4) ?(p99 = 1000.0) ?(cells = 2) ?(extra = []) () =
  let cell i =
    J.Obj [ ("workload", J.String "bank"); ("p99_ns", J.Float p99); ("commits", J.Int (50 + i)) ]
  in
  J.Obj
    ([ ("experiment", J.String "demo"); ("wall_s", J.Float wall_s);
       ("minor_words_per_event", J.Float minor); ("results", J.List (List.init cells cell)) ]
    @ extra)

(* Each current record against [record ()], read back through its JSON
   text as `ptm_bench regress` reads it, and the severities expected. *)
let regress_cases =
  let without key = function J.Obj kvs -> J.Obj (List.remove_assoc key kvs) | j -> j in
  [
    ("identical record is clean", record (), []);
    ("doubled p99_ns regresses", record ~p99:2000.0 (), [ J.Regression; J.Regression ]);
    ("NaN written as null regresses", record ~minor:nan (), [ J.Regression ]);
    ("dropped gated key regresses", without "minor_words_per_event" (record ()), [ J.Regression ]);
    ("dropped result cell regresses", record ~cells:1 (), [ J.Regression ]);
    ("wall_s change is ignored", record ~wall_s:9.0 (), []);
    ("new field is a note", record ~extra:[ ("p50_ns", J.Float 1.0) ] (), [ J.Note ]);
  ]

let test_regress current expected () =
  let findings = J.regress ~baseline:(record ()) ~current:(J.parse (J.to_string current)) () in
  let name = function J.Regression -> "regression" | J.Improvement -> "improvement" | J.Note -> "note" in
  Alcotest.(check (list string))
    "severities" (List.map name expected)
    (List.map (fun f -> name f.J.f_severity) findings)

let suite =
  [
    Alcotest.test_case "registry: unique names" `Quick test_registry_names_unique;
    Alcotest.test_case "logsize regenerates" `Slow test_logsize_experiment;
    Alcotest.test_case "orec ablation monotone" `Slow test_orec_ablation_monotone;
    Alcotest.test_case "recovery-time regenerates" `Slow test_recovery_time_experiment;
    Alcotest.test_case "fig8 quick axis" `Slow test_quick_flag_shrinks_fig8;
  ]
  @ List.map
      (fun (name, current, expected) ->
        Alcotest.test_case ("regress: " ^ name) `Quick (test_regress current expected))
      regress_cases
