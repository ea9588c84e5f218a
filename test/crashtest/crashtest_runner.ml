(* Standalone crash-test sweep, wired to `dune build @crashtest`.

   Default: sampled sweep of every cell of the crash matrix
   (Scenarios.matrix): the PTM scenarios across the
   {Redo, Undo} x {ADR, eADR, PDRAM, PDRAM-Lite, transient-cache,
   HTM-commit} matrix (Htm replaces Undo on the HTM-commit domain),
   followed by the FAMS scenarios across
   {fams-line, fams-page} x {ADR, eADR, transient-cache, PDRAM,
   PDRAM-Lite}.
   CRASHTEST_EXHAUSTIVE=1 probes every candidate instant instead.
   CRASHTEST_SCENARIO / CRASHTEST_MODEL / CRASHTEST_ALG restrict the
   sweep to matching cells (exact scenario / model / algorithm names;
   the FAMS algorithm names are fams-line / fams-page).
   CRASHTEST_INJECT names a deliberate ordering bug — a PTM one
   (skip-fence|reorder-log-apply|tear-write) or a FAMS one
   (skip-publish-fence|torn-journal-entry) — and arms it for every cell
   of that API, skipping the other API's cells (expect failures — this
   is how the oracles themselves are exercised by hand).
   CRASHTEST_REPLAY='scenario:model:algorithm:seed:crash_at[:inject]'
   re-runs a single failing point printed by a previous sweep.
   Exit status: 1 on a violation, 2 on a bad filter, setting or
   replay line. *)

module Config = Memsim.Config
module Engine = Crashtest.Engine
module Scenarios = Crashtest.Scenarios

let refuse what msg =
  Printf.eprintf "%s: %s\n%!" what msg;
  exit 2

let replay spec =
  let what = "CRASHTEST_REPLAY" in
  match Engine.parse_replay spec with
  | None -> refuse what (Printf.sprintf "cannot parse %S" spec)
  | Some (scenario, model, algorithm, seed, crash_at, inject) -> (
    match
      (Scenarios.subject ?inject ~scenario ~algorithm (), Config.model_of_name model)
    with
    | exception Invalid_argument msg -> refuse what msg
    | Error msg, _ -> refuse what msg
    | Ok subject, model -> (
      match Engine.rerun ~model ~seed ~crash_at subject with
      | Ok () -> Printf.printf "replay %s: ok (no violation at t=%d)\n%!" spec crash_at
      | Error reason ->
        Printf.printf "replay %s: VIOLATION\n  %s\n%!" spec reason;
        exit 1))

let wanted var name =
  match Sys.getenv_opt var with None | Some "" -> true | Some v -> v = name

let sweep () =
  let inject =
    match Sys.getenv_opt "CRASHTEST_INJECT" with None | Some "" -> None | Some name -> Some name
  in
  let failed = ref 0 in
  let ran = ref 0 in
  let cell { Scenarios.scenario; model; algorithm } =
    if
      wanted "CRASHTEST_SCENARIO" scenario
      && wanted "CRASHTEST_MODEL" model.Config.model_name
      && wanted "CRASHTEST_ALG" algorithm
    then
      (* A cell of the other API than the armed bug's is skipped. *)
      match Scenarios.subject ?inject ~scenario ~algorithm () with
      | Error _ -> ()
      | Ok subject ->
        let report = Engine.explore_subject ~model subject in
        Format.printf "%a@." Engine.pp_report report;
        incr ran;
        if not (Engine.ok report) then incr failed
  in
  (try List.iter cell (Scenarios.matrix ())
   with Invalid_argument msg -> refuse "crashtest" msg);
  if !ran = 0 then
    (* A typo'd filter must not read as a clean bill of health. *)
    refuse "crashtest" "no cells matched the CRASHTEST_SCENARIO/MODEL/ALG filters"
  else if !failed > 0 then begin
    Printf.printf "%d/%d cell(s) FAILED\n%!" !failed !ran;
    exit 1
  end
  else Printf.printf "all %d cells passed\n%!" !ran

let () =
  match Sys.getenv_opt "CRASHTEST_REPLAY" with
  | Some spec when String.trim spec <> "" -> replay spec
  | Some _ | None -> sweep ()
