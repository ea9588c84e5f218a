(* Standalone crash-test sweep, wired to `dune build @crashtest`.

   Default: sampled sweep of every scenario across the
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
   re-runs a single failing point printed by a previous sweep, PTM or
   FAMS alike. *)

module Config = Memsim.Config
module Engine = Crashtest.Engine
module Scenarios = Crashtest.Scenarios

let models =
  [
    Config.optane_adr;
    Config.optane_eadr;
    Config.pdram;
    Config.pdram_lite;
    Config.transient_cache;
    Config.htm_commit;
  ]

(* Undo's eager in-place stores are pointless inside a hardware
   transaction; the HTM-commit domain sweeps the Htm algorithm
   instead.  The MOD structure scenarios sweep the Mod algorithm
   (their buffered single-fence discipline) plus Redo as the
   strict-durability differential — Undo/Htm would add nothing the
   other scenarios don't already cover. *)
let algorithms_for model scenario =
  let is_mod =
    let n = scenario.Engine.name in
    String.length n >= 4 && String.sub n 0 4 = "mod-"
  in
  if is_mod then [ Pstm.Ptm.Mod; Pstm.Ptm.Redo ]
  else if model == Config.htm_commit then [ Pstm.Ptm.Redo; Pstm.Ptm.Htm ]
  else [ Pstm.Ptm.Redo; Pstm.Ptm.Undo ]

(* An armed bug belongs to one of the two crash-consistency APIs. *)
type inject = Ptm_bug of Pstm.Ptm.inject | Fams_bug of Fams.inject

let inject_from_env () =
  match Sys.getenv_opt "CRASHTEST_INJECT" with
  | None | Some "" -> None
  | Some name -> (
    match (Pstm.Ptm.inject_of_name name, Fams.inject_of_name name) with
    | Some i, _ -> Some (Ptm_bug i)
    | None, Some i -> Some (Fams_bug i)
    | None, None ->
      Printf.eprintf "CRASHTEST_INJECT: unknown inject %S\n%!" name;
      exit 2)

let lookup f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "CRASHTEST_REPLAY: %s\n%!" msg;
    exit 2

let replay spec =
  let verdict crash_at = function
    | Ok () -> Printf.printf "replay %s: ok (no violation at t=%d)\n%!" spec crash_at
    | Error reason ->
      Printf.printf "replay %s: VIOLATION\n  %s\n%!" spec reason;
      exit 1
  in
  match (Engine.parse_replay spec, Engine.parse_fams_replay spec) with
  | Some (scenario_name, model_name, algorithm, seed, crash_at, inject), _ ->
    let scenario, model =
      lookup (fun () -> (Scenarios.find scenario_name, Config.model_of_name model_name))
    in
    verdict crash_at (Engine.run_point ?inject ~model ~algorithm ~seed ~crash_at scenario)
  | None, Some (scenario_name, model_name, granularity, seed, crash_at, inject) ->
    let scenario, model =
      lookup (fun () -> (Scenarios.fams_find scenario_name, Config.model_of_name model_name))
    in
    verdict crash_at
      (Engine.run_fams_point ?inject ~model ~granularity ~seed ~crash_at scenario)
  | None, None ->
    Printf.eprintf "CRASHTEST_REPLAY: cannot parse %S\n%!" spec;
    exit 2

let wanted var name =
  match Sys.getenv_opt var with None | Some "" -> true | Some v -> v = name

let fams_models =
  [ Config.optane_adr; Config.optane_eadr; Config.transient_cache; Config.pdram; Config.pdram_lite ]

let sweep () =
  let inject = inject_from_env () in
  let failed = ref 0 in
  let ran = ref 0 in
  let cell ~scenario ~model ~algorithm explore =
    if
      wanted "CRASHTEST_SCENARIO" scenario
      && wanted "CRASHTEST_MODEL" model.Config.model_name
      && wanted "CRASHTEST_ALG" algorithm
    then begin
      let report = explore () in
      Format.printf "%a@." Engine.pp_report report;
      incr ran;
      if not (Engine.ok report) then incr failed
    end
  in
  let ptm_inject = match inject with Some (Ptm_bug i) -> Some i | _ -> None in
  let fams_inject = match inject with Some (Fams_bug i) -> Some i | _ -> None in
  if Option.is_none fams_inject then
    List.iter
      (fun scenario ->
        List.iter
          (fun model ->
            List.iter
              (fun algorithm ->
                cell ~scenario:scenario.Engine.name ~model
                  ~algorithm:(Pstm.Ptm.algorithm_name algorithm) (fun () ->
                    Engine.explore ?inject:ptm_inject ~model ~algorithm scenario))
              (algorithms_for model scenario))
          models)
      (Scenarios.all ());
  if Option.is_none ptm_inject then
    List.iter
      (fun scenario ->
        List.iter
          (fun model ->
            List.iter
              (fun granularity ->
                cell ~scenario:scenario.Engine.f_name ~model
                  ~algorithm:(Engine.fams_algorithm_name granularity) (fun () ->
                    Engine.explore_fams ?inject:fams_inject ~model ~granularity scenario))
              [ Fams.Line; Fams.Page ])
          fams_models)
      (Scenarios.fams_all ());
  if !ran = 0 then begin
    (* A typo'd filter must not read as a clean bill of health. *)
    Printf.eprintf "no cells matched the CRASHTEST_SCENARIO/MODEL/ALG filters\n%!";
    exit 2
  end
  else if !failed > 0 then begin
    Printf.printf "%d/%d cell(s) FAILED\n%!" !failed !ran;
    exit 1
  end
  else Printf.printf "all %d cells passed\n%!" !ran

let () =
  match Sys.getenv_opt "CRASHTEST_REPLAY" with
  | Some spec when String.trim spec <> "" -> replay spec
  | Some _ | None -> sweep ()
