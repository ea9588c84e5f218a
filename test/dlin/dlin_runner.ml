(* Durable-linearizability gate, wired into tier-1 `dune runtest` and,
   in full-matrix form, `dune build @dlin`.

   Fast mode (default): four representative cells — the ADR baseline
   plus one cell per extension domain (transient-cache, HTM-commit,
   eADR) — and one armed skip-fence probe that the dlin oracle must
   reject.  DLIN_FULL=1 (set by the @dlin alias) widens this to every
   scenario across the whole durability matrix plus every injected
   mutation, the five PTM ones and the two FAMS ones.

   Both modes are held to a wall-clock budget so the oracle's search
   cost stays an explicit, regression-checked quantity: DLIN_BUDGET_S
   overrides the defaults (60 s fast, 600 s full), and exceeding the
   budget fails the run even when every cell passed. *)

module Config = Memsim.Config
module Ptm = Pstm.Ptm
module Engine = Crashtest.Engine
module Scenarios = Crashtest.Scenarios

let full =
  match Sys.getenv_opt "DLIN_FULL" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let budget_s =
  match Sys.getenv_opt "DLIN_BUDGET_S" with
  | Some s when String.trim s <> "" -> (
    match float_of_string_opt (String.trim s) with
    | Some b when b > 0.0 -> b
    | _ ->
      Printf.eprintf "DLIN_BUDGET_S: not a positive number: %S\n%!" s;
      exit 2)
  | _ -> if full then 600.0 else 60.0

let models =
  [
    Config.optane_adr;
    Config.optane_eadr;
    Config.pdram;
    Config.pdram_lite;
    Config.transient_cache;
    Config.htm_commit;
  ]

(* MOD structure scenarios run the Mod algorithm (checked under the
   buffered dlin criterion) plus Redo as the strict differential. *)
let algorithms_for model scenario =
  let is_mod =
    let n = scenario.Engine.name in
    String.length n >= 4 && String.sub n 0 4 = "mod-"
  in
  if is_mod then [ Ptm.Mod; Ptm.Redo ]
  else if model == Config.htm_commit then [ Ptm.Redo; Ptm.Htm ]
  else [ Ptm.Redo; Ptm.Undo ]

(* One cell per durability domain of interest, spread across scenarios
   so the fast gate still exercises bank's read-pair responses, the
   total-order counters spec and the kvserve exactly-once spec. *)
let fast_cells =
  [
    ("bank", Config.optane_adr, Ptm.Redo);
    ("counters", Config.transient_cache, Ptm.Undo);
    ("kv-incr", Config.htm_commit, Ptm.Htm);
    ("btree", Config.optane_eadr, Ptm.Redo);
    ("mod-btree", Config.optane_adr, Ptm.Mod);
  ]

(* The three armed ordering bugs, each on a cell where the weakened
   ordering is actually observable (see test/test_crashtest.ml). *)
let mutations =
  [
    (Ptm.Skip_fence, "bank", Config.optane_adr, Ptm.Redo);
    (Ptm.Reorder_log_apply, "counters", Config.optane_adr, Ptm.Redo);
    (Ptm.Tear_write, "bank", Config.optane_adr, Ptm.Undo);
    (Ptm.Skip_fence, "mod-btree", Config.optane_adr, Ptm.Mod);
    (Ptm.Tear_write, "mod-hash", Config.optane_adr, Ptm.Mod);
  ]

(* The two FAMS protocol bugs, on the cells test/test_fams.ml catches
   them on. *)
let fams_mutations =
  [
    (Fams.Skip_publish_fence, Fams.Page, Config.optane_adr);
    (Fams.Torn_journal_entry, Fams.Line, Config.optane_adr);
  ]

let failed = ref 0
let ran = ref 0

let cell_name scenario model algorithm =
  Printf.sprintf "%s/%s/%s" scenario.Engine.name model.Config.model_name
    (Ptm.algorithm_name algorithm)

(* A positive cell: the oracle must find a durable linearization at
   every probed crash instant. *)
let positive ?points scenario model algorithm =
  incr ran;
  let report = Engine.explore ?points ~model ~algorithm scenario in
  if not (Engine.ok report) then begin
    incr failed;
    Format.printf "FAIL %a@." Engine.pp_report report
  end

(* A mutation cell: with the bug armed, the oracle must reject at least
   one crash instant — a clean pass here means the checker is blind. *)
let mutation ?(points = 80) inject scenario model algorithm =
  incr ran;
  let report = Engine.explore ~points ~seed:1 ~inject ~model ~algorithm scenario in
  if Engine.ok report then begin
    incr failed;
    Printf.printf "FAIL %s + %s: oracle missed the armed mutation\n%!"
      (cell_name scenario model algorithm)
      (Ptm.inject_name inject)
  end

let fams_mutation inject granularity model =
  incr ran;
  let scenario = Scenarios.fams_bank () in
  let report = Engine.explore_fams ~points:80 ~seed:1 ~inject ~model ~granularity scenario in
  if Engine.ok report then begin
    incr failed;
    Printf.printf "FAIL %s/%s/%s + %s: oracle missed the armed mutation\n%!"
      scenario.Engine.f_name model.Config.model_name
      (Engine.fams_algorithm_name granularity)
      (Fams.inject_name inject)
  end

let () =
  let t0 = Unix.gettimeofday () in
  if full then begin
    List.iter
      (fun scenario ->
        List.iter
          (fun model ->
            List.iter
              (fun algorithm -> positive scenario model algorithm)
              (algorithms_for model scenario))
          models)
      (Scenarios.all ());
    List.iter
      (fun (inject, scen, model, algorithm) ->
        mutation inject (Scenarios.find scen) model algorithm)
      mutations;
    List.iter
      (fun (inject, granularity, model) -> fams_mutation inject granularity model)
      fams_mutations
  end
  else begin
    List.iter
      (fun (scen, model, algorithm) ->
        positive ~points:40 (Scenarios.find scen) model algorithm)
      fast_cells;
    let inject, scen, model, algorithm = List.hd mutations in
    mutation inject (Scenarios.find scen) model algorithm
  end;
  let elapsed = Unix.gettimeofday () -. t0 in
  let mode = if full then "full" else "fast" in
  if !failed > 0 then begin
    Printf.printf "dlin(%s): %d/%d cell(s) FAILED in %.1fs\n%!" mode !failed !ran elapsed;
    exit 1
  end
  else if elapsed > budget_s then begin
    Printf.printf "dlin(%s): all %d cells passed but %.1fs exceeds the %.0fs budget\n%!" mode
      !ran elapsed budget_s;
    exit 1
  end
  else Printf.printf "dlin(%s): all %d cells passed in %.1fs (budget %.0fs)\n%!" mode !ran elapsed budget_s
