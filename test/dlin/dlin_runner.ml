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

(* One cell per durability domain of interest, spread across scenarios
   so the fast gate still exercises bank's read-pair responses, the
   total-order counters spec and the kvserve exactly-once spec. *)
let fast_cells =
  [
    ("bank", Config.optane_adr, "redo");
    ("counters", Config.transient_cache, "undo");
    ("kv-incr", Config.htm_commit, "htm");
    ("btree", Config.optane_eadr, "redo");
    ("mod-btree", Config.optane_adr, "mod");
  ]

(* The armed ordering bugs, each on a cell where the weakened ordering
   is actually observable (see test/test_crashtest.ml and
   test/test_fams.ml): the five PTM ones, then the two FAMS ones. *)
let mutations =
  [
    ("skip-fence", "bank", Config.optane_adr, "redo");
    ("reorder-log-apply", "counters", Config.optane_adr, "redo");
    ("tear-write", "bank", Config.optane_adr, "undo");
    ("skip-fence", "mod-btree", Config.optane_adr, "mod");
    ("tear-write", "mod-hash", Config.optane_adr, "mod");
    ("skip-publish-fence", "fams-bank", Config.optane_adr, "fams-page");
    ("torn-journal-entry", "fams-bank", Config.optane_adr, "fams-line");
  ]

let failed = ref 0
let ran = ref 0

let subject ?inject scenario algorithm =
  match Scenarios.subject ?inject ~scenario ~algorithm () with
  | Ok s -> s
  | Error msg -> invalid_arg msg

(* A positive cell: the oracle must find a durable linearization at
   every probed crash instant. *)
let positive ?points scenario model algorithm =
  incr ran;
  let report = Engine.explore_subject ?points ~model (subject scenario algorithm) in
  if not (Engine.ok report) then begin
    incr failed;
    Format.printf "FAIL %a@." Engine.pp_report report
  end

(* A mutation cell: with the bug armed, the oracle must reject at least
   one crash instant — a clean pass here means the checker is blind. *)
let mutation (inject, scenario, model, algorithm) =
  incr ran;
  let report =
    Engine.explore_subject ~points:80 ~seed:1 ~model (subject ~inject scenario algorithm)
  in
  if Engine.ok report then begin
    incr failed;
    Printf.printf "FAIL %s/%s/%s + %s: oracle missed the armed mutation\n%!" scenario
      model.Config.model_name algorithm inject
  end

let run () =
  if full then begin
    List.iter
      (fun { Scenarios.scenario; model; algorithm } -> positive scenario model algorithm)
      (Scenarios.ptm_cells ());
    List.iter mutation mutations
  end
  else begin
    List.iter
      (fun (scenario, model, algorithm) -> positive ~points:40 scenario model algorithm)
      fast_cells;
    mutation (List.hd mutations)
  end

let () =
  let t0 = Unix.gettimeofday () in
  (try run ()
   with Invalid_argument msg ->
     Printf.eprintf "dlin: %s\n%!" msg;
     exit 2);
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
