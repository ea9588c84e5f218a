(* crash-audit: seeded crash-point exploration at 256 points on four
   PTM cells plus the FAMS bank cell.  Image reload, Sim.reboot,
   recovery, Pmem.Check and the dlin oracle dominate; each re-run is
   short.  A skip-fence mutation of the bank cell must be caught, so a
   weaker oracle cannot buy speed; it is excluded from the timing. *)

open Common
module Config = Memsim.Config
module Sim = Memsim.Sim
module Ptm = Pstm.Ptm
module Engine = Crashtest.Engine
module Scenarios = Crashtest.Scenarios
module Rng = Repro_util.Rng

type cell = {
  key : string;
  scenario : Engine.scenario;
  model : Config.model;
  algorithm : Ptm.algorithm;
  ops : int;  (** logical operations of the crash-free reference run *)
}

(* Sizes are explicit so the operation count of each reference run is
   known: threads x ops per thread. *)
let cells =
  [
    { key = "bank.adr.redo"; scenario = Scenarios.bank ~threads:4 ~ops:10 (); model = Config.optane_adr;
      algorithm = Ptm.Redo; ops = 40 };
    { key = "btree.adr.undo"; scenario = Scenarios.btree ~threads:4 ~ops:8 (); model = Config.optane_adr;
      algorithm = Ptm.Undo; ops = 32 };
    { key = "kv-batch.eadr.redo"; scenario = Scenarios.kv_batch ~threads:4 ~ops:5 (); model = Config.optane_eadr;
      algorithm = Ptm.Redo; ops = 20 };
    { key = "mod-btree.adr.mod"; scenario = Scenarios.mod_btree ~threads:3 ~ops:8 (); model = Config.optane_adr;
      algorithm = Ptm.Mod; ops = 24 };
  ]

let fams_key = "fams-bank.adr.line"
let fams_ops = 16

(* The FAMS explorer probes every WPQ drain candidate on top of its
   sample; 16 operations and a 64-point sample keep the cell near the
   cost of one PTM cell. *)
let fams_points = 64
let fams_scenario () = Scenarios.fams_bank ~ops:fams_ops ()
let mutation = List.hd cells
let nvm_channels = 4

let config c =
  Config.make ~nvm_channels ~heap_words:c.scenario.Engine.heap_words ~track_media:true c.model

(* The prepared image every probe reloads, made the way the engine
   makes it: format, populate, persist, save. *)
let prepare_image c =
  let sim = Sim.create (config c) in
  let ptm =
    Ptm.create ~algorithm:c.algorithm ~coalesce:c.scenario.Engine.coalesce
      ~max_threads:c.scenario.Engine.threads
      ~log_words_per_thread:c.scenario.Engine.log_words_per_thread (Sim.machine sim)
  in
  c.scenario.Engine.prepare ptm;
  Sim.persist_all sim;
  let path = Filename.temp_file "perfbench" ".img" in
  Sim.save_image sim path;
  path

(* ---------- traced probes, rebuilt from the engine's public steps ---------- *)

let k_probe = Ledger.kind "crashtest.probe"
let k_load = Ledger.kind "crashtest.image_load"
let k_rerun = Ledger.kind "crashtest.rerun"
let k_reboot = Ledger.kind "crashtest.reboot"
let k_check = Ledger.kind "pmem.check"
let k_recover = Ledger.kind "crashtest.recover"
let k_oracle = Ledger.kind "dlin.oracle"
let k_validate = Ledger.kind "crashtest.validate"

let probe_events = ref 0

(* One execution from the image: 1 Sim.load_image, 2 Ptm.recover,
   3 Sim.run ~crash_at, 4 Sim.reboot, 5 Pmem.Check.run, 6 Ptm.recover,
   7 oracle, 8 validate — the verdict the engine would reach. *)
let execute ?inject ?crash_at ?(trace_capacity = 0) c ~seed ~image =
  let sc = c.scenario in
  let sim, ptm =
    Ledger.span k_load (fun () ->
        let sim = Sim.load_image (config c) image in
        (sim, Ptm.recover ~algorithm:c.algorithm ~coalesce:sc.Engine.coalesce ?inject (Sim.machine sim)))
  in
  let tr = if trace_capacity > 0 then Some (Sim.enable_trace ~capacity:trace_capacity sim) else None in
  let inst = sc.Engine.fresh ~seed in
  Ledger.span k_rerun (fun () ->
      for tid = 0 to sc.Engine.threads - 1 do
        ignore (Sim.spawn sim (fun () -> inst.Engine.worker ~tid ptm))
      done;
      Sim.run ?crash_at sim);
  probe_events := !probe_events + sim_events (Sim.Stats.get sim);
  let judge ~crashed sim ptm =
    let o =
      match inst.Engine.oracle with
      | None -> Ok ()
      | Some o -> Ledger.span k_oracle (fun () -> o ~crashed sim ptm) |> Result.map_error (fun e -> e.Engine.fail_reason)
    in
    match o with Error _ as e -> e | Ok () -> Ledger.span k_validate (fun () -> inst.Engine.validate ~crashed sim ptm)
  in
  let clean region = Pmem.Check.is_clean (Ledger.span k_check (fun () -> Pmem.Check.run region)) in
  let verdict =
    if not (Sim.crashed sim) then judge ~crashed:false sim ptm
    else begin
      let sim2 = Ledger.span k_reboot (fun () -> Sim.reboot sim) in
      let m2 = Sim.machine sim2 in
      if not (clean (Pmem.Region.attach m2)) then Error "pre-recovery corruption"
      else
        let ptm2 =
          Ledger.span k_recover (fun () ->
              Ptm.recover ~algorithm:c.algorithm ~coalesce:sc.Engine.coalesce ?inject m2)
        in
        if not (clean (Ptm.region ptm2)) then Error "post-recovery corruption"
        else judge ~crashed:true sim2 ptm2
    end
  in
  (verdict, Sim.now sim, tr)

(* The engine's seeded choice of crash instants. *)
let chosen ~points ~seed candidates =
  if List.length candidates <= points then candidates
  else begin
    let arr = Array.of_list candidates in
    Rng.shuffle (Rng.create (seed lxor 0x5ca1ab1e)) arr;
    Array.to_list (Array.sub arr 0 points) |> List.sort compare
  end

(* Probe the same instants [Engine.explore] probes; return how many
   were probed and the first failing instant, if any. *)
let rebuild ?inject c ~points ~seed ~image =
  let _, final, tr = execute ?inject ~trace_capacity:(1 lsl 17) c ~seed ~image in
  let candidates =
    let traced = match tr with Some tr -> Memsim.Trace.crash_points tr | None -> [] in
    let grid = List.init 64 (fun i -> (i + 1) * final / 65) in
    List.sort_uniq compare (traced @ grid) |> List.filter (fun t -> t > 0 && t <= final)
  in
  let rec go n = function
    | [] -> (n, None)
    | t :: rest -> (
      let v, _, _ = Ledger.span k_probe (fun () -> execute ?inject ~crash_at:t c ~seed ~image) in
      match v with Ok () -> go (n + 1) rest | Error _ -> (n + 1, Some t))
  in
  go 0 (chosen ~points ~seed candidates)

(* ---------- the workload ---------- *)

let run ~quick ~seed ~seconds ~trace =
  let chk = checks () in
  let points = if quick then 24 else 256 in
  let explore ?inject c =
    Engine.explore ~points ~seed ~exhaustive:false ~nvm_channels ?inject ~model:c.model
      ~algorithm:c.algorithm c.scenario
  in
  let explore_fams () =
    Engine.explore_fams ~points:fams_points ~seed ~exhaustive:false ~nvm_channels ~model:Config.optane_adr
      ~granularity:Fams.Line (fams_scenario ())
  in
  (* Set-up: the prepared images, made fifteen times (one making takes
     tens of milliseconds, so a single sample is at the mercy of the
     host). *)
  let images = ref [] in
  let setups =
    List.init 15 (fun _ ->
        List.iter (fun (_, p) -> Sys.remove p) !images;
        snd (timed (fun () -> images := List.map (fun c -> (c.key, prepare_image c)) cells)))
  in
  let setup_s = median setups in
  let budget = budget (if trace then seconds /. 2.0 else seconds) in
  let rounds =
    Common.rounds ~min_rounds:(if trace then 1 else 3) budget (fun _ ->
        let (ptm, fams), w =
          allocating (fun () ->
              let ptm = List.map (fun c -> (c, timed (fun () -> explore c))) cells in
              (ptm, timed explore_fams))
        in
        let caught = explore ~inject:Ptm.Skip_fence mutation in
        (ptm, fams, caught, w.total))
  in
  (* FAMS cells always probe every drain candidate on top of the
     sample, so they may test more than [points]. *)
  let verify_report ?(exact = true) (r : Engine.report) what =
    let want = min (if exact then points else fams_points) r.Engine.candidates in
    check chk (Engine.ok r) (what ^ ": every probed crash point recovers correctly");
    check chk (if exact then r.Engine.tested = want else r.Engine.tested >= want)
      (what ^ ": tested the requested points")
  in
  List.iter
    (fun (ptm, (fr, _), caught, _) ->
      List.iter (fun (c, (r, _)) -> verify_report r c.key) ptm;
      verify_report ~exact:false fr fams_key;
      check chk (caught.Engine.failures <> []) "bank/optane-adr/redo with skip-fence is caught")
    rounds;
  let first_ptm, (first_fams, _), first_caught, first_words = List.hd rounds in
  let probes (ptm, (fr, _), _, _) = sumi (List.map (fun (_, (r, _)) -> r.Engine.tested) ptm) + fr.Engine.tested in
  let ptm_s = medians (List.map (fun (ptm, _, _, _) -> List.map (fun (_, (_, s)) -> s) ptm) rounds) in
  let fams_s = median (List.map (fun (_, (_, s), _, _) -> s) rounds) in
  let work = float_of_int (probes (List.hd rounds)) /. (sum ptm_s +. fams_s) in
  let vops =
    geomean
      (float_of_int fams_ops /. float_of_int first_fams.Engine.final_time *. 1e9
      :: List.map (fun (c, (r, _)) -> float_of_int c.ops /. float_of_int r.Engine.final_time *. 1e9) first_ptm)
  in
  let alloc = first_words /. float_of_int (probes (List.hd rounds)) in
  let e2e = [ m "alloc_words_per_op" "words" alloc; m "virtual_ops_per_s" "1/s" vops ] in
  let layers =
    if not trace then []
    else begin
      (* Traced half: every probe of the PTM cells rebuilt step by step
         at the engine's instants, which must reach the engine's
         verdicts; then the mutation cell up to its first failure. *)
      let rebuilt, traced_s =
        timed (fun () ->
            List.map
              (fun (c, (r, _)) ->
                let n, fail = rebuild c ~points ~seed ~image:(List.assoc c.key !images) in
                check chk (n = r.Engine.tested && fail = None)
                  (c.key ^ ": rebuilt probes reach the engine's verdicts");
                n)
              first_ptm)
      in
      let n, fail = rebuild ~inject:Ptm.Skip_fence mutation ~points ~seed ~image:(List.assoc mutation.key !images) in
      let engine_fail = match first_caught.Engine.failures with f :: _ -> Some f.Engine.crash_at | [] -> None in
      check chk (n = first_caught.Engine.tested && fail = engine_fail)
        "skip-fence: rebuilt probes fail at the engine's instant";
      let rebuilt_probes = sumi rebuilt in
      let untraced_ptm_rate =
        float_of_int (sumi (List.map (fun (_, (r, _)) -> r.Engine.tested) first_ptm)) /. sum ptm_s
      in
      let probes_all = Ledger.count_of "crashtest.probe" in
      let per_probe name = Ledger.total_s name *. 1e3 /. float_of_int (max 1 probes_all) in
      [
        m "host_ops_per_s" "1/s" work;
        m "crashtest.mutation_caught_at" "probes" (float_of_int first_caught.Engine.tested);
        m "crashtest.image_load_ms" "ms" (per_probe "crashtest.image_load");
        m "crashtest.rerun_ms" "ms" (per_probe "crashtest.rerun");
        m "crashtest.reboot_ms" "ms" (per_probe "crashtest.reboot");
        m "pmem.check_ms" "ms" (per_probe "pmem.check");
        m "crashtest.recover_ms" "ms" (per_probe "crashtest.recover");
        m "dlin.oracle_ms" "ms" (per_probe "dlin.oracle");
        m "crashtest.validate_ms" "ms" (per_probe "crashtest.validate");
        m "memsim.events_per_host_s" "1/s" (float_of_int !probe_events /. Ledger.total_s "crashtest.rerun");
        (* The engine prepares each image inside [explore]; the rebuilt
           probes reuse the set-up's, so its cost is added back. *)
        m "telemetry.tracing_overhead" "ratio"
          ((untraced_ptm_rate /. (float_of_int rebuilt_probes /. (traced_s +. setup_s))) -. 1.0);
      ]
      @ List.concat_map
          (fun (key, (r : Engine.report)) ->
            [ m ("crashtest.candidates." ^ key) "count" (float_of_int r.Engine.candidates);
              m ("crashtest.tested." ^ key) "count" (float_of_int r.Engine.tested) ])
          ((fams_key, first_fams) :: List.map (fun (c, (r, _)) -> (c.key, r)) first_ptm)
    end
  in
  List.iter (fun (_, p) -> Sys.remove p) !images;
  (setup_s, sumi (List.map probes rounds), chk, e2e, layers)
