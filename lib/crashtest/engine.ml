module Config = Memsim.Config
module Sim = Memsim.Sim
module Trace = Memsim.Trace
module Ptm = Pstm.Ptm
module Rng = Repro_util.Rng

(* A failed check, with an optional replayable counterexample dump
   (JSONL, written as dlin.jsonl next to the other telemetry). *)
type oracle_failure = { fail_reason : string; counterexample : string option }

type 'api instance = {
  worker : tid:int -> 'api -> unit;
  oracle : (crashed:bool -> Sim.t -> 'api -> (unit, oracle_failure) result) option;
  validate : crashed:bool -> Sim.t -> 'api -> (unit, string) result;
}

(* The whole verdict is [oracle]; the field stays for readers built
   against it, and the engine never calls it. *)
let no_validate ~crashed:_ _ _ = Ok ()

type scenario = {
  name : string;
  threads : int;
  heap_words : int;
  log_words_per_thread : int;
  coalesce : bool;
  prepare : Ptm.t -> unit;
  fresh : seed:int -> Ptm.t instance;
}

type fams_scenario = {
  f_name : string;
  f_words : int;
  f_prepare : Fams.t -> unit;
  f_fresh : seed:int -> Fams.t instance;
}

type failure = {
  crash_at : int;
  min_crash_at : int;
  reason : string;
  replay : string;
  telemetry_dir : string option;
}

type report = {
  scenario : string;
  model : string;
  algorithm : string;
  seed : int;
  final_time : int;
  candidates : int;
  tested : int;
  failures : failure list;
}

let ok r = r.failures = []

let pp_report ppf r =
  Format.fprintf ppf "crashtest %s/%s/%s seed=%d: %d/%d points (T=%dns)" r.scenario r.model
    r.algorithm r.seed r.tested r.candidates r.final_time;
  match r.failures with
  | [] -> Format.fprintf ppf " all pass"
  | fs ->
    List.iter
      (fun f ->
        Format.fprintf ppf "@.  FAIL at %dns (min %dns): %s@.  replay: %s" f.crash_at
          f.min_crash_at f.reason f.replay;
        match f.telemetry_dir with
        | Some dir -> Format.fprintf ppf "@.  telemetry: %s" dir
        | None -> ())
      fs

(* ---------- env knobs ---------- *)

(* An unset or blank variable takes the default; anything else must be
   an integer, or the cell is refused rather than run on a setting
   nobody asked for. *)
let getenv_int name default =
  match Option.map String.trim (Sys.getenv_opt name) with
  | None | Some "" -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "%s=%S: not an integer" name s))

let exhaustive_from_env () =
  match Option.map String.trim (Sys.getenv_opt "CRASHTEST_EXHAUSTIVE") with
  | None | Some ("" | "0" | "false" | "no") -> false
  | Some ("1" | "true" | "yes") -> true
  | Some s -> invalid_arg (Printf.sprintf "CRASHTEST_EXHAUSTIVE=%S: not a boolean" s)

let check_points points =
  if points <= 0 then
    invalid_arg
      (Printf.sprintf "crash sample size %d (points, CRASHTEST_POINTS): not positive" points)

let knobs ?points ?seed ?exhaustive () =
  let points = match points with Some p -> p | None -> getenv_int "CRASHTEST_POINTS" 64 in
  check_points points;
  ( points,
    (match seed with Some s -> s | None -> getenv_int "CRASHTEST_SEED" 1),
    match exhaustive with Some b -> b | None -> exhaustive_from_env () )

(* ---------- verdicts ---------- *)

let integrity stage region =
  let report = Pmem.Check.run region in
  if Pmem.Check.is_clean report then Ok ()
  else
    Error
      {
        fail_reason = Format.asprintf "%s corruption:@ %a" stage Pmem.Check.pp report;
        counterexample = None;
      }

(* On an oracle failure, the minimal failing instant is re-run with the
   phase profiler and machine trace attached, and the artifacts are
   dumped next to the replay line.  The series sampler stays off: a
   monitor thread would shift the interleaving away from the probe that
   failed, while profiler + trace are purely observational. *)
let failure_telemetry_config =
  {
    Telemetry.default_config with
    Telemetry.sample_interval_ns = 0;
    machine_trace_capacity = 1 lsl 14;
  }

(* ---------- the subject: which crash-consistency API a cell exercises ---------- *)

let fams_algorithm_name granularity = "fams-" ^ Fams.granularity_name granularity

module Subject = struct
  type started = {
    clean : unit -> (unit, oracle_failure) result;
    recover :
      Sim.t -> (Pmem.Region.t * (unit -> (unit, oracle_failure) result), oracle_failure) result;
    telemetry : Telemetry.Export.run_meta -> (string * string) list;
  }

  type t = {
    scenario : string;
    algorithm : string;
    inject : string option;
    threads : int;
    heap_words : int;
    populate : Sim.t -> unit;
    start : seed:int -> telemetry:bool -> Sim.t -> started;
    drains : bool;
  }

  (* Spawn a fresh instance's workers on the API attached to [sim], and
     judge it with its oracle on the finished machine or on any reboot
     [recover] attaches the API to; an image recovery rejects fails the
     probe. *)
  let start_instance (inst : _ instance) ~threads ~region ~recover ~telemetry sim api =
    let oracle =
      match inst.oracle with
      | Some o -> o
      | None -> invalid_arg "Crashtest.Engine: a scenario instance must supply an oracle"
    in
    for tid = 0 to threads - 1 do
      ignore (Sim.spawn sim (fun () -> inst.worker ~tid api))
    done;
    {
      clean = (fun () -> oracle ~crashed:false sim api);
      recover =
        (fun sim2 ->
          match recover sim2 with
          | x -> Ok (region x, fun () -> oracle ~crashed:true sim2 x)
          | exception Machine.Corrupt_image msg ->
            Error { fail_reason = "recovery rejected the image: " ^ msg; counterexample = None });
      telemetry;
    }

  let ptm ?inject ~algorithm (sc : scenario) =
    let recover m = Ptm.recover ~algorithm ~coalesce:sc.coalesce ?inject m in
    let start ~seed ~telemetry sim =
      let ptm = recover (Sim.machine sim) in
      let capture =
        if telemetry then Some (Telemetry.attach ~config:failure_telemetry_config sim ptm)
        else None
      in
      let telemetry meta =
        match capture with
        | None -> []
        | Some cap ->
          (* Profile the post-crash recovery on the rebooted machine
             too, so the dump also shows what log replay did. *)
          let recovery () =
            let m2 = Sim.machine (Sim.reboot sim) in
            let profiler = Pstm.Profile.create m2 in
            ignore (Ptm.recover ~algorithm ~coalesce:sc.coalesce ~profiler m2 : Ptm.t);
            ("recovery.jsonl", Telemetry.Export.profile_jsonl meta profiler)
          in
          Telemetry.files meta cap @ if Sim.crashed sim then [ recovery () ] else []
      in
      start_instance (sc.fresh ~seed) ~threads:sc.threads ~region:Ptm.region
        ~recover:(fun sim2 -> recover (Sim.machine sim2))
        ~telemetry sim ptm
    in
    {
      scenario = sc.name;
      algorithm = Ptm.algorithm_name algorithm;
      inject = Option.map Ptm.inject_name inject;
      threads = sc.threads;
      heap_words = sc.heap_words;
      populate =
        (fun sim ->
          sc.prepare
            (Ptm.create ~algorithm ~coalesce:sc.coalesce ~max_threads:sc.threads
               ~log_words_per_thread:sc.log_words_per_thread (Sim.machine sim)));
      start;
      drains = false;
    }

  (* [Telemetry.attach] is PTM-shaped, so a FAMS capture is the phase
     profiler (sweep / publish / apply spans) plus the machine trace,
     exported directly. *)
  let fams ?inject ~granularity (sc : fams_scenario) =
    let start ~seed ~telemetry sim =
      let profiler =
        if telemetry then
          Some
            (Pstm.Profile.create
               ~wpq_stall_probe:(fun tid -> Sim.wpq_stall_ns_of sim ~tid)
               (Sim.machine sim))
        else None
      in
      let fams = Fams.recover ?inject ?profiler sim in
      let trace =
        if telemetry then
          Some
            (Sim.enable_trace ~capacity:failure_telemetry_config.Telemetry.machine_trace_capacity
               sim)
        else None
      in
      let telemetry meta =
        match profiler with
        | None -> []
        | Some p ->
          [
            ("profile.jsonl", Telemetry.Export.profile_jsonl meta p);
            ("trace.json", Telemetry.Export.chrome_trace ?machine_trace:trace meta p);
          ]
      in
      start_instance (sc.f_fresh ~seed) ~threads:1 ~region:Fams.region
        ~recover:(Fams.recover ?inject) ~telemetry sim fams
    in
    {
      scenario = sc.f_name;
      algorithm = fams_algorithm_name granularity;
      inject = Option.map Fams.inject_name inject;
      threads = 1;
      heap_words = Fams.required_heap_words ~words:sc.f_words;
      populate =
        (fun sim ->
          let fams = Fams.create ~granularity ~words:sc.f_words sim in
          sc.f_prepare fams;
          Fams.checkpoint_raw fams);
      start;
      drains = true;
    }
end

(* ---------- one execution ---------- *)

(* Format the region once, run the population phase, and persist the
   result to an image file so every execution of the cell reloads
   identical initial state instead of re-running [populate]. *)
let with_prepared_image ~nvm_channels ~model (s : Subject.t) f =
  let cfg = Config.make ~nvm_channels ~heap_words:s.heap_words ~track_media:true model in
  let sim = Sim.create cfg in
  s.populate sim;
  Sim.persist_all sim;
  let image = Filename.temp_file "crashtest" ".img" in
  Sim.save_image sim image;
  Fun.protect
    ~finally:(fun () -> try Sys.remove image with Sys_error _ -> ())
    (fun () -> f cfg image)

(* A workload started on a machine loaded from the prepared image, not
   yet run. *)
type armed = { sim : Sim.t; trace : Trace.t option; run : Subject.started }

let load ?(trace_capacity = 0) ?(telemetry = false) cfg (s : Subject.t) ~seed ~image =
  let sim = Sim.load_image cfg image in
  let run = s.start ~seed ~telemetry sim in
  let trace =
    if trace_capacity > 0 then Some (Sim.enable_trace ~capacity:trace_capacity sim) else None
  in
  { sim; trace; run }

(* The machine a power failure leaves — at [at] when the run is paused
   there — checked, recovered, checked again and judged.  A crash must
   never corrupt region metadata, only leave in-flight logs / leaked
   arenas behind, so integrity is checked on the raw reboot as well as
   after recovery. *)
let crash a ~at =
  let sim2 = Sim.reboot ?at a.sim in
  let ( let* ) = Result.bind in
  let* () = integrity "pre-recovery" (Pmem.Region.attach (Sim.machine sim2)) in
  let* region, verdict = a.run.recover sim2 in
  let* () = integrity "post-recovery" region in
  verdict ()

(* The re-run path: run an armed instance to the end, or crash it at
   [crash_at], and judge it.  Shrinking, replay and failure telemetry
   use it; exploration probes in one pass instead (see [probe_all]).
   Returns the verdict, the final virtual time and the trace. *)
let run_armed ?crash_at a =
  Sim.run ?crash_at a.sim;
  let verdict = if Sim.crashed a.sim then crash a ~at:None else a.run.clean () in
  (verdict, Sim.now a.sim, a.trace)

(* [extra] are files the probe's verdict adds (the dlin counterexample). *)
let dump_failure_telemetry cfg (s : Subject.t) ~model ~seed ~image ~crash_at ~extra =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crashtest-%s-%s-%s-s%d-t%d%s" s.scenario model.Config.model_name
         s.algorithm seed crash_at
         (match s.inject with None -> "" | Some i -> "-" ^ i))
  in
  let a = load ~telemetry:true cfg s ~seed ~image in
  Sim.run ~crash_at a.sim;
  let meta =
    {
      Telemetry.Export.workload = s.scenario;
      model = model.Config.model_name;
      algorithm = s.algorithm;
      threads = s.threads;
      seed;
      duration_ns = crash_at;
    }
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  List.iter
    (fun (name, body) ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc body))
    (a.run.telemetry meta @ extra);
  dir

(* ---------- exploration ---------- *)

let replay_command (s : Subject.t) ~model ~seed crash_at =
  Printf.sprintf "CRASHTEST_REPLAY='%s:%s:%s:%d:%d%s' dune build @crashtest" s.scenario
    model.Config.model_name s.algorithm seed crash_at
    (match s.inject with None -> "" | Some i -> ":" ^ i)

(* WPQ drains happen inside a mutator's quiet intervals — fence waits,
   a coalesced clwb batch paying its issue slots, admission stalls —
   and the trace records no events there.  Those intervals are exactly
   where unfenced write-backs lose races, so span every gap wider than
   a microsecond with evenly spaced interior probes. *)
let drain_instants cfg tr =
  let service = cfg.Config.lat.Config.nvm_wpq_service_ns in
  let channels = max 1 cfg.Config.nvm_channels in
  let rec walk acc run = function
    | a :: (b :: _ as rest) ->
      let run = match a.Trace.kind with Trace.Clwb _ -> run + 1 | _ -> 0 in
      let t0 = a.Trace.at_ns and t1 = b.Trace.at_ns in
      let acc =
        if t1 - t0 > 1024 then begin
          let even = List.init 16 (fun k -> t0 + ((k + 1) * (t1 - t0) / 17)) in
          (* A batch of [run] clwbs drains within about run/channels
             service slots of its issue instant; the loss window sits
             at the head of the gap, so walk the completion boundaries
             densely. *)
          let head =
            if run = 0 then []
            else
              let slots = min (((run + channels - 1) / channels) + channels) 64 in
              List.init slots (fun j -> t0 + ((j + 1) * service))
          in
          head @ even @ acc
        end
        else acc
      in
      walk acc run rest
    | _ -> acc
  in
  walk [] 0 (Trace.tail tr)

let choose_instants ?drain ~points ~seed ~exhaustive ~final_time tr =
  check_points points;
  let keep l = List.sort_uniq compare l |> List.filter (fun t -> t > 0 && t <= final_time) in
  let drained = match drain with None -> [] | Some cfg -> keep (drain_instants cfg tr) in
  let grid = List.init 64 (fun i -> (i + 1) * final_time / 65) in
  let candidates = keep (Trace.crash_points tr @ drained @ grid) in
  let chosen =
    if exhaustive || List.length candidates <= points then candidates
    else begin
      (* Drain-window instants are a few hundred among tens of
         thousands of issue instants, but they are where ordering bugs
         bite: probe every one, and sample only the bulk. *)
      let arr = Array.of_list candidates in
      Rng.shuffle (Rng.create (seed lxor 0x5ca1ab1e)) arr;
      List.sort_uniq compare (drained @ Array.to_list (Array.sub arr 0 points))
    end
  in
  (List.length candidates, chosen)

(* Probe every instant of [stops] (sorted, distinct) in one run of [a]:
   the scheduler pauses at each, and the probe judges the durable image
   of the paused machine as of that instant — exactly what a run
   crashed there is judged on.  The first failure ends the run as a
   crash.  Stops the run never reaches (every thread finished earlier)
   share the crash-free verdict, computed once.  Returns how many
   instants were probed and the first failing one. *)
let probe_all a stops =
  let tested = ref 0 and failed = ref None in
  let on_stop t =
    incr tested;
    match crash a ~at:(Some t) with
    | Ok () -> true
    | Error f ->
      failed := Some (t, f);
      false
  in
  Sim.run ~stops ~on_stop a.sim;
  (if Option.is_none !failed && !tested < Array.length stops then
     match a.run.clean () with
     | Ok () -> tested := Array.length stops
     | Error f ->
       failed := Some (stops.(!tested), f);
       incr tested);
  (!tested, !failed)

(* Greedy shrink: repeatedly probe a few instants below the current
   minimum; stop when none of them fails or the budget runs out.
   Failure is not monotone in time, so this finds a small — not
   necessarily the global-minimum — failing instant. *)
let shrink ~probe ~budget t0 =
  let best = ref t0 in
  let spent = ref 0 in
  let improved = ref true in
  while !improved && !spent < budget do
    improved := false;
    let cur = !best in
    let tries =
      List.sort_uniq compare [ cur / 4; cur / 2; 3 * cur / 4; cur - 1 ]
      |> List.filter (fun c -> c > 0 && c < cur)
    in
    try
      List.iter
        (fun c ->
          if !spent >= budget then raise Exit;
          incr spent;
          match probe c with
          | Error _ ->
            best := c;
            improved := true;
            raise Exit
          | Ok () -> ())
        tries
    with Exit -> ()
  done;
  !best

let explore_subject ?points ?seed ?exhaustive ?(shrink_budget = 24) ?(nvm_channels = 4) ~model
    (s : Subject.t) =
  let points, seed, exhaustive = knobs ?points ?seed ?exhaustive () in
  with_prepared_image ~nvm_channels ~model s (fun cfg image ->
      (* Crash-free reference run, traced: yields the final time and
         the interesting instants, and sanity-checks the oracle.  The
         injected ordering bugs only weaken durability, never the
         cache-visible heap, so the reference must pass even under
         injection. *)
      let verdict, final_time, tr =
        run_armed (load ~trace_capacity:(1 lsl 17) cfg s ~seed ~image)
      in
      (match verdict with
      | Ok () -> ()
      | Error e ->
        failwith
          (Printf.sprintf "crashtest %s/%s: reference run violates the model (harness bug): %s"
             s.scenario model.Config.model_name e.fail_reason));
      let drain = if s.drains then Some cfg else None in
      let candidates, chosen =
        choose_instants ?drain ~points ~seed ~exhaustive ~final_time (Option.get tr)
      in
      let tested, first = probe_all (load cfg s ~seed ~image) (Array.of_list chosen) in
      let failures =
        match first with
        | None -> []
        | Some (t, first_fail) ->
          let probe c =
            let v, _, _ = run_armed ~crash_at:c (load cfg s ~seed ~image) in
            v
          in
          let min_t = shrink ~probe ~budget:shrink_budget t in
          let fail = match probe min_t with Error f -> f | Ok () -> first_fail in
          (* The dlin counterexample rides the same telemetry path as
             the other failure artifacts: one JSONL next to the replay
             line. *)
          let extra =
            match fail.counterexample with None -> [] | Some jsonl -> [ ("dlin.jsonl", jsonl) ]
          in
          let telemetry_dir =
            try Some (dump_failure_telemetry cfg s ~model ~seed ~image ~crash_at:min_t ~extra)
            with Sys_error _ -> None
          in
          [
            {
              crash_at = t;
              min_crash_at = min_t;
              reason = fail.fail_reason;
              replay = replay_command s ~model ~seed min_t;
              telemetry_dir;
            };
          ]
      in
      { scenario = s.scenario; model = model.Config.model_name; algorithm = s.algorithm; seed;
        final_time; candidates; tested; failures })

let rerun ?(nvm_channels = 4) ~model ~seed ~crash_at s =
  with_prepared_image ~nvm_channels ~model s (fun cfg image ->
      let v, _, _ = run_armed ~crash_at (load cfg s ~seed ~image) in
      Result.map_error (fun f -> f.fail_reason) v)

let explore ?points ?seed ?exhaustive ?shrink_budget ?nvm_channels ?inject ~model ~algorithm
    scenario =
  explore_subject ?points ?seed ?exhaustive ?shrink_budget ?nvm_channels ~model
    (Subject.ptm ?inject ~algorithm scenario)

let explore_fams ?points ?seed ?exhaustive ?shrink_budget ?nvm_channels ?inject ~model
    ~granularity scenario =
  explore_subject ?points ?seed ?exhaustive ?shrink_budget ?nvm_channels ~model
    (Subject.fams ?inject ~granularity scenario)

(* ---------- crash-during-recovery ---------- *)

let heap_snapshot m words = Array.init words (fun i -> m.Machine.raw_read i)

let recovery_convergence ?(nvm_channels = 4) ?budgets ~model ~algorithm ~seed ~crash_at
    scenario =
  let s = Subject.ptm ~algorithm scenario in
  with_prepared_image ~nvm_channels ~model s (fun cfg image ->
      let a = load cfg s ~seed ~image in
      let sim = a.sim in
      Sim.run ~crash_at sim;
      if not (Sim.crashed sim) then Ok ()
      else begin
        (* Reference: uninterrupted recovery — count its persistent
           writes and keep the resulting heap image. *)
        let sim_a = Sim.reboot sim in
        let m_a = Sim.machine sim_a in
        let writes = ref 0 in
        let counting =
          {
            m_a with
            Machine.raw_write =
              (fun addr v ->
                incr writes;
                m_a.Machine.raw_write addr v);
          }
        in
        ignore (Ptm.recover ~algorithm ~coalesce:scenario.coalesce counting : Ptm.t);
        let heap_a = heap_snapshot m_a cfg.Config.heap_words in
        let total = !writes in
        let budgets =
          match budgets with
          | Some b -> List.filter (fun k -> k >= 0 && k < total) b
          | None ->
            if total = 0 then []
            else begin
              let rng = Rng.create (seed lxor 0x0c0ffee) in
              List.init (min 8 total) (fun _ -> Rng.int rng total) |> List.sort_uniq compare
            end
        in
        let check_budget k =
          (* A fresh reboot of the same crash, recovery interrupted
             after [k] persistent writes, then recovered for real. *)
          let sim_b = Sim.reboot sim in
          let m_b = Sim.machine sim_b in
          let left = ref k in
          let wrapped =
            {
              m_b with
              Machine.raw_write =
                (fun addr v ->
                  if !left = 0 then raise Machine.Crashed;
                  decr left;
                  m_b.Machine.raw_write addr v);
            }
          in
          (match Ptm.recover ~algorithm ~coalesce:scenario.coalesce wrapped with
          | (_ : Ptm.t) -> ()
          | exception Machine.Crashed -> ());
          let violated e =
            Error
              (Printf.sprintf "model violated after re-recovery (budget %d/%d): %s" k total
                 e.fail_reason)
          in
          match a.run.recover sim_b with
          | Error e -> violated e
          | Ok (_, verdict) ->
            if heap_snapshot m_b cfg.Config.heap_words <> heap_a then
              Error
                (Printf.sprintf
                   "recovery not idempotent: heap diverges after a crash %d/%d writes into \
                    recovery (crash_at=%d seed=%d)"
                   k total crash_at seed)
            else Result.fold ~ok:Result.ok ~error:violated (verdict ())
        in
        List.fold_left
          (fun acc k -> match acc with Error _ -> acc | Ok () -> check_budget k)
          (Ok ()) budgets
      end)

(* ---------- replay lines ---------- *)

(* [scenario:model:algorithm:seed:crash_at[:inject]].  The explorer
   never prints an instant <= 0 (candidates and shrink steps are all
   positive), so such a line is malformed, not a clean replay. *)
let parse_replay spec =
  let fields scen model alg seed crash_at inject =
    match (int_of_string_opt seed, int_of_string_opt crash_at) with
    | Some seed, Some crash_at when crash_at > 0 -> Some (scen, model, alg, seed, crash_at, inject)
    | _ -> None
  in
  match String.split_on_char ':' (String.trim spec) with
  | [ scen; model; alg; seed; crash_at ] -> fields scen model alg seed crash_at None
  | [ scen; model; alg; seed; crash_at; inject ] ->
    fields scen model alg seed crash_at (Some inject)
  | _ -> None
