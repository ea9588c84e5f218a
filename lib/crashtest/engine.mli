(** Crash-point exploration: systematic durable-linearizability
    checking of a crash-consistency API.

    The engine turns the simulator's determinism into a correctness
    oracle.  What a matrix cell exercises is one {!Subject.t}: a
    scenario driven through one crash-consistency API — a PTM
    algorithm ({!Subject.ptm}) or failure-atomic msync
    ({!Subject.fams}).  For a subject, a durability model and a seed
    the engine

    + populates a fresh machine once (untimed) and saves the image
      every execution of the cell reloads;
    + runs the workload once to completion, recording the final virtual
      time and an event trace;
    + enumerates candidate crash instants from the trace (just before
      and just after every store, clwb, sfence and publish — the only
      places persistent state can change) plus a uniform grid, and —
      when the subject says WPQ drains matter ([drains]) — instants
      inside the write-pending-queue drain windows;
    + chooses a seeded sample of those instants and probes them all in
      {e one} more run of the identical workload: the scheduler pauses
      at every chosen instant (the stop contract of
      {!Memsim.Sched.run}), where the machine holds exactly the state a
      power failure there would find.  At each pause the probe
      [Sim.reboot ~at]s the paused machine's durable image as of that
      instant, checks region integrity with {!Pmem.Check.run} both
      before and after the subject's recovery, and judges the
      recovered state with the scenario's one oracle — against the
      paused instance, whose operation history is the one a crash at
      that instant leaves.  Then the run resumes.  Instants after the
      last event get the crash-free verdict;
    + on the first failure, ends the pass, shrinks to a smaller
      failing crash time by re-running the workload with
      [Sim.run ~crash_at] (the re-run path, also behind {!rerun}),
      dumps failure telemetry, and reports a one-command replay line
      [scenario:model:algorithm:seed:crash_at[:inject]] — one grammar
      for every API ({!parse_replay}; [Scenarios.subject] maps its
      names back to a subject).

    Sampling is driven by a seeded RNG, so every run — including which
    crash points were probed — is reproducible from the printed seed.

    Environment knobs (read by the explorers when the corresponding
    argument is omitted):
    - [CRASHTEST_EXHAUSTIVE] — [1], [true] or [yes] probes {e every}
      candidate instant instead of a sample; unset, empty, [0],
      [false] or [no] samples;
    - [CRASHTEST_POINTS=n] — sample size per cell (default 64);
    - [CRASHTEST_SEED=n] — base RNG seed (default 1).

    Any other [CRASHTEST_EXHAUSTIVE] value, a sample size that is not a
    positive integer, or a seed that is not an integer raises
    [Invalid_argument] — from the variables and from [?points] alike —
    instead of running a cell nobody asked for. *)

(** A failed check.  [counterexample], when present, is a replayable
    JSONL dump (see {!Dlin.counterexample}) written as [dlin.jsonl] into
    the failure's telemetry directory. *)
type oracle_failure = { fail_reason : string; counterexample : string option }

(** One run of a scenario over a crash-consistency API ['api]
    ({!Pstm.Ptm.t} or {!Fams.t}): the workers, which record every
    logical operation in a {!Dlin.History}, and the one verdict on
    them.

    [oracle] runs while the workload is paused and must not mutate the
    instance's state (the operation history): the run resumes after
    it, and later probes judge the same instance.  It may freely use
    the recovered machine it is given. *)
type 'api instance = {
  worker : tid:int -> 'api -> unit;
      (** body of simulated thread [tid] (FAMS runs only thread 0); it
          reads its virtual clock from the API's machine *)
  oracle : (crashed:bool -> Memsim.Sim.t -> 'api -> (unit, oracle_failure) result) option;
      (** the verdict, called untimed on the recovered (or cleanly
          finished) machine: extracts the abstract state — rejecting
          data no abstract state can hold — and replays the recorded
          operation history against it (see {!Dlin}), strictly when
          [crashed] is false.  Every scenario supplies [Some]; the
          engine refuses [None] with [Invalid_argument]. *)
  validate : crashed:bool -> Memsim.Sim.t -> 'api -> (unit, string) result;
      (** always {!no_validate}: the engine never calls it *)
}

val no_validate : crashed:bool -> Memsim.Sim.t -> 'api -> (unit, string) result
(** [Ok ()].  Kept so readers built against the field (the perfbench
    harness rebuilds probes from it) still compile; {!instance.oracle}
    is the whole verdict. *)

type scenario = {
  name : string;
  threads : int;
  heap_words : int;
  log_words_per_thread : int;
  coalesce : bool;
      (** run the PTM with flush coalescing (the default commit path) or
          the naive per-entry flush/fence discipline — both are probed
          by the crash sweep *)
  prepare : Pstm.Ptm.t -> unit;
      (** untimed population phase, run once on a fresh region; must
          store any addresses the workers need in region roots *)
  fresh : seed:int -> Pstm.Ptm.t instance;
      (** new instance with an empty history; equal seeds must yield
          identical workloads (the reference run, the probing pass and
          every re-run each get a fresh instance) *)
}

(** A FAMS scenario: the API's own set-up for a single mutator
    (FAMS is single-writer). *)

type fams_scenario = {
  f_name : string;
  f_words : int;  (** working-area size *)
  f_prepare : Fams.t -> unit;
      (** raw (untimed) population of the working area; the engine
          checkpoints afterwards, so the prepared image starts fully
          synced *)
  f_fresh : seed:int -> Fams.t instance;
}

type failure = {
  crash_at : int;  (** the sampled instant that first failed *)
  min_crash_at : int;  (** smallest failing instant found by shrinking *)
  reason : string;
  replay : string;  (** one shell command reproducing [min_crash_at] *)
  telemetry_dir : string option;
      (** directory holding a full telemetry capture of the minimal
          failing re-run — phase profile, machine trace (Perfetto), a
          profile of the post-crash recovery, and (for dlin-oracle
          failures) the [dlin.jsonl] counterexample — or [None] if the
          dump could not be written *)
}

type report = {
  scenario : string;
  model : string;
  algorithm : string;
  seed : int;
  final_time : int;  (** virtual ns of the crash-free reference run *)
  candidates : int;  (** distinct candidate crash instants enumerated *)
  tested : int;  (** instants actually probed *)
  failures : failure list;  (** empty when the oracle found no violation *)
}

val ok : report -> bool
(** No failures. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Subjects} *)

module Subject : sig
  (** A workload started on a loaded machine, not yet run. *)
  type started = {
    clean : unit -> (unit, oracle_failure) result;
        (** the instance judged on the finished, un-crashed machine *)
    recover :
      Memsim.Sim.t ->
      (Pmem.Region.t * (unit -> (unit, oracle_failure) result), oracle_failure) result;
        (** attach the API to a rebooted machine: the recovered region
            (checked for integrity by the engine) and the instance's
            verdict on it, or the API's rejection of the image *)
    telemetry : Telemetry.Export.run_meta -> (string * string) list;
        (** failure-telemetry files (name, contents) of a run started
            with [~telemetry:true]; [[]] otherwise *)
  }

  (** Which crash-consistency API a cell exercises, and on what. *)
  type t = {
    scenario : string;  (** the report's and replay line's scenario column *)
    algorithm : string;  (** the algorithm column, which names the API *)
    inject : string option;  (** the armed bug's name, if any *)
    threads : int;  (** workers the API runs (telemetry metadata) *)
    heap_words : int;  (** simulated heap size *)
    populate : Memsim.Sim.t -> unit;
        (** untimed populate-and-checkpoint on a fresh machine; the
            engine persists and saves the result as the cell's image *)
    start : seed:int -> telemetry:bool -> Memsim.Sim.t -> started;
        (** attach the API to a machine loaded from the image and spawn
            its workers; [telemetry] attaches the failure-telemetry
            capture *)
    drains : bool;  (** WPQ drain-window instants join the candidates *)
  }

  val ptm : ?inject:Pstm.Ptm.inject -> algorithm:Pstm.Ptm.algorithm -> scenario -> t
  (** A PTM scenario under [algorithm]: a thread team over
      {!Pstm.Ptm}, recovered by {!Pstm.Ptm.recover}.  Failure telemetry
      is {!Telemetry.files} plus [recovery.jsonl], a profile of the
      post-crash recovery.  [inject] arms a deliberate PTM ordering bug
      for mutation-testing the oracles; the image is always populated
      without injection. *)

  val fams : ?inject:Fams.inject -> granularity:Fams.granularity -> fams_scenario -> t
  (** A FAMS scenario: a single mutator over {!Fams}, recovered by
      {!Fams.recover} (an image it rejects fails the probe), with WPQ
      drain-window instants among the candidates and the granularity
      series (["fams-line"] / ["fams-page"]) in the algorithm column.
      Failure telemetry is [profile.jsonl] and [trace.json]. *)
end

val fams_algorithm_name : Fams.granularity -> string
(** ["fams-line"] / ["fams-page"] — the FAMS algorithm column. *)

val explore_subject :
  ?points:int ->
  ?seed:int ->
  ?exhaustive:bool ->
  ?shrink_budget:int ->
  ?nvm_channels:int ->
  model:Memsim.Config.model ->
  Subject.t ->
  report
(** Run the full exploration for one matrix cell.  Interleaved
    [nvm_channels] default to 4 so WPQ completions can reorder relative
    to issue order — the hazard window missing fences open.
    @raise Invalid_argument on a bad sample size or seed (see above).
    @raise Failure if the crash-free reference run already violates the
    scenario's model (harness bug, not a crash-consistency bug — the
    injected bugs weaken durability only, never the cache-visible
    heap). *)

val rerun :
  ?nvm_channels:int ->
  model:Memsim.Config.model ->
  seed:int ->
  crash_at:int ->
  Subject.t ->
  (unit, string) result
(** Probe a single crash instant by re-running the workload with
    [Sim.run ~crash_at] — the replay path for a failure printed by
    {!explore_subject}, and the oracle its single pass is tested
    against. *)

val parse_replay : string -> (string * string * string * int * int * string option) option
(** Parse a ["scenario:model:algorithm:seed:crash_at[:inject]"] replay
    spec (the payload of the [CRASHTEST_REPLAY] variable) into
    [(scenario, model, algorithm, seed, crash_at, inject)].  A
    non-integer seed, a [crash_at] that is not a positive integer, or
    a wrong field count fails the parse; the names are resolved by
    [Scenarios.subject], which rejects unknown names and an inject of
    the other API. *)

val choose_instants :
  ?drain:Memsim.Config.t ->
  points:int ->
  seed:int ->
  exhaustive:bool ->
  final_time:int ->
  Memsim.Trace.t ->
  int * int list
(** The explorer's crash-instant choice, from the trace of the
    crash-free reference run that ended at [final_time]: the number of
    candidates (every {!Memsim.Trace.crash_points} instant plus a
    64-point grid, within [(0, final_time\]]) and the chosen instants,
    sorted — all candidates when [exhaustive] or when there are at
    most [points], otherwise a sample of [points] seeded by [seed].
    [drain] adds the WPQ drain-window instants of that machine
    configuration, all of them chosen (passed for subjects with
    [drains]).
    @raise Invalid_argument when [points] is not positive. *)

(** {1 Per-API entry points} *)

val explore :
  ?points:int ->
  ?seed:int ->
  ?exhaustive:bool ->
  ?shrink_budget:int ->
  ?nvm_channels:int ->
  ?inject:Pstm.Ptm.inject ->
  model:Memsim.Config.model ->
  algorithm:Pstm.Ptm.algorithm ->
  scenario ->
  report
(** {!explore_subject} on [Subject.ptm ?inject ~algorithm scenario]. *)

val explore_fams :
  ?points:int ->
  ?seed:int ->
  ?exhaustive:bool ->
  ?shrink_budget:int ->
  ?nvm_channels:int ->
  ?inject:Fams.inject ->
  model:Memsim.Config.model ->
  granularity:Fams.granularity ->
  fams_scenario ->
  report
(** {!explore_subject} on [Subject.fams ?inject ~granularity scenario]. *)

val recovery_convergence :
  ?nvm_channels:int ->
  ?budgets:int list ->
  model:Memsim.Config.model ->
  algorithm:Pstm.Ptm.algorithm ->
  seed:int ->
  crash_at:int ->
  scenario ->
  (unit, string) result
(** Recover-idempotence oracle for a PTM scenario: crash the workload at
    [crash_at], then inject a {e second} crash inside recovery itself —
    after [k] persistent writes, for each sampled budget [k] (default:
    up to 8 seeded samples of the reference recovery's write count) —
    recover again, and require the final heap image to be word-for-word
    identical to an uninterrupted recovery's, and the scenario's oracle
    to accept it.  [Ok ()] when the workload ran to completion before
    [crash_at]. *)
