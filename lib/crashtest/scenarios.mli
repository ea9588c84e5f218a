(** Ready-made crash-test scenarios, each judged by one oracle.

    The oracle is a durable-linearizability check ({!Dlin}): each
    worker wraps every logical operation in [Dlin.History.run] against
    the machine's virtual clock, and after recovery the instance's
    [oracle] extracts the recovered abstract state — rejecting data no
    abstract state can hold — and searches for a legal durable
    linearization explaining it.  A run that did not crash is judged
    strictly, so it must retain every operation.  A failure carries a
    replayable JSONL counterexample (the recorded history plus the
    recovered state), written as [dlin.jsonl] into the failure
    telemetry directory.  What each abstract state and extraction
    covers:

    - {!bank}: balances plus per-thread operation-sequence cells — a
      committed transfer that vanishes, or an in-flight one that
      half-appears, is explained by no linearization; the dlin
      responses are the two account values each transfer read;
    - {!counters}: every transaction rewrites all slots, so recovered
      slots must be equal (atomicity) and the single abstract value
      must be explained by an increment order consistent with the
      returned new-values;
    - {!btree}: B+Tree structural invariants (checked by the
      extraction) plus the recovered key-value map;
    - {!alloc_churn}: allocator accounting over a persistent slot
      directory — each thread acquires stamped, signature-filled
      blocks into its own directory slots or releases them; every
      non-zero slot must name a live block of the recovered allocator
      with intact signature words, and the recovered stamp-per-slot
      vector must match a durable prefix;
    - {!kv_batch}: the KV service's coalesced write path — each thread
      commits batches of sets plus its batch-marker key in one
      transaction, so a crash mid-batch must leave all of the batch or
      none, with the marker naming the durable prefix;
    - {!kv_xshard}: two {!Kvserve.Store}s standing in for two shards —
      every operation commits to A then B in separate transactions;
      under the dlin oracle the [B <= A <= B+1] marker bound is just
      "durable sets are per-thread prefixes";
    - {!kv_incr}: a single shared counter bumped through
      [Kvserve.Store.incr]; the returned new-values make the dlin
      search an exactly-once oracle.

    All scenarios derive their randomness from the instance seed, so a
    (scenario, seed) pair fully determines the workload.

    Every constructor takes [?coalesce] (default [true]): [false] runs
    the PTM on the naive per-entry flush/fence path instead of the
    batched commit pipeline, and appends ["-naive"] to the scenario
    name so replay specs round-trip through {!subject}. *)

val bank : ?accounts:int -> ?threads:int -> ?ops:int -> ?coalesce:bool -> unit -> Engine.scenario

val counters : ?slots:int -> ?threads:int -> ?ops:int -> ?coalesce:bool -> unit -> Engine.scenario

val btree : ?threads:int -> ?ops:int -> ?coalesce:bool -> unit -> Engine.scenario

val mod_btree : ?threads:int -> ?ops:int -> ?coalesce:bool -> unit -> Engine.scenario
(** {!Pstructs.Mod_bptree} under a deterministic per-thread
    insert/remove script.  After a crash under the [Mod] algorithm the
    oracle runs {!Dlin.check} with [`Buffered (threads + 2)]
    durability: the root swap's flush is unfenced, so a committed
    suffix may be lost, but no more than the write-pending-queue lag —
    one unfenced flush per thread plus scheduling slack.  A run that
    did not crash, and every run under another algorithm, is judged
    strictly. *)

val mod_hash : ?threads:int -> ?ops:int -> ?coalesce:bool -> unit -> Engine.scenario
(** {!Pstructs.Mod_phashtable} under the same script and oracle as
    {!mod_btree}. *)

val alloc_churn : ?threads:int -> ?ops:int -> ?coalesce:bool -> unit -> Engine.scenario

val kv_batch :
  ?threads:int -> ?ops:int -> ?batch:int -> ?coalesce:bool -> unit -> Engine.scenario

val kv_xshard : ?threads:int -> ?ops:int -> ?coalesce:bool -> unit -> Engine.scenario

val kv_incr : ?threads:int -> ?ops:int -> ?coalesce:bool -> unit -> Engine.scenario

val fams_bank :
  ?accounts:int -> ?ops:int -> ?sync_every:int -> unit -> Engine.fams_scenario
(** The msync twin of {!bank}: a single mutator transfers between
    scattered one-word accounts in the FAMS working area (two pages, so
    line and page sweeps journal different unit sets) and calls
    [msync_atomic] every [sync_every] operations.  After a crash the
    dlin oracle runs with [`Buffered (completed - synced)] durability:
    recovery restores the last {e completed} sync (FAMS's durability
    point), so only operations completed after it may be lost. *)

val fams_all : unit -> Engine.fams_scenario list

val all : unit -> Engine.scenario list
(** The seven application scenarios with default sizes (coalescing on),
    plus naive-flush bank and btree variants — the two flush schedules
    reach "persistent" at different instants, so both are swept. *)


(** {1 The crash matrix} *)

(** One matrix cell, by name: resolve it with {!subject}. *)
type cell = { scenario : string; model : Memsim.Config.model; algorithm : string }

val ptm_cells : unit -> cell list
(** Every {!all} scenario across the six durability domains (ADR, eADR,
    PDRAM, PDRAM-Lite, transient-cache, HTM-commit) under Redo plus
    Undo — Htm instead of Undo on HTM-commit, and Mod plus Redo for the
    [mod-] structure scenarios. *)

val fams_cells : unit -> cell list
(** Every {!fams_all} scenario across ADR, eADR, transient-cache, PDRAM
    and PDRAM-Lite, at line then page granularity. *)

val matrix : unit -> cell list
(** {!ptm_cells} then {!fams_cells}: the [@crashtest] sweep, in order. *)

val subject :
  ?inject:string -> scenario:string -> algorithm:string -> unit -> (Engine.Subject.t, string) result
(** Resolve the names of a matrix cell or replay line to a subject.  The
    algorithm column picks the API: [redo|undo|htm|mod] (any case) a
    PTM scenario of {!all}, [fams-line|fams-page] a FAMS scenario of
    {!fams_all}.  [Error] when [inject] names a bug of the other API.
    @raise Invalid_argument on an unknown scenario, algorithm or inject
    name. *)
