(** The [kvserve] bench experiment: Fig-8-style working-set sweep
    through the full service path (codec → router → batch → commit),
    plus a per-domain recovery table from a mid-run crash.

    Unlike [Workloads.Experiments.fig8] (which drives the PTM
    directly), every operation here enters through the memcached codec
    and the shard router, so protocol parsing, batching and
    backpressure are all on the measured path.

    Deterministic: tables and [extra] are byte-identical across runs
    and across [jobs] values.  Only wall-clock recovery time is
    excluded from the gated output (it lands in the JSON extras). *)

val run : ?quick:bool -> ?jobs:int -> unit -> Workloads.Experiments.outcome
(** [results] is empty: the per-run metrics land in [extra], which
    [ptm_bench experiment kvserve --json] splices into
    [BENCH_kvserve.json]. *)

val run_trace : ?quick:bool -> ?jobs:int -> unit -> Workloads.Experiments.outcome
(** The [trace] experiment: every durability domain served with request
    tracing on; emits end-to-end latency percentiles measured from the
    request spans (with the per-request accounting slack, which is 0
    for the generated fleet), a tail-band (p95..p100) blame table of
    exclusive time per span kind, and — in the JSON extras — the whole
    blame vectors plus the span-store digest. *)
