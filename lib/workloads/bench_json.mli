(** Machine-readable benchmark records.

    One experiment run serialises to [BENCH_<experiment>.json] — the
    per-cell metrics (throughput, aborts, fences, ...) plus run-wide
    totals, wall-clock time and the worker count — so the perf
    trajectory of the suite can be tracked across commits by diffing
    or plotting these files. *)

(** Minimal JSON tree; [to_string] emits compact valid JSON (non-finite
    floats become [null]). *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val to_string : json -> string

val result_json : Driver.result -> json
(** Per-cell record: identity (workload/model/algorithm/threads),
    throughput, commit/abort counts, log footprint, and the simulated
    machine's event counters (loads, stores, clwbs, sfences, stalls). *)

val events : Driver.result -> int
(** Simulated machine events of one cell (loads + stores + clwbs +
    sfences) — the numerator of the events/sec simulator-speed
    metric. *)

val outcome_json :
  experiment:string ->
  quick:bool ->
  jobs:int ->
  wall_s:float ->
  ?extra:(string * json) list ->
  Driver.result list ->
  json
(** Full run record: meta, [extra] fields spliced in, totals over all
    cells (commits, aborts, sfences, clwbs, events, events_per_sec
    against [wall_s]), and the per-cell records. *)

val write :
  ?dir:string ->
  experiment:string ->
  quick:bool ->
  jobs:int ->
  wall_s:float ->
  ?extra:(string * json) list ->
  Driver.result list ->
  string
(** Serialise {!outcome_json} to [<dir>/BENCH_<experiment>.json]
    ([dir] defaults to the current directory, and is created if
    missing); returns the path written. *)

(** {1 Parsing} *)

exception Parse_error of string
(** Raised by {!parse} with a message and byte offset. *)

val parse : string -> json
(** Parse one JSON document (the grammar {!to_string} emits, plus
    whitespace).  Numbers without [./e] parse as [Int], others as
    [Float]; [\u]-escapes re-encode as UTF-8. *)

val parse_file : string -> json
(** {!parse} the entire contents of a file. *)

(** {1 Regression sentinel} *)

type severity =
  | Regression  (** a gated metric moved in the bad direction *)
  | Improvement  (** a gated metric moved in the good direction *)
  | Note  (** structure changed, or a direction-less metric moved *)

type finding = { f_path : string; f_severity : severity; f_detail : string }

val regress :
  ?tolerance_pct:float ->
  ?include_wall:bool ->
  baseline:json ->
  current:json ->
  unit ->
  finding list
(** Structurally diff two [BENCH_*.json] trees (objects by key, lists
    by index), comparing numeric leaves against a tolerance band
    ([tolerance_pct], default 5%).  A leaf's direction comes from its
    name: throughput-like names ([*_per_sec], [commits], [*hit*], ...)
    must not fall, cost-like names ([*_ns], [aborts], [*miss*],
    [*stall*], ...) must not rise; anything else beyond tolerance is a
    {!Note}.  A baseline number whose name carries a direction is also
    a {!Regression} when the current record lost it: missing, [null]
    (a non-finite value) or no longer a number; so is a current list
    shorter than the baseline's (a dropped cell).  Wall-clock /
    environment fields ([wall_s], [jobs], [cores], [events_per_sec],
    [*wall_ns*]) are skipped unless [include_wall] — they move with the
    host, not the code.  Findings come back in walk order; an empty
    list means within tolerance. *)
