(** Durable-linearizability oracle.

    The legality criterion (Izraelevitz et al.'s durable
    linearizability, specialised to full-system crashes): after a crash,
    the recovered state must be explained by some linearization of a
    subset [S] of the invoked operations such that

    - [S] contains {e every} completed operation (response returned
      before the crash — its durable commit preceded the return);
    - [S] may additionally contain, per thread, the one operation that
      was invoked but never returned (its commit may or may not have
      become durable);
    - the linearization respects real-time order: if [o1] returned
      before [o2] was invoked, [o1] precedes [o2];
    - replaying the linearization from the initial state yields exactly
      the recovered state, and each completed operation's replayed
      response equals the response it actually returned.

    Because each thread is sequential, [S] is per-thread a prefix of
    that thread's operation sequence — all its completed operations
    plus optionally its final pending one — so the search walks
    per-thread positions.  Pruning:

    - memoization on (positions, state), with exact state comparison
      inside each hash bucket (a hash collision must never prune);
    - a sound commutativity "leader" rule: if some available candidate
      is a {e completed} operation that commutes (on state and
      response, in every state) with every other thread's remaining
      operations, only it is explored — any accepting linearization
      can be reordered to put it first.

    The search is bounded by [max_nodes]; exceeding the budget is
    reported as a distinct, inconclusive failure rather than a pass. *)

(** How one scenario's operations act on an abstract state.  All
    functions must be pure. *)
type ('st, 'op, 'res) spec = {
  init : 'st;  (** the state the scenario's [prepare] established *)
  apply : 'st -> 'op -> 'st * 'res;
      (** sequential semantics of one operation — must model the real
          program order of the transaction body exactly *)
  equal_state : 'st -> 'st -> bool;
  hash_state : 'st -> int;  (** must agree with [equal_state] *)
  equal_res : 'res -> 'res -> bool;
  commutes : 'op -> 'op -> bool;
      (** sound under-approximation: [true] only if the two operations
          commute on state {e and} both responses, in every state.
          Only ever asked about operations of different threads. *)
  pp_op : Format.formatter -> 'op -> unit;
  pp_res : Format.formatter -> 'res -> unit;
  pp_state : Format.formatter -> 'st -> unit;
}

(** Recording of a concurrent operation history: per-thread invocation
    and response events with virtual timestamps. *)
module History : sig
  type ('op, 'res) t

  val create : threads:int -> ('op, 'res) t

  val threads : ('op, 'res) t -> int

  val invoke : ('op, 'res) t -> tid:int -> at_ns:float -> 'op -> unit
  (** Record the invocation of [tid]'s next operation.  Raises
      [Invalid_argument] if the thread's previous operation has not
      returned (threads are sequential). *)

  val return : ('op, 'res) t -> tid:int -> at_ns:float -> 'res -> unit
  (** Record the response of [tid]'s current pending operation. *)

  val run : ('op, 'res) t -> tid:int -> now:(unit -> float) -> 'op -> (unit -> 'res) -> 'res
  (** [run h ~tid ~now op f] brackets [f ()] with [invoke]/[return].
      If [f] raises (e.g. the machine crashes), the operation stays
      pending — exactly the durable-linearizability meaning. *)

  val completed : ('op, 'res) t -> int
  (** Operations whose response was recorded. *)

  val pending : ('op, 'res) t -> int
  (** Operations invoked but never returned (at most one per thread). *)
end

type stats = { nodes : int; memo_hits : int }

type counterexample = {
  reason : string;
  jsonl : string;
      (** replayable dump: one JSON object per line — a [meta] line,
          one [op] line per recorded operation (tid, index, op,
          timestamps, response, pending flag) and a [recovered] state
          line.  Written next to the crashtest replay line as
          [dlin.jsonl]. *)
}

val dump :
  ('st, 'op, 'res) spec ->
  ('op, 'res) History.t ->
  recovered:'st option ->
  reason:string ->
  nodes:int ->
  string
(** The JSONL counterexample body; exposed so scenario oracles that
    fail before the search (e.g. recovered-state extraction finds torn
    data) can emit the same replayable dump format. *)

val check :
  ?max_nodes:int ->
  ?durability:[ `Strict | `Buffered of int ] ->
  ('st, 'op, 'res) spec ->
  ('op, 'res) History.t ->
  recovered:'st ->
  (stats, counterexample) result
(** Search for a legal durable linearization explaining [recovered].
    [Ok] carries search statistics; [Error] carries the reason — either
    "no linearization ..." or the distinct budget-exceeded message —
    and the JSONL dump.  [max_nodes] defaults to 200_000.

    [durability] (default [`Strict]) selects the legality criterion:

    - [`Strict] — durable linearizability proper: the linearization must
      contain {e every} completed operation (commit became durable
      before the response returned).  Right for redo/undo, whose commit
      fence precedes the return, and for every run that did not crash.
    - [`Buffered k] — buffered durable linearizability with a bounded
      lag: the recovered state may be any real-time-closed cut
      (per-thread prefixes, closed under returned-before-invoked
      precedence, with each included completed operation's replayed
      response matching the recorded one) that leaves out at most [k]
      completed operations.  Right for MOD structures, whose root swap
      is published with an unfenced flush, so a short committed suffix
      of the serialized history can be lost at a crash, and for FAMS,
      whose durability point is the last completed sync.  For [k > 0]
      the match is tested at every search node and the commuting-leader
      rule is disabled — a completed operation need not be in the cut,
      so bubbling it first is unsound for prefix cuts.  [`Buffered 0]
      is exactly [`Strict]: same verdict, same search.  Responses of
      completed operations {e outside} the cut are not checked: the
      search explains the recovered state, not the run before the
      crash.
      @raise Invalid_argument when [k] is negative. *)
