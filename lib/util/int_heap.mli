(** Array-based binary min-heap specialised to integer keys and integer
    payloads — the event queue of the discrete-event scheduler.

    Entries live in flat [int array]s, so pushing and popping an event
    allocates nothing (no entry record, no option, no tuple).  Tie-break
    order is FIFO among equal keys, which keeps simulations
    deterministic.  [test/test_util.ml] checks it differentially
    against a stable sorted-list model: identical operation sequences
    must give identical pop orders. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> key:int -> int -> unit
(** O(log n) insertion; allocation-free except when the backing arrays
    grow.  The payload must be non-negative. *)

val pop : t -> int
(** Remove the payload with the smallest key (FIFO among equal keys);
    [-1] when empty.  The popped entry's key is available as
    {!last_key} until the next [pop]. *)

val last_key : t -> int
(** Key of the most recently popped entry.  Unspecified before the
    first successful [pop]. *)

val min_key : t -> int
(** Smallest key without removing it; [max_int] when empty — callers
    compare against it directly, no option allocated. *)

val clear : t -> unit
