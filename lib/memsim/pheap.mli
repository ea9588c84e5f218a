(** Demand-paged, copy-on-write heap image.

    The persistent heap, its media image and the volatile metadata
    space as arrays of page-sized chunks that all share one immutable
    zero page until first written.  Creating an image is O(pages)
    pointer stores instead of O(words) zeroing, and blits and
    serialization walk only touched chunks.

    Images also share written chunks with each other: each image owns
    a subset of its chunks (one byte per chunk) and writes in place
    only to those.  A write to any other chunk — the zero page, or a
    chunk obtained by {!copy}, {!assign} or a whole-chunk
    {!copy_range} — first copies it into a private chunk.  So an image
    copy costs the chunk index, not the touched words.  Reads cost two
    unsafe loads; writes add one byte test.  No operation ever mutates
    the shared zero page or a chunk another image can see. *)

type t

val chunk_words : int
(** Chunk size in words = {!Machine.Layout.words_per_page}; a power of
    two, and a multiple of the cache-line size, so line-aligned
    transfers never straddle chunks. *)

val create : words:int -> t
(** All-zero image of [words] words; allocates no payload. *)

val words : t -> int

val get : t -> int -> int
(** Unchecked read (callers bound-check against [words] first). *)

val set : t -> int -> int -> unit
(** Unchecked write; copies the chunk into a private one (zero-filled
    for the zero page) on the first write since it was last shared. *)

val equal : t -> t -> bool
(** Same size and word-for-word the same content, however each image
    came to materialize its chunks. *)

val touched : t -> int
(** Number of materialized chunks, shared or not. *)

val copy_range : src:t -> dst:t -> int -> int -> unit
(** [copy_range ~src ~dst base len] copies [len] words at [base]
    (same offsets in both images), zero-aware on both sides.  A range
    that covers a whole chunk shares it, like {!assign}. *)

val assign : src:t -> dst:t -> unit
(** [dst]'s content becomes [src]'s, in O(chunks) pointer stores: the
    two images share chunks until either side writes, when the writer
    copies the chunk it writes.  Either image may be mutated freely
    afterwards without the other seeing it. *)

val copy : t -> t
(** Fresh image with the same content; shares chunks like {!assign}. *)

val fill_zero : t -> unit
(** Reset every chunk to the shared zero page. *)

val blit_to_array : t -> int -> int array -> int -> int -> unit
(** [blit_to_array t src_pos dst dst_pos len]: image -> flat array. *)

val blit_of_array : t -> int -> int array -> int -> int -> unit
(** [blit_of_array t dst_pos src src_pos len]: flat array -> image. *)

val iter_touched : t -> (int -> int array -> unit) -> unit
(** Visit (chunk index, chunk payload) for each materialized chunk in
    address order.  The payload is live and may be shared with other
    images — do not mutate. *)

val of_touched : words:int -> (int * int array) list -> t
(** Rebuild an image from serialized (chunk index, payload) pairs, in
    strictly increasing chunk order as {!iter_touched} visits them;
    payloads are copied, and the image owns the copies.
    @raise Invalid_argument on out-of-range, repeated or out-of-order
    indices, or mis-sized chunks. *)

val to_flat : t -> int array
(** Dense copy of the whole image — test/debug only. *)
