(* Demand-paged, copy-on-write heap image.

   A flat [Array.make heap_words 0] costs ~16 MB of zeroing per image
   (heap + media) on every cell of every experiment — ~21 ms of each
   quick cell goes to pages the workload never touches.  This
   representation splits the address space into fixed page-sized chunks
   that all start as one shared, immutable all-zero chunk.

   Chunks are shared between images, not just with the zero page: each
   image carries an ownership byte per chunk, and only an owned chunk
   may be written in place.  A write to a chunk the image does not own
   (the zero page, or a chunk another image may still reference) first
   copies it — or zero-fills a fresh one — and takes ownership.  [copy]
   and [assign] share every chunk pointer and clear ownership on both
   sides, so a crash image, a reboot or an image load costs the chunk
   index plus the chunks somebody writes afterwards.  Reads are two
   unsafe loads; writes test one byte. *)

let chunk_words = Machine.Layout.words_per_page
let chunk_shift = 9 (* log2 chunk_words *)
let chunk_mask = chunk_words - 1
let () = assert (1 lsl chunk_shift = chunk_words)

type t = {
  words : int;
  chunks : int array array; (* chunks.(i) == zero  <=>  never written *)
  (* owned.[i] <> '\000'  <=>  chunks.(i) is this image's private,
     writable copy.  Never set for the zero page. *)
  owned : Bytes.t;
}

(* The shared zero page.  Every read of an untouched chunk goes through
   this array; nothing may ever write to it — it is never owned, so
   every mutation path below copies first. *)
let zero = Array.make chunk_words 0

let nchunks words = (words + chunk_words - 1) / chunk_words

let create ~words =
  if words <= 0 then invalid_arg "Pheap.create: words must be positive";
  let n = nchunks words in
  { words; chunks = Array.make n zero; owned = Bytes.make n '\000' }

let words t = t.words

let[@inline] get t addr =
  Array.unsafe_get (Array.unsafe_get t.chunks (addr lsr chunk_shift)) (addr land chunk_mask)

(* The one write barrier: a chunk this image does not own is copied
   (the zero page: zero-filled) and taken over before any write. *)
let[@inline] chunk_for_write t ci =
  if Bytes.unsafe_get t.owned ci <> '\000' then Array.unsafe_get t.chunks ci
  else begin
    let c = Array.unsafe_get t.chunks ci in
    let fresh = if c == zero then Array.make chunk_words 0 else Array.copy c in
    Array.unsafe_set t.chunks ci fresh;
    Bytes.unsafe_set t.owned ci '\001';
    fresh
  end

let[@inline] set t addr v =
  Array.unsafe_set (chunk_for_write t (addr lsr chunk_shift)) (addr land chunk_mask) v

(* Content equality: a materialized chunk that holds only zeros equals
   the zero page. *)
let equal a b =
  a.words = b.words
  &&
  let rec from i =
    i = Array.length a.chunks
    || (a.chunks.(i) == b.chunks.(i) || a.chunks.(i) = b.chunks.(i)) && from (i + 1)
  in
  from 0

let touched t =
  let n = ref 0 in
  Array.iter (fun c -> if c != zero then incr n) t.chunks;
  !n

(* Copy [len] words at [base] from [src] to [dst] (same offsets in
   both).  A whole chunk is shared; an already-shared chunk is left
   alone; a zero source range zero-fills the destination only when the
   destination chunk is materialized. *)
let copy_range ~src ~dst base len =
  if base < 0 || len < 0 || base + len > src.words || base + len > dst.words then
    invalid_arg "Pheap.copy_range";
  let pos = ref base in
  let remaining = ref len in
  while !remaining > 0 do
    let ci = !pos lsr chunk_shift in
    let off = !pos land chunk_mask in
    let n = min !remaining (chunk_words - off) in
    let sc = Array.unsafe_get src.chunks ci in
    let dc = Array.unsafe_get dst.chunks ci in
    if sc == dc then ()
    else if n = chunk_words then begin
      Array.unsafe_set dst.chunks ci sc;
      Bytes.unsafe_set src.owned ci '\000';
      Bytes.unsafe_set dst.owned ci '\000'
    end
    else if sc == zero then Array.fill (chunk_for_write dst ci) off n 0
    else Array.blit sc off (chunk_for_write dst ci) off n;
    pos := !pos + n;
    remaining := !remaining - n
  done

(* [dst] becomes a copy of [src]'s content by sharing every chunk;
   neither side owns any of them afterwards, so the first write on
   either side copies. *)
let assign ~src ~dst =
  if src.words <> dst.words then invalid_arg "Pheap.assign: size mismatch";
  let n = Array.length src.chunks in
  Array.blit src.chunks 0 dst.chunks 0 n;
  Bytes.fill src.owned 0 n '\000';
  Bytes.fill dst.owned 0 n '\000'

let copy t =
  let fresh = create ~words:t.words in
  assign ~src:t ~dst:fresh;
  fresh

let fill_zero t =
  Array.fill t.chunks 0 (Array.length t.chunks) zero;
  Bytes.fill t.owned 0 (Bytes.length t.owned) '\000'

(* Flat-array bridges for the WPQ pending arena: line-sized transfers
   between a heap image and a stride slab.  Line-aligned ranges never
   straddle a chunk (chunk_words is a multiple of words_per_line), but
   the loops stay general for safety. *)
let blit_to_array t src_pos dst dst_pos len =
  if src_pos < 0 || len < 0 || src_pos + len > t.words then invalid_arg "Pheap.blit_to_array";
  let pos = ref src_pos in
  let out = ref dst_pos in
  let remaining = ref len in
  while !remaining > 0 do
    let ci = !pos lsr chunk_shift in
    let off = !pos land chunk_mask in
    let n = min !remaining (chunk_words - off) in
    let c = Array.unsafe_get t.chunks ci in
    if c == zero then Array.fill dst !out n 0 else Array.blit c off dst !out n;
    pos := !pos + n;
    out := !out + n;
    remaining := !remaining - n
  done

let blit_of_array t dst_pos src src_pos len =
  if dst_pos < 0 || len < 0 || dst_pos + len > t.words then invalid_arg "Pheap.blit_of_array";
  let pos = ref dst_pos in
  let inp = ref src_pos in
  let remaining = ref len in
  while !remaining > 0 do
    let ci = !pos lsr chunk_shift in
    let off = !pos land chunk_mask in
    let n = min !remaining (chunk_words - off) in
    Array.blit src !inp (chunk_for_write t ci) off n;
    pos := !pos + n;
    inp := !inp + n;
    remaining := !remaining - n
  done

let iter_touched t f =
  for ci = 0 to Array.length t.chunks - 1 do
    let c = Array.unsafe_get t.chunks ci in
    if c != zero then f ci c
  done

let of_touched ~words pairs =
  let t = create ~words in
  let nc = Array.length t.chunks in
  ignore
    (List.fold_left
       (fun prev (ci, data) ->
         if ci < 0 || ci >= nc then invalid_arg "Pheap.of_touched: chunk index out of range";
         if ci <= prev then invalid_arg "Pheap.of_touched: chunk indices not strictly increasing";
         if Array.length data <> chunk_words then
           invalid_arg "Pheap.of_touched: bad chunk length";
         t.chunks.(ci) <- Array.copy data;
         Bytes.set t.owned ci '\001';
         ci)
       (-1) pairs);
  t

let to_flat t =
  let a = Array.make t.words 0 in
  iter_touched t (fun ci c ->
      let base = ci * chunk_words in
      Array.blit c 0 a base (min chunk_words (t.words - base)));
  a
