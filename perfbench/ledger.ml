(* Host-time span ledger for the traced run.

   A span has a kind (its name), a start, an end and a parent: the span
   that was open when it began.  Spans are kept in memory — the first
   [capacity] in full, every one of them in per-kind aggregates — and
   written out when the benchmark ends.  A kind's self time is its
   spans' total time minus the time their direct children cover. *)

let capacity = 1 lsl 16

let kind_names : string array ref = ref (Array.make 64 "")
let n_kinds = ref 0
let count = ref (Array.make 64 0)
let total_ns = ref (Array.make 64 0)
let self_ns = ref (Array.make 64 0)

let kind name =
  let rec find i = if i >= !n_kinds then None else if !kind_names.(i) = name then Some i else find (i + 1) in
  match find 0 with
  | Some k -> k
  | None ->
    let k = !n_kinds in
    if k >= Array.length !kind_names then begin
      let grow a fill = Array.append a (Array.make (Array.length a) fill) in
      kind_names := grow !kind_names "";
      count := grow !count 0;
      total_ns := grow !total_ns 0;
      self_ns := grow !self_ns 0
    end;
    !kind_names.(k) <- name;
    incr n_kinds;
    k

(* Open-span stack. *)
let depth = ref 0
let st_kind = Array.make 256 0
let st_start = Array.make 256 0
let st_child = Array.make 256 0
let st_id = Array.make 256 (-1)

(* Recorded spans, allocated by the first span so that untraced runs
   do not carry them. *)
let recorded = ref 0
let sp_kind = ref [||]
let sp_start = ref [||]
let sp_stop = ref [||]
let sp_parent = ref [||]

let enter k =
  let d = !depth in
  let t = Common.now_ns () in
  st_kind.(d) <- k;
  st_start.(d) <- t;
  st_child.(d) <- 0;
  let id = !recorded in
  if id = 0 && Array.length !sp_kind = 0 then begin
    sp_kind := Array.make capacity 0;
    sp_start := Array.make capacity 0;
    sp_stop := Array.make capacity 0;
    sp_parent := Array.make capacity (-1)
  end;
  if id < capacity then begin
    !sp_kind.(id) <- k;
    !sp_start.(id) <- t;
    !sp_stop.(id) <- t;
    !sp_parent.(id) <- (if d = 0 then -1 else st_id.(d - 1));
    recorded := id + 1;
    st_id.(d) <- id
  end
  else st_id.(d) <- -1;
  depth := d + 1

let leave () =
  let t = Common.now_ns () in
  let d = !depth - 1 in
  depth := d;
  let k = st_kind.(d) in
  let dur = t - st_start.(d) in
  !count.(k) <- !count.(k) + 1;
  !total_ns.(k) <- !total_ns.(k) + dur;
  !self_ns.(k) <- !self_ns.(k) + (dur - st_child.(d));
  if st_id.(d) >= 0 then !sp_stop.(st_id.(d)) <- t;
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur

let span k f =
  enter k;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

let count_of name = let k = kind name in !count.(k)
let total_s name = float_of_int !total_ns.(kind name) *. 1e-9
let self_s name = float_of_int !self_ns.(kind name) *. 1e-9

(* Write the recorded spans (JSONL, one span a line, times relative to
   the first span) followed by one aggregate row per kind. *)
let write_out path =
  let oc = open_out_bin path in
  let n = !recorded in
  let t0 = if n > 0 then !sp_start.(0) else 0 in
  for i = 0 to n - 1 do
    Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n" i
      !kind_names.(!sp_kind.(i)) (!sp_start.(i) - t0) (!sp_stop.(i) - t0) !sp_parent.(i)
  done;
  for k = 0 to !n_kinds - 1 do
    Printf.fprintf oc "{\"kind\":%S,\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}\n"
      !kind_names.(k) !count.(k) !total_ns.(k) !self_ns.(k)
  done;
  close_out oc
