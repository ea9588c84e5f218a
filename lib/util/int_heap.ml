(* Three parallel arrays per slot: key, insertion sequence (the FIFO
   tie-break among equal keys), payload.  All sifting moves ints only. *)

type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable popped_key : int;
}

let create () =
  {
    keys = [||];
    seqs = [||];
    vals = [||];
    size = 0;
    next_seq = 0;
    popped_key = max_int;
  }

let length t = t.size

let is_empty t = t.size = 0

(* Slot [a] precedes slot [b] in heap order. *)
let before t a b =
  t.keys.(a) < t.keys.(b) || (t.keys.(a) = t.keys.(b) && t.seqs.(a) < t.seqs.(b))

let swap t a b =
  let k = t.keys.(a) in
  t.keys.(a) <- t.keys.(b);
  t.keys.(b) <- k;
  let s = t.seqs.(a) in
  t.seqs.(a) <- t.seqs.(b);
  t.seqs.(b) <- s;
  let v = t.vals.(a) in
  t.vals.(a) <- t.vals.(b);
  t.vals.(b) <- v

let grow t =
  let cap = Array.length t.keys in
  if t.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let extend src = Array.append src (Array.make (ncap - cap) 0) in
    t.keys <- extend t.keys;
    t.seqs <- extend t.seqs;
    t.vals <- extend t.vals
  end

let push t ~key value =
  grow t;
  let i = ref t.size in
  t.keys.(!i) <- key;
  t.seqs.(!i) <- t.next_seq;
  t.vals.(!i) <- value;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t !i parent then begin
      swap t !i parent;
      i := parent
    end
    else continue := false
  done

let pop t =
  if t.size = 0 then -1
  else begin
    let top = t.vals.(0) in
    t.popped_key <- t.keys.(0);
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.keys.(0) <- t.keys.(t.size);
      t.seqs.(0) <- t.seqs.(t.size);
      t.vals.(0) <- t.vals.(t.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && before t l !smallest then smallest := l;
        if r < t.size && before t r !smallest then smallest := r;
        if !smallest <> !i then begin
          swap t !smallest !i;
          i := !smallest
        end
        else continue := false
      done
    end;
    top
  end

let last_key t = t.popped_key

let min_key t = if t.size = 0 then max_int else t.keys.(0)

let clear t =
  t.size <- 0;
  t.next_seq <- 0
