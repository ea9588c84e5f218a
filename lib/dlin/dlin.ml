type ('st, 'op, 'res) spec = {
  init : 'st;
  apply : 'st -> 'op -> 'st * 'res;
  equal_state : 'st -> 'st -> bool;
  hash_state : 'st -> int;
  equal_res : 'res -> 'res -> bool;
  commutes : 'op -> 'op -> bool;
  pp_op : Format.formatter -> 'op -> unit;
  pp_res : Format.formatter -> 'res -> unit;
  pp_state : Format.formatter -> 'st -> unit;
}

(* One recorded operation.  [returned = infinity] marks a pending
   operation (invoked, never returned — the crash interrupted it), which
   conveniently makes the real-time-order test "e' returned before e was
   invoked" a plain float comparison. *)
type ('op, 'res) entry = {
  op : 'op;
  invoked : float;
  mutable returned : float;
  mutable res : 'res option;
}

module History = struct
  type ('op, 'res) t = { nthreads : int; per_tid : ('op, 'res) entry list array (* newest first *) }

  let create ~threads =
    if threads <= 0 then invalid_arg "Dlin.History.create: threads must be positive";
    { nthreads = threads; per_tid = Array.make threads [] }

  let threads h = h.nthreads

  let invoke h ~tid ~at_ns op =
    (match h.per_tid.(tid) with
    | e :: _ when e.returned = infinity ->
      invalid_arg "Dlin.History.invoke: thread's previous operation is still pending"
    | _ -> ());
    h.per_tid.(tid) <- { op; invoked = at_ns; returned = infinity; res = None } :: h.per_tid.(tid)

  let return h ~tid ~at_ns res =
    match h.per_tid.(tid) with
    | e :: _ when e.returned = infinity ->
      e.returned <- at_ns;
      e.res <- Some res
    | _ -> invalid_arg "Dlin.History.return: thread has no pending operation"

  let run h ~tid ~now op f =
    invoke h ~tid ~at_ns:(now ()) op;
    let res = f () in
    return h ~tid ~at_ns:(now ()) res;
    res

  (* Per-tid arrays, oldest first.  Threads are sequential, so at most
     the last entry of each array is pending. *)
  let to_arrays h = Array.map (fun l -> Array.of_list (List.rev l)) h.per_tid

  let completed h =
    Array.fold_left
      (List.fold_left (fun acc e -> if e.returned < infinity then acc + 1 else acc))
      0 h.per_tid

  let pending h =
    Array.fold_left
      (fun acc l ->
        acc + match l with e :: _ when e.returned = infinity -> 1 | _ -> 0)
      0 h.per_tid
end

type stats = { nodes : int; memo_hits : int }

type counterexample = { reason : string; jsonl : string }

(* ---------- counterexample dump (JSONL, telemetry-style) ---------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let dump spec h ~recovered ~reason ~nodes =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       {|{"kind": "dlin", "reason": "%s", "threads": %d, "completed": %d, "pending": %d, "nodes": %d}|}
       (json_escape reason) (History.threads h) (History.completed h) (History.pending h) nodes);
  Buffer.add_char b '\n';
  let ops = History.to_arrays h in
  Array.iteri
    (fun tid arr ->
      Array.iteri
        (fun idx e ->
          let pending = e.returned = infinity in
          let returned_s = if pending then "null" else Printf.sprintf "%.0f" e.returned in
          let res_s =
            match e.res with
            | None -> "null"
            | Some r -> Printf.sprintf "\"%s\"" (json_escape (Format.asprintf "%a" spec.pp_res r))
          in
          Buffer.add_string b
            (Printf.sprintf
               {|{"kind": "op", "tid": %d, "idx": %d, "op": "%s", "invoked_ns": %.0f, "returned_ns": %s, "res": %s, "pending": %b}|}
               tid idx
               (json_escape (Format.asprintf "%a" spec.pp_op e.op))
               e.invoked returned_s res_s pending);
          Buffer.add_char b '\n')
        arr)
    ops;
  (match recovered with
  | None -> Buffer.add_string b {|{"kind": "recovered", "state": null}|}
  | Some st ->
    Buffer.add_string b
      (Printf.sprintf {|{"kind": "recovered", "state": "%s"}|}
         (json_escape (Format.asprintf "%a" spec.pp_state st))));
  Buffer.add_char b '\n';
  Buffer.contents b

(* ---------- the search ---------- *)

exception Found
exception Budget

let default_max_nodes = 200_000

let check ?(max_nodes = default_max_nodes) ?(durability = `Strict) spec h ~recovered =
  let ops = History.to_arrays h in
  let nthreads = Array.length ops in
  let total = Array.map Array.length ops in
  (* Completed operations form a per-thread prefix (threads are
     sequential); only the final entry can be pending. *)
  let ncompleted =
    Array.map
      (fun arr ->
        let n = Array.length arr in
        if n > 0 && arr.(n - 1).returned = infinity then n - 1 else n)
      ops
  in
  (* How many completed operations the cut may leave out: strict
     durability loses none. *)
  let may_lose =
    match durability with
    | `Strict -> 0
    | `Buffered k ->
      if k < 0 then invalid_arg "Dlin.check: negative buffered budget";
      k
  in
  let pos = Array.make nthreads 0 in
  let nodes = ref 0 and memo_hits = ref 0 in
  (* Sized on demand: most crash probes visit a handful of nodes, and
     the table is only probed and replaced, never iterated, so its
     initial size changes no verdict or count. *)
  let memo : (string, 'st list) Hashtbl.t = Hashtbl.create 16 in
  let key_of st =
    let b = Buffer.create 32 in
    Array.iter
      (fun p ->
        Buffer.add_string b (string_of_int p);
        Buffer.add_char b ',')
      pos;
    Buffer.add_char b '#';
    Buffer.add_string b (string_of_int (spec.hash_state st));
    Buffer.contents b
  in
  (* Completed operations the current prefix leaves out. *)
  let left_out () =
    let n = ref 0 in
    for t = 0 to nthreads - 1 do
      n := !n + max 0 (ncompleted.(t) - pos.(t))
    done;
    !n
  in
  (* [t]'s next operation may linearize now iff no other thread's next
     operation returned before it was invoked (deeper operations of a
     sequential thread return even later, so checking heads suffices). *)
  let available t =
    pos.(t) < total.(t)
    &&
    let e = ops.(t).(pos.(t)) in
    let ok = ref true in
    for u = 0 to nthreads - 1 do
      if u <> t && pos.(u) < total.(u) && ops.(u).(pos.(u)).returned < e.invoked then ok := false
    done;
    !ok
  in
  (* Sound leader rule: a completed candidate that commutes with every
     other thread's remaining operations can be linearized first without
     loss of generality — it is in every solution (completed), no
     remaining operation is forced before it (it is available), and
     bubbling it to the front preserves all states and responses. *)
  let leader t =
    let e = ops.(t).(pos.(t)) in
    e.returned < infinity
    &&
    let ok = ref true in
    for u = 0 to nthreads - 1 do
      if u <> t then
        for j = pos.(u) to total.(u) - 1 do
          if not (spec.commutes e.op ops.(u).(j).op) then ok := false
        done
    done;
    !ok
  in
  let all_tids = List.init nthreads Fun.id in
  let rec dfs st =
    incr nodes;
    if !nodes > max_nodes then raise Budget;
    (* The recovered state may be any real-time-closed cut of a
       linearization that leaves out at most [may_lose] completed
       operations (unflushed committed suffixes are lost at a crash);
       under strict durability that is the cut containing every
       completed operation. *)
    if left_out () <= may_lose && spec.equal_state st recovered then raise Found;
    let key = key_of st in
    let bucket = Option.value (Hashtbl.find_opt memo key) ~default:[] in
    if List.exists (fun s -> spec.equal_state st s) bucket then incr memo_hits
    else begin
      Hashtbl.replace memo key (st :: bucket);
      let avail = List.filter available all_tids in
      (* A cut that may lose operations skips the leader rule: a completed
         operation need not be in the cut, so forcing it first could
         step over the matching prefix. *)
      let cands =
        if may_lose > 0 then avail
        else match List.find_opt leader avail with Some t -> [ t ] | None -> avail
      in
      List.iter
        (fun t ->
          let e = ops.(t).(pos.(t)) in
          let st', r = spec.apply st e.op in
          (* A completed operation's replayed response must equal the
             response it actually returned; pending responses are
             unconstrained (the caller never saw one). *)
          let res_ok = match e.res with None -> true | Some r0 -> spec.equal_res r0 r in
          if res_ok then begin
            pos.(t) <- pos.(t) + 1;
            dfs st';
            pos.(t) <- pos.(t) - 1
          end)
        cands
    end
  in
  match dfs spec.init with
  | () ->
    let reason =
      match durability with
      | `Strict ->
        "no durable linearization of the recorded history explains the recovered state"
      | `Buffered _ ->
        "no real-time-closed prefix of any linearization explains the recovered state \
         (buffered durability)"
    in
    Error { reason; jsonl = dump spec h ~recovered:(Some recovered) ~reason ~nodes:!nodes }
  | exception Found -> Ok { nodes = !nodes; memo_hits = !memo_hits }
  | exception Budget ->
    let reason =
      Printf.sprintf
        "dlin search budget exceeded (%d nodes) — inconclusive; raise max_nodes or shrink the scenario"
        max_nodes
    in
    Error { reason; jsonl = dump spec h ~recovered:(Some recovered) ~reason ~nodes:!nodes }
