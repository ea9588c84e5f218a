module Ptm = Pstm.Ptm
module Rng = Repro_util.Rng
module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

(* Roots used by every scenario: slot 0 holds the scenario's top-level
   persistent address. *)
let root_slot = 0

(* Scenario names encode the flush discipline so a replay spec printed
   for a naive-mode failure reconstructs the same scenario. *)
let mode_name name ~coalesce = if coalesce then name else name ^ "-naive"

(* ---------- dlin plumbing shared by the scenario oracles ---------- *)

(* Every scenario worker wraps each logical operation in
   [Dlin.History.run] against the machine's virtual clock, so the
   instance accumulates a timed invocation/response history.  After the
   crash the oracle extracts the recovered abstract state and asks
   {!Dlin.check} for a durable linearization explaining it. *)

let vclock ptm = (Ptm.machine ptm).Machine.now_ns

let run_dlin ?max_nodes ?durability spec h ~recovered =
  match Dlin.check ?max_nodes ?durability spec h ~recovered with
  | Ok (_ : Dlin.stats) -> Ok ()
  | Error c ->
    Error
      { Engine.fail_reason = "dlin: " ^ c.Dlin.reason; counterexample = Some c.Dlin.jsonl }

(* Recovered-state extraction found data no abstract state can hold
   (torn payload, non-numeric counter, missing marker): fail before the
   search, with the same replayable dump format. *)
let extraction_fail spec h reason =
  Error
    {
      Engine.fail_reason = reason;
      counterexample = Some (Dlin.dump spec h ~recovered:None ~reason ~nodes:0);
    }

let hash_int_array a = Array.fold_left (fun h v -> (h * 31) + v + 1) 17 a

(* ---------- bank: money conservation + per-thread sequence cells ---------- *)

type bank_op = { btid : int; bop : int; src : int; dst : int; amount : int }
type bank_state = { bal : int array; bseq : int array }

let bank ?(accounts = 32) ?(threads = 4) ?(ops = 10) ?(coalesce = true) () =
  let initial = 100 in
  let prepare ptm =
    let base =
      Ptm.atomic ptm (fun tx ->
          let b = Ptm.alloc tx (accounts + threads) in
          for i = 0 to accounts - 1 do
            Ptm.write tx (b + i) initial
          done;
          for j = 0 to threads - 1 do
            Ptm.write tx (b + accounts + j) 0
          done;
          b)
    in
    Ptm.root_set ptm root_slot base
  in
  (* Sequential semantics of one transfer, mirroring the transaction
     body exactly: both reads happen before both writes (the generator
     never aliases [src = dst], but the model stays faithful to the
     store order regardless).  The response is the pair of values
     read. *)
  let spec =
    {
      Dlin.init = { bal = Array.make accounts initial; bseq = Array.make threads 0 };
      apply =
        (fun st o ->
          let bal = Array.copy st.bal and bseq = Array.copy st.bseq in
          let s = bal.(o.src) and d = bal.(o.dst) in
          bal.(o.src) <- s - o.amount;
          bal.(o.dst) <- d + o.amount;
          bseq.(o.btid) <- o.bop;
          ({ bal; bseq }, (s, d)));
      equal_state = (fun a b -> a.bal = b.bal && a.bseq = b.bseq);
      hash_state = (fun st -> (hash_int_array st.bal * 31) + hash_int_array st.bseq);
      equal_res = ( = );
      commutes =
        (fun a b ->
          (* Disjoint account sets: state effects and both responses are
             independent of order (seq cells are per-thread, and the
             checker only asks about different threads). *)
          a.src <> b.src && a.src <> b.dst && a.dst <> b.src && a.dst <> b.dst);
      pp_op =
        (fun ppf o ->
          Format.fprintf ppf "t%d#%d: transfer %d %d->%d" o.btid o.bop o.amount o.src o.dst);
      pp_res = (fun ppf (s, d) -> Format.fprintf ppf "read (%d, %d)" s d);
      pp_state =
        (fun ppf st ->
          Format.fprintf ppf "bal=[%s] seq=[%s]"
            (String.concat ";" (Array.to_list (Array.map string_of_int st.bal)))
            (String.concat ";" (Array.to_list (Array.map string_of_int st.bseq))));
    }
  in
  let fresh ~seed =
    let h = Dlin.History.create ~threads in
    let worker ~tid ptm =
      let rng = Rng.create (seed + (7919 * tid)) in
      let base = Ptm.root_get ptm root_slot in
      let now = vclock ptm in
      for op = 1 to ops do
        let src = Rng.int rng accounts in
        (* Never [src = dst]: both reads precede both writes in the
           transaction body, so an aliased transfer would net +amount
           and break the conservation invariant for unlucky seeds. *)
        let dst = (src + 1 + Rng.int rng (accounts - 1)) mod accounts in
        let amount = 1 + Rng.int rng 5 in
        let o = { btid = tid; bop = op; src; dst; amount } in
        ignore
          (Dlin.History.run h ~tid ~now o (fun () ->
               let res = ref (0, 0) in
               Ptm.atomic ptm (fun tx ->
                   let s = Ptm.read tx (base + src) in
                   let d = Ptm.read tx (base + dst) in
                   res := (s, d);
                   Ptm.write tx (base + src) (s - amount);
                   Ptm.write tx (base + dst) (d + amount);
                   (* The sequence cell makes lost/partial transactions
                      visible even when the transfer itself happens to
                      conserve money. *)
                   Ptm.write tx (base + accounts + tid) op);
               !res)
            : int * int)
      done
    in
    let oracle ~crashed:_ _sim ptm =
      let base = Ptm.root_get ptm root_slot in
      let recovered =
        Ptm.atomic ptm (fun tx ->
            {
              bal = Array.init accounts (fun i -> Ptm.read tx (base + i));
              bseq = Array.init threads (fun j -> Ptm.read tx (base + accounts + j));
            })
      in
      run_dlin spec h ~recovered
    in
    { Engine.worker; oracle = Some oracle; validate = Engine.no_validate }
  in
  {
    Engine.name = mode_name "bank" ~coalesce;
    threads;
    heap_words = 1 lsl 16;
    log_words_per_thread = 512;
    coalesce;
    prepare;
    fresh;
  }

(* ---------- counters: whole-write-set atomicity ---------- *)

type counters_op = { ctid : int; cop : int }

let counters ?(slots = 8) ?(threads = 4) ?(ops = 8) ?(coalesce = true) () =
  let prepare ptm =
    let base =
      Ptm.atomic ptm (fun tx ->
          let b = Ptm.alloc tx slots in
          for i = 0 to slots - 1 do
            Ptm.write tx (b + i) 0
          done;
          b)
    in
    Ptm.root_set ptm root_slot base
  in
  (* All slots always hold the same value, so the abstract state is one
     integer; the response (the new value) forces a near-total order —
     exactly-once increments fall out of the search. *)
  let spec =
    {
      Dlin.init = 0;
      apply = (fun st (_ : counters_op) -> (st + 1, st + 1));
      equal_state = Int.equal;
      hash_state = Fun.id;
      equal_res = Int.equal;
      commutes = (fun _ _ -> false);
      pp_op = (fun ppf o -> Format.fprintf ppf "t%d#%d: incr-all" o.ctid o.cop);
      pp_res = Format.pp_print_int;
      pp_state = (fun ppf v -> Format.fprintf ppf "slots=%d" v);
    }
  in
  let fresh ~seed:_ =
    let h = Dlin.History.create ~threads in
    let worker ~tid ptm =
      let base = Ptm.root_get ptm root_slot in
      let now = vclock ptm in
      for op = 1 to ops do
        ignore
          (Dlin.History.run h ~tid ~now { ctid = tid; cop = op } (fun () ->
               let res = ref 0 in
               Ptm.atomic ptm (fun tx ->
                   let v = Ptm.read tx (base + 0) + 1 in
                   res := v;
                   for i = 0 to slots - 1 do
                     Ptm.write tx (base + i) v
                   done);
               !res)
            : int)
      done
    in
    let oracle ~crashed:_ _sim ptm =
      let base = Ptm.root_get ptm root_slot in
      let values =
        Ptm.atomic ptm (fun tx -> List.init slots (fun i -> Ptm.read tx (base + i)))
      in
      let v0 = List.hd values in
      if List.exists (fun v -> v <> v0) values then
        extraction_fail spec h
          (Printf.sprintf "counters: slots diverge after recovery: [%s]"
             (String.concat "; " (List.map string_of_int values)))
      else run_dlin spec h ~recovered:v0
    in
    { Engine.worker; oracle = Some oracle; validate = Engine.no_validate }
  in
  {
    Engine.name = mode_name "counters" ~coalesce;
    threads;
    heap_words = 1 lsl 16;
    log_words_per_thread = 512;
    coalesce;
    prepare;
    fresh;
  }

(* ---------- btree: structural invariants + key-set bounds ---------- *)

type btree_op = { ttid : int; tkey : int; tvalue : int }

let btree ?(threads = 4) ?(ops = 8) ?(coalesce = true) () =
  let value_of key = (key * 3) + 1 in
  let prepare ptm =
    let t = Pstructs.Bptree.create ptm in
    Ptm.root_set ptm root_slot (Pstructs.Bptree.descriptor t)
  in
  let spec =
    {
      Dlin.init = IntMap.empty;
      apply =
        (fun st o -> (IntMap.add o.tkey o.tvalue st, not (IntMap.mem o.tkey st)));
      equal_state = IntMap.equal Int.equal;
      hash_state = (fun st -> IntMap.fold (fun k v h -> (h * 31) + (k lxor (v * 7))) st 17);
      equal_res = Bool.equal;
      commutes = (fun a b -> a.tkey <> b.tkey);
      pp_op = (fun ppf o -> Format.fprintf ppf "t%d: insert %d=%d" o.ttid o.tkey o.tvalue);
      pp_res = Format.pp_print_bool;
      pp_state =
        (fun ppf st ->
          Format.fprintf ppf "{%s}"
            (String.concat ";"
               (List.map
                  (fun (k, v) -> Printf.sprintf "%d=%d" k v)
                  (IntMap.bindings st))));
    }
  in
  let fresh ~seed:_ =
    let h = Dlin.History.create ~threads in
    let worker ~tid ptm =
      let t = Pstructs.Bptree.attach ptm (Ptm.root_get ptm root_slot) in
      let now = vclock ptm in
      for i = 1 to ops do
        let key = ((tid + 1) * 1000) + i in
        ignore
          (Dlin.History.run h ~tid ~now { ttid = tid; tkey = key; tvalue = value_of key }
             (fun () ->
               let res = ref false in
               Ptm.atomic ptm (fun tx ->
                   res := Pstructs.Bptree.insert tx t ~key ~value:(value_of key));
               !res)
            : bool)
      done
    in
    let oracle ~crashed:_ _sim ptm =
      let t = Pstructs.Bptree.attach ptm (Ptm.root_get ptm root_slot) in
      match Pstructs.Bptree.check_invariants t with
      | exception Failure e -> extraction_fail spec h ("btree: structural violation: " ^ e)
      | () ->
        let recovered =
          List.fold_left
            (fun m (k, v) -> IntMap.add k v m)
            IntMap.empty (Pstructs.Bptree.to_alist t)
        in
        run_dlin spec h ~recovered
    in
    { Engine.worker; oracle = Some oracle; validate = Engine.no_validate }
  in
  {
    Engine.name = mode_name "btree" ~coalesce;
    threads;
    heap_words = 1 lsl 17;
    log_words_per_thread = 2048;
    coalesce;
    prepare;
    fresh;
  }

(* ---------- MOD structures: buffered durability under the crash matrix ---------- *)

(* One scenario body shared by the MOD B+tree and the MOD hash table.
   Each thread works a private key range with a deterministic script —
   inserts of fresh keys, every fourth op removing the key inserted just
   before it.

   Durability is the interesting part: under algorithm [Mod] the root
   swap is published with an {e unfenced} flush, so a crash may lose a
   committed suffix of the serialized history.  The oracle therefore
   runs {!Dlin.check} with [`Buffered (threads + 2)] durability when the
   recovered PTM runs MOD and crashed: the commits after the durable
   snapshot all raced their root flush against the crash, one unfenced
   flush deep per thread plus scheduling slack, nowhere near
   "everything".  A run that did not crash, and every run under redo
   or undo logging (the same structures are legal strict-durable
   there), is judged strictly. *)

type mod_op = { mtid : int; mseq : int; mkey : int; minsert : bool; mvalue : int }

type 'h mod_struct = {
  ms_prepare : Ptm.t -> unit;
  ms_attach : Ptm.t -> int -> 'h;
  ms_insert : Ptm.tx -> 'h -> key:int -> value:int -> bool;
  ms_remove : Ptm.tx -> 'h -> int -> bool;
  ms_invariants : 'h -> unit;
  ms_alist : 'h -> (int * int) list;
}

let mod_value_of key = (key * 5) + 3

let mod_op_of ~tid ~i =
  let base = (tid + 1) * 1000 in
  if i mod 4 = 0 then
    { mtid = tid; mseq = i; mkey = base + i - 1; minsert = false; mvalue = 0 }
  else
    {
      mtid = tid;
      mseq = i;
      mkey = base + i;
      minsert = true;
      mvalue = mod_value_of (base + i);
    }

let mod_scenario (ms : _ mod_struct) ~name ?(threads = 3) ?(ops = 8) ?(coalesce = true) () =
  let spec =
    {
      Dlin.init = IntMap.empty;
      apply =
        (fun st o ->
          if o.minsert then (IntMap.add o.mkey o.mvalue st, not (IntMap.mem o.mkey st))
          else (IntMap.remove o.mkey st, IntMap.mem o.mkey st));
      equal_state = IntMap.equal Int.equal;
      hash_state = (fun st -> IntMap.fold (fun k v h -> (h * 31) + (k lxor (v * 7))) st 17);
      equal_res = Bool.equal;
      commutes = (fun a b -> a.mkey <> b.mkey);
      pp_op =
        (fun ppf o ->
          if o.minsert then
            Format.fprintf ppf "t%d#%d: insert %d=%d" o.mtid o.mseq o.mkey o.mvalue
          else Format.fprintf ppf "t%d#%d: remove %d" o.mtid o.mseq o.mkey);
      pp_res = Format.pp_print_bool;
      pp_state =
        (fun ppf st ->
          Format.fprintf ppf "{%s}"
            (String.concat ";"
               (List.map
                  (fun (k, v) -> Printf.sprintf "%d=%d" k v)
                  (IntMap.bindings st))));
    }
  in
  let fresh ~seed:_ =
    let h = Dlin.History.create ~threads in
    let worker ~tid ptm =
      let t = ms.ms_attach ptm (Ptm.root_get ptm root_slot) in
      let now = vclock ptm in
      for i = 1 to ops do
        let o = mod_op_of ~tid ~i in
        ignore
          (Dlin.History.run h ~tid ~now o (fun () ->
               let res = ref false in
               Ptm.atomic ptm (fun tx ->
                   res :=
                     if o.minsert then ms.ms_insert tx t ~key:o.mkey ~value:o.mvalue
                     else ms.ms_remove tx t o.mkey);
               !res)
            : bool)
      done
    in
    let oracle ~crashed _sim ptm =
      let t = ms.ms_attach ptm (Ptm.root_get ptm root_slot) in
      match ms.ms_invariants t with
      | exception Failure e -> extraction_fail spec h (name ^ ": structural violation: " ^ e)
      | () ->
        let recovered =
          List.fold_left (fun m (k, v) -> IntMap.add k v m) IntMap.empty (ms.ms_alist t)
        in
        let durability =
          if crashed && Ptm.algorithm ptm = Ptm.Mod then `Buffered (threads + 2) else `Strict
        in
        run_dlin ~durability spec h ~recovered
    in
    { Engine.worker; oracle = Some oracle; validate = Engine.no_validate }
  in
  {
    Engine.name = mode_name name ~coalesce;
    threads;
    heap_words = 1 lsl 18;
    log_words_per_thread = 2048;
    coalesce;
    prepare = ms.ms_prepare;
    fresh;
  }

let mod_btree ?threads ?ops ?coalesce () =
  mod_scenario
    {
      ms_prepare =
        (fun ptm ->
          let t = Pstructs.Mod_bptree.create ptm in
          Ptm.root_set ptm root_slot (Pstructs.Mod_bptree.descriptor t));
      ms_attach = Pstructs.Mod_bptree.attach;
      ms_insert = Pstructs.Mod_bptree.insert;
      ms_remove = Pstructs.Mod_bptree.remove;
      ms_invariants = Pstructs.Mod_bptree.check_invariants;
      ms_alist = Pstructs.Mod_bptree.to_alist;
    }
    ~name:"mod-btree" ?threads ?ops ?coalesce ()

let mod_hash ?threads ?ops ?coalesce () =
  mod_scenario
    {
      ms_prepare =
        (fun ptm ->
          let t = Pstructs.Mod_phashtable.create ptm ~buckets:64 in
          Ptm.root_set ptm root_slot (Pstructs.Mod_phashtable.descriptor t));
      ms_attach = Pstructs.Mod_phashtable.attach;
      ms_insert = Pstructs.Mod_phashtable.put;
      ms_remove = Pstructs.Mod_phashtable.remove;
      ms_invariants = Pstructs.Mod_phashtable.check_invariants;
      ms_alist = Pstructs.Mod_phashtable.to_alist;
    }
    ~name:"mod-hash" ?threads ?ops ?coalesce ()

(* ---------- alloc churn: allocator accounting under a slot directory ---------- *)

(* Each thread owns [ops] one-word slots of a persistent directory;
   operation [j] either allocates a fresh block (stamp in word 0,
   address-independent signature words after it) and publishes its
   address in slot [j], or frees the most recently acquired live block
   and zeroes its slot — each in one transaction.  The abstract state is
   just the stamp-per-slot vector, so the oracle never has to model the
   allocator's address choices; its extraction does the allocator
   accounting instead: every non-zero slot must name a live block of
   the recovered allocator, large enough for the scheduled size, whose
   signature words are intact. *)

type alloc_op =
  | Acquire of { atid : int; aslot : int; words : int; stamp : int }
  | Release of { rtid : int; rslot : int }

let alloc_payload_sig stamp k tid = (stamp * 31) + (k * 7) + tid + 1000

let alloc_churn ?(threads = 4) ?(ops = 10) ?(coalesce = true) () =
  let prepare ptm =
    let dir =
      Ptm.atomic ptm (fun tx ->
          let d = Ptm.alloc tx (threads * ops) in
          for i = 0 to (threads * ops) - 1 do
            Ptm.write tx (d + i) 0
          done;
          d)
    in
    Ptm.root_set ptm root_slot dir
  in
  let spec =
    {
      Dlin.init = Array.make (threads * ops) 0;
      apply =
        (fun st o ->
          let st = Array.copy st in
          (match o with
          | Acquire { atid; aslot; stamp; _ } -> st.((atid * ops) + aslot) <- stamp
          | Release { rtid; rslot } -> st.((rtid * ops) + rslot) <- 0);
          (st, ()));
      equal_state = ( = );
      hash_state = hash_int_array;
      equal_res = (fun () () -> true);
      (* Slots are per-thread and responses are unit, so cross-thread
         operations always commute — the search degenerates to checking
         each thread's durable prefix independently. *)
      commutes = (fun _ _ -> true);
      pp_op =
        (fun ppf -> function
          | Acquire { atid; aslot; words; stamp } ->
            Format.fprintf ppf "t%d: acquire slot %d (%d words, stamp %d)" atid aslot words
              stamp
          | Release { rtid; rslot } -> Format.fprintf ppf "t%d: release slot %d" rtid rslot);
      pp_res = (fun ppf () -> Format.pp_print_string ppf "()");
      pp_state =
        (fun ppf st ->
          Format.fprintf ppf "stamps=[%s]"
            (String.concat ";" (Array.to_list (Array.map string_of_int st))));
    }
  in
  let fresh ~seed =
    (* The op schedule is a pure function of the seed, so the oracle's
       extraction can look up each slot's expected block shape. *)
    let schedule =
      Array.init threads (fun tid ->
          let rng = Rng.create (seed + (104729 * tid)) in
          let owned = ref [] in
          Array.init ops (fun j ->
              if !owned <> [] && Rng.chance rng 0.3 then begin
                let slot = List.hd !owned in
                owned := List.tl !owned;
                Release { rtid = tid; rslot = slot }
              end
              else begin
                let words = 2 + Rng.int rng 6 in
                owned := j :: !owned;
                Acquire { atid = tid; aslot = j; words; stamp = ((tid + 1) * 1000) + j }
              end))
    in
    let h = Dlin.History.create ~threads in
    let worker ~tid ptm =
      let dir = Ptm.root_get ptm root_slot in
      let now = vclock ptm in
      Array.iter
        (fun op ->
          Dlin.History.run h ~tid ~now op (fun () ->
              match op with
              | Acquire { aslot; words; stamp; _ } ->
                Ptm.atomic ptm (fun tx ->
                    let a = Ptm.alloc tx words in
                    Ptm.write tx a stamp;
                    for k = 1 to words - 1 do
                      Ptm.write tx (a + k) (alloc_payload_sig stamp k tid)
                    done;
                    Ptm.write tx (dir + (tid * ops) + aslot) a)
              | Release { rslot; _ } ->
                Ptm.atomic ptm (fun tx ->
                    let a = Ptm.read tx (dir + (tid * ops) + rslot) in
                    Ptm.free tx a;
                    Ptm.write tx (dir + (tid * ops) + rslot) 0)))
        schedule.(tid)
    in
    (* Torn payloads fail first and a state no linearization explains
       next, so the counterexample names the most specific fault; a
       slot whose block the allocator does not hold live is reported
       only when everything else holds. *)
    let oracle ~crashed:_ _sim ptm =
      let dir = Ptm.root_get ptm root_slot in
      let first r fmt = Printf.ksprintf (fun s -> if !r = None then r := Some s) fmt in
      let err = ref None and unaccounted = ref None in
      let fail fmt = first err fmt in
      let live = Hashtbl.of_seq (List.to_seq (Pmem.Alloc.live_blocks (Ptm.allocator ptm))) in
      let recovered =
        Ptm.atomic ptm (fun tx ->
            Array.init (threads * ops) (fun i ->
                let tid = i / ops and j = i mod ops in
                let a = Ptm.read tx (dir + i) in
                if a = 0 then 0
                else
                  match schedule.(tid).(j) with
                  | Release _ ->
                    fail "alloc: slot %d.%d belongs to a release op but holds addr %d" tid j a;
                    0
                  | Acquire { words; stamp; _ } ->
                    (match Hashtbl.find_opt live a with
                    | Some w when w >= words -> ()
                    | Some w ->
                      first unaccounted
                        "alloc: slot %d.%d names a %d-word block at %d, scheduled %d" tid j w a
                        words
                    | None ->
                      first unaccounted "alloc: slot %d.%d names %d, not a live block" tid j a);
                    let found = Ptm.read tx a in
                    for k = 1 to words - 1 do
                      let v = Ptm.read tx (a + k) in
                      if v <> alloc_payload_sig stamp k tid then
                        fail "alloc: block %d (slot %d.%d) word %d holds %d, expected %d" a
                          tid j k v (alloc_payload_sig stamp k tid)
                    done;
                    found))
      in
      match (!err, !unaccounted) with
      | Some reason, _ -> extraction_fail spec h reason
      | None, None -> run_dlin spec h ~recovered
      | None, Some reason ->
        Result.bind (run_dlin spec h ~recovered) (fun () -> extraction_fail spec h reason)
    in
    { Engine.worker; oracle = Some oracle; validate = Engine.no_validate }
  in
  {
    Engine.name = mode_name "alloc" ~coalesce;
    threads;
    heap_words = 1 lsl 16;
    log_words_per_thread = 512;
    coalesce;
    prepare;
    fresh;
  }

(* ---------- kvserve: crash mid-batch ---------- *)

(* The KV service's coalesced write path: every thread commits batches
   of [batch] sets plus its batch-marker key in ONE transaction, so a
   crash anywhere inside the batch must leave either all of it or none
   of it — and the marker tells which.  Mirrors
   [Kvserve.Service]'s durable-prefix recovery contract at crash-point
   granularity. *)

let kv_value ~tid ~b ~k = Printf.sprintf "v%d.%d.%d" tid b k
let kv_key ~tid ~b ~k = Printf.sprintf "t%d.b%d.%d" tid b k

(* Markers are fixed-width so every update is a same-length in-place
   [Pblob.set] — one store, no realloc. *)
let kv_marker v = Printf.sprintf "%03d" v

type kv_batch_op = { ktid : int; kb : int; kn : int }

(* Key triples packed into one int for the abstract key set. *)
let kv_enc ~tid ~b ~k = (((tid * 1024) + b) * 1024) + k

let kv_batch ?(threads = 4) ?(ops = 5) ?(batch = 4) ?(coalesce = true) () =
  let prepare ptm =
    let store = Kvserve.Store.create ptm ~buckets:64 in
    Ptm.atomic ptm (fun tx ->
        for tid = 0 to threads - 1 do
          Kvserve.Store.set tx store ~key:(Printf.sprintf "m%d" tid) ~flags:0 (kv_marker 0)
        done)
  in
  let spec =
    {
      Dlin.init = (Array.make threads 0, IntSet.empty);
      apply =
        (fun (markers, keys) o ->
          let markers = Array.copy markers in
          markers.(o.ktid) <- o.kb;
          let keys = ref keys in
          for k = 0 to o.kn - 1 do
            keys := IntSet.add (kv_enc ~tid:o.ktid ~b:o.kb ~k) !keys
          done;
          ((markers, !keys), ()));
      equal_state =
        (fun (ma, ka) (mb, kb) -> ma = mb && IntSet.equal ka kb);
      hash_state =
        (fun (m, keys) ->
          IntSet.fold (fun e acc -> (acc * 31) + e) keys (hash_int_array m));
      equal_res = (fun () () -> true);
      commutes = (fun a b -> a.ktid <> b.ktid);
      pp_op = (fun ppf o -> Format.fprintf ppf "t%d: batch %d (%d keys)" o.ktid o.kb o.kn);
      pp_res = (fun ppf () -> Format.pp_print_string ppf "()");
      pp_state =
        (fun ppf (m, keys) ->
          Format.fprintf ppf "markers=[%s] keys=%d"
            (String.concat ";" (Array.to_list (Array.map string_of_int m)))
            (IntSet.cardinal keys));
    }
  in
  let fresh ~seed =
    (* Seeded per-batch jitter so crash candidates land at distinct
       phases of different threads' batches; precomputed so worker and
       oracle agree on every batch's width. *)
    let widths =
      Array.init threads (fun tid ->
          let rng = Rng.create (seed + (7919 * tid)) in
          Array.init ops (fun _ -> batch + Rng.int rng 2))
    in
    let h = Dlin.History.create ~threads in
    let worker ~tid ptm =
      let store = Kvserve.Store.attach ptm in
      let now = vclock ptm in
      for b = 1 to ops do
        let n = widths.(tid).(b - 1) in
        Dlin.History.run h ~tid ~now { ktid = tid; kb = b; kn = n } (fun () ->
            Ptm.atomic ptm (fun tx ->
                for k = 0 to n - 1 do
                  Kvserve.Store.set tx store ~key:(kv_key ~tid ~b ~k) ~flags:tid
                    (kv_value ~tid ~b ~k)
                done;
                Kvserve.Store.set tx store ~key:(Printf.sprintf "m%d" tid) ~flags:0
                  (kv_marker b)))
      done
    in
    let oracle ~crashed:_ _sim ptm =
      let store = Kvserve.Store.attach ptm in
      let err = ref None in
      let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
      let recovered =
        Ptm.atomic ptm (fun tx ->
            let markers =
              Array.init threads (fun tid ->
                  match Kvserve.Store.get tx store (Printf.sprintf "m%d" tid) with
                  | None ->
                    fail "kv-batch: thread %d marker key missing" tid;
                    0
                  | Some (_, m) -> int_of_string m)
            in
            let keys = ref IntSet.empty in
            for tid = 0 to threads - 1 do
              for b = 1 to ops do
                for k = 0 to widths.(tid).(b - 1) - 1 do
                  match Kvserve.Store.get tx store (kv_key ~tid ~b ~k) with
                  | None -> ()
                  | Some (flags, v) ->
                    if flags <> tid || not (String.equal v (kv_value ~tid ~b ~k)) then
                      fail "kv-batch: key %s holds %S flags %d" (kv_key ~tid ~b ~k) v flags;
                    keys := IntSet.add (kv_enc ~tid ~b ~k) !keys
                done
              done
            done;
            (markers, !keys))
      in
      match !err with
      | Some reason -> extraction_fail spec h reason
      | None -> run_dlin spec h ~recovered
    in
    { Engine.worker; oracle = Some oracle; validate = Engine.no_validate }
  in
  {
    Engine.name = mode_name "kv-batch" ~coalesce;
    threads;
    heap_words = 1 lsl 16;
    log_words_per_thread = 4096;
    coalesce;
    prepare;
    fresh;
  }

(* ---------- kvserve: crash between per-shard commits ---------- *)

(* Two stores stand in for two shards of the service sharing a crash
   domain.  Each logical operation commits to shard A, then shard B —
   two independent transactions — so a crash in the window between
   them must leave A exactly one operation ahead of B, never more,
   never the other order.  Under the dlin oracle each per-shard commit
   is its own operation, so the B <= A <= B+1 bound is just "durable
   sets are per-thread prefixes". *)

type kv_xshard_op = XSetA of { xtid : int; xo : int } | XSetB of { xtid : int; xo : int }

let kv_xshard ?(threads = 4) ?(ops = 6) ?(coalesce = true) () =
  let base_a = 0 and base_b = 2 in
  let prepare ptm =
    let a = Kvserve.Store.create ~root_base:base_a ptm ~buckets:32 in
    let b = Kvserve.Store.create ~root_base:base_b ptm ~buckets:32 in
    Ptm.atomic ptm (fun tx ->
        for tid = 0 to threads - 1 do
          Kvserve.Store.set tx a ~key:(Printf.sprintf "ma%d" tid) ~flags:0 (kv_marker 0);
          Kvserve.Store.set tx b ~key:(Printf.sprintf "mb%d" tid) ~flags:0 (kv_marker 0)
        done)
  in
  let spec =
    {
      Dlin.init = (Array.make threads 0, Array.make threads 0, IntSet.empty);
      apply =
        (fun (ma, mb, keys) o ->
          match o with
          | XSetA { xtid; xo } ->
            let ma = Array.copy ma in
            ma.(xtid) <- xo;
            ((ma, mb, IntSet.add (kv_enc ~tid:xtid ~b:xo ~k:0) keys), ())
          | XSetB { xtid; xo } ->
            let mb = Array.copy mb in
            mb.(xtid) <- xo;
            ((ma, mb, IntSet.add (kv_enc ~tid:xtid ~b:xo ~k:1) keys), ()));
      equal_state =
        (fun (ma, mb, ka) (ma', mb', kb) -> ma = ma' && mb = mb' && IntSet.equal ka kb);
      hash_state =
        (fun (ma, mb, keys) ->
          IntSet.fold
            (fun e acc -> (acc * 31) + e)
            keys
            ((hash_int_array ma * 31) + hash_int_array mb));
      equal_res = (fun () () -> true);
      commutes =
        (fun a b ->
          let tid = function XSetA { xtid; _ } | XSetB { xtid; _ } -> xtid in
          tid a <> tid b);
      pp_op =
        (fun ppf -> function
          | XSetA { xtid; xo } -> Format.fprintf ppf "t%d: set A #%d" xtid xo
          | XSetB { xtid; xo } -> Format.fprintf ppf "t%d: set B #%d" xtid xo);
      pp_res = (fun ppf () -> Format.pp_print_string ppf "()");
      pp_state =
        (fun ppf (ma, mb, _) ->
          Format.fprintf ppf "A=[%s] B=[%s]"
            (String.concat ";" (Array.to_list (Array.map string_of_int ma)))
            (String.concat ";" (Array.to_list (Array.map string_of_int mb))));
    }
  in
  (* No per-seed randomness: the interleaving the engine explores comes
     entirely from the crash instant. *)
  let fresh ~seed:_ =
    let h = Dlin.History.create ~threads in
    let worker ~tid ptm =
      let a = Kvserve.Store.attach ~root_base:base_a ptm in
      let b = Kvserve.Store.attach ~root_base:base_b ptm in
      let now = vclock ptm in
      for o = 1 to ops do
        Dlin.History.run h ~tid ~now (XSetA { xtid = tid; xo = o }) (fun () ->
            Ptm.atomic ptm (fun tx ->
                Kvserve.Store.set tx a ~key:(Printf.sprintf "a.t%d.%d" tid o) ~flags:o
                  (kv_value ~tid ~b:o ~k:0);
                Kvserve.Store.set tx a ~key:(Printf.sprintf "ma%d" tid) ~flags:0 (kv_marker o)));
        Dlin.History.run h ~tid ~now (XSetB { xtid = tid; xo = o }) (fun () ->
            Ptm.atomic ptm (fun tx ->
                Kvserve.Store.set tx b ~key:(Printf.sprintf "b.t%d.%d" tid o) ~flags:o
                  (kv_value ~tid ~b:o ~k:1);
                Kvserve.Store.set tx b ~key:(Printf.sprintf "mb%d" tid) ~flags:0 (kv_marker o)))
      done
    in
    let oracle ~crashed:_ _sim ptm =
      let a = Kvserve.Store.attach ~root_base:base_a ptm in
      let b = Kvserve.Store.attach ~root_base:base_b ptm in
      let err = ref None in
      let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
      let recovered =
        Ptm.atomic ptm (fun tx ->
            let marker store name tid =
              match Kvserve.Store.get tx store (Printf.sprintf "%s%d" name tid) with
              | None ->
                fail "kv-xshard: thread %d %s marker missing" tid name;
                0
              | Some (_, m) -> int_of_string m
            in
            let ma = Array.init threads (marker a "ma") in
            let mb = Array.init threads (marker b "mb") in
            let keys = ref IntSet.empty in
            for tid = 0 to threads - 1 do
              for o = 1 to ops do
                (match Kvserve.Store.get tx a (Printf.sprintf "a.t%d.%d" tid o) with
                | None -> ()
                | Some (flags, v) ->
                  if flags <> o || not (String.equal v (kv_value ~tid ~b:o ~k:0)) then
                    fail "kv-xshard: key a.t%d.%d holds %S flags %d" tid o v flags;
                  keys := IntSet.add (kv_enc ~tid ~b:o ~k:0) !keys);
                match Kvserve.Store.get tx b (Printf.sprintf "b.t%d.%d" tid o) with
                | None -> ()
                | Some (flags, v) ->
                  if flags <> o || not (String.equal v (kv_value ~tid ~b:o ~k:1)) then
                    fail "kv-xshard: key b.t%d.%d holds %S flags %d" tid o v flags;
                  keys := IntSet.add (kv_enc ~tid ~b:o ~k:1) !keys
              done
            done;
            (ma, mb, !keys))
      in
      match !err with
      | Some reason -> extraction_fail spec h reason
      | None -> run_dlin spec h ~recovered
    in
    { Engine.worker; oracle = Some oracle; validate = Engine.no_validate }
  in
  {
    Engine.name = mode_name "kv-xshard" ~coalesce;
    threads;
    heap_words = 1 lsl 16;
    log_words_per_thread = 4096;
    coalesce;
    prepare;
    fresh;
  }

(* ---------- kvserve: exactly-once increments ---------- *)

(* A single shared memcached-style counter bumped by every thread
   through [Kvserve.Store.incr].  The response (the new value) pins
   each increment to one slot of a total order, so the dlin search is
   the exactly-once oracle: a replayed increment (value seen twice) or
   a lost committed one has no explaining linearization. *)

type kv_incr_op = { itid : int; iop : int }

let kv_incr_key = "ctr"

let kv_incr ?(threads = 4) ?(ops = 6) ?(coalesce = true) () =
  let prepare ptm =
    let store = Kvserve.Store.create ptm ~buckets:32 in
    Ptm.atomic ptm (fun tx -> Kvserve.Store.set tx store ~key:kv_incr_key ~flags:0 "0")
  in
  let spec =
    {
      Dlin.init = 0;
      apply = (fun st (_ : kv_incr_op) -> (st + 1, st + 1));
      equal_state = Int.equal;
      hash_state = Fun.id;
      equal_res = Int.equal;
      commutes = (fun _ _ -> false);
      pp_op = (fun ppf o -> Format.fprintf ppf "t%d#%d: incr" o.itid o.iop);
      pp_res = Format.pp_print_int;
      pp_state = (fun ppf v -> Format.fprintf ppf "ctr=%d" v);
    }
  in
  let fresh ~seed:_ =
    let h = Dlin.History.create ~threads in
    let worker ~tid ptm =
      let store = Kvserve.Store.attach ptm in
      let now = vclock ptm in
      for op = 1 to ops do
        ignore
          (Dlin.History.run h ~tid ~now { itid = tid; iop = op } (fun () ->
               let res = ref 0 in
               Ptm.atomic ptm (fun tx ->
                   match Kvserve.Store.incr tx store kv_incr_key 1 with
                   | Kvserve.Store.New_value v -> res := v
                   | Missing | Not_numeric -> failwith "kv-incr: counter unreadable");
               !res)
            : int)
      done
    in
    let read_counter ptm =
      let store = Kvserve.Store.attach ptm in
      Ptm.atomic ptm (fun tx ->
          match Kvserve.Store.get tx store kv_incr_key with
          | None -> Error "kv-incr: counter key missing"
          | Some (_, v) -> (
            match int_of_string_opt v with
            | None -> Error (Printf.sprintf "kv-incr: counter holds non-numeric %S" v)
            | Some n -> Ok n))
    in
    let oracle ~crashed:_ _sim ptm =
      match read_counter ptm with
      | Error reason -> extraction_fail spec h reason
      | Ok n -> run_dlin spec h ~recovered:n
    in
    { Engine.worker; oracle = Some oracle; validate = Engine.no_validate }
  in
  {
    Engine.name = mode_name "kv-incr" ~coalesce;
    threads;
    heap_words = 1 lsl 16;
    log_words_per_thread = 4096;
    coalesce;
    prepare;
    fresh;
  }

(* ---------- FAMS: bank over the snapshot API ---------- *)

type fams_bank_op = { fop : int; fsrc : int; fdst : int; famount : int }
type fams_bank_state = { fbal : int array; fseq : int }

(* The msync twin of {!bank}: one mutator transfers between scattered
   one-word accounts in the FAMS working area and calls [msync_atomic]
   every [sync_every] operations.  Recovery restores the last completed
   sync — FAMS's durability point — so after a crash the dlin oracle
   accepts a cut that loses only operations completed after it:
   [`Buffered (completed - synced)]. *)
let fams_bank ?(accounts = 256) ?(ops = 80) ?(sync_every = 8) () =
  let initial = 100 in
  let spread = 4 in
  (* accounts * spread = 1024 words: the working area spans two pages,
     so line- and page-granularity sweeps journal different unit sets. *)
  let seq_addr = accounts * spread in
  let words = seq_addr + 1 in
  let spec =
    {
      Dlin.init = { fbal = Array.make accounts initial; fseq = 0 };
      apply =
        (fun st o ->
          let fbal = Array.copy st.fbal in
          let s = fbal.(o.fsrc) and d = fbal.(o.fdst) in
          fbal.(o.fsrc) <- s - o.famount;
          fbal.(o.fdst) <- d + o.famount;
          ({ fbal; fseq = o.fop }, (s, d)));
      equal_state = (fun a b -> a.fbal = b.fbal && a.fseq = b.fseq);
      hash_state = (fun st -> (hash_int_array st.fbal * 31) + st.fseq);
      equal_res = ( = );
      (* Single mutator: the checker never asks about same-thread
         pairs, so commutativity is moot. *)
      commutes = (fun _ _ -> false);
      pp_op =
        (fun ppf o ->
          Format.fprintf ppf "#%d: transfer %d %d->%d" o.fop o.famount o.fsrc o.fdst);
      pp_res = (fun ppf (s, d) -> Format.fprintf ppf "read (%d, %d)" s d);
      pp_state =
        (fun ppf st ->
          Format.fprintf ppf "seq=%d bal=[%s]" st.fseq
            (String.concat ";" (Array.to_list (Array.map string_of_int st.fbal))));
    }
  in
  let f_prepare fams =
    for i = 0 to accounts - 1 do
      Fams.raw_write fams (i * spread) initial
    done;
    Fams.raw_write fams seq_addr 0
  in
  let f_fresh ~seed =
    let synced = ref 0 in
    let h = Dlin.History.create ~threads:1 in
    let worker ~tid fams =
      let rng = Rng.create (seed + 7919) in
      let now = (Pmem.Region.machine (Fams.region fams)).Machine.now_ns in
      for op = 1 to ops do
        let src = Rng.int rng accounts in
        (* Never [src = dst]: both reads precede both writes. *)
        let dst = (src + 1 + Rng.int rng (accounts - 1)) mod accounts in
        let amount = 1 + Rng.int rng 5 in
        let o = { fop = op; fsrc = src; fdst = dst; famount = amount } in
        ignore
          (Dlin.History.run h ~tid ~now o (fun () ->
               let s = Fams.read fams (src * spread) in
               let d = Fams.read fams (dst * spread) in
               Fams.write fams (src * spread) (s - amount);
               Fams.write fams (dst * spread) (d + amount);
               Fams.write fams seq_addr op;
               if op mod sync_every = 0 then begin
                 Fams.msync_atomic fams;
                 synced := op
               end;
               (s, d))
            : int * int)
      done
    in
    let oracle ~crashed _sim fams =
      let recovered =
        {
          fbal = Array.init accounts (fun i -> Fams.raw_read fams (i * spread));
          fseq = Fams.raw_read fams seq_addr;
        }
      in
      let durability =
        if crashed then `Buffered (Dlin.History.completed h - !synced) else `Strict
      in
      run_dlin ~durability spec h ~recovered
    in
    { Engine.worker; oracle = Some oracle; validate = Engine.no_validate }
  in
  { Engine.f_name = "fams-bank"; f_words = words; f_prepare; f_fresh }

let fams_all () = [ fams_bank () ]

let fams_find name =
  match List.find_opt (fun s -> s.Engine.f_name = name) (fams_all ()) with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Scenarios.fams_find: unknown FAMS scenario %S" name)

let all () =
  [
    bank ();
    counters ();
    btree ();
    mod_btree ();
    mod_hash ();
    alloc_churn ();
    kv_batch ();
    kv_xshard ();
    kv_incr ();
    (* The naive per-entry flush discipline is a distinct persistence
       schedule, so its crash points are swept separately. *)
    bank ~coalesce:false ();
    btree ~coalesce:false ();
  ]

let find name =
  match List.find_opt (fun s -> s.Engine.name = name) (all ()) with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Scenarios.find: unknown scenario %S" name)

(* ---------- the crash matrix and the name resolver ---------- *)

type cell = { scenario : string; model : Memsim.Config.model; algorithm : string }

let models =
  Memsim.Config.[ optane_adr; optane_eadr; pdram; pdram_lite; transient_cache; htm_commit ]

(* Undo's eager in-place stores are pointless inside a hardware
   transaction; the HTM-commit domain sweeps the Htm algorithm
   instead.  The MOD structure scenarios sweep the Mod algorithm
   (their buffered single-fence discipline) plus Redo as the
   strict-durability differential — Undo/Htm would add nothing the
   other scenarios don't already cover. *)
let algorithms_for model (scenario : Engine.scenario) =
  if String.starts_with ~prefix:"mod-" scenario.name then [ Ptm.Mod; Ptm.Redo ]
  else if model == Memsim.Config.htm_commit then [ Ptm.Redo; Ptm.Htm ]
  else [ Ptm.Redo; Ptm.Undo ]

let fams_models =
  Memsim.Config.[ optane_adr; optane_eadr; transient_cache; pdram; pdram_lite ]

let ( let* ) l f = List.concat_map f l

let ptm_cells () =
  let* (s : Engine.scenario) = all () in
  let* model = models in
  let* a = algorithms_for model s in
  [ { scenario = s.name; model; algorithm = Ptm.algorithm_name a } ]

let fams_cells () =
  let* (s : Engine.fams_scenario) = fams_all () in
  let* model = fams_models in
  let* g = [ Fams.Line; Fams.Page ] in
  [ { scenario = s.f_name; model; algorithm = Engine.fams_algorithm_name g } ]

let matrix () = ptm_cells () @ fams_cells ()

let subject ?inject ~scenario ~algorithm () =
  let bug of_name api =
    match inject with
    | None -> Ok None
    | Some name -> (
      match (of_name name, Ptm.inject_of_name name, Fams.inject_of_name name) with
      | Some i, _, _ -> Ok (Some i)
      | None, None, None -> invalid_arg (Printf.sprintf "Scenarios.subject: unknown inject %S" name)
      | None, _, _ -> Error (Printf.sprintf "inject %S is not a %s bug" name api))
  in
  let alg = String.lowercase_ascii algorithm in
  match
    ( List.find_opt (fun a -> Ptm.algorithm_name a = alg) [ Ptm.Redo; Ptm.Undo; Ptm.Htm; Ptm.Mod ],
      List.find_opt (fun g -> Engine.fams_algorithm_name g = algorithm) [ Fams.Line; Fams.Page ] )
  with
  | Some algorithm, _ ->
    let scenario = find scenario in
    Result.map
      (fun inject -> Engine.Subject.ptm ?inject ~algorithm scenario)
      (bug Ptm.inject_of_name "PTM")
  | None, Some granularity ->
    let scenario = fams_find scenario in
    Result.map
      (fun inject -> Engine.Subject.fams ?inject ~granularity scenario)
      (bug Fams.inject_of_name "FAMS")
  | None, None -> invalid_arg (Printf.sprintf "Scenarios.subject: unknown algorithm %S" algorithm)
