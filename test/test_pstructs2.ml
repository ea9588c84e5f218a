(* Second pstructs suite: skiplist and range scans. *)

open Pstructs
module Ptm = Pstm.Ptm
module Sim = Memsim.Sim

let fixture ?heap_words () = Helpers.pstructs_fixture ?heap_words ()

(* ---------- skiplist ---------- *)

let test_skiplist_insert_find () =
  let _, _, ptm = fixture () in
  let s = Pskiplist.create ptm in
  Ptm.atomic ptm (fun tx ->
      List.iter
        (fun k -> Helpers.check_bool "fresh" true (Pskiplist.insert tx s ~key:k ~value:(k * 2)))
        [ 5; 1; 9; 3; 7 ]);
  Ptm.atomic ptm (fun tx ->
      Alcotest.(check (option int)) "find 7" (Some 14) (Pskiplist.find tx s 7);
      Alcotest.(check (option int)) "find missing" None (Pskiplist.find tx s 4);
      Helpers.check_bool "upsert" false (Pskiplist.insert tx s ~key:7 ~value:0);
      Alcotest.(check (option int)) "updated" (Some 0) (Pskiplist.find tx s 7));
  Pskiplist.check_invariants s;
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ]
    (List.map fst (Pskiplist.to_alist s))

let test_skiplist_remove () =
  let _, _, ptm = fixture () in
  let s = Pskiplist.create ptm in
  for k = 1 to 100 do
    Ptm.atomic ptm (fun tx -> ignore (Pskiplist.insert tx s ~key:k ~value:k))
  done;
  Ptm.atomic ptm (fun tx ->
      for k = 1 to 100 do
        if k mod 3 = 0 then Helpers.check_bool "removed" true (Pskiplist.remove tx s k)
      done;
      Helpers.check_bool "already gone" false (Pskiplist.remove tx s 3));
  Pskiplist.check_invariants s;
  Helpers.check_int "two thirds left" 67 (List.length (Pskiplist.to_alist s))

let test_skiplist_towers_exist () =
  let _, _, ptm = fixture () in
  let s = Pskiplist.create ptm in
  for k = 1 to 500 do
    Ptm.atomic ptm (fun tx -> ignore (Pskiplist.insert tx s ~key:k ~value:k))
  done;
  (* With 500 nodes at p=1/2 the expected number of towers above level
     3 is ~60; the structure degenerates to a list if levels are broken. *)
  Pskiplist.check_invariants s;
  Helpers.check_int "all present" 500 (List.length (Pskiplist.to_alist s))

let prop_skiplist_matches_map =
  Helpers.qtest ~count:25 "skiplist behaves like Map"
    (Helpers.kv_ops_gen ~key_range:200 ~ops:3 ())
    (fun ops ->
      let module M = Map.Make (Int) in
      let _, _, ptm = fixture () in
      let s = Pskiplist.create ptm in
      let m = ref M.empty in
      List.iteri
        (fun i (key, op) ->
          Ptm.atomic ptm (fun tx ->
              match op with
              | 0 ->
                ignore (Pskiplist.insert tx s ~key ~value:i);
                m := M.add key i !m
              | 1 ->
                if Pskiplist.find tx s key <> M.find_opt key !m then failwith "find mismatch"
              | _ ->
                if Pskiplist.remove tx s key <> M.mem key !m then failwith "remove mismatch";
                m := M.remove key !m))
        ops;
      Pskiplist.check_invariants s;
      Pskiplist.to_alist s = M.bindings !m)

let test_skiplist_concurrent () =
  let sim, _, ptm = fixture () in
  let s = Pskiplist.create ptm in
  Helpers.run_workers sim 4 (fun tid ->
      for i = 1 to 150 do
        let key = (tid * 1000) + i in
        Ptm.atomic ptm (fun tx -> ignore (Pskiplist.insert tx s ~key ~value:key))
      done);
  Pskiplist.check_invariants s;
  Helpers.check_int "all inserted" 600 (List.length (Pskiplist.to_alist s))

let test_skiplist_crash_consistency () =
  let sim, _, ptm = fixture () in
  let s = Pskiplist.create ptm in
  Ptm.root_set ptm 0 (Pskiplist.descriptor s);
  Sim.persist_all sim;
  Helpers.run_workers sim 4 ~crash_at:200_000 (fun tid ->
      let rng = Repro_util.Rng.create (tid + 3) in
      for _ = 1 to 5_000 do
        let key = 1 + Repro_util.Rng.int rng 1_000 in
        Ptm.atomic ptm (fun tx ->
            if Repro_util.Rng.chance rng 0.7 then ignore (Pskiplist.insert tx s ~key ~value:key)
            else ignore (Pskiplist.remove tx s key))
      done);
  let _sim', _m', ptm' = Helpers.reboot_and_recover sim in
  let s' = Pskiplist.attach ptm' (Ptm.root_get ptm' 0) in
  Pskiplist.check_invariants s';
  Ptm.atomic ptm' (fun tx -> ignore (Pskiplist.insert tx s' ~key:5_000 ~value:1));
  Ptm.atomic ptm' (fun tx ->
      Alcotest.(check (option int)) "usable after recovery" (Some 1) (Pskiplist.find tx s' 5_000))

(* ---------- skiplist and btree range folds ---------- *)

let test_skiplist_fold_range () =
  let _, _, ptm = fixture () in
  let s = Pskiplist.create ptm in
  Ptm.atomic ptm (fun tx ->
      for k = 1 to 50 do
        ignore (Pskiplist.insert tx s ~key:(k * 2) ~value:k)
      done);
  let keys =
    Ptm.atomic ptm (fun tx ->
        List.rev (Pskiplist.fold_range tx s ~lo:10 ~hi:20 (fun acc k _ -> k :: acc) []))
  in
  Alcotest.(check (list int)) "range" [ 10; 12; 14; 16; 18; 20 ] keys

let test_btree_fold_range () =
  let _, _, ptm = fixture () in
  let t = Bptree.create ptm in
  Ptm.atomic ptm (fun tx ->
      for k = 1 to 200 do
        ignore (Bptree.insert tx t ~key:k ~value:(k * 10))
      done);
  let sum =
    Ptm.atomic ptm (fun tx -> Bptree.fold_range tx t ~lo:50 ~hi:59 (fun acc _ v -> acc + v) 0)
  in
  Helpers.check_int "sum of values 500..590" 5450 sum;
  let empty =
    Ptm.atomic ptm (fun tx -> Bptree.fold_range tx t ~lo:1000 ~hi:2000 (fun acc _ _ -> acc + 1) 0)
  in
  Helpers.check_int "empty range" 0 empty

let prop_btree_range_matches_filter =
  Helpers.qtest ~count:25 "btree fold_range = filtered bindings"
    QCheck2.Gen.(triple (list (int_range 1 300)) (int_range 1 300) (int_range 0 100))
    (fun (keys, lo, span) ->
      let hi = lo + span in
      let _, _, ptm = fixture () in
      let t = Bptree.create ptm in
      List.iter
        (fun k -> Ptm.atomic ptm (fun tx -> ignore (Bptree.insert tx t ~key:k ~value:k)))
        keys;
      let got =
        Ptm.atomic ptm (fun tx ->
            List.rev (Bptree.fold_range tx t ~lo ~hi (fun acc k _ -> k :: acc) []))
      in
      let expect =
        List.filter (fun k -> k >= lo && k <= hi) (List.sort_uniq compare keys)
      in
      got = expect)

(* ---------- blobs ---------- *)

let test_blob_roundtrip () =
  let _, _, ptm = fixture () in
  Ptm.atomic ptm (fun tx ->
      let b = Pblob.alloc tx "hello, persistent world" in
      Helpers.check_int "length" 23 (Pblob.length tx b);
      Alcotest.(check string) "roundtrip" "hello, persistent world" (Pblob.get tx b));
  ()

let test_blob_all_lengths () =
  let _, _, ptm = fixture () in
  Ptm.atomic ptm (fun tx ->
      for len = 0 to 40 do
        let s = String.init len (fun i -> Char.chr (32 + ((i * 7) mod 90))) in
        let b = Pblob.alloc tx s in
        if Pblob.get tx b <> s then Alcotest.failf "roundtrip failed at length %d" len
      done)

let test_blob_set_and_compare () =
  let _, _, ptm = fixture () in
  let b = Ptm.atomic ptm (fun tx -> Pblob.alloc tx "aaaaaaaaaa") in
  Ptm.atomic ptm (fun tx ->
      Helpers.check_bool "equal before" true (Pblob.equal_string tx b "aaaaaaaaaa");
      Pblob.set tx b "bbbbbbbbbb";
      Helpers.check_bool "equal after" true (Pblob.equal_string tx b "bbbbbbbbbb");
      Helpers.check_bool "not equal to other" false (Pblob.equal_string tx b "bbbbbbbbbc");
      Helpers.check_bool "length mismatch false" false (Pblob.equal_string tx b "bb"));
  Alcotest.check_raises "set length mismatch"
    (Invalid_argument "Pblob.set: length mismatch")
    (fun () -> Ptm.atomic ptm (fun tx -> Pblob.set tx b "short"))

let test_blob_abort_rolls_back () =
  let _, _, ptm = fixture () in
  let b = Ptm.atomic ptm (fun tx -> Pblob.alloc tx "original..") in
  (try
     Ptm.atomic ptm (fun tx ->
         Pblob.set tx b "clobbered!";
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "rolled back" "original.." (Pblob.raw_get ptm b)

let prop_blob_roundtrip =
  Helpers.qtest ~count:50 "blob roundtrips any string" QCheck2.Gen.(string_size (int_range 0 64))
    (fun s ->
      let _, _, ptm = fixture ~heap_words:(1 lsl 16) () in
      let b = Ptm.atomic ptm (fun tx -> Pblob.alloc tx s) in
      Pblob.raw_get ptm b = s)

(* ---------- persistent arrays ---------- *)

let test_parray_basics () =
  let _, _, ptm = fixture () in
  let a = Ptm.atomic ptm (fun tx -> Parray.create tx ~init:7 1000) in
  Helpers.check_int "length" 1000 (Parray.length a);
  Ptm.atomic ptm (fun tx ->
      Helpers.check_int "init value" 7 (Parray.get tx a 999);
      Parray.set tx a 500 42;
      Helpers.check_int "set/get" 42 (Parray.get tx a 500));
  Ptm.atomic ptm (fun tx ->
      Helpers.check_int "sum" ((999 * 7) + 42) (Parray.fold tx a ( + ) 0))

let test_parray_bounds () =
  let _, _, ptm = fixture () in
  let a = Ptm.atomic ptm (fun tx -> Parray.create tx ~init:0 10) in
  Alcotest.check_raises "oob" (Invalid_argument "Parray: index 10 out of bounds") (fun () ->
      Ptm.atomic ptm (fun tx -> ignore (Parray.get tx a 10)))

let test_parray_attach () =
  let _, _, ptm = fixture () in
  let a = Ptm.atomic ptm (fun tx -> Parray.create tx ~init:3 900) in
  let a' = Parray.attach ptm (Parray.descriptor a) in
  Helpers.check_int "attached length" 900 (Parray.length a');
  Helpers.check_int "raw oracle" (900 * 3)
    (List.fold_left ( + ) 0 (Parray.to_list_raw ptm a'))

let test_parray_crash_rollback () =
  let _, _, ptm = fixture () in
  let a = Ptm.atomic ptm (fun tx -> Parray.create tx ~init:1 64) in
  (try
     Ptm.atomic ptm (fun tx ->
         Parray.set tx a 5 999;
         failwith "boom")
   with Failure _ -> ());
  Ptm.atomic ptm (fun tx -> Helpers.check_int "rolled back" 1 (Parray.get tx a 5))

(* ---------- on-disk media image ---------- *)

let test_image_roundtrip_across_machines () =
  let path = Filename.temp_file "pdimg" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let cfg = Memsim.Config.make ~heap_words:(1 lsl 16) Memsim.Config.optane_adr in
      let sim = Sim.create cfg in
      let m = Sim.machine sim in
      let ptm = Ptm.create ~max_threads:8 ~log_words_per_thread:1024 m in
      let tree = Bptree.create ptm in
      Ptm.root_set ptm 0 (Bptree.descriptor tree);
      for k = 1 to 200 do
        Ptm.atomic ptm (fun tx -> ignore (Bptree.insert tx tree ~key:k ~value:(k * k)))
      done;
      Memsim.Sim.persist_all sim;
      Sim.save_image sim path;
      (* A brand-new machine, as a second process would see it. *)
      let sim' = Sim.load_image cfg path in
      let ptm' = Ptm.recover (Sim.machine sim') in
      let tree' = Bptree.attach ptm' (Ptm.root_get ptm' 0) in
      Bptree.check_invariants tree';
      Ptm.atomic ptm' (fun tx ->
          Alcotest.(check (option int)) "data crossed processes" (Some (150 * 150))
            (Bptree.lookup tx tree' 150)))

let test_truncated_image_rejected () =
  let path = Filename.temp_file "pdimg" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let cfg = Memsim.Config.make ~heap_words:(1 lsl 14) Memsim.Config.optane_adr in
      let sim = Sim.create cfg in
      Sim.save_image sim path;
      (* Tear the image mid-payload, as a crash during [save_image]
         would.  The loader must report corruption (with context), not
         leak [End_of_file] or hand back a half-image. *)
      let whole = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub whole 0 (String.length whole / 2)));
      (match Sim.load_image cfg path with
      | _ -> Alcotest.fail "expected Corrupt_image for a torn image"
      | exception Machine.Corrupt_image msg ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        Helpers.check_bool "message carries the path" true (contains msg path));
      (* A missing image is a different condition: plain [Sys_error]. *)
      Sys.remove path;
      (match Sim.load_image cfg path with
      | _ -> Alcotest.fail "expected Sys_error for a missing image"
      | exception Sys_error _ -> ());
      (* Recreate so the [finally] remove has something to delete. *)
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc ""))

let test_image_size_mismatch_rejected () =
  let path = Filename.temp_file "pdimg" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let cfg = Memsim.Config.make ~heap_words:(1 lsl 14) Memsim.Config.optane_adr in
      let sim = Sim.create cfg in
      Sim.save_image sim path;
      let other = Memsim.Config.make ~heap_words:(1 lsl 15) Memsim.Config.optane_adr in
      match Sim.load_image other path with
      | _ -> Alcotest.fail "expected size mismatch"
      | exception Machine.Corrupt_image _ -> ())

(* [save_image] writes chunks in strictly increasing index order; a
   payload that repeats a chunk (the later one would silently win) or
   goes backwards is corrupt.  The header here is the real format's. *)
let test_image_chunk_order_enforced () =
  let cfg = Memsim.Config.make ~heap_words:(1 lsl 14) Memsim.Config.optane_adr in
  let chunk v = Array.make Memsim.Pheap.chunk_words v in
  let write path pairs =
    Out_channel.with_open_bin path (fun oc ->
        List.iter (output_binary_int oc)
          [ 0x50444D53; cfg.Memsim.Config.heap_words; Memsim.Pheap.chunk_words; List.length pairs ];
        Marshal.to_channel oc (pairs : (int * int array) list) [])
  in
  let path = Filename.temp_file "pdimg" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write path [ (3, chunk 7); (5, chunk 9) ];
      let m = Sim.machine (Sim.load_image cfg path) in
      Helpers.check_int "chunk 3 loaded" 7 (m.Machine.raw_read (3 * Memsim.Pheap.chunk_words));
      Helpers.check_int "chunk 5 loaded" 9 (m.Machine.raw_read (5 * Memsim.Pheap.chunk_words));
      List.iter
        (fun (what, pairs) ->
          write path pairs;
          match Sim.load_image cfg path with
          | _ -> Alcotest.failf "%s chunk index was accepted" what
          | exception Machine.Corrupt_image _ -> ())
        [ ("a repeated", [ (3, chunk 1); (3, chunk 2) ]); ("a decreasing", [ (5, chunk 1); (3, chunk 2) ]) ])

let prop_queue_matches_model =
  Helpers.qtest ~count:30 "pqueue behaves like Queue"
    QCheck2.Gen.(list (option (int_range 0 100)))
    (fun ops ->
      let _, _, ptm = fixture () in
      let q = Pqueue.create ptm in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          Ptm.atomic ptm (fun tx ->
              match op with
              | Some v ->
                Pqueue.enqueue tx q v;
                Queue.push v model;
                true
              | None ->
                let got = Pqueue.dequeue tx q in
                let expect = Queue.take_opt model in
                got = expect))
        ops
      && Pqueue.to_list q = List.of_seq (Queue.to_seq model))

let suite =
  [
    Alcotest.test_case "skiplist: insert/find" `Quick test_skiplist_insert_find;
    Alcotest.test_case "skiplist: remove" `Quick test_skiplist_remove;
    Alcotest.test_case "skiplist: towers" `Quick test_skiplist_towers_exist;
    prop_skiplist_matches_map;
    Alcotest.test_case "skiplist: concurrent" `Quick test_skiplist_concurrent;
    Alcotest.test_case "skiplist: crash consistency" `Quick test_skiplist_crash_consistency;
    Alcotest.test_case "skiplist: fold_range" `Quick test_skiplist_fold_range;
    Alcotest.test_case "btree: fold_range" `Quick test_btree_fold_range;
    prop_btree_range_matches_filter;
    Alcotest.test_case "blob: roundtrip" `Quick test_blob_roundtrip;
    Alcotest.test_case "blob: all lengths" `Quick test_blob_all_lengths;
    Alcotest.test_case "blob: set/compare" `Quick test_blob_set_and_compare;
    Alcotest.test_case "blob: abort rollback" `Quick test_blob_abort_rolls_back;
    prop_blob_roundtrip;
    Alcotest.test_case "parray: basics" `Quick test_parray_basics;
    Alcotest.test_case "parray: bounds" `Quick test_parray_bounds;
    Alcotest.test_case "parray: attach" `Quick test_parray_attach;
    Alcotest.test_case "parray: abort rollback" `Quick test_parray_crash_rollback;
    Alcotest.test_case "image: cross-process roundtrip" `Quick test_image_roundtrip_across_machines;
    Alcotest.test_case "image: size mismatch" `Quick test_image_size_mismatch_rejected;
    Alcotest.test_case "image: truncation -> Corrupt_image" `Quick test_truncated_image_rejected;
    Alcotest.test_case "image: chunk order -> Corrupt_image" `Quick test_image_chunk_order_enforced;
    prop_queue_matches_model;
  ]
