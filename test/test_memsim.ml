open Memsim

(* ---------- scheduler ---------- *)

let test_sched_virtual_time_order () =
  let s = Sched.create () in
  let trace = ref [] in
  ignore
    (Sched.spawn s (fun () ->
         Sched.wait s 10;
         trace := (`A, Sched.now s) :: !trace;
         Sched.wait s 20;
         trace := (`A, Sched.now s) :: !trace));
  ignore
    (Sched.spawn s (fun () ->
         Sched.wait s 15;
         trace := (`B, Sched.now s) :: !trace;
         Sched.wait s 25;
         trace := (`B, Sched.now s) :: !trace));
  Sched.run s;
  let times = List.rev_map snd !trace in
  Alcotest.(check (list int)) "events in time order" [ 10; 15; 30; 40 ] times

let test_sched_fifo_ties () =
  let s = Sched.create () in
  let order = ref [] in
  for i = 0 to 4 do
    ignore
      (Sched.spawn s (fun () ->
           Sched.wait s 5;
           order := i :: !order))
  done;
  Sched.run s;
  Alcotest.(check (list int)) "spawn order at equal times" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_sched_crash_kills () =
  let s = Sched.create () in
  let completed = ref 0 in
  let cleaned = ref 0 in
  for _ = 0 to 2 do
    ignore
      (Sched.spawn s (fun () ->
           Fun.protect
             ~finally:(fun () -> incr cleaned)
             (fun () ->
               for _ = 1 to 100 do
                 Sched.wait s 10
               done;
               incr completed)))
  done;
  Sched.run ~crash_at:500 s;
  Helpers.check_bool "crashed" true (Sched.crashed s);
  Helpers.check_int "no thread completed" 0 !completed;
  Helpers.check_int "protect cleanup ran in every thread" 3 !cleaned

let test_sched_wait_outside_thread_noop () =
  let s = Sched.create () in
  Sched.wait s 1000;
  Helpers.check_int "time does not advance outside threads" 0 (Sched.now s)

let test_sched_crash_time_bound () =
  let s = Sched.create () in
  ignore
    (Sched.spawn s (fun () ->
         for _ = 1 to 1000 do
           Sched.wait s 7
         done));
  Sched.run ~crash_at:100 s;
  Helpers.check_bool "final time within crash bound" true (Sched.now s <= 100)

(* ---------- bandwidth server ---------- *)

let test_server_sync_queueing () =
  let srv = Server.create ~service_ns:10 ~capacity:0 in
  let c1 = Server.acquire_sync srv ~now:0 ~latency_ns:100 in
  let c2 = Server.acquire_sync srv ~now:0 ~latency_ns:100 in
  let c3 = Server.acquire_sync srv ~now:0 ~latency_ns:100 in
  Helpers.check_int "first unqueued" 100 c1;
  Helpers.check_int "second queued by one service" 110 c2;
  Helpers.check_int "third queued by two services" 120 c3

let test_server_sync_idle_resets () =
  let srv = Server.create ~service_ns:10 ~capacity:0 in
  ignore (Server.acquire_sync srv ~now:0 ~latency_ns:100);
  let c = Server.acquire_sync srv ~now:1000 ~latency_ns:100 in
  Helpers.check_int "no queueing after idle gap" 1100 c

let test_server_async_backpressure () =
  let srv = Server.create ~service_ns:10 ~capacity:2 in
  let a1 = Server.enqueue_async srv ~now:0 in
  let a2 = Server.enqueue_async srv ~now:0 in
  let a3 = Server.enqueue_async srv ~now:0 in
  Helpers.check_int "a1 immediate" 0 a1.Server.ready;
  Helpers.check_int "a2 immediate" 0 a2.Server.ready;
  Helpers.check_bool "a3 stalls until a1 drains" true (a3.Server.ready >= a1.Server.completion);
  Helpers.check_bool "stall accounted" true (Server.stall_ns srv > 0)

let test_server_async_throughput_bound () =
  let srv = Server.create ~service_ns:10 ~capacity:4 in
  let last = ref 0 in
  for _ = 1 to 100 do
    let a = Server.enqueue_async srv ~now:0 in
    last := a.Server.completion
  done;
  Helpers.check_int "100 entries at 10ns service" 1000 !last

(* ---------- cache model ---------- *)

let test_cache_hit_after_install () =
  let c = Cache.create ~bytes:1024 ~ways:2 () in
  (match Cache.access c ~line:1 ~write:false with
  | Cache.Miss None -> ()
  | Cache.Miss (Some _) | Cache.Hit -> Alcotest.fail "expected cold miss");
  match Cache.access c ~line:1 ~write:false with
  | Cache.Hit -> ()
  | Cache.Miss _ -> Alcotest.fail "expected hit"

let test_cache_dirty_eviction () =
  (* 2-way, line 64B: sets = 1024/128 = 8.  Lines 0, 8, 16 collide in set 0. *)
  let c = Cache.create ~bytes:1024 ~ways:2 () in
  ignore (Cache.access c ~line:0 ~write:true);
  ignore (Cache.access c ~line:8 ~write:false);
  match Cache.access c ~line:16 ~write:false with
  | Cache.Miss (Some { Cache.line = 0; dirty = true }) -> ()
  | Cache.Miss _ | Cache.Hit -> Alcotest.fail "expected dirty eviction of line 0"

let test_cache_lru_within_set () =
  let c = Cache.create ~bytes:1024 ~ways:2 () in
  ignore (Cache.access c ~line:0 ~write:false);
  ignore (Cache.access c ~line:8 ~write:false);
  ignore (Cache.access c ~line:0 ~write:false);
  (* 8 is now LRU *)
  (match Cache.access c ~line:16 ~write:false with
  | Cache.Miss (Some { Cache.line = 8; _ }) -> ()
  | Cache.Miss _ | Cache.Hit -> Alcotest.fail "expected eviction of line 8");
  match Cache.access c ~line:0 ~write:false with
  | Cache.Hit -> ()
  | Cache.Miss _ -> Alcotest.fail "line 0 should have been retained"

let test_cache_clwb_keeps_line () =
  let c = Cache.create ~bytes:1024 ~ways:2 () in
  ignore (Cache.access c ~line:3 ~write:true);
  Helpers.check_bool "dirty before clwb" true (Cache.resident_dirty c ~line:3);
  Helpers.check_bool "clwb reports dirty" true (Cache.clean c ~line:3);
  Helpers.check_bool "clean after clwb" false (Cache.resident_dirty c ~line:3);
  (match Cache.access c ~line:3 ~write:false with
  | Cache.Hit -> ()
  | Cache.Miss _ -> Alcotest.fail "clwb must retain the line");
  Helpers.check_bool "second clwb is a no-op" false (Cache.clean c ~line:3)

let test_cache_dirty_lines_listing () =
  let c = Cache.create ~bytes:1024 ~ways:2 () in
  ignore (Cache.access c ~line:1 ~write:true);
  ignore (Cache.access c ~line:2 ~write:false);
  ignore (Cache.access c ~line:3 ~write:true);
  let dirty = List.sort compare (Cache.dirty_lines c) in
  Alcotest.(check (list int)) "dirty lines" [ 1; 3 ] dirty

(* ---------- the simulated machine ---------- *)

let test_sim_load_store_roundtrip () =
  let sim, m = Helpers.sim_machine () in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 100 42;
         Helpers.check_int "read back" 42 (m.Machine.load 100)));
  Sim.run sim;
  Helpers.check_int "raw read agrees" 42 (m.Machine.raw_read 100)

let test_sim_nvm_slower_than_dram () =
  let run model =
    let sim, m = Helpers.sim_machine ~model () in
    ignore
      (Sim.spawn sim (fun () ->
           (* Strided cold loads: all L3 misses. *)
           for i = 0 to 255 do
             ignore (m.Machine.load (i * 64))
           done));
    Sim.run sim;
    Sim.now sim
  in
  let dram = run Config.dram_eadr and nvm = run Config.optane_eadr in
  Helpers.check_bool
    (Printf.sprintf "optane misses ~3x dram (dram=%d nvm=%d)" dram nvm)
    true
    (float_of_int nvm > 2.0 *. float_of_int dram)

let test_sim_clwb_fence_cost () =
  (* ADR with flushes+fences must be slower than the same program under
     eADR (no flushes) — the core Fig 3/4 mechanism. *)
  let run model =
    let sim, m = Helpers.sim_machine ~model () in
    ignore
      (Sim.spawn sim (fun () ->
           for i = 0 to 199 do
             m.Machine.store i (i * 3);
             if m.Machine.needs_flush then begin
               m.Machine.clwb i;
               if m.Machine.needs_fence then m.Machine.sfence ()
             end
           done));
    Sim.run sim;
    Sim.now sim
  in
  let adr = run Config.optane_adr and eadr = run Config.optane_eadr in
  Helpers.check_bool (Printf.sprintf "adr=%d > eadr=%d" adr eadr) true (adr > eadr)

let test_sim_nofence_between_adr_and_eadr () =
  let run model =
    let sim, m = Helpers.sim_machine ~model () in
    ignore
      (Sim.spawn sim (fun () ->
           for i = 0 to 199 do
             m.Machine.store i i;
             if m.Machine.needs_flush then m.Machine.clwb i;
             if m.Machine.needs_fence then m.Machine.sfence ()
           done));
    Sim.run sim;
    Sim.now sim
  in
  let adr = run Config.optane_adr in
  let nofence = run Config.optane_adr_nofence in
  let eadr = run Config.optane_eadr in
  Helpers.check_bool "nofence cheaper than adr" true (nofence < adr);
  Helpers.check_bool "nofence dearer than eadr" true (nofence > eadr)

let test_sim_crash_adr_loses_unflushed () =
  let sim, m = Helpers.sim_machine ~model:Config.optane_adr () in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 100 7;
         m.Machine.clwb 100;
         m.Machine.sfence ();
         m.Machine.store 200 9;
         (* store 200 never flushed; keep running until the crash *)
         for _ = 1 to 1000 do
           m.Machine.pause 100
         done));
  Sim.run ~crash_at:50_000 sim;
  let sim' = Sim.reboot sim in
  let m' = Sim.machine sim' in
  Helpers.check_int "flushed store survives" 7 (m'.Machine.raw_read 100);
  Helpers.check_int "unflushed store lost" 0 (m'.Machine.raw_read 200)

(* Under ADR, clwb only captures the line — durability arrives at WPQ
   service completion, and sfence is what waits for it.  A crash inside
   that window loses the flushed-but-unfenced line. *)
let test_sim_adr_clwb_completion_window () =
  let run crash_at =
    let cfg = Config.make ~nvm_channels:4 ~heap_words:(1 lsl 12) Config.optane_adr in
    let sim = Sim.create cfg in
    let m = Sim.machine sim in
    let trace = Sim.enable_trace sim in
    ignore
      (Sim.spawn sim (fun () ->
           m.Machine.store 100 7;
           m.Machine.clwb 100;
           for _ = 1 to 50 do
             m.Machine.pause 100
           done)
        : int);
    Sim.run ?crash_at sim;
    (sim, trace)
  in
  let _, trace = run None in
  let clwb_at =
    match
      Trace.find trace (fun e ->
          match e.Trace.kind with Trace.Clwb _ -> true | _ -> false)
    with
    | Some e -> e.Trace.at_ns
    | None -> Alcotest.fail "no clwb event in reference trace"
  in
  let sim, _ = run (Some (clwb_at + 1)) in
  Helpers.check_bool "crashed inside the window" true (Sim.crashed sim);
  let m' = Sim.machine (Sim.reboot sim) in
  Helpers.check_int "clwb'd line without fence is lost" 0 (m'.Machine.raw_read 100)

let test_sim_adr_fence_closes_window () =
  let run crash_at =
    let cfg = Config.make ~nvm_channels:4 ~heap_words:(1 lsl 12) Config.optane_adr in
    let sim = Sim.create cfg in
    let m = Sim.machine sim in
    let trace = Sim.enable_trace sim in
    ignore
      (Sim.spawn sim (fun () ->
           m.Machine.store 100 7;
           m.Machine.clwb 100;
           m.Machine.sfence ();
           (* marker store: program order puts it after the fence wait *)
           m.Machine.store 200 9;
           for _ = 1 to 50 do
             m.Machine.pause 100
           done)
        : int);
    Sim.run ?crash_at sim;
    (sim, trace)
  in
  let _, trace = run None in
  let marker_at =
    match
      Trace.find trace (fun e ->
          match e.Trace.kind with Trace.Store a -> a = 200 | _ -> false)
    with
    | Some e -> e.Trace.at_ns
    | None -> Alcotest.fail "no marker store in reference trace"
  in
  let sim, _ = run (Some marker_at) in
  Helpers.check_bool "crashed after the fence" true (Sim.crashed sim);
  let m' = Sim.machine (Sim.reboot sim) in
  Helpers.check_int "fenced line survives any later crash" 7 (m'.Machine.raw_read 100)

let test_trace_crash_points () =
  let tr = Trace.create () in
  Trace.record tr ~at_ns:0 ~tid:0 (Trace.Store 5);
  Trace.record tr ~at_ns:10 ~tid:0 (Trace.Clwb 5);
  Trace.record tr ~at_ns:10 ~tid:1 Trace.Sfence;
  Trace.record tr ~at_ns:12 ~tid:0 (Trace.Load 5);
  Helpers.check_bool "positive, deduped, loads skipped" true
    (Trace.crash_points tr = [ 1; 10; 11 ]);
  Helpers.check_bool "halo widens the after-point" true
    (Trace.crash_points ~halo:3 tr = [ 3; 10; 13 ])

let test_sim_crash_eadr_keeps_cached () =
  let sim, m = Helpers.sim_machine ~model:Config.optane_eadr () in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 100 7;
         m.Machine.store 200 9;
         for _ = 1 to 100 do
           m.Machine.pause 100
         done));
  Sim.run ~crash_at:500 sim;
  Helpers.check_bool "crashed" true (Sim.crashed sim);
  let sim' = Sim.reboot sim in
  let m' = Sim.machine sim' in
  Helpers.check_int "cached store survives under eADR" 7 (m'.Machine.raw_read 100);
  Helpers.check_int "second store too" 9 (m'.Machine.raw_read 200)

let test_sim_crash_dram_loses_everything () =
  let sim, m = Helpers.sim_machine ~model:Config.dram_eadr () in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 100 7;
         for _ = 1 to 100 do
           m.Machine.pause 100
         done));
  Sim.run ~crash_at:500 sim;
  let sim' = Sim.reboot sim in
  let m' = Sim.machine sim' in
  Helpers.check_int "DRAM ramdisk does not survive" 0 (m'.Machine.raw_read 100)

let test_sim_pdram_persists_everything () =
  let sim, m = Helpers.sim_machine ~model:Config.pdram () in
  ignore
    (Sim.spawn sim (fun () ->
         for i = 0 to 63 do
           m.Machine.store (i * 8) (i + 1)
         done;
         for _ = 1 to 200 do
           m.Machine.pause 10_000
         done));
  Sim.run ~crash_at:500_000 sim;
  let sim' = Sim.reboot sim in
  let m' = Sim.machine sim' in
  let ok = ref true in
  for i = 0 to 63 do
    if m'.Machine.raw_read (i * 8) <> i + 1 then ok := false
  done;
  Helpers.check_bool "all stores survive under PDRAM" true !ok

let test_sim_persist_all_then_adr_crash () =
  let sim, m = Helpers.sim_machine ~model:Config.optane_adr () in
  m.Machine.raw_write 300 123;
  Sim.persist_all sim;
  ignore (Sim.spawn sim (fun () -> m.Machine.pause 10_000));
  Sim.run ~crash_at:100 sim;
  let sim' = Sim.reboot sim in
  Helpers.check_int "initialized data survives" 123 ((Sim.machine sim').Machine.raw_read 300)

let test_sim_stats_populated () =
  let sim, m = Helpers.sim_machine () in
  ignore
    (Sim.spawn sim (fun () ->
         for i = 0 to 99 do
           m.Machine.store i i;
           m.Machine.clwb i
         done;
         m.Machine.sfence ()));
  Sim.run sim;
  let st = Sim.Stats.get sim in
  Helpers.check_int "stores counted" 100 st.Sim.Stats.stores;
  Helpers.check_int "clwbs counted" 100 st.Sim.Stats.clwbs;
  Helpers.check_int "fences counted" 1 st.Sim.Stats.sfences;
  Helpers.check_bool "some L3 misses" true (st.Sim.Stats.l3_misses > 0)

let test_sim_deterministic () =
  let run () =
    let sim, m = Helpers.sim_machine () in
    let rng = Repro_util.Rng.create 9 in
    for t = 0 to 3 do
      let rng = Repro_util.Rng.split rng in
      ignore
        (Sim.spawn sim (fun () ->
             for _ = 1 to 500 do
               let a = Repro_util.Rng.int rng 4096 in
               if Repro_util.Rng.bool rng then ignore (m.Machine.load a)
               else m.Machine.store a t
             done))
    done;
    Sim.run sim;
    Sim.now sim
  in
  Helpers.check_int "same virtual time across runs" (run ()) (run ())

(* Exact-latency pins: lock the timing model down to the nanosecond so
   calibration changes are deliberate, not accidental. *)
let test_sim_exact_adr_sequence () =
  (* store(miss) ; clwb ; sfence — the canonical ADR persist sequence. *)
  let sim, m = Helpers.sim_machine ~model:Config.optane_adr () in
  let lat = Config.default_latency in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 4096 1;
         m.Machine.clwb 4096;
         m.Machine.sfence ()));
  Sim.run sim;
  (* miss (252) ; clwb issues at 252, entry completes 252+62=314, clwb
     itself costs 90 -> 342; sfence target 314 already past -> +15. *)
  let expected = lat.Config.nvm_load_ns + lat.Config.clwb_ns + lat.Config.sfence_ns in
  Helpers.check_int "ADR persist sequence" expected (Sim.now sim)

let test_sim_exact_fence_wait () =
  (* A fence issued immediately after a burst of flushes must wait for
     the WPQ to drain: completion of the 4th entry = 252+4*62. *)
  let sim, m = Helpers.sim_machine ~model:Config.optane_adr () in
  let lat = Config.default_latency in
  ignore
    (Sim.spawn sim (fun () ->
         (* Four dirty lines, one miss each. *)
         for i = 0 to 3 do
           m.Machine.store (4096 + (i * 8)) 1
         done;
         for i = 0 to 3 do
           m.Machine.clwb (4096 + (i * 8))
         done;
         m.Machine.sfence ()));
  Sim.run sim;
  let t_after_stores = 4 * lat.Config.nvm_load_ns in
  let t_after_clwbs = t_after_stores + (4 * lat.Config.clwb_ns) in
  (* Entries enqueue back-to-back starting at the first clwb issue. *)
  let last_completion = t_after_stores + (4 * lat.Config.nvm_wpq_service_ns) in
  let expected = max t_after_clwbs last_completion + lat.Config.sfence_ns in
  Helpers.check_int "fence drains the queue" expected (Sim.now sim)

let test_sim_exact_cache_hit () =
  let sim, m = Helpers.sim_machine ~model:Config.optane_adr () in
  let lat = Config.default_latency in
  ignore
    (Sim.spawn sim (fun () ->
         ignore (m.Machine.load 4096);
         ignore (m.Machine.load 4097)));
  Sim.run sim;
  Helpers.check_int "miss then same-line hit"
    (lat.Config.nvm_load_ns + lat.Config.cache_hit_ns)
    (Sim.now sim)

let test_config_model_lookup () =
  List.iter
    (fun m ->
      Helpers.check_bool
        (m.Config.model_name ^ " roundtrips")
        true
        (Config.model_of_name m.Config.model_name == m))
    Config.all_models;
  Alcotest.check_raises "unknown model"
    (Invalid_argument "Config.model_of_name: unknown model \"floppy\"") (fun () ->
      ignore (Config.model_of_name "floppy"))

let test_sched_wait_until () =
  let s = Sched.create () in
  let seen = ref 0 in
  ignore
    (Sched.spawn s (fun () ->
         Sched.wait_until s 500;
         seen := Sched.now s;
         (* waiting for the past is free *)
         Sched.wait_until s 100;
         Helpers.check_int "no time travel" 500 (Sched.now s)));
  Sched.run s;
  Helpers.check_int "woke at target" 500 !seen

let test_trace_records_events () =
  let sim, m = Helpers.sim_machine () in
  let tr = Sim.enable_trace ~capacity:16 sim in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 100 1;
         m.Machine.clwb 100;
         m.Machine.sfence ();
         ignore (m.Machine.load 100)));
  Sim.run sim;
  Helpers.check_int "four events" 4 (Trace.recorded tr);
  let kinds = List.map (fun e -> e.Trace.kind) (Trace.tail tr) in
  Alcotest.(check bool) "order preserved" true
    (kinds = [ Trace.Store 100; Trace.Clwb 100; Trace.Sfence; Trace.Load 100 ]);
  let timestamps = List.map (fun e -> e.Trace.at_ns) (Trace.tail tr) in
  Helpers.check_bool "timestamps nondecreasing" true
    (List.sort compare timestamps = timestamps)

let test_trace_ring_bounded () =
  let sim, m = Helpers.sim_machine () in
  let tr = Sim.enable_trace ~capacity:8 sim in
  ignore
    (Sim.spawn sim (fun () ->
         for i = 1 to 100 do
           m.Machine.store i i
         done));
  Sim.run sim;
  Helpers.check_int "all recorded" 100 (Trace.recorded tr);
  let tail = Trace.tail tr in
  Helpers.check_int "tail bounded" 8 (List.length tail);
  (match List.rev tail with
  | { Trace.kind = Trace.Store 100; _ } :: _ -> ()
  | _ -> Alcotest.fail "latest event retained");
  match Trace.find tr (fun e -> e.Trace.kind = Trace.Store 97) with
  | Some _ -> ()
  | None -> Alcotest.fail "recent event findable"

let test_trace_marks_crash () =
  let sim, m = Helpers.sim_machine () in
  let tr = Sim.enable_trace sim in
  ignore
    (Sim.spawn sim (fun () ->
         for _ = 1 to 1000 do
           m.Machine.pause 100
         done));
  Sim.run ~crash_at:5_000 sim;
  match Trace.find tr (fun e -> e.Trace.kind = Trace.Crash) with
  | Some _ -> ()
  | None -> Alcotest.fail "crash event recorded"

(* ---------- pending arena vs the old list semantics ---------- *)

(* Reference model: the pre-arena representation — a list of
   (apply_at, line, captured words) in insertion order, position
   standing in for the explicit sequence number the old record
   carried.  [apply] replays entries in (apply_at, seq) order, exactly
   the old [List.sort] on the partitioned list. *)
module Pending_ref = struct
  type entry = { r_apply_at : int; r_line : int; r_data : int array }

  let ordered entries =
    List.stable_sort (fun a b -> compare a.r_apply_at b.r_apply_at) entries

  let blit image ~stride e = Array.blit e.r_data 0 image (e.r_line * stride) (Array.length e.r_data)

  let apply ~cutoff ~stride entries image =
    List.iter
      (fun e -> if e.r_apply_at < cutoff then blit image ~stride e)
      (ordered entries)

  let settle ~now ~stride entries image =
    let done_, inflight = List.partition (fun e -> e.r_apply_at <= now) entries in
    List.iter (blit image ~stride) (ordered done_);
    inflight
end

let pending_stride = 4
let pending_lines = 8

(* The arena now captures from and applies to demand-paged images. *)
let pheap_of_array a =
  let p = Pheap.create ~words:(Array.length a) in
  Pheap.blit_of_array p 0 a 0 (Array.length a);
  p

(* One differential step: 0 = add, 1 = settle, 2 = apply (compare crash
   images), 3 = remove_lines.  After every step the arena's insertion-
   order view must equal the reference list, and the two media images
   must agree word for word. *)
let pending_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 120)
      (pair (int_range 0 3) (pair (int_range 0 100) (int_range 0 (pending_lines - 1)))))

let test_pending_differential =
  Helpers.qtest ~count:300 "pending: differential vs list model" pending_ops_gen (fun ops ->
      let t = Pending.create ~stride:pending_stride () in
      let model = ref [] in
      let image = Pheap.create ~words:(pending_lines * pending_stride) in
      let image' = Array.make (pending_lines * pending_stride) 0 in
      let stamp = ref 0 in
      let agree () =
        let view = Pending.to_list t in
        let ref_view =
          List.map (fun e -> (e.Pending_ref.r_apply_at, e.Pending_ref.r_line, e.Pending_ref.r_data)) !model
        in
        if view <> ref_view then QCheck2.Test.fail_report "arena view diverged from list model";
        if Pheap.to_flat image <> image' then QCheck2.Test.fail_report "media image diverged";
        true
      in
      List.for_all
        (fun (tag, (time, line)) ->
          (match tag with
          | 0 ->
            incr stamp;
            let len = 1 + (!stamp mod pending_stride) in
            let src = Array.init pending_stride (fun k -> (!stamp * 16) + k) in
            Pending.add t ~apply_at:time ~line ~src:(pheap_of_array src) ~base:0 ~len;
            model :=
              !model
              @ [ { Pending_ref.r_apply_at = time; r_line = line; r_data = Array.sub src 0 len } ]
          | 1 ->
            Pending.settle t ~now:time image;
            model := Pending_ref.settle ~now:time ~stride:pending_stride !model image'
          | 2 ->
            (* Non-destructive crash-cut materialisation: replay onto
               copies, compare, leave both states untouched. *)
            let cut = Pheap.copy image and cut' = Array.copy image' in
            Pending.apply ~cutoff:time t cut;
            Pending_ref.apply ~cutoff:time ~stride:pending_stride !model cut';
            if Pheap.to_flat cut <> cut' then QCheck2.Test.fail_report "crash-cut image diverged"
          | _ ->
            let keep = time mod pending_lines in
            Pending.remove_lines t (fun l -> l <> keep);
            model := List.filter (fun e -> e.Pending_ref.r_line = keep) !model);
          agree ())
        ops
      &&
      (* Drain completely: nothing may leak past a settle that covers
         every service time. *)
      (Pending.settle t ~now:max_int image;
       model := Pending_ref.settle ~now:max_int ~stride:pending_stride !model image';
       Pending.count t = 0 && !model = [] && agree ()))

(* Capacity boundary: filling to the initial capacity must not grow;
   one past it doubles, preserving order and payload across the copy;
   a full drain recycles slots without shrinking. *)
let test_pending_overflow_recycle () =
  let t = Pending.create ~stride:pending_stride () in
  let cap0 = Pending.capacity t in
  let entry i = (i, i mod pending_lines, Array.init pending_stride (fun k -> (i * 100) + k)) in
  for i = 0 to cap0 - 1 do
    let at, line, src = entry i in
    Pending.add t ~apply_at:at ~line ~src:(pheap_of_array src) ~base:0 ~len:pending_stride
  done;
  Helpers.check_int "full at initial capacity" cap0 (Pending.count t);
  Helpers.check_int "no premature growth" cap0 (Pending.capacity t);
  let at, line, src = entry cap0 in
  Pending.add t ~apply_at:at ~line ~src:(pheap_of_array src) ~base:0 ~len:pending_stride;
  Helpers.check_int "doubled on overflow" (2 * cap0) (Pending.capacity t);
  Helpers.check_int "all entries retained" (cap0 + 1) (Pending.count t);
  List.iteri
    (fun i (at, line, data) ->
      let at', line', data' = entry i in
      Helpers.check_int "apply_at preserved across grow" at' at;
      Helpers.check_int "line preserved across grow" line' line;
      Helpers.check_bool "payload preserved across grow" true (data = data'))
    (Pending.to_list t);
  let image = Pheap.create ~words:(pending_lines * pending_stride) in
  Pending.settle t ~now:max_int image;
  Helpers.check_int "drained" 0 (Pending.count t);
  Helpers.check_bool "drain leaves no residue" true (Pending.to_list t = []);
  Helpers.check_int "capacity retained after drain" (2 * cap0) (Pending.capacity t);
  (* Latest service time per line wins: entries replay in apply_at
     order, so line 0's image words come from its last capture. *)
  let last_for_line0 = cap0 - (cap0 mod pending_lines) in
  Helpers.check_int "image holds the final capture"
    (last_for_line0 * 100)
    (Pheap.get image 0);
  let at, line, src = entry 7777 in
  Pending.add t ~apply_at:at ~line ~src:(pheap_of_array src) ~base:0 ~len:pending_stride;
  Helpers.check_int "slots recycle after drain" 1 (Pending.count t);
  Helpers.check_int "recycling does not grow" (2 * cap0) (Pending.capacity t)

(* ---------- volatile metadata ---------- *)

(* The metadata space is demand-paged but must behave like the flat,
   bounds-checked, zero-initialized array it replaces: one space per
   [Sim.t], shared by every [machine] call, wiped by a power failure. *)
let test_meta_contract () =
  let meta_words = (2 * Pheap.chunk_words) + 100 in
  let cfg = Config.make ~heap_words:4096 ~meta_words Config.optane_adr in
  let sim = Sim.create cfg in
  let m = Sim.machine sim in
  Helpers.check_int "facade reports the space size" meta_words m.Machine.meta_words;
  let all_zero what m =
    List.iter
      (fun i ->
        Helpers.check_int (Printf.sprintf "%s: index %d reads 0" what i) 0 (m.Machine.meta_get i))
      [ 0; 1; Pheap.chunk_words - 1; Pheap.chunk_words; meta_words - 1 ]
  in
  all_zero "fresh" m;
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s did not raise Invalid_argument" what
  in
  List.iter
    (fun i ->
      raises (Printf.sprintf "meta_get %d" i) (fun () -> ignore (m.Machine.meta_get i));
      raises (Printf.sprintf "meta_set %d" i) (fun () -> m.Machine.meta_set i 1);
      raises (Printf.sprintf "meta_cas %d" i) (fun () -> ignore (m.Machine.meta_cas i 0 1));
      raises (Printf.sprintf "meta_fetch_add %d" i) (fun () ->
          ignore (m.Machine.meta_fetch_add i 1)))
    [ -1; meta_words ];
  (* A second facade sees the same clock and orecs. *)
  let m2 = Sim.machine sim in
  Helpers.check_int "fetch_add returns the old value" 0 (m.Machine.meta_fetch_add 0 5);
  Helpers.check_int "clock visible through the second facade" 5 (m2.Machine.meta_get 0);
  Helpers.check_int "fetch_add through the second facade" 5 (m2.Machine.meta_fetch_add 0 1);
  Helpers.check_int "and back through the first" 6 (m.Machine.meta_get 0);
  Helpers.check_bool "cas succeeds on the expected value" true (m2.Machine.meta_cas 7 0 9);
  Helpers.check_bool "cas fails on a stale value" false (m.Machine.meta_cas 7 0 3);
  Helpers.check_int "cas result shared" 9 (m.Machine.meta_get 7);
  m.Machine.meta_set (meta_words - 1) 42;
  Helpers.check_int "last index writable" 42 (m2.Machine.meta_get (meta_words - 1));
  Helpers.check_int "neighbours of a written word stay 0" 0 (m.Machine.meta_get 8);
  (* Power failure: both restart paths come up with all-zero metadata,
     while the heap survives. *)
  m.Machine.raw_write 3 77;
  Sim.persist_all sim;
  let rebooted = Sim.machine (Sim.reboot sim) in
  all_zero "after reboot" rebooted;
  Helpers.check_int "reboot keeps the heap" 77 (rebooted.Machine.raw_read 3);
  let path = Filename.temp_file "memsim-meta" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sim.save_image sim path;
      let loaded = Sim.machine (Sim.load_image cfg path) in
      all_zero "after load_image" loaded;
      Helpers.check_int "load_image keeps the heap" 77 (loaded.Machine.raw_read 3))

(* ---------- stops: pausing a run at chosen instants ---------- *)

(* Four threads of seeded stores with unfenced and fenced flushes on an
   interleaved-channel ADR machine: WPQ service completions keep
   landing between events, so consecutive instants differ in what a
   power failure would keep. *)
let stop_machine ?(model = Config.optane_adr) () =
  let sim = Sim.create (Config.make ~nvm_channels:4 ~heap_words:(1 lsl 14) model) in
  let m = Sim.machine sim in
  for t = 0 to 3 do
    let rng = Repro_util.Rng.create (17 + t) in
    ignore
      (Sim.spawn sim (fun () ->
           for i = 1 to 60 do
             let a = 64 * Repro_util.Rng.int rng 200 in
             m.Machine.store a ((100 * t) + i);
             m.Machine.clwb a;
             if i mod 3 = 0 then m.Machine.sfence ()
           done)
        : int)
  done;
  sim

let stop_run ?crash_at ?stops ?on_stop () =
  let sim = stop_machine () in
  let tr = Sim.enable_trace ~capacity:(1 lsl 14) sim in
  Sim.run ?crash_at ?stops ?on_stop sim;
  (sim, tr)

(* Instants spread over the run, including ones past its end. *)
let stop_instants final =
  Array.append (Array.init 40 (fun i -> 1 + (i * final / 40))) [| final; final + 1; final + 500 |]

let test_stops_fire_in_order () =
  let plain, plain_tr = stop_run () in
  let final = Sim.now plain in
  let stops = stop_instants final in
  let fired = ref [] in
  let sim, tr =
    stop_run ~stops
      ~on_stop:(fun s ->
        fired := s :: !fired;
        true)
      ()
  in
  Alcotest.(check (list int))
    "every stop up to the last event fires once, in order; later ones never"
    (List.filter (fun s -> s <= final) (Array.to_list stops))
    (List.rev !fired);
  Helpers.check_bool "not crashed" false (Sim.crashed sim);
  Helpers.check_int "same final time" final (Sim.now sim);
  Helpers.check_bool "same Sim.Stats" true (Sim.Stats.get plain = Sim.Stats.get sim);
  Helpers.check_bool "same trace" true (Trace.tail plain_tr = Trace.tail tr);
  Helpers.check_bool "same final image" true
    (Pheap.equal (Sim.durable_image plain) (Sim.durable_image sim))

(* At every stop, the paused machine's durable image as of the stop is
   the image a run crashed there leaves. *)
let test_stop_image_is_crash_image () =
  List.iter
    (fun model ->
      let final =
        let sim = stop_machine ~model () in
        Sim.run sim;
        Sim.now sim
      in
      let paused = ref [] in
      let sim = stop_machine ~model () in
      Sim.run sim ~stops:(stop_instants final) ~on_stop:(fun s ->
          paused := (s, Sim.durable_image ~at:s sim) :: !paused;
          true);
      Helpers.check_bool "the images differ over the run" true
        (List.exists (fun (_, i) -> not (Pheap.equal i (snd (List.hd !paused)))) !paused);
      List.iter
        (fun (s, image) ->
          let crashed = stop_machine ~model () in
          Sim.run ~crash_at:s crashed;
          Helpers.check_bool
            (Printf.sprintf "%s: image at %d equals the crash image" model.Config.model_name s)
            true
            (Pheap.equal image (Sim.durable_image crashed)))
        !paused)
    [ Config.optane_adr; Config.optane_eadr; Config.pdram ]

let test_stop_false_is_crash () =
  let final = Sim.now (fst (stop_run ())) in
  let at = final / 3 in
  let sim, _ = stop_run ~stops:[| final / 4; at; final / 2 |] ~on_stop:(fun s -> s <> at) () in
  let crashed, _ = stop_run ~crash_at:at () in
  Helpers.check_bool "crashed" true (Sim.crashed sim);
  Helpers.check_int "time bounded like crash_at" (Sim.now crashed) (Sim.now sim);
  Helpers.check_bool "same image as crash_at" true
    (Pheap.equal (Sim.durable_image crashed) (Sim.durable_image sim))

let test_stops_must_be_sorted () =
  List.iter
    (fun stops ->
      match Sim.run ~stops (stop_machine ()) with
      | exception Invalid_argument _ -> ()
      | () ->
        Alcotest.failf "stops [%s] accepted"
          (String.concat "; " (Array.to_list (Array.map string_of_int stops))))
    [ [| 50; 10 |]; [| 10; 10 |]; [| 1; 5; 3 |] ]

(* ---------- copy-on-write images ---------- *)

(* Three images over one and a half chunks past a chunk boundary (so
   the last chunk is partial), each shadowed by a flat array.  A step
   is (op, dst, src, a, b):
   0 set, 1 copy, 2 assign, 3 copy_range at an arbitrary offset,
   4 whole-chunk copy_range (shares), 5 blit_of_array, 6 fill_zero,
   7 of_touched.  Images share chunks after copy/assign, so a write
   through one that leaked into another shows up as a model mismatch. *)
let cow_words = (3 * Pheap.chunk_words) + 100

let cow_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 80)
      (tup5 (int_range 0 7) (int_range 0 2) (int_range 0 2) (int_range 0 (cow_words - 1))
         (int_range 1 (2 * Pheap.chunk_words))))

let test_pheap_cow_differential =
  Helpers.qtest ~count:300 "pheap: copy-on-write images vs flat models" cow_ops_gen (fun ops ->
      let images = Array.init 3 (fun _ -> Pheap.create ~words:cow_words) in
      let models = Array.init 3 (fun _ -> Array.make cow_words 0) in
      let stamp = ref 0 in
      let fresh_value () =
        incr stamp;
        !stamp
      in
      let clamp base len = min len (cow_words - base) in
      let step (op, dst, src, a, b) =
        match op with
        | 0 ->
          let v = fresh_value () in
          Pheap.set images.(dst) a v;
          models.(dst).(a) <- v
        | 1 ->
          images.(dst) <- Pheap.copy images.(src);
          models.(dst) <- Array.copy models.(src)
        | 2 ->
          Pheap.assign ~src:images.(src) ~dst:images.(dst);
          models.(dst) <- Array.copy models.(src)
        | 3 | 4 ->
          let base, len =
            if op = 3 then (a, clamp a b)
            else
              let ci = a / Pheap.chunk_words in
              let base = ci * Pheap.chunk_words in
              (base, clamp base Pheap.chunk_words)
          in
          Pheap.copy_range ~src:images.(src) ~dst:images.(dst) base len;
          Array.blit models.(src) base models.(dst) base len
        | 5 ->
          let len = clamp a b in
          let data = Array.init len (fun _ -> fresh_value ()) in
          Pheap.blit_of_array images.(dst) a data 0 len;
          Array.blit data 0 models.(dst) a len
        | 6 ->
          Pheap.fill_zero images.(dst);
          Array.fill models.(dst) 0 cow_words 0
        | _ ->
          let pairs = ref [] in
          Pheap.iter_touched images.(src) (fun ci c -> pairs := (ci, c) :: !pairs);
          images.(dst) <- Pheap.of_touched ~words:cow_words (List.rev !pairs);
          models.(dst) <- Array.copy models.(src)
      in
      let zero_page_clean () =
        let probe = Pheap.create ~words:Pheap.chunk_words in
        let ok = ref true in
        for i = 0 to Pheap.chunk_words - 1 do
          if Pheap.get probe i <> 0 then ok := false
        done;
        !ok
      in
      let agree () =
        Array.iteri
          (fun k image ->
            if Pheap.to_flat image <> models.(k) then
              QCheck2.Test.fail_reportf "image %d diverged from its model" k;
            let out = Array.make cow_words (-1) in
            Pheap.blit_to_array image 0 out 0 cow_words;
            if out <> models.(k) then QCheck2.Test.fail_reportf "image %d reads diverged" k)
          images;
        if not (zero_page_clean ()) then QCheck2.Test.fail_report "the zero page was written";
        true
      in
      List.for_all
        (fun o ->
          step o;
          agree ())
        ops)

(* A probe reboots a paused machine and the run resumes: the rebooted
   machine and the paused one share chunks, yet writes on either side
   never reach the other — neither the resumed run's writes the
   rebooted heap or media, nor writes to a rebooted machine the paused
   run or a later reboot.  eADR writes media eagerly, and PDRAM builds
   the image from the heap itself. *)
let test_reboot_shares_nothing_visible () =
  let words = (Sim.config (stop_machine ())).Config.heap_words in
  let heap_of sim =
    let m = Sim.machine sim in
    Array.init words m.Machine.raw_read
  in
  let media_of ?at sim = Pheap.to_flat (Sim.durable_image ?at sim) in
  (* Store, write back and fence the lower half of the workload's lines
     in [r] — heap and media both change there, while the chunks of the
     upper half stay shared with the paused run. *)
  let scribble r s =
    let m = Sim.machine r in
    for k = 0 to 99 do
      m.Machine.store (64 * k) (-s - k);
      m.Machine.clwb (64 * k)
    done;
    m.Machine.sfence ()
  in
  List.iter
    (fun model ->
      let name = model.Config.model_name in
      let plain = stop_machine ~model () in
      Sim.run plain;
      let final = Sim.now plain in
      let rebooted = ref [] in
      let unchanged () =
        List.iter
          (fun (s, r, heap, media) ->
            Helpers.check_bool (Printf.sprintf "%s: machine rebooted at %d keeps its heap" name s)
              true (heap_of r = heap);
            Helpers.check_bool (Printf.sprintf "%s: machine rebooted at %d keeps its media" name s)
              true (media_of r = media))
          !rebooted
      in
      let sim = stop_machine ~model () in
      Sim.run sim ~stops:(stop_instants final) ~on_stop:(fun s ->
          unchanged ();
          let r = Sim.reboot ~at:s sim in
          let paused = (heap_of sim, media_of ~at:s sim) in
          scribble r s;
          Helpers.check_bool
            (Printf.sprintf "%s: writes after the reboot at %d stay out of the paused run" name s)
            true
            (paused = (heap_of sim, media_of ~at:s sim));
          rebooted := (s, r, heap_of r, media_of r) :: !rebooted;
          true);
      unchanged ();
      Helpers.check_bool (name ^ ": the run ends on the plain run's heap") true
        (heap_of sim = heap_of plain);
      Helpers.check_bool (name ^ ": the run ends on the plain run's media") true
        (media_of sim = media_of plain))
    [ Config.optane_adr; Config.optane_eadr; Config.pdram ]

let suite =
  [
    Alcotest.test_case "sched: virtual-time order" `Quick test_sched_virtual_time_order;
    Alcotest.test_case "sched: FIFO ties" `Quick test_sched_fifo_ties;
    Alcotest.test_case "sched: crash kills threads" `Quick test_sched_crash_kills;
    Alcotest.test_case "sched: ops outside threads" `Quick test_sched_wait_outside_thread_noop;
    Alcotest.test_case "sched: crash bounds time" `Quick test_sched_crash_time_bound;
    Alcotest.test_case "server: sync queueing" `Quick test_server_sync_queueing;
    Alcotest.test_case "server: idle reset" `Quick test_server_sync_idle_resets;
    Alcotest.test_case "server: WPQ backpressure" `Quick test_server_async_backpressure;
    Alcotest.test_case "server: throughput bound" `Quick test_server_async_throughput_bound;
    Alcotest.test_case "cache: hit after install" `Quick test_cache_hit_after_install;
    Alcotest.test_case "cache: dirty eviction" `Quick test_cache_dirty_eviction;
    Alcotest.test_case "cache: LRU within set" `Quick test_cache_lru_within_set;
    Alcotest.test_case "cache: clwb retains line" `Quick test_cache_clwb_keeps_line;
    Alcotest.test_case "cache: dirty listing" `Quick test_cache_dirty_lines_listing;
    Alcotest.test_case "sim: load/store roundtrip" `Quick test_sim_load_store_roundtrip;
    Alcotest.test_case "sim: NVM ~3x DRAM" `Quick test_sim_nvm_slower_than_dram;
    Alcotest.test_case "sim: ADR dearer than eADR" `Quick test_sim_clwb_fence_cost;
    Alcotest.test_case "sim: nofence in between" `Quick test_sim_nofence_between_adr_and_eadr;
    Alcotest.test_case "sim: ADR crash semantics" `Quick test_sim_crash_adr_loses_unflushed;
    Alcotest.test_case "sim: ADR clwb completion window" `Quick
      test_sim_adr_clwb_completion_window;
    Alcotest.test_case "sim: sfence closes the window" `Quick test_sim_adr_fence_closes_window;
    Alcotest.test_case "trace: crash points" `Quick test_trace_crash_points;
    Alcotest.test_case "sim: eADR crash semantics" `Quick test_sim_crash_eadr_keeps_cached;
    Alcotest.test_case "sim: DRAM crash semantics" `Quick test_sim_crash_dram_loses_everything;
    Alcotest.test_case "sim: PDRAM crash semantics" `Quick test_sim_pdram_persists_everything;
    Alcotest.test_case "sim: persist_all baseline" `Quick test_sim_persist_all_then_adr_crash;
    Alcotest.test_case "sim: stats populated" `Quick test_sim_stats_populated;
    Alcotest.test_case "sim: determinism" `Quick test_sim_deterministic;
    Alcotest.test_case "sim: exact ADR sequence" `Quick test_sim_exact_adr_sequence;
    Alcotest.test_case "sim: exact fence wait" `Quick test_sim_exact_fence_wait;
    Alcotest.test_case "sim: exact cache hit" `Quick test_sim_exact_cache_hit;
    Alcotest.test_case "config: model lookup" `Quick test_config_model_lookup;
    Alcotest.test_case "sched: wait_until" `Quick test_sched_wait_until;
    Alcotest.test_case "trace: records events" `Quick test_trace_records_events;
    Alcotest.test_case "trace: ring bounded" `Quick test_trace_ring_bounded;
    Alcotest.test_case "trace: crash marker" `Quick test_trace_marks_crash;
    test_pending_differential;
    Alcotest.test_case "pending: overflow + recycle" `Quick test_pending_overflow_recycle;
    Alcotest.test_case "sim: metadata contract" `Quick test_meta_contract;
    Alcotest.test_case "stops: fire once, in order, observably inert" `Quick
      test_stops_fire_in_order;
    Alcotest.test_case "stops: paused image is the crash image" `Quick
      test_stop_image_is_crash_image;
    Alcotest.test_case "stops: false ends the run as a crash" `Quick test_stop_false_is_crash;
    Alcotest.test_case "stops: unsorted array is rejected" `Quick test_stops_must_be_sorted;
    test_pheap_cow_differential;
    Alcotest.test_case "pheap: a reboot and the resumed run write apart" `Quick
      test_reboot_shares_nothing_visible;
  ]
