(* kv-service: an open-loop client fleet served by the sharded KV
   service on optane-adr — 8 connections, 4 shards, Zipf 0.8 over
   16384 items of 64 B, 73% get / 20% set / 2% delete / 5% incr — at
   five fixed offered rates, plus one crash-and-restart run at the
   2.0 M req/s reference rate.  Gets are read-only transactions, so the
   PTM runs read-mostly here; the codec, router, batcher and queueing
   run only in this workload. *)

open Common
module Config = Memsim.Config
module Service = Kvserve.Service
module Client = Kvserve.Client
module Protocol = Kvserve.Protocol
module Router = Kvserve.Router
module Histogram = Repro_util.Histogram
module Trace = Telemetry.Trace

let items = 16384
let value_bytes = 64
let conns = 8
let shards = 4
let rates = [ 0.5; 1.0; 1.5; 2.0; 2.5 ]
let ref_rate = 2.0

(* Latency limit on p99, and on the drain lag (finish time minus the
   last arrival): a rate meets the limit without a growing backlog. *)
let limit_ns = 50_000

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let config ~seed =
  let per_shard = (items / shards) + 1 in
  {
    (Service.default_config Config.optane_adr) with
    Service.shards;
    prepopulate_items = items;
    value_bytes;
    buckets_per_shard = max 256 (pow2 per_shard 1);
    heap_words_per_shard = max (1 lsl 16) (pow2 (per_shard * 48) 1);
    seed;
  }

let fleet ~seed ~requests_per_conn rate =
  Client.generate ~seed ~conns ~requests_per_conn ~items ~value_bytes ~set_ratio:0.20
    ~delete_ratio:0.02 ~incr_ratio:0.05
    ~mean_gap_ns:(int_of_float (float_of_int conns /. rate *. 1e3))
    ~theta:0.8 ()

let empty_fleet = { Client.chunks = []; conns; requests = 0; trace_ids = [||] }

(* Sequential reference: the fleet's requests applied one at a time in
   arrival order to a hash table holding the prepopulated items.  Each
   shard executes its queue in arrival order and keys never span
   shards, so the service's replies must equal these byte for byte. *)
let reference (f : Client.t) =
  let tbl = Hashtbl.create (2 * items) in
  for rank = 0 to items - 1 do
    Hashtbl.replace tbl (Client.key_of rank) (0, Client.value_of ~rank ~version:0 ~value_bytes)
  done;
  for c = 0 to Client.counters - 1 do
    Hashtbl.replace tbl (Client.counter_of c) (0, "0")
  done;
  let parsers = Array.init f.Client.conns (fun _ -> Protocol.parser_create ()) in
  let out = Array.init f.Client.conns (fun _ -> Buffer.create 4096) in
  let gets = ref 0 in
  let numeric s = String.length s > 0 && String.length s <= 15 && String.for_all (fun c -> c >= '0' && c <= '9') s in
  let apply = function
    | Protocol.Get keys ->
      gets := !gets + List.length keys;
      Protocol.Values
        (List.filter_map
           (fun k -> Option.map (fun (fl, d) -> (k, fl, d)) (Hashtbl.find_opt tbl k))
           keys)
    | Protocol.Set { key; flags; data } ->
      Hashtbl.replace tbl key (flags, data);
      Protocol.Stored
    | Protocol.Delete key ->
      if Hashtbl.mem tbl key then begin
        Hashtbl.remove tbl key;
        Protocol.Deleted
      end
      else Protocol.Not_found
    | Protocol.Incr { key; delta } -> (
      match Hashtbl.find_opt tbl key with
      | None -> Protocol.Not_found
      | Some (fl, s) when numeric s ->
        let v = int_of_string s + delta in
        Hashtbl.replace tbl key (fl, string_of_int v);
        Protocol.Number v
      | Some _ -> Protocol.Client_error "cannot increment or decrement non-numeric value")
    | Protocol.Stats -> Protocol.Error
  in
  List.iter
    (fun { Client.conn; bytes; _ } ->
      Protocol.feed parsers.(conn) bytes;
      List.iter
        (function
          | Protocol.Request r -> Buffer.add_string out.(conn) (Protocol.render_reply (apply r))
          | Protocol.Protocol_error e -> Buffer.add_string out.(conn) e)
        (Protocol.drain parsers.(conn)))
    f.Client.chunks;
  (Array.map Buffer.contents out, !gets)

type point = {
  rate : float;
  fleet : Client.t;
  expect : string array;
  gets : int;
  last_arrival : int;
  crash_at : int option;
}

let points ~seed ~requests_per_conn =
  let mk ?(crash = false) rate =
    let fleet = fleet ~seed ~requests_per_conn rate in
    let expect, gets = reference fleet in
    let last_arrival = List.fold_left (fun acc c -> max acc c.Client.arrival_ns) 0 fleet.Client.chunks in
    { rate; fleet; expect; gets; last_arrival;
      crash_at = (if crash then Some (last_arrival / 2) else None) }
  in
  List.map (fun r -> mk r) rates @ [ mk ~crash:true ref_rate ]

let verify chk p (r : Service.result) =
  let what = Printf.sprintf "kv %.1fM%s" p.rate (if p.crash_at = None then "" else " crash") in
  check chk (r.Service.protocol_errors = 0) (what ^ ": no protocol errors");
  check chk (r.Service.get_hits + r.Service.get_misses = p.gets) (what ^ ": hits + misses = gets");
  check chk (r.Service.replies = p.expect) (what ^ ": replies equal the sequential reference");
  check chk (p.crash_at = None || r.Service.crashed) (what ^ ": the crash happened")

let latency (r : Service.result) = Histogram.merge_list (List.map snd r.Service.latency)

let serve cfg p = Service.run ~jobs:1 ?crash_at:p.crash_at cfg p.fleet

let k_codec = Ledger.kind "kvserve.codec"
let k_router = Ledger.kind "kvserve.router"
let k_service = Ledger.kind "kvserve.service"

(* Highest offered rate whose p99 and drain lag both stay within the
   limit.  Near saturation latency grows roughly exponentially with
   load, so the score — the log of the worse of the two over the limit —
   is taken as linear in the rate through two grid points: the highest
   rate that meets the limit and the next one up, or, when every rate
   meets it, the top two (extrapolating at most one grid step).  Returns
   the highest grid rate that meets the limit and the estimate. *)
let max_rate grid =
  let score (_, p99, lag) = log (Float.max 1.0 (Float.max p99 lag) /. float_of_int limit_ns) in
  let crossing ((ra, _, _) as a) ((rb, _, _) as b) =
    let sa = score a and sb = score b in
    if sb <= sa then Float.max ra rb else ra +. ((rb -. ra) *. Float.min 2.0 (-.sa /. (sb -. sa)))
  in
  match List.rev (List.filter (fun g -> score g <= 0.0) grid) with
  | [] -> (0.0, 0.0)
  | ((r0, _, _) as g0) :: _ -> (
    match (List.find_opt (fun (r, _, _) -> r > r0) grid, List.rev (List.filter (fun (r, _, _) -> r < r0) grid)) with
    | Some g1, _ -> (r0, crossing g0 g1)
    | None, gp :: _ -> (r0, crossing gp g0)
    | None, [] -> (r0, r0))

let run ~quick ~seed ~seconds ~trace =
  let chk = checks () in
  let cfg = config ~seed in
  let requests_per_conn = if quick then 400 else 6000 in
  let points = points ~seed ~requests_per_conn in
  (* Set-up: the service formats four shard regions and prepopulates
     every item before the clock starts; an empty fleet measures it. *)
  let empty = { (List.hd points) with fleet = empty_fleet; crash_at = None } in
  let prepop = List.init 5 (fun _ -> allocating (fun () -> snd (timed (fun () -> ignore (serve cfg empty))))) in
  let setup_s = median (List.map fst prepop) in
  let setup_words = (snd (List.hd prepop)).total in
  let budget = budget (if trace then seconds /. 2.0 else seconds) in
  (* Each round serves every point; only the first round's results are
     kept, later rounds are checked against them and timed. *)
  let first = ref [] in
  let rounds =
    Common.rounds ~min_rounds:2 budget (fun i ->
        List.mapi
          (fun j p ->
            let (r, s), w = allocating (fun () -> timed (fun () -> serve cfg p)) in
            verify chk p r;
            if i = 0 then first := !first @ [ (p, r, w.total) ]
            else begin
              let _, a, _ = List.nth !first j in
              check chk
                (a.Service.elapsed_ns = r.Service.elapsed_ns
                && Histogram.percentile (latency a) 99.0 = Histogram.percentile (latency r) 99.0)
                (Printf.sprintf "kv %.1fM: deterministic across rounds" p.rate)
            end;
            s)
          points)
  in
  let first = !first in
  let requests = sumi (List.map (fun p -> p.fleet.Client.requests) points) in
  (* Allocation repeats to within a few words, so the empty-fleet run's
     words come out of each run; the host-time serving rate can only
     take the set-up median out. *)
  let alloc =
    sum (List.map (fun (_, _, w) -> w -. setup_words) first) /. float_of_int requests
  in
  let per_point = medians rounds in
  let work = float_of_int requests /. sum per_point in
  let serving = sum per_point -. (float_of_int (List.length per_point) *. setup_s) in
  let grid =
    List.filter_map
      (fun (p, r, _) ->
        if p.crash_at <> None then None
        else
          Some
            (p.rate, Histogram.percentile (latency r) 99.0,
             float_of_int (max 0 (r.Service.elapsed_ns - p.last_arrival))))
      first
  in
  let grid_rate, rate = max_rate grid in
  let e2e = [ m "alloc_words_per_op" "words" alloc; m "virtual_ops_per_s" "1/s" (rate *. 1e6) ] in
  let layers =
    if not trace then []
    else begin
      let at_ref = List.find (fun (p, _, _) -> p.rate = ref_rate && p.crash_at = None) first in
      let _, rref, _ = at_ref in
      let h = latency rref in
      let crashed = List.find (fun (p, _, _) -> p.crash_at <> None) first in
      let _, rc, _ = crashed in
      let recs = rc.Service.recoveries in
      let shard_sum f rs = sumi (List.concat_map (fun (_, r, _) -> List.map f r.Service.shards) rs) in
      let events rs = shard_sum (fun s -> sim_events_of_fields s.Service.s_sim) rs in
      (* Codec and router, outside the service: the reference fleet's
         chunks through the incremental parser, then every key through
         the shard router. *)
      let pref, _, _ = at_ref in
      let untraced_s =
        List.assq pref (List.combine points per_point)
      in
      let parsed = ref [] in
      let parsers = Array.init conns (fun _ -> Protocol.parser_create ()) in
      List.iter
        (fun { Client.conn; bytes; _ } ->
          Ledger.span k_codec (fun () ->
              Protocol.feed parsers.(conn) bytes;
              parsed := List.rev_append (Protocol.drain parsers.(conn)) !parsed))
        pref.fleet.Client.chunks;
      check chk (List.length !parsed = pref.fleet.Client.requests) "codec parses every request";
      let keys =
        List.concat_map
          (function
            | Protocol.Request (Protocol.Get ks) -> ks
            | Protocol.Request (Protocol.Set { key; _ } | Protocol.Delete key | Protocol.Incr { key; _ }) -> [ key ]
            | Protocol.Request Protocol.Stats | Protocol.Protocol_error _ -> [])
          !parsed
      in
      (* One span over the whole pass: a span per key would cost as much
         as the routing it measures. *)
      let routed =
        Ledger.span k_router (fun () ->
            List.for_all (fun k -> let s = Router.shard_of_key ~shards k in s >= 0 && s < shards) keys)
      in
      check chk routed "router maps every key to a shard";
      (* Traced service run at the reference rate: the request spans'
         tail blame, and the host cost of tracing. *)
      let rt, traced_s =
        timed (fun () ->
            Ledger.span k_service (fun () -> Service.run ~jobs:1 { cfg with Service.trace = true } pref.fleet))
      in
      check chk (rt.Service.replies = pref.expect) "traced kv run: replies unchanged";
      let tail =
        match rt.Service.trace with
        | Some tr -> Trace.blame tr ~lo_pct:95.0 ~hi_pct:100.0
        | None -> failwith "traced service run returned no trace"
      in
      let share kind =
        match List.find_opt (fun row -> row.Trace.bkind = kind) tail.Trace.brows with
        | Some row -> row.Trace.bshare /. 100.0
        | None -> 0.0
      in
      let occupancy = Histogram.merge_list (List.map (fun (_, r, _) -> r.Service.batch_occupancy) first) in
      [
        m "memsim.events_per_host_s" "1/s"
          (float_of_int (events first) /. serving);
        m "kvserve.p50_us" "us" (Histogram.percentile h 50.0 /. 1e3);
        m "kvserve.p99_us" "us" (Histogram.percentile h 99.0 /. 1e3);
        m "kvserve.p99_samples" "count" (float_of_int (Histogram.count h));
        m "kvserve.max_rate_mrps" "Mreq/s" rate;
        m "kvserve.max_grid_rate_mrps" "Mreq/s" grid_rate;
        m "host_ops_per_s" "1/s" work;
        m "kvserve.req_per_host_s" "1/s" (float_of_int requests /. serving);
        m "kvserve.codec_ns_per_req" "ns"
          (Ledger.total_s "kvserve.codec" *. 1e9 /. float_of_int (max 1 pref.fleet.Client.requests));
        m "kvserve.router_ns_per_key" "ns"
          (Ledger.total_s "kvserve.router" *. 1e9 /. float_of_int (max 1 (List.length keys)));
        m "kvserve.batch_occupancy_mean" "writes" (Histogram.mean occupancy);
        m "kvserve.throttled_batches" "count" (float_of_int (shard_sum (fun s -> s.Service.s_throttled) first));
        m "kvserve.imbalance" "ratio" rref.Service.imbalance;
        m "kvserve.tail_queue_wait_share" "ratio" (share "queue-wait");
        m "kvserve.tail_batch_wait_share" "ratio" (share "batch-wait");
        m "kvserve.prepopulate_s" "s" setup_s;
        m "kvserve.recovery_modeled_us" "us"
          (float_of_int (List.fold_left (fun a rc -> max a rc.Service.r_modeled_ns) 0 recs) /. 1e3);
        m "kvserve.recovery_wall_ms" "ms" (float_of_int (sumi (List.map (fun rc -> rc.Service.r_wall_ns) recs)) /. 1e6);
        m "kvserve.replayed_ops" "count" (float_of_int (sumi (List.map (fun rc -> rc.Service.r_replayed_ops) recs)));
        m "pstm.commits_per_abort" "ratio"
          (let c = shard_sum (fun s -> s.Service.s_commits) first in
           ratio c (c + shard_sum (fun s -> s.Service.s_aborts) first));
        m "telemetry.tracing_overhead" "ratio" ((traced_s -. setup_s) /. (untraced_s -. setup_s) -. 1.0);
      ]
      @ List.concat_map
          (fun (r, p99, lag) ->
            let k = Catalog.rate_key (Printf.sprintf "%.1f" r) in
            [ m ("kvserve.p99_us.r" ^ k) "us" (p99 /. 1e3); m ("kvserve.drain_lag_us.r" ^ k) "us" (lag /. 1e3) ])
          grid
    end
  in
  (setup_s, requests * List.length rounds, chk, e2e, layers)
