(* perfbench: run one named workload and print one JSON result line.

     perfbench --workload ptm-update|kv-service|crash-audit --seed N
               --seconds S --trace 0|1 [--quick] [--spans FILE]

   With --trace 0 the metrics are the end-to-end ones, measured with no
   instrumentation.  With --trace 1 half of the time repeats the
   untraced measurement and half runs traced, and the metrics are the
   per-layer ones (see README.md).  --quick shrinks every workload for
   the self-test.  The last line of standard output is
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}} *)

open Common

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--spans FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let quick = ref false and spans = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> (seed := try int_of_string v with _ -> usage ()); parse rest
    | "--seconds" :: v :: rest -> (seconds := try float_of_string v with _ -> usage ()); parse rest
    | "--trace" :: v :: rest -> (trace := match v with "0" -> 0 | "1" -> 1 | _ -> usage ()); parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--spans" :: v :: rest -> spans := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0.0 || !trace < 0 then usage ();
  let trace = !trace = 1 and quick = !quick and seed = !seed and seconds = !seconds in
  let setup_s, attempted, chk, e2e, layers =
    match !workload with
    | "ptm-update" -> Ptm_update.run ~quick ~seed ~seconds ~trace
    | "kv-service" -> Kv_service.run ~quick ~seed ~seconds ~trace
    | "crash-audit" -> Crash_audit.run ~quick ~seed ~seconds ~trace
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  let metrics =
    if not trace then
      Catalog.select Catalog.end_to_end
        (m "setup_s" "s" setup_s :: m "peak_heap_mb" "MB" (peak_heap_mb ()) :: e2e)
    else Catalog.select ~missing_is_zero:true Catalog.per_layer layers
  in
  List.iter
    (fun x ->
      check chk (Float.is_finite x.value) (x.name ^ " is a finite number");
      if not trace then check chk (x.value > 0.0) (x.name ^ " is positive"))
    metrics;
  if !spans <> "" then Ledger.write_out !spans;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.name
             (if Float.is_finite x.value then x.value else 0.0)
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (chk.failed = 0) (max 1 attempted) chk.failed body
