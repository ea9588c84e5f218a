type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float v ->
    if Float.is_finite v then Buffer.add_string b (Printf.sprintf "%.6g" v)
    else Buffer.add_string b "null"
  | String s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | List items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char b ',';
        emit b item)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        emit b (String k);
        Buffer.add_char b ':';
        emit b v)
      fields;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 4096 in
  emit b j;
  Buffer.contents b

let events (r : Driver.result) =
  let s = r.Driver.sim in
  s.Memsim.Sim.Stats.loads + s.Memsim.Sim.Stats.stores + s.Memsim.Sim.Stats.clwbs
  + s.Memsim.Sim.Stats.sfences

let result_json (r : Driver.result) =
  let s = r.Driver.sim in
  Obj
    [
      ("workload", String r.Driver.workload);
      ("model", String r.Driver.model);
      ("algorithm", String r.Driver.algorithm);
      ("threads", Int r.Driver.threads);
      ("elapsed_virtual_ns", Int r.Driver.elapsed_ns);
      ("commits", Int r.Driver.commits);
      ("aborts", Int r.Driver.aborts);
      ("txs_per_sec", Float r.Driver.txs_per_sec);
      ("commits_per_abort", Float r.Driver.commits_per_abort);
      ("max_log_lines", Int r.Driver.max_log_lines);
      ("loads", Int s.Memsim.Sim.Stats.loads);
      ("stores", Int s.Memsim.Sim.Stats.stores);
      ("l3_misses", Int s.Memsim.Sim.Stats.l3_misses);
      ("clwbs", Int s.Memsim.Sim.Stats.clwbs);
      ("sfences", Int s.Memsim.Sim.Stats.sfences);
      ("fence_wait_ns", Int s.Memsim.Sim.Stats.fence_wait_ns);
      ("wpq_stall_ns", Int s.Memsim.Sim.Stats.wpq_stall_ns);
      ("nvm_reads", Int s.Memsim.Sim.Stats.nvm_reads);
    ]

let outcome_json ~experiment ~quick ~jobs ~wall_s ?(extra = []) results =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let total_events = sum events in
  Obj
    ([
       ("experiment", String experiment);
       ("quick", Bool quick);
       ("jobs", Int jobs);
       ("cores", Int (Domain.recommended_domain_count ()));
       ("wall_s", Float wall_s);
       ("data_points", Int (List.length results));
     ]
    @ extra
    @ [
        ( "totals",
          Obj
            [
              ("commits", Int (sum (fun r -> r.Driver.commits)));
              ("aborts", Int (sum (fun r -> r.Driver.aborts)));
              ("sfences", Int (sum (fun r -> r.Driver.sim.Memsim.Sim.Stats.sfences)));
              ("clwbs", Int (sum (fun r -> r.Driver.sim.Memsim.Sim.Stats.clwbs)));
              ("events", Int total_events);
              ( "events_per_sec",
                Float (if wall_s > 0.0 then float_of_int total_events /. wall_s else nan) );
            ] );
        ("results", List (List.map result_json results));
      ])

(* ---------- parsing (for the regression sentinel) ---------- *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail "invalid literal"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let fin = ref false in
    while not !fin do
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then fin := true
      else if c = '\\' then begin
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' -> (
          if !pos + 4 > n then fail "bad unicode escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          match int_of_string_opt ("0x" ^ hex) with
          | None -> fail "bad unicode escape"
          | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
          | Some code when code < 0x800 ->
            Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          | Some code ->
            Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))
        | _ -> fail "bad escape"
      end
      else Buffer.add_char b c
    done;
    Buffer.contents b
  in
  let digits () =
    while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
      incr pos
    done
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    let tok = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt tok with Some f -> Float f | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with Some f -> Float f | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let fields = ref [] in
        let fin = ref false in
        while not !fin do
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos
          | Some '}' ->
            incr pos;
            fin := true
          | _ -> fail "expected ',' or '}'"
        done;
        Obj (List.rev !fields)
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let elts = ref [] in
        let fin = ref false in
        while not !fin do
          let v = parse_value () in
          elts := v :: !elts;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos
          | Some ']' ->
            incr pos;
            fin := true
          | _ -> fail "expected ',' or ']'"
        done;
        List (List.rev !elts)
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes";
  v

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* ---------- regression sentinel ---------- *)

type severity = Regression | Improvement | Note

type finding = { f_path : string; f_severity : severity; f_detail : string }

let contains hay needle =
  let hn = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Environment / wall-clock metrics: honest in the record, meaningless
   to gate on (they move with the host, not the code). *)
let wall_metric name =
  name = "wall_s" || name = "jobs" || name = "cores" || name = "quick"
  || contains name "wall_ns" || contains name "wall_s"
  || contains name "events_per_sec"

let higher_better name =
  contains name "per_sec" || contains name "per_abort" || contains name "speedup"
  || name = "commits" || contains name "hit"

let lower_better name =
  String.ends_with ~suffix:"_ns" name
  || String.ends_with ~suffix:"_us" name
  || name = "aborts" || contains name "miss" || contains name "stall"
  || contains name "slack" || contains name "latency" || contains name "imbalance"
  || contains name "words_per_event"

let regress ?(tolerance_pct = 5.0) ?(include_wall = false) ~baseline ~current () =
  let findings = ref [] in
  let add path severity detail = findings := { f_path = path; f_severity = severity; f_detail = detail } :: !findings in
  let num = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None in
  let skipped name = (not include_wall) && wall_metric name in
  let gated name = (not (skipped name)) && (higher_better name || lower_better name) in
  let leaf path name b c =
    match (num b, num c) with
    | Some bv, Some cv when bv <> cv && not (skipped name) ->
      let delta =
        if bv <> 0.0 then (cv -. bv) /. Float.abs bv *. 100.0
        else if cv > 0.0 then infinity
        else neg_infinity
      in
      if Float.abs delta > tolerance_pct then begin
        let detail = Printf.sprintf "%.6g -> %.6g (%+.1f%%)" bv cv delta in
        if higher_better name then
          add path (if cv < bv then Regression else Improvement) detail
        else if lower_better name then
          add path (if cv > bv then Regression else Improvement) detail
        else add path Note detail
      end
    | _ -> ()
  in
  (* A gated number in the baseline must still be a number in the
     current record: a metric that went missing, or non-finite (written
     as [null]), is a regression, not a shrug. *)
  let rec lost path name b what =
    match b with
    | (Int _ | Float _) when gated name -> add path Regression (what ^ " in current")
    | Obj bs -> List.iter (fun (k, bv) -> lost (path ^ "." ^ k) k bv what) bs
    | List bs -> List.iteri (fun i bv -> lost (Printf.sprintf "%s[%d]" path i) name bv what) bs
    | _ -> ()
  in
  let rec walk path name b c =
    match (b, c) with
    | Obj bs, Obj cs ->
      List.iter
        (fun (k, bv) ->
          let kpath = if path = "" then k else path ^ "." ^ k in
          match List.assoc_opt k cs with
          | Some cv -> walk kpath k bv cv
          | None ->
            let before = List.length !findings in
            lost kpath k bv "missing";
            if List.length !findings = before then
              add kpath Note "present in baseline, missing in current")
        bs;
      List.iter
        (fun (k, _) ->
          if not (List.mem_assoc k bs) then
            add
              (if path = "" then k else path ^ "." ^ k)
              Note "new in current (absent from baseline)")
        cs
    | List bs, List cs ->
      let nb = List.length bs and nc = List.length cs in
      if nc < nb then add path Regression (Printf.sprintf "list length %d -> %d" nb nc)
      else if nb <> nc then add path Note (Printf.sprintf "list length %d -> %d" nb nc);
      List.iteri
        (fun i bv ->
          match List.nth_opt cs i with
          | Some cv -> walk (Printf.sprintf "%s[%d]" path i) name bv cv
          | None -> ())
        bs
    | (Int _ | Float _), (Int _ | Float _) -> leaf path name b c
    | String a, String b2 ->
      if a <> b2 then add path Note (Printf.sprintf "%S -> %S" a b2)
    | Bool a, Bool b2 ->
      if a <> b2 then add path Note (Printf.sprintf "%b -> %b" a b2)
    | Null, Null -> ()
    | (Int _ | Float _), Null when gated name -> add path Regression "null (non-finite) in current"
    | (Int _ | Float _), _ when gated name -> add path Regression "no longer a number in current"
    | _ -> add path Note "value type changed"
  in
  walk "" "" baseline current;
  List.rev !findings

let write ?(dir = ".") ~experiment ~quick ~jobs ~wall_s ?extra results =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" experiment) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string (outcome_json ~experiment ~quick ~jobs ~wall_s ?extra results));
      output_char oc '\n');
  path
