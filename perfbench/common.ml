(* Shared plumbing: host clock, run budget, statistics, metric rows. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [timed f] runs [f] and returns its result with the host seconds it
   took. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) *. 1e-9)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Position-wise medians: [medians rounds] has, for each position of
   the rounds' lists, the median over rounds.  Taking the median per
   item rather than per round keeps a burst of host noise inside one
   item from moving the whole round. *)
let medians = function
  | [] -> []
  | first :: _ as rounds -> List.mapi (fun i _ -> median (List.map (fun r -> List.nth r i) rounds)) first

let geomean = function
  | [] -> nan
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0
let sumi = List.fold_left ( + ) 0
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* A measured value with its unit.  End-to-end rows are printed by the
   untraced run, per-layer rows by the traced one. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Failed checks feed the result's [failed] count, each with a reason on
   stderr. *)
type checks = { mutable failed : int }

let checks () = { failed = 0 }

let check c ok what =
  if not ok then begin
    c.failed <- c.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* Host time budget of one invocation: rounds repeat while another
   round of the size already seen still fits, and at least [min_rounds]
   always run. *)
type budget = { deadline_ns : int }

let budget seconds = { deadline_ns = now_ns () + int_of_float (seconds *. 1e9) }

let peak_heap_words = ref 0

let rounds ?(min_rounds = 1) b f =
  let rec go i acc last_ns =
    let t0 = now_ns () in
    if i >= min_rounds && t0 + last_ns > b.deadline_ns then List.rev acc
    else
      let r = f i in
      (* The heap peak is taken after the first round: later rounds
         repeat the same work, and how many of them fit in the budget
         depends on the host's speed. *)
      if i = 0 then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
      go (i + 1) (r :: acc) (now_ns () - t0)
  in
  go 0 [] 0

let peak_heap_mb () = float_of_int (!peak_heap_words * (Sys.word_size / 8)) /. 1e6

(* Words allocated so far: in the minor heap, in the major heap, and in
   total (a word promoted from the minor heap counted once). *)
type words = { minor : float; major : float; total : float }

let words () =
  let minor, promoted, major = Gc.counters () in
  { minor; major; total = minor +. major -. promoted }

let ( -- ) a b = { minor = a.minor -. b.minor; major = a.major -. b.major; total = a.total -. b.total }

(* [allocating f] runs [f] and returns its result with the words it
   allocated. *)
let allocating f =
  let w0 = words () in
  let r = f () in
  (r, words () -- w0)

(* Simulated-machine events of a run: every load, store, clwb and
   sfence the DES executed. *)
let sim_events (s : Memsim.Sim.Stats.t) =
  s.Memsim.Sim.Stats.loads + s.stores + s.clwbs + s.sfences

let sim_events_of_fields fields =
  List.fold_left
    (fun acc (k, v) ->
      match k with "loads" | "stores" | "clwbs" | "sfences" -> acc + v | _ -> acc)
    0 fields
