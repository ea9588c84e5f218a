exception Crashed = Machine.Crashed

(* The effect carries no payload: the requested delay travels through
   [pending_ns] on the scheduler instead, so performing a wait
   allocates nothing beyond the continuation capture itself.  (A
   [Wait : int -> _ Effect.t] payload would cons a fresh two-word block
   on every suspension — measurable on the DES hot loop.) *)
type _ Effect.t += Wait : unit Effect.t

(* A suspended thread's continuation lives in [thread.k], not in the
   state constructor, so suspending allocates no [Suspended k] block. *)
type state =
  | Not_started of (unit -> unit)
  | Suspended
  | Running
  | Finished

(* The value [thread.k] holds while the thread is not suspended: a
   continuation captured once, here, and never resumed.  It keeps the
   field well-typed without an option (which would allocate per
   suspension) or [Obj.magic]. *)
let placeholder : (unit, unit) Effect.Deep.continuation =
  let captured = ref None in
  let keep (k : (unit, unit) Effect.Deep.continuation) = captured := Some k in
  Effect.Deep.match_with Effect.perform Wait
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait -> (Some keep : ((a, unit) Effect.Deep.continuation -> unit) option)
          | _ -> None);
    };
  match !captured with Some k -> k | None -> assert false

type thread = {
  thread_id : int;
  mutable time : int;
  mutable state : state;
  mutable k : (unit, unit) Effect.Deep.continuation; (* valid while [Suspended] *)
  self : thread option; (* pre-allocated [Some this] for [current] *)
}

type t = {
  mutable table : thread array; (* index = thread_id; padded with [dummy] *)
  mutable count : int;
  ready : Repro_util.Int_heap.t; (* key = wake time, payload = thread id *)
  mutable current : thread option;
  mutable pending_ns : int; (* delay of the in-flight Wait perform *)
  mutable crash_limit : int; (* armed crash time; [max_int] = none *)
  mutable stops : int array; (* sorted stop instants *)
  mutable next_stop : int; (* index of the first stop not yet fired *)
  mutable on_stop : int -> bool;
  (* [min crash_limit stops.(next_stop)]: the one bound the inline
     fast path and the dispatch loop compare against. *)
  mutable horizon : int;
  mutable crashed : bool;
  mutable max_time : int;
  mutable started : bool;
}

let rec dummy =
  { thread_id = -1; time = 0; state = Finished; k = placeholder; self = Some dummy }

let create () =
  {
    table = [||];
    count = 0;
    ready = Repro_util.Int_heap.create ();
    current = None;
    pending_ns = 0;
    crash_limit = max_int;
    stops = [||];
    next_stop = 0;
    on_stop = (fun _ -> true);
    horizon = max_int;
    crashed = false;
    max_time = 0;
    started = false;
  }

let spawn t f =
  if t.started then invalid_arg "Sched.spawn: scheduler already running";
  let rec th =
    { thread_id = t.count; time = 0; state = Not_started f; k = placeholder; self = Some th }
  in
  if t.count = Array.length t.table then begin
    let bigger = Array.make (max 8 (2 * (t.count + 1))) dummy in
    Array.blit t.table 0 bigger 0 t.count;
    t.table <- bigger
  end;
  t.table.(t.count) <- th;
  t.count <- t.count + 1;
  Repro_util.Int_heap.push t.ready ~key:0 th.thread_id;
  th.thread_id

let now t = match t.current with Some th -> th.time | None -> t.max_time

(* Machine operations may also run outside [run] (untimed setup and
   recovery phases): time simply does not advance there, and thread id
   defaults to 0. *)
let tid t = match t.current with Some th -> th.thread_id | None -> 0

(* Fast path: when the current thread, after advancing by [ns], is
   still strictly ahead of every pending wake-up, suspending it would
   only have the scheduler pop it right back — no other thread can
   interpose (FIFO tie-break means an *equal* wake time would run
   first, hence the strict [<]).  Advancing the clock inline is then
   observably identical to the full perform/reschedule cycle, and skips
   the continuation capture, the heap round-trip and the handler
   dispatch.  A wake time at or past the horizon (the armed crash limit
   or the next stop) must take the slow path so the dispatch loop sees
   the event. *)
let wait t ns =
  assert (ns >= 0);
  match t.current with
  | None -> ()
  | Some th ->
    let nt = th.time + ns in
    if nt < t.horizon && nt < Repro_util.Int_heap.min_key t.ready then begin
      th.time <- nt;
      if nt > t.max_time then t.max_time <- nt
    end
    else begin
      t.pending_ns <- ns;
      Effect.perform Wait
    end

let wait_until t target =
  match t.current with
  | None -> ()
  | Some th -> if target > th.time then wait t (target - th.time)

let crashed t = t.crashed

let time_limit t = if t.crash_limit = max_int then None else Some t.crash_limit

let running t = t.current <> None

let update_horizon t =
  t.horizon <-
    (if t.next_stop < Array.length t.stops then min t.crash_limit t.stops.(t.next_stop)
     else t.crash_limit)

(* The next event is due at [time >= t.horizon]: fire, in order, every
   stop at or before it (and before the crash limit).  A callback that
   answers [false] turns its stop into the crash instant.  Returns
   whether the power fails at this event. *)
let rec reach t time =
  let i = t.next_stop in
  if i < Array.length t.stops && t.stops.(i) <= time && t.stops.(i) < t.crash_limit then begin
    let s = t.stops.(i) in
    t.next_stop <- i + 1;
    if not (t.on_stop s) then t.crash_limit <- s;
    reach t time
  end
  else begin
    update_horizon t;
    time >= t.crash_limit
  end

let kill t th =
  match th.state with
  | Suspended ->
    let k = th.k in
    th.k <- placeholder;
    th.state <- Finished;
    t.current <- th.self;
    (* The handler's exnc re-raises, so an uncaught Crashed surfaces
       here; a thread that swallows it instead terminates via retc. *)
    (try Effect.Deep.discontinue k Crashed with Crashed -> ());
    t.current <- None
  | Not_started _ | Running | Finished -> th.state <- Finished

let run ?crash_at ?(stops = [||]) ?(on_stop = fun _ -> true) t =
  if t.started then invalid_arg "Sched.run: scheduler already ran";
  for i = 1 to Array.length stops - 1 do
    if stops.(i) <= stops.(i - 1) then invalid_arg "Sched.run: stops not strictly increasing"
  done;
  t.started <- true;
  (match crash_at with Some c -> t.crash_limit <- c | None -> ());
  t.stops <- stops;
  t.on_stop <- on_stop;
  update_horizon t;
  (* The Wait arm of the handler is allocated once here, not per
     perform: [effc] returns the same [Some on_wait] every time.  The
     cast is safe because [Wait : unit Effect.t] fixes [a = unit]. *)
  let on_wait (k : (unit, unit) Effect.Deep.continuation) =
    let th = match t.current with Some th -> th | None -> assert false in
    th.time <- th.time + t.pending_ns;
    th.k <- k;
    th.state <- Suspended;
    t.max_time <- max t.max_time th.time;
    Repro_util.Int_heap.push t.ready ~key:th.time th.thread_id
  in
  let some_on_wait = Some on_wait in
  let handler =
    {
      Effect.Deep.retc =
        (fun () ->
          match t.current with
          | None -> assert false
          | Some th ->
            th.state <- Finished;
            t.max_time <- max t.max_time th.time);
      exnc = (fun exn -> raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait -> (some_on_wait : ((a, unit) Effect.Deep.continuation -> unit) option)
          | _ -> None);
    }
  in
  let continue_loop = ref true in
  while !continue_loop do
    let id = Repro_util.Int_heap.pop t.ready in
    if id < 0 then continue_loop := false
    else begin
      let th = t.table.(id) in
      if th.state <> Finished then begin
        let time = Repro_util.Int_heap.last_key t.ready in
        if time >= t.horizon && reach t time then begin
          t.crashed <- true;
          kill t th;
          (* Power is gone: kill everything else too. *)
          let rec drain () =
            let other = Repro_util.Int_heap.pop t.ready in
            if other >= 0 then begin
              kill t t.table.(other);
              drain ()
            end
          in
          drain ();
          continue_loop := false
        end
        else begin
          t.current <- th.self;
          (match th.state with
          | Not_started f ->
            th.state <- Running;
            Effect.Deep.match_with f () handler
          | Suspended ->
            (* Clear the field before resuming: the thread's next
               suspension stores its new continuation there. *)
            let k = th.k in
            th.k <- placeholder;
            th.state <- Running;
            Effect.Deep.continue k ()
          | Running | Finished -> assert false);
          t.current <- None
        end
      end
    end
  done;
  t.current <- None;
  if t.crashed && t.crash_limit < t.max_time then t.max_time <- t.crash_limit
