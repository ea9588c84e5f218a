(** Deterministic discrete-event scheduler for simulated threads.

    Each simulated thread is a direct-style OCaml computation that
    performs a [Wait] effect whenever a modeled operation costs time.
    The scheduler always resumes the thread with the smallest virtual
    clock (FIFO among ties), so all shared-state mutations occur in
    global virtual-time order and every run is a deterministic function
    of the configuration and RNG seeds.

    Power-failure injection: when a crash time is armed, any thread
    whose next event would occur at or after that instant is
    discontinued with the {!Crashed} exception instead of being
    resumed.  Threads must let [Crashed] propagate; cleanup code run
    while it unwinds must not touch simulated memory (the power is
    already gone), which is also what makes a run paused at a stop
    (see {!run}) show the state a crash there leaves. *)

type t

(** The crash exception is {!Machine.Crashed}, so that machine-agnostic
    code can match it without depending on this library. *)

val create : unit -> t

val spawn : t -> (unit -> unit) -> int
(** Register a thread; returns its dense id (0, 1, ...).  Must be
    called before {!run}. *)

val run : ?crash_at:int -> ?stops:int array -> ?on_stop:(int -> bool) -> t -> unit
(** Execute until every thread finishes, or until virtual time reaches
    [crash_at], in which case all remaining threads are killed and
    {!crashed} becomes true.  May be called once per scheduler.

    Stops pause the run without changing it.  [stops] must be strictly
    increasing ([Invalid_argument] otherwise).  Stop [s] fires when the
    scheduler pops the first event at or after [s], before it resumes
    that event's thread — exactly where [crash_at:s] would have killed
    it — so inside [on_stop s] the machine state (memory, caches,
    queues, and everything the threads recorded) is the state a crash
    at [s] leaves behind.  Several stops with no event between them
    fire in order at the same event.  Each stop fires at most once;
    stops after the last event, or at or after [crash_at], never fire.
    The callback runs outside any simulated thread and must not touch
    this scheduler.  A run with stops whose callbacks all answer [true]
    has the same event order, final time and outcome as one without.
    Answering [false] ends the run as a crash at [s]: it is then
    indistinguishable from [run ~crash_at:s]. *)

val wait : t -> int -> unit
(** Advance the calling thread's virtual clock by [ns >= 0].  Must be
    called from within a simulated thread. *)

val wait_until : t -> int -> unit
(** Advance the calling thread's clock to at least the given absolute
    time. *)

val now : t -> int
(** Virtual clock of the calling thread; after [run] returns, the
    maximum virtual time reached. *)

val tid : t -> int
(** Id of the calling thread. *)

val crashed : t -> bool

val running : t -> bool
(** Whether a simulated thread is currently executing — false during
    untimed setup/recovery phases outside [run]. *)

val time_limit : t -> int option
(** The armed crash time, if any — lets long-running loops bail out
    early instead of spinning to the horizon. *)
