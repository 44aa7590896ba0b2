(** The process-wide domain pool: the only extra domains the process
    runs, shared by morsel-parallel read execution ({!run}) and by the
    server's request handling ({!spawn_thread}).

    Domains are spawned lazily and kept for the life of the process (an
    [at_exit] hook joins the idle ones).  Morsel scheduling is
    work-stealing over an atomic task counter, and the caller of {!run}
    always participates as one worker, which makes concurrent jobs
    deadlock-free: a job never waits on pool capacity, it only speeds up
    with it.

    The pool exposes its state on {!Cypher_obs.Registry}:
    [cypher_pool_domains], [cypher_pool_busy], [cypher_pool_tasks_total],
    [cypher_pool_jobs_total] and [cypher_pool_task_errors_total]. *)

val run : workers:int -> int -> (int -> unit) -> unit
(** [run ~workers n f] executes [f 0 .. f (n-1)], each exactly once,
    on up to [workers] domains (the calling one included; helper count
    is clamped to the pool's hard ceiling).  Returns when all [n] have
    completed.  [f] must not raise — exceptions are swallowed and
    counted, so callers must capture outcomes themselves.  With
    [workers <= 1] (or [n <= 1]) the tasks run inline on the caller in
    index order, bypassing the pool entirely. *)

val spawn_thread : (unit -> unit) -> Thread.t
(** [spawn_thread f] starts a systhread running [f] on the least-loaded
    request domain: the one hosting the fewest live threads started
    here, where the caller's own domain counts as one request domain and
    wins only strictly.  Grows the pool to one domain per core beyond
    the caller's first (see {!request_domains}); on a 1-core host every
    thread runs on the caller's domain.  Returns once the thread
    exists: if a thread already on the chosen domain is in a CPU-bound
    computation, that can take up to one runtime tick (~50 ms). *)

val request_domains : unit -> int
(** Grows the pool to [Domain.recommended_domain_count () - 1] domains
    (clamped to the hard ceiling) and returns the number of domains
    {!spawn_thread} places threads on: the pool's plus the caller's. *)

val size : unit -> int
(** Pool domains currently alive. *)

val shutdown : unit -> int
(** Retires every pool domain (they finish their current task first)
    and joins those hosting no live thread, returning how many it
    joined; a domain still hosting one is left to end with its threads,
    so an idle connection cannot make process exit hang.  Installed as
    an [at_exit] hook; safe to call more than once, and the pool
    re-grows on the next {!run} or {!spawn_thread}. *)
