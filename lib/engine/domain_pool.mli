(** The process-wide domain pool: the only extra domains the process
    runs.  It hosts the server's request threads ({!spawn_thread}), so
    connections run on as many cores as the host has.

    Domains are spawned lazily and kept for the life of the process (an
    [at_exit] hook joins the idle ones).  The pool exposes its size on
    {!Cypher_obs.Registry} as [cypher_pool_domains]. *)

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
(** Retires every pool domain and joins those hosting no live thread,
    returning how many it joined; a domain still hosting one is left to
    end with its threads, so an idle connection cannot make process exit
    hang.  Installed as an [at_exit] hook; safe to call more than once,
    and the pool re-grows on the next {!spawn_thread} or
    {!request_domains}. *)
