(* The process-wide domain pool: the only extra domains the process has.

   Two kinds of work share it.

   Morsel jobs.  A job ([run ~workers n f]) is a bag of [n] independent
   index-addressed tasks; scheduling is work-stealing over a single
   atomic next-index counter, so morsel imbalance (one morsel hits a hub
   node, another is all misses) self-corrects: fast workers just claim
   more indices.  The caller always participates as one of the workers.
   That bounds the helpers needed at [workers - 1], and — more
   importantly — makes the pool deadlock-free under concurrent jobs:
   even if every pool domain is busy with other jobs, each caller drives
   its own job to completion alone, merely without speed-up.

   Hosted threads.  [spawn_thread f] starts a systhread on the domain
   hosting the fewest live threads, so request handling runs on as many
   cores as the pool has domains, plus the caller's.  A systhread must
   be created by its own domain, so each pool domain has a spawn inbox:
   the spawner queues the body, the domain's loop creates the thread and
   hands the [Thread.t] back.  The loop serves its inbox ahead of the
   job queue and between the tasks of a job, so a long morsel job delays
   a spawn by at most one morsel.  The spawner waits for that hand-back,
   and placement counts threads, not how busy they are: if a thread
   already on the chosen domain is in a CPU-bound read, the loop waits
   for that domain's runtime lock, up to one tick (~50 ms), and so does
   the spawner.

   Domains are spawned lazily and kept for the life of the process, so
   the spawn cost (~ tens of microseconds plus a runtime ring slot) is
   paid once, not per query.  Everything mutable here is under [lock].

   Tasks MUST NOT raise: the executor wraps each morsel and stores the
   outcome; a leaked exception here would kill a pool domain.  As a
   backstop, leaked exceptions are swallowed (and counted).

   Shutdown retires every domain and joins those that host no live
   thread.  A domain still hosting a thread cannot be joined — its
   threads keep it alive — so it is left to the process exit; an idle
   connection therefore never makes exit hang. *)

module Registry = Cypher_obs.Registry

let m_domains =
  Registry.gauge ~help:"worker domains spawned by the pool"
    "cypher_pool_domains"

let m_busy =
  Registry.gauge ~help:"pool domains currently executing tasks"
    "cypher_pool_busy"

let m_tasks =
  Registry.counter ~help:"tasks (morsels) executed on pool domains"
    "cypher_pool_tasks_total"

let m_jobs =
  Registry.counter ~help:"parallel jobs submitted to the pool"
    "cypher_pool_jobs_total"

let m_task_errors =
  Registry.counter ~help:"tasks that leaked an exception (executor bug)"
    "cypher_pool_task_errors_total"

(* Hard ceiling on pool size; requests beyond it are clamped, not
   refused.  8 helpers saturate any plausible host for this workload
   long before memory bandwidth stops scaling. *)
let max_domains = 8

type job = {
  j_run : int -> unit;
  j_total : int;
  j_next : int Atomic.t;  (* next unclaimed task index *)
  j_done : int Atomic.t;  (* completed tasks *)
  j_mutex : Mutex.t;
  j_cond : Condition.t;
  mutable j_finished : bool;
}

(* A thread to create on a given domain; [sp_thread] is filled by that
   domain's loop. *)
type spawn = { sp_body : unit -> unit; mutable sp_thread : Thread.t option }

(* One pool domain.  [live] counts the threads it hosts, including
   spawns still in its inbox. *)
type slot = {
  inbox : spawn Queue.t;
  mutable live : int;
  mutable retired : bool;
  mutable domain : unit Domain.t option;
}

let lock = Mutex.create ()
let work_available = Condition.create ()
let spawned = Condition.create ()
let queue : job Queue.t = Queue.create ()
let slots : slot list ref = ref []

(* Threads spawned in place on the caller's domain, which counts as one
   request domain beside the pool's. *)
let local_live = ref 0

(* Creates the inbox's threads, counted against [slot] until their body
   returns.  Called with [lock] held; drops it around [Thread.create]. *)
let serve_inbox slot =
  while not (Queue.is_empty slot.inbox) do
    let sp = Queue.pop slot.inbox in
    Mutex.unlock lock;
    let body () =
      Fun.protect sp.sp_body ~finally:(fun () ->
          Mutex.lock lock;
          slot.live <- slot.live - 1;
          Mutex.unlock lock)
    in
    let th = Thread.create body () in
    Mutex.lock lock;
    sp.sp_thread <- Some th;
    Condition.broadcast spawned
  done

(* Claims task indices until the job is drained.  Runs on pool domains
   ([slot] given, which also keeps its inbox served) and on the caller. *)
let help ?slot job =
  let rec loop () =
    Option.iter
      (fun s ->
        (* a racy peek, cheap between tasks; [serve_inbox] re-reads the
           inbox under the lock *)
        if not (Queue.is_empty s.inbox) then begin
          Mutex.lock lock;
          serve_inbox s;
          Mutex.unlock lock
        end)
      slot;
    let i = Atomic.fetch_and_add job.j_next 1 in
    if i < job.j_total then begin
      if slot <> None then Registry.incr m_tasks;
      (try job.j_run i
       with _ -> Registry.incr m_task_errors);
      let completed = 1 + Atomic.fetch_and_add job.j_done 1 in
      if completed = job.j_total then begin
        Mutex.lock job.j_mutex;
        job.j_finished <- true;
        Condition.broadcast job.j_cond;
        Mutex.unlock job.j_mutex
      end;
      loop ()
    end
  in
  loop ()

let rec domain_loop slot =
  Mutex.lock lock;
  while
    Queue.is_empty slot.inbox && Queue.is_empty queue && not slot.retired
  do
    Condition.wait work_available lock
  done;
  if not (Queue.is_empty slot.inbox) then begin
    serve_inbox slot;
    Mutex.unlock lock;
    domain_loop slot
  end
  else if slot.retired then Mutex.unlock lock
  else begin
    let job = Queue.pop queue in
    Mutex.unlock lock;
    Registry.gauge_incr m_busy;
    help ~slot job;
    Registry.gauge_decr m_busy;
    domain_loop slot
  end

(* Grows the pool to [n] domains (clamped to [max_domains]); no-op once
   it is there.  Under [lock] so two racing callers cannot over-spawn. *)
let ensure_domains n =
  let n = min n max_domains in
  Mutex.lock lock;
  while List.length !slots < n do
    let slot =
      { inbox = Queue.create (); live = 0; retired = false; domain = None }
    in
    slot.domain <- Some (Domain.spawn (fun () -> domain_loop slot));
    slots := !slots @ [ slot ];
    Registry.gauge_incr m_domains
  done;
  Mutex.unlock lock

let size () =
  Mutex.lock lock;
  let n = List.length !slots in
  Mutex.unlock lock;
  n

(* One request domain per core: the pool's, beside the caller's. *)
let grow_for_requests () =
  ensure_domains (Domain.recommended_domain_count () - 1)

let request_domains () =
  grow_for_requests ();
  size () + 1

let spawn_thread f =
  grow_for_requests ();
  Mutex.lock lock;
  (* least loaded wins; on a tie a pool domain beats the caller's, which
     also runs the accept loop and the background threads *)
  let least =
    List.fold_left
      (fun acc s ->
        match acc with Some b when b.live <= s.live -> acc | _ -> Some s)
      None !slots
  in
  match least with
  | Some slot when slot.live <= !local_live ->
    let sp = { sp_body = f; sp_thread = None } in
    slot.live <- slot.live + 1;
    Queue.push sp slot.inbox;
    Condition.broadcast work_available;
    let rec await () =
      match sp.sp_thread with
      | Some th -> th
      | None ->
        Condition.wait spawned lock;
        await ()
    in
    let th = await () in
    Mutex.unlock lock;
    th
  | _ ->
    incr local_live;
    Mutex.unlock lock;
    Thread.create
      (fun () ->
        Fun.protect f ~finally:(fun () ->
            Mutex.lock lock;
            decr local_live;
            Mutex.unlock lock))
      ()

let run ~workers n f =
  if n > 0 then begin
    if workers <= 1 || n = 1 then
      for i = 0 to n - 1 do f i done
    else begin
      Registry.incr m_jobs;
      let helpers = min (workers - 1) (n - 1) in
      ensure_domains helpers;
      let job =
        {
          j_run = f;
          j_total = n;
          j_next = Atomic.make 0;
          j_done = Atomic.make 0;
          j_mutex = Mutex.create ();
          j_cond = Condition.create ();
          j_finished = false;
        }
      in
      Mutex.lock lock;
      (* one queue entry per helper we want on this job; a domain that
         pops a handle after the job drained exits [help] immediately *)
      for _ = 1 to helpers do Queue.push job queue done;
      Condition.broadcast work_available;
      Mutex.unlock lock;
      help job;
      Mutex.lock job.j_mutex;
      while not job.j_finished do Condition.wait job.j_cond job.j_mutex done;
      Mutex.unlock job.j_mutex
    end
  end

let shutdown () =
  Mutex.lock lock;
  let retiring = !slots in
  slots := [];
  List.iter (fun s -> s.retired <- true) retiring;
  Queue.clear queue;
  Condition.broadcast work_available;
  let idle = List.filter (fun s -> s.live = 0) retiring in
  Mutex.unlock lock;
  Registry.gauge_set m_domains 0;
  List.iter (fun s -> Option.iter Domain.join s.domain) idle;
  List.length idle

(* see the module comment: joins the pool's idle domains on the way out *)
let () = at_exit (fun () -> ignore (shutdown ()))
