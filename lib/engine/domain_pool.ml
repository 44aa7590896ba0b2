(* The process-wide domain pool: the only extra domains the process has.
   It hosts request threads: [spawn_thread f] starts a systhread on the
   domain hosting the fewest live threads, so request handling runs on
   as many cores as the pool has domains, plus the caller's.  A systhread
   must be created by its own domain, so each pool domain has a spawn
   inbox: the spawner queues the body, the domain's loop creates the
   thread and hands the [Thread.t] back.  The spawner waits for that
   hand-back, and placement counts threads, not how busy they are: if a
   thread already on the chosen domain is in a CPU-bound read, the loop
   waits for that domain's runtime lock, up to one tick (~50 ms), and so
   does the spawner.

   Domains are spawned lazily and kept for the life of the process, so
   the spawn cost (~ tens of microseconds plus a runtime ring slot) is
   paid once, not per connection.  Everything mutable here is under
   [lock].

   Shutdown retires every domain and joins those that host no live
   thread.  A domain still hosting a thread cannot be joined — its
   threads keep it alive — so it is left to the process exit; an idle
   connection therefore never makes exit hang. *)

module Registry = Cypher_obs.Registry

let m_domains =
  Registry.gauge ~help:"request domains spawned by the pool"
    "cypher_pool_domains"

(* Hard ceiling on pool size; requests beyond it are clamped, not
   refused. *)
let max_domains = 8

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

let rec domain_loop slot =
  Mutex.lock lock;
  while Queue.is_empty slot.inbox && not slot.retired do
    Condition.wait work_available lock
  done;
  if not (Queue.is_empty slot.inbox) then begin
    serve_inbox slot;
    Mutex.unlock lock;
    domain_loop slot
  end
  else Mutex.unlock lock

(* Grows the pool to one request domain per core beyond the caller's
   (clamped to [max_domains]); no-op once it is there.  Under [lock] so
   two racing callers cannot over-spawn. *)
let grow_for_requests () =
  let n = min (Domain.recommended_domain_count () - 1) max_domains in
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

let shutdown () =
  Mutex.lock lock;
  let retiring = !slots in
  slots := [];
  List.iter (fun s -> s.retired <- true) retiring;
  Condition.broadcast work_available;
  let idle = List.filter (fun s -> s.live = 0) retiring in
  Mutex.unlock lock;
  Registry.gauge_set m_domains 0;
  List.iter (fun s -> Option.iter Domain.join s.domain) idle;
  List.length idle

(* see the module comment: joins the pool's idle domains on the way out *)
let () = at_exit (fun () -> ignore (shutdown ()))
