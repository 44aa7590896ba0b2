(* Trace spans: dynamically-scoped named timers emitting JSON-lines
   events to an optional sink.

   [with_span name f] times [f] on the monotonic clock and, when a sink
   is attached, emits one JSON object per completed span:

     {"name":"execute","thread":3,"depth":1,"seq":17,
      "start_us":123456789,"dur_us":842,"attrs":{"query":"MATCH ..."}}

   Spans nest per thread: [depth] is the number of enclosing open spans
   on the same thread, so a consumer can rebuild the tree from the flat
   line stream (children are emitted before their parents close, with a
   strictly greater depth).  [seq] is a process-global emission counter.

   When no sink is attached and no span collection is active the span
   machinery is two atomic reads around the call — the whole point is
   that production code can leave [with_span] in every hot path (the B15
   benchmark prices this at well under 5% on an indexed read).

   The slow-query log reuses the same spans: a thread can open a
   collector with [begin_collect]; until [end_collect], every completed
   span on that thread adds its duration to a per-name total, giving the
   per-phase breakdown (parse/plan/execute/fsync/…) of one query without
   any sink configured. *)

(* Monotonic, so [dur_us] can never go negative when NTP steps the wall
   clock.  [start_us] is therefore relative to an arbitrary epoch, which
   is fine for ordering and duration; consumers wanting wall-clock dates
   must correlate externally. *)
let now_us = Clock.now_us

(* --- sink ------------------------------------------------------------- *)

let sink : (string -> unit) option Atomic.t = Atomic.make None
let sink_channel : out_channel option ref = ref None
let sink_lock = Mutex.create ()

let set_sink s = Atomic.set sink s

(* Routes spans to [path] (JSONL, appended, line-buffered under a lock);
   [close ()] flushes and detaches. *)
let to_file path =
  Mutex.lock sink_lock;
  (match !sink_channel with Some oc -> close_out_noerr oc | None -> ());
  let oc = open_out_gen [ Open_creat; Open_append; Open_wronly ] 0o644 path in
  sink_channel := Some oc;
  Mutex.unlock sink_lock;
  set_sink
    (Some
       (fun line ->
         Mutex.lock sink_lock;
         (match !sink_channel with
         | Some oc ->
           output_string oc line;
           output_char oc '\n';
           flush oc
         | None -> ());
         Mutex.unlock sink_lock))

let close () =
  set_sink None;
  Mutex.lock sink_lock;
  (match !sink_channel with
  | Some oc ->
    flush oc;
    close_out_noerr oc
  | None -> ());
  sink_channel := None;
  Mutex.unlock sink_lock

let enabled () = Atomic.get sink <> None

(* --- trace context ---------------------------------------------------- *)

(* A trace context ties the spans a thread emits to a distributed trace:
   [trace_id] names the end-to-end request (minted once, by whichever
   client first sees it) and [parent_span] is the span id the next child
   span should point at.  Ids are 63-bit positive ints (zero reserved
   for "no id"), rendered as 16-hex-digit strings in span JSON. *)
type ctx = { trace_id : int; parent_span : int }

(* A splitmix-style generator over native ints: one [fetch_and_add] on a
   Weyl sequence, then a finalizing avalanche — collision-resistant ids
   with no allocation and no CAS loop.  Seeded from the monotonic clock
   and the pid so two processes started in the same microsecond (primary
   and replica in one test) still draw distinct streams. *)
let id_state = Atomic.make ((Clock.now_us () lxor (Unix.getpid () lsl 40)) lor 1)

let rec new_id () =
  let z = Atomic.fetch_and_add id_state 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  let id = (z lxor (z lsr 31)) land max_int in
  if id = 0 then new_id () else id

let id_to_hex id = Printf.sprintf "%016x" id

(* Installed per thread (the server installs the remote caller's context
   for the duration of one request): a {!Per_thread} value, so the
   server pays an array store to install a context and an array load to
   read it back. *)
let contexts : ctx option Per_thread.t = Per_thread.make None

(* Number of threads with a context installed: lets [current_context]
   short-circuit on one atomic load in processes that never trace
   (in-process embeddings, the benchmarks' baselines). *)
let ctx_count = Atomic.make 0

let set_context c =
  (match (Per_thread.get contexts, c) with
  | None, Some _ -> Atomic.incr ctx_count
  | Some _, None -> Atomic.decr ctx_count
  | _ -> ());
  Per_thread.set contexts c

let current_context () =
  if Atomic.get ctx_count = 0 then None else Per_thread.get contexts

let with_context c f =
  let prev = current_context () in
  set_context (Some c);
  Fun.protect ~finally:(fun () -> set_context prev) f

let current_trace_id () =
  match current_context () with Some c -> c.trace_id | None -> 0

let current_span_id () =
  match current_context () with Some c -> c.parent_span | None -> 0

(* --- per-thread state ------------------------------------------------- *)

type collector = {
  mutable totals : (string * int) list;  (* span name -> Σ dur_us *)
}

(* A thread's open-span depth and its collector: {!Per_thread} values
   with immediate defaults, so reading or writing one is an array access
   and a thread back at depth 0 with no collector keeps no entry. *)
let depth : int Per_thread.t = Per_thread.make 0
let collector : collector option Per_thread.t = Per_thread.make None

(* Count of active collectors; lets [with_span] skip the per-thread
   reads entirely when nobody is collecting and no sink is attached. *)
let collectors = Atomic.make 0

let begin_collect () =
  if Option.is_none (Per_thread.get collector) then Atomic.incr collectors;
  Per_thread.set collector (Some { totals = [] })

let end_collect () =
  match Per_thread.get collector with
  | None -> []
  | Some c ->
    Per_thread.set collector None;
    Atomic.decr collectors;
    List.rev c.totals

let collecting () = Atomic.get collectors > 0

(* --- span emission ---------------------------------------------------- *)

let seq = Atomic.make 0

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* [ids = (trace_id, span_id, parent_span_id)]: rendered when a trace
   context is installed, so a consumer can join spans across threads and
   processes; absent ids keep the PR-4 line shape byte-for-byte. *)
let emit ?ids out ~name ~thread ~depth ~start_us ~dur_us ~attrs =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"thread\":%d,\"depth\":%d,\"seq\":%d,\"start_us\":%d,\"dur_us\":%d"
       (json_escape name) thread depth (Atomic.fetch_and_add seq 1) start_us
       dur_us);
  (match ids with
  | Some (trace_id, span_id, parent) when trace_id <> 0 ->
    Buffer.add_string buf
      (Printf.sprintf ",\"trace_id\":\"%s\",\"span_id\":\"%s\""
         (id_to_hex trace_id) (id_to_hex span_id));
    if parent <> 0 then
      Buffer.add_string buf
        (Printf.sprintf ",\"parent_span_id\":\"%s\"" (id_to_hex parent))
  | _ -> ());
  if attrs <> [] then begin
    Buffer.add_string buf ",\"attrs\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
      attrs;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}';
  out (Buffer.contents buf)

let add_total c name dur =
  let rec go = function
    | [] -> c.totals <- c.totals @ [ (name, dur) ]
    | (n, _) :: _ when n = name ->
      c.totals <-
        List.map (fun (n', d) -> if n' = name then (n', d + dur) else (n', d)) c.totals
    | _ :: rest -> go rest
  in
  go c.totals

(* An externally-timed span: a marker or a duration measured elsewhere,
   reported from the calling thread, or under [?ctx] on behalf of
   another trace — the flush leader, the replica applier and view
   refresh attribute their work to the request whose commit caused it. *)
let note ?ctx ?(attrs = []) name dur_us =
  match Atomic.get sink with
  | None when not (collecting ()) -> ()
  | observer -> (
    (match Per_thread.get collector with
    | Some c -> add_total c name dur_us
    | None -> ());
    match observer with
    | Some out ->
      (* [?ctx] lets a thread report a span on behalf of another trace:
         the flush leader emits fsync lineage for every commit in its
         group, the replica applier for every record in a batch. *)
      let ids =
        match (ctx, current_context ()) with
        | Some c, _ | None, Some c ->
          Some (c.trace_id, new_id (), c.parent_span)
        | None, None -> None
      in
      emit ?ids out ~name
        ~thread:(Thread.id (Thread.self ()))
        ~depth:(Per_thread.get depth)
        ~start_us:(now_us () - dur_us)
        ~dur_us ~attrs
    | None -> ())

let with_span ?(attrs = []) name f =
  match Atomic.get sink with
  | None when not (collecting ()) -> f ()
  | observer -> (
    match (observer, Per_thread.get collector) with
    | None, None ->
      (* some other thread is collecting, not this one *)
      f ()
    | _ ->
      let start_us = now_us () in
      let outer = Per_thread.get depth in
      Per_thread.set depth (outer + 1);
      (* With both a sink and a trace context, the span gets its own id
         and children opened inside [f] on this thread parent to it. *)
      let ctx = match observer with Some _ -> current_context () | None -> None in
      let ids =
        match ctx with
        | Some c ->
          let span_id = new_id () in
          set_context (Some { c with parent_span = span_id });
          Some (c.trace_id, span_id, c.parent_span)
        | None -> None
      in
      let finish () =
        let dur_us = now_us () - start_us in
        Per_thread.set depth outer;
        (match ctx with Some _ -> set_context ctx | None -> ());
        (match Per_thread.get collector with
        | Some c -> add_total c name dur_us
        | None -> ());
        match observer with
        | Some out ->
          emit ?ids out ~name
            ~thread:(Thread.id (Thread.self ()))
            ~depth:outer ~start_us ~dur_us ~attrs
        | None -> ()
      in
      Fun.protect ~finally:finish f)
