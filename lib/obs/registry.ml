(* The process-wide metrics registry.

   One registry per process: every subsystem (engine, storage, server)
   registers named series here and the exposition endpoints — the CLI's
   [:metrics], the server's 'M' protocol verb, the Prometheus text dump —
   all read the same source of truth.

   Three metric kinds:
   - counters: monotonically increasing integers (requests, cache hits);
   - gauges: a current level that moves both ways (open connections);
   - histograms: power-of-two microsecond buckets for latencies, with an
     exact running max so the open-ended last bucket can report the true
     extreme instead of silently clamping to its lower bound.

   Registration is idempotent: asking for an existing name returns the
   existing metric (the server and the CLI may both touch
   [cypher_server_requests_total]).  The registry table itself is
   mutex-guarded.

   CONCURRENCY MODEL.  Every metric field is an [Atomic.t]: the server
   runs connections on several request domains, so updates race in true
   parallel (connection threads on different domains bump the same
   request, plan-cache and store series), and plain int writes would
   drop increments.  [Atomic.fetch_and_add] keeps counters and sums
   exact; the histogram maximum is maintained with a CAS loop.  The cost
   is a lock-prefixed add instead of a plain store per update —
   benchmark B20 still prices a counter bump in nanoseconds.

   A histogram observation increments its bucket *before* the count, so
   a lock-free reader interleaved between the two sees at most one
   bucket entry the count does not yet cover — a quantile scan therefore
   always resolves its rank inside the bucket array.

   A process-global [enabled] switch turns every update into a cheap
   no-op — benchmark B15 uses it to price the instrumentation itself. *)

let enabled = Atomic.make true
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

(* --- histograms ------------------------------------------------------- *)

(* 2^0 .. 2^(bucket_count-2) µs upper bounds; the last bucket is
   open-ended (observations above ~67 s). *)
let bucket_count = 28

type histogram = {
  h_name : string;
  h_help : string;
  buckets : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum_us : int Atomic.t;
  h_max_us : int Atomic.t;
}

let bucket_of_us us =
  let rec go b bound =
    if us <= bound || b = bucket_count - 1 then b else go (b + 1) (bound * 2)
  in
  go 0 1

let bucket_bound_us b = 1 lsl b

(* Raises [cell] to at least [v]; exact under contention. *)
let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

(* On the hot path of every query: a few atomic adds (see the module
   comment).  Bucket before count, so readers' quantile ranks always
   resolve. *)
let[@inline] observe_us h us =
  if Atomic.get enabled then begin
    let us = max us 0 in
    let b = bucket_of_us (max us 1) in
    ignore (Atomic.fetch_and_add h.buckets.(b) 1);
    ignore (Atomic.fetch_and_add h.h_count 1);
    ignore (Atomic.fetch_and_add h.h_sum_us us);
    atomic_max h.h_max_us us
  end

let observe_s h s = observe_us h (int_of_float (s *. 1e6))

type quantile = { q_us : int; saturated : bool }
(** A histogram read-out: the upper bound of the bucket holding the
    requested quantile.  When that bucket is the open-ended last one the
    bound no longer bounds anything — [saturated] is set and [q_us]
    reports the exact running maximum instead, so a 90-second latency
    never masquerades as "67s". *)

(* Reads the count first: because observations bump their bucket before
   the count, the subsequent bucket scan is guaranteed to accumulate at
   least [count] entries and the target rank is always reached. *)
let quantile_at h count q =
  if count = 0 then { q_us = 0; saturated = false }
  else begin
    let target = max 1 (int_of_float (ceil (q *. float_of_int count))) in
    let acc = ref 0 and result = ref None in
    (try
       Array.iteri
         (fun b n ->
           acc := !acc + Atomic.get n;
           if !acc >= target then begin
             result := Some b;
             raise Exit
           end)
         h.buckets
     with Exit -> ());
    match !result with
    | Some b when b < bucket_count - 1 ->
      { q_us = min (bucket_bound_us b) (Atomic.get h.h_max_us); saturated = false }
    | _ -> { q_us = Atomic.get h.h_max_us; saturated = true }
  end

let quantile h q = quantile_at h (Atomic.get h.h_count) q

type hist_snapshot = {
  count : int;
  sum_us : int;
  max_us : int;
  quantiles : (float * quantile) list;  (** for the requested [qs] *)
}

let hist_snapshot ?(qs = [ 0.5; 0.95; 0.99 ]) h =
  let count = Atomic.get h.h_count in
  {
    count;
    sum_us = Atomic.get h.h_sum_us;
    max_us = Atomic.get h.h_max_us;
    quantiles = List.map (fun q -> (q, quantile_at h count q)) qs;
  }

(* --- counters and gauges ---------------------------------------------- *)

type counter = { c_name : string; c_help : string; c_v : int Atomic.t }
type gauge = { g_name : string; g_help : string; g_v : int Atomic.t }

let[@inline] incr c =
  if Atomic.get enabled then ignore (Atomic.fetch_and_add c.c_v 1)

let[@inline] add c n =
  if Atomic.get enabled then ignore (Atomic.fetch_and_add c.c_v n)

let value c = Atomic.get c.c_v

let[@inline] gauge_incr g =
  if Atomic.get enabled then ignore (Atomic.fetch_and_add g.g_v 1)

let[@inline] gauge_decr g =
  if Atomic.get enabled then ignore (Atomic.fetch_and_add g.g_v (-1))

let gauge_set g n = if Atomic.get enabled then Atomic.set g.g_v n
let gauge_value g = Atomic.get g.g_v

(* --- the registry ----------------------------------------------------- *)

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()
(* insertion order, for stable exposition *)
let order : string list ref = ref []

let register name mk describe =
  Mutex.lock registry_lock;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
      let m = mk () in
      Hashtbl.replace registry name m;
      order := name :: !order;
      m
  in
  Mutex.unlock registry_lock;
  match describe m with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Registry: %s is already registered with another kind"
         name)

let counter ?(help = "") name =
  register name
    (fun () -> Counter { c_name = name; c_help = help; c_v = Atomic.make 0 })
    (function Counter c -> Some c | _ -> None)

let gauge ?(help = "") name =
  register name
    (fun () -> Gauge { g_name = name; g_help = help; g_v = Atomic.make 0 })
    (function Gauge g -> Some g | _ -> None)

let new_histogram name help =
  {
    h_name = name;
    h_help = help;
    buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
    h_count = Atomic.make 0;
    h_sum_us = Atomic.make 0;
    h_max_us = Atomic.make 0;
  }

let histogram ?(help = "") name =
  register name
    (fun () -> Histogram (new_histogram name help))
    (function Histogram h -> Some h | _ -> None)

let unregistered_histogram () = new_histogram "" ""

let metrics_in_order () =
  Mutex.lock registry_lock;
  let names = List.rev !order in
  let ms = List.filter_map (fun n -> Hashtbl.find_opt registry n) names in
  Mutex.unlock registry_lock;
  ms

(* Zeroes every registered series (counters, gauges, histogram buckets).
   Tests and the overhead benchmark use this; production code never
   should. *)
let reset_all () =
  Mutex.lock registry_lock;
  Hashtbl.iter
    (fun _ -> function
      | Counter c -> Atomic.set c.c_v 0
      | Gauge g -> Atomic.set g.g_v 0
      | Histogram h ->
        Array.iter (fun b -> Atomic.set b 0) h.buckets;
        Atomic.set h.h_count 0;
        Atomic.set h.h_sum_us 0;
        Atomic.set h.h_max_us 0)
    registry;
  Mutex.unlock registry_lock

(* --- exposition ------------------------------------------------------- *)

(* Flat (name, value) pairs: histograms contribute
   <name>_{count,sum_us,p50_us,p95_us,p99_us,max_us,saturated}.  This is
   what the wire 'M' verb and the CLI's [:metrics] print. *)
type sample = Int_sample of string * int | Float_sample of string * float

let samples () =
  List.concat_map
    (function
      | Counter c -> [ Int_sample (c.c_name, Atomic.get c.c_v) ]
      | Gauge g -> [ Int_sample (g.g_name, Atomic.get g.g_v) ]
      | Histogram h ->
        let s = hist_snapshot h in
        let q p =
          match List.assoc_opt p s.quantiles with
          | Some q -> q
          | None -> { q_us = 0; saturated = false }
        in
        [
          Int_sample (h.h_name ^ "_count", s.count);
          Int_sample (h.h_name ^ "_sum_us", s.sum_us);
          Int_sample (h.h_name ^ "_p50_us", (q 0.5).q_us);
          Int_sample (h.h_name ^ "_p95_us", (q 0.95).q_us);
          Int_sample (h.h_name ^ "_p99_us", (q 0.99).q_us);
          Int_sample (h.h_name ^ "_max_us", s.max_us);
          Int_sample
            ( h.h_name ^ "_saturated",
              if List.exists (fun (_, q) -> q.saturated) s.quantiles then 1
              else 0 );
        ])
    (metrics_in_order ())

let sample_name = function Int_sample (n, _) | Float_sample (n, _) -> n

(* Prometheus text exposition format, version 0.0.4.  Histogram buckets
   are emitted cumulative with microsecond [le] labels, as the format
   requires. *)
let expose () =
  let buf = Buffer.create 2048 in
  let header name help kind =
    if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (function
      | Counter c ->
        header c.c_name c.c_help "counter";
        Buffer.add_string buf
          (Printf.sprintf "%s %d\n" c.c_name (Atomic.get c.c_v))
      | Gauge g ->
        header g.g_name g.g_help "gauge";
        Buffer.add_string buf
          (Printf.sprintf "%s %d\n" g.g_name (Atomic.get g.g_v))
      | Histogram h ->
        header h.h_name h.h_help "histogram";
        let cumulative = ref 0 in
        Array.iteri
          (fun b n ->
            cumulative := !cumulative + Atomic.get n;
            if b < bucket_count - 1 then
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" h.h_name
                   (bucket_bound_us b) !cumulative))
          h.buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" h.h_name !cumulative);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %.6f\n" h.h_name
             (float_of_int (Atomic.get h.h_sum_us) /. 1e6));
        Buffer.add_string buf
          (Printf.sprintf "%s_count %d\n" h.h_name (Atomic.get h.h_count)))
    (metrics_in_order ());
  Buffer.contents buf

(* One flat JSON object over {!samples} — machine-readable twin of the
   Prometheus dump. *)
let expose_json () =
  let buf = Buffer.create 2048 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      match s with
      | Int_sample (n, v) ->
        Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (Trace.json_escape n) v)
      | Float_sample (n, v) ->
        Buffer.add_string buf (Printf.sprintf "\"%s\":%g" (Trace.json_escape n) v))
    (samples ());
  Buffer.add_char buf '}';
  Buffer.contents buf
