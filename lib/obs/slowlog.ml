(* The slow-query log.

   When armed with a threshold, every query whose total wall-clock time
   reaches it is reported as one JSON line carrying the query text, the
   execution mode, the row count, the total time, and the per-span
   breakdown (parse/plan/execute/…, from {!Trace}'s per-thread
   collector):

     {"slow_query":true,"ms":12.41,"mode":"planned","rows":100,
      "spans":{"parse":210,"plan":480,"execute":11021},
      "query":"MATCH (n) ..."}

   Disarmed (the default), the engine's instrumentation reduces to one
   atomic load per query.  The sink defaults to stderr; tests and the
   server can point it anywhere. *)

let threshold_us : int Atomic.t = Atomic.make (-1) (* < 0: disarmed *)

let set_threshold_ms = function
  | None -> Atomic.set threshold_us (-1)
  | Some ms ->
    if ms < 0. then invalid_arg "Slowlog.set_threshold_ms: negative threshold";
    Atomic.set threshold_us (int_of_float (ms *. 1e3))

let threshold_ms () =
  let us = Atomic.get threshold_us in
  if us < 0 then None else Some (float_of_int us /. 1e3)

let armed () = Atomic.get threshold_us >= 0

let default_sink line = Printf.eprintf "%s\n%!" line

let sink : (string -> unit) Atomic.t = Atomic.make default_sink
let set_sink = function
  | Some f -> Atomic.set sink f
  | None -> Atomic.set sink default_sink

(* Connection attribution: the server labels each connection thread so
   the engine's slow lines can name the session that ran the query. *)
let conns : string option Per_thread.t = Per_thread.make None
let set_conn label = Per_thread.set conns label
let current_conn () = Option.value ~default:"" (Per_thread.get conns)

(* [trace] (hex) joins a slow line against the trace JSONL, the
   fingerprint (hex hash) against [:queries] output, and [conn]
   attributes the line to a server connection/session — each omitted
   when absent (0 or "") so local runs see the old shape. *)
let render (r : Query_record.t) =
  let mode =
    match r.fallback with
    | Some _ -> r.mode ^ "+reference-fallback"
    | None -> r.mode
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"slow_query\":true,\"ms\":%.3f,\"mode\":\"%s\",\"rows\":%d"
       (float_of_int r.elapsed_us /. 1e3)
       (Trace.json_escape mode) r.rows);
  if r.trace <> 0 then
    Buffer.add_string buf
      (Printf.sprintf ",\"trace_id\":\"%s\"" (Trace.id_to_hex r.trace));
  if r.fingerprint.hash <> 0 then
    Buffer.add_string buf
      (Printf.sprintf ",\"fingerprint\":\"%s\""
         (Trace.id_to_hex r.fingerprint.hash));
  if r.conn <> "" then
    Buffer.add_string buf
      (Printf.sprintf ",\"conn\":\"%s\"" (Trace.json_escape r.conn));
  Buffer.add_string buf ",\"spans\":{";
  List.iteri
    (fun i (name, dur_us) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%d" (Trace.json_escape name) dur_us))
    r.spans;
  Buffer.add_string buf "}";
  Buffer.add_string buf
    (Printf.sprintf ",\"query\":\"%s\"}" (Trace.json_escape r.text));
  Buffer.contents buf

(* Logs one finished query at or above the armed threshold. *)
let note (r : Query_record.t) =
  let t = Atomic.get threshold_us in
  if t >= 0 && r.elapsed_us >= t then (Atomic.get sink) (render r)
