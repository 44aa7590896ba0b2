(* A blocking client for the wire protocol — used by the test suite, the
   benchmark harness, the CLI's [--connect] remote mode, and the
   replication subsystem (replica tailing and the read router). *)

module Value = Cypher_values.Value
module Trace = Cypher_obs.Trace

type t = { fd : Unix.file_descr; max_frame : int; host : string; port : int }

(* Whether [query] stamps a trace context onto the request (on by
   default).  A client thread that already carries a context — the read
   router, or an application span — propagates it; otherwise [query]
   mints a fresh trace id, so every remote statement is traceable end to
   end.  Process-global so benchmarks can measure the untraced floor. *)
let propagate_traces = Atomic.make true
let set_trace_propagation on = Atomic.set propagate_traces on

type error = { kind : Protocol.error_kind; message : string }

type result_set = {
  columns : string list;
  rows : Value.t list list;
  seq : int;
      (* the server's commit watermark for a write (0 for reads):
         feed it back as the "min_seq" option to make later reads on a
         replica at least this fresh *)
}

let host t = t.host
let port t = t.port

let ignore_sigpipe () =
  match Sys.os_type with
  | "Unix" -> (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())
  | _ -> ()

(* --- retry policy ------------------------------------------------------ *)

(* Bounded retry with exponential backoff and jitter.  [base_delay]
   doubles per attempt up to [max_delay]; the actual sleep is a uniform
   draw from [0.5×, 1×] of the nominal delay so a fleet of replicas
   reconnecting to a restarted primary does not thunder in lockstep. *)
type retry = {
  attempts : int;  (* total connect attempts, >= 1 *)
  base_delay : float;  (* seconds before the second attempt *)
  max_delay : float;  (* backoff ceiling *)
}

let default_retry = { attempts = 5; base_delay = 0.05; max_delay = 1.0 }

let jitter_state =
  lazy
    (Random.State.make
       [| Unix.getpid (); int_of_float (Unix.gettimeofday () *. 1e6) |])

let backoff_delay policy attempt =
  let nominal =
    Float.min policy.max_delay
      (policy.base_delay *. (2. ** float_of_int attempt))
  in
  nominal *. (0.5 +. Random.State.float (Lazy.force jitter_state) 0.5)

(* --- connecting -------------------------------------------------------- *)

(* [connect_timeout] bounds the TCP handshake (non-blocking connect +
   select); [timeout] bounds every later read/write on the socket.
   Both default to unbounded, preserving prior behaviour. *)
let connect ?(connect_timeout = 0.) ?(timeout = 0.)
    ?(max_frame = Protocol.default_max_frame) ~host ~port () =
  ignore_sigpipe ();
  match Unix.inet_addr_of_string host with
  | exception Failure _ -> Error ("invalid server address: " ^ host)
  | addr -> (
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    let sockaddr = Unix.ADDR_INET (addr, port) in
    let do_connect () =
      if connect_timeout <= 0. then Unix.connect fd sockaddr
      else begin
        Unix.set_nonblock fd;
        (match Unix.connect fd sockaddr with
        | () -> ()
        | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
          match Unix.select [] [ fd ] [] connect_timeout with
          | _, [ _ ], _ -> (
            match Unix.getsockopt_error fd with
            | None -> ()
            | Some err -> raise (Unix.Unix_error (err, "connect", "")))
          | _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))));
        Unix.clear_nonblock fd
      end
    in
    match do_connect () with
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s:%d: %s" host port
           (Unix.error_message err))
    | () ->
      if timeout > 0. then begin
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
      end;
      Ok { fd; max_frame; host; port })

(* [connect] with the retry policy applied: used wherever the peer may
   be momentarily down — a replica reconnecting to a restarted primary,
   the router re-opening a dropped connection. *)
let connect_retry ?(retry = default_retry) ?connect_timeout ?timeout
    ?max_frame ~host ~port () =
  let rec go attempt =
    match connect ?connect_timeout ?timeout ?max_frame ~host ~port () with
    | Ok c -> Ok c
    | Error e ->
      if attempt + 1 >= max 1 retry.attempts then Error e
      else begin
        Thread.delay (backoff_delay retry attempt);
        go (attempt + 1)
      end
  in
  go 0

(* Rebinds the per-operation socket timeout on a live connection;
   [0.] removes the bound.  Used by the replication applier, whose
   steady-state fetches want a tight bound but whose snapshot
   bootstrap must wait for the primary to encode and ship a
   potentially very large image. *)
let set_timeout t timeout =
  let v = if timeout > 0. then timeout else 0. in
  try
    Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO v;
    Unix.setsockopt_float t.fd Unix.SO_SNDTIMEO v
  with Unix.Unix_error _ -> ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* --- round trips ------------------------------------------------------- *)

(* One request/response round trip.  Transport failures (connection
   reset, timeout, malformed response) are [Error] with a synthesised
   protocol-violation kind, so callers see one error type. *)
let roundtrip t request k =
  let transport message =
    Error { kind = Protocol.Protocol_violation; message }
  in
  match
    Protocol.write_frame t.fd (Protocol.encode_request request);
    Protocol.read_frame ~max_frame:t.max_frame t.fd
  with
  | None -> transport "server closed the connection"
  | Some payload -> (
    match Protocol.decode_response payload with
    | Protocol.Error { kind; message } -> Error { kind; message }
    | response -> k response
    | exception Protocol.Protocol_error msg -> transport msg)
  | exception Protocol.Protocol_error msg -> transport msg
  | exception Unix.Unix_error (err, _, _) ->
    transport (Unix.error_message err)

let query ?(params = []) ?(options = []) t text =
  (* Reuse the calling thread's trace context when one is installed
     (the router does this to cover a replica attempt and its primary
     fallback with one trace); otherwise mint a fresh trace id.  The
     ids ride as request options, so the frame format is unchanged and
     old servers simply ignore them. *)
  let options =
    if not (Atomic.get propagate_traces) then options
    else
      let trace_id =
        match Trace.current_context () with
        | Some c -> c.Trace.trace_id
        | None -> Trace.new_id ()
      in
      ("trace_id", Value.Int trace_id)
      :: ("span_id", Value.Int (Trace.new_id ()))
      :: options
  in
  roundtrip t (Protocol.Query { text; params; options }) (function
    | Protocol.Result { columns; rows; seq } -> Ok { columns; rows; seq }
    | Protocol.Error _ -> assert false (* handled by [roundtrip] *)
    | _ ->
      Error
        {
          kind = Protocol.Protocol_violation;
          message = "unexpected response to a query";
        })

let stats_request t request =
  roundtrip t request (function
    | Protocol.Stats pairs -> Ok pairs
    | _ ->
      Error
        {
          kind = Protocol.Protocol_violation;
          message = "expected a stats response";
        })

let server_stats t = stats_request t Protocol.Server_stats
let store_health t = stats_request t Protocol.Store_health

let metrics t = stats_request t Protocol.Metrics
(* the process-wide registry: engine + storage + server series *)

(* Workload introspection: the server's per-fingerprint statement
   statistics, as a result set (one row per fingerprint, hottest
   first).  Works against primaries and replicas alike — each node
   reports the statements it executed itself. *)
let query_stats t =
  roundtrip t Protocol.Query_stats (function
    | Protocol.Result { columns; rows; seq } -> Ok { columns; rows; seq }
    | _ ->
      Error
        {
          kind = Protocol.Protocol_violation;
          message = "unexpected response to query stats";
        })

let cluster_health t = stats_request t Protocol.Cluster_health

(* --- replication verbs ------------------------------------------------- *)

type batch = {
  b_last_seq : int;  (* the primary's frontier at answer time *)
  b_resync : bool;  (* requested seq no longer buffered: re-bootstrap *)
  b_records : string list;  (* framed WAL records, primary's own bytes *)
}

let repl_fetch t ~from_seq ~max_records ~wait_ms =
  roundtrip t (Protocol.Repl_fetch { from_seq; max_records; wait_ms })
    (function
    | Protocol.Repl_batch { last_seq; resync; records } ->
      Ok { b_last_seq = last_seq; b_resync = resync; b_records = records }
    | _ ->
      Error
        {
          kind = Protocol.Protocol_violation;
          message = "expected a replication batch";
        })

let repl_snapshot_chunk t ~offset ~chunk =
  roundtrip t (Protocol.Repl_snapshot { offset; chunk }) (function
    | Protocol.Repl_chunk { total; data } -> Ok (total, data)
    | _ ->
      Error
        {
          kind = Protocol.Protocol_violation;
          message = "expected a snapshot chunk";
        })

(* Fetches the primary's whole bootstrap snapshot, chunk by chunk; the
   server pins the image on this connection at offset 0, so the bytes
   are one consistent committed version however long the transfer
   takes. *)
let repl_bootstrap ?(chunk = 4 * 1024 * 1024) t =
  let buf = Buffer.create chunk in
  let rec go offset =
    match repl_snapshot_chunk t ~offset ~chunk with
    | Error e -> Error e
    | Ok (total, data) ->
      Buffer.add_string buf data;
      let got = offset + String.length data in
      if got >= total then Ok (Buffer.contents buf)
      else if String.length data = 0 then
        Error
          {
            kind = Protocol.Protocol_violation;
            message = "empty snapshot chunk before the image end";
          }
      else go got
  in
  go 0

(* --- materialized views ------------------------------------------------- *)

let materialize t ~name ~query =
  roundtrip t (Protocol.View_materialize { name; query }) (function
    | Protocol.Result { seq; _ } -> Ok seq
    | _ ->
      Error
        {
          kind = Protocol.Protocol_violation;
          message = "unexpected response to materialize";
        })

let unmaterialize t ~name =
  roundtrip t (Protocol.View_unmaterialize { name }) (function
    | Protocol.Result _ -> Ok ()
    | _ ->
      Error
        {
          kind = Protocol.Protocol_violation;
          message = "unexpected response to unmaterialize";
        })

let list_views t =
  roundtrip t Protocol.View_list (function
    | Protocol.Result { columns; rows; seq } -> Ok { columns; rows; seq }
    | _ ->
      Error
        {
          kind = Protocol.Protocol_violation;
          message = "unexpected response to view list";
        })

(* [min_seq] is the session-consistency floor: feed a write's [seq]
   back here and the read (on a primary or a replica) is at least that
   fresh, or fails typed [Stale_replica] after [wait_ms]. *)
let view_read ?(min_seq = 0) ?(wait_ms = 100) t ~name =
  roundtrip t (Protocol.View_read { name; min_seq; wait_ms }) (function
    | Protocol.Result { columns; rows; seq } -> Ok { columns; rows; seq }
    | _ ->
      Error
        {
          kind = Protocol.Protocol_violation;
          message = "unexpected response to view read";
        })

(* --- subscriptions ------------------------------------------------------ *)

type delta = {
  d_view : string;
  d_seq : int;
  d_init : bool;  (* the opening full-state frame *)
  d_columns : string list;
  d_added : (Value.t list * int) list;  (* row, multiplicity *)
  d_removed : (Value.t list * int) list;
  d_trace : int;
      (* trace id of the write that caused this refresh (0 for the
         init frame and untraced writes) — the tail end of the
         commit-lineage chain *)
}

(* A subscription owns the connection until {!unsubscribe}: the server
   is in push mode, so no other request may be issued through [t]
   meanwhile. *)
type subscription = { sc : t; mutable sc_open : bool }

let subscribe t ~query =
  match
    Protocol.write_frame t.fd (Protocol.encode_request (Protocol.Subscribe { query }))
  with
  | () -> Ok { sc = t; sc_open = true }
  | exception Unix.Unix_error (err, _, _) ->
    Error
      { kind = Protocol.Protocol_violation; message = Unix.error_message err }

(* Blocks for the next delta frame.  [Ok None] means the stream ended
   (server shutdown, view dropped, or this subscriber fell behind). *)
let next_delta sub =
  if not sub.sc_open then Ok None
  else
    let t = sub.sc in
    match Protocol.read_frame ~max_frame:t.max_frame t.fd with
    | None ->
      sub.sc_open <- false;
      Ok None
    | Some payload -> (
      match Protocol.decode_response payload with
      | Protocol.Delta { view; seq; init; columns; added; removed; trace } ->
        Ok
          (Some
             {
               d_view = view;
               d_seq = seq;
               d_init = init;
               d_columns = columns;
               d_added = added;
               d_removed = removed;
               d_trace = trace;
             })
      | Protocol.Error { kind = Protocol.Server_error; _ } ->
        (* typed end-of-stream *)
        sub.sc_open <- false;
        Ok None
      | Protocol.Error { kind; message } ->
        sub.sc_open <- false;
        Error { kind; message }
      | _ ->
        Error
          {
            kind = Protocol.Protocol_violation;
            message = "unexpected response inside a subscription";
          }
      | exception Protocol.Protocol_error msg ->
        sub.sc_open <- false;
        Error { kind = Protocol.Protocol_violation; message = msg })
    | exception Unix.Unix_error (err, _, _) ->
      sub.sc_open <- false;
      Error
        { kind = Protocol.Protocol_violation; message = Unix.error_message err }

(* Polls (without consuming) whether a pushed frame is waiting, so a
   caller can interleave the blocking [next_delta] with other input
   sources — e.g. a REPL watching stdin at the same time. *)
let delta_ready sub ~timeout_s =
  sub.sc_open
  &&
  match Unix.select [ sub.sc.fd ] [] [] timeout_s with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> false

(* Ends the stream and returns the connection to request mode: sends a
   no-op request and drains buffered frames until its answer arrives. *)
let unsubscribe sub =
  if not sub.sc_open then Ok ()
  else begin
    sub.sc_open <- false;
    let t = sub.sc in
    match
      Protocol.write_frame t.fd (Protocol.encode_request Protocol.Server_stats)
    with
    | exception Unix.Unix_error (err, _, _) ->
      Error
        { kind = Protocol.Protocol_violation; message = Unix.error_message err }
    | () ->
      let rec drain () =
        match Protocol.read_frame ~max_frame:t.max_frame t.fd with
        | None -> Ok () (* server closed; nothing left to drain *)
        | Some payload -> (
          match Protocol.decode_response payload with
          | Protocol.Delta _ -> drain ()
          | Protocol.Error { kind = Protocol.Server_error; _ } ->
            (* end-of-stream marker racing our cancel *)
            drain ()
          | _ -> Ok () (* the stats answer: back in request mode *)
          | exception Protocol.Protocol_error msg ->
            Error { kind = Protocol.Protocol_violation; message = msg })
        | exception Unix.Unix_error (err, _, _) ->
          Error
            {
              kind = Protocol.Protocol_violation;
              message = Unix.error_message err;
            }
      in
      drain ()
  end

let error_message { kind; message } =
  Protocol.error_kind_name kind ^ ": " ^ message
