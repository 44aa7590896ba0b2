(* The wire protocol: length-prefixed frames over TCP, payloads encoded
   with the storage codec so the full Cypher value domain (NaN floats,
   temporals, nodes, paths…) round-trips between client and server
   exactly as it round-trips to disk.

   Frame:    u32-le payload length | payload
   Payload:  1 verb byte | verb-specific body (Codec-encoded)

   Requests:
     'Q'  query       text, #params, (name, value)*, #options, (name, value)*
     'S'  server-stats  (empty body)  — the [:server-stats] verb
     'H'  store-health  (empty body)  — WAL/snapshot/plan-cache counters
     'M'  metrics       (empty body)  — the whole process-wide registry
                                        (engine + storage + server series)
     'B'  repl-snapshot  offset, chunk — one chunk of the bootstrap
                                        snapshot (replication)
     'F'  repl-fetch   from_seq, max_records, wait_ms — long-poll for
                                        framed WAL records (replication)
     'V'  view-op      op byte, then: 0 materialize (name, query),
                                      1 unmaterialize (name), 2 list,
                                      3 read (name, min_seq, wait_ms)
     'U'  subscribe    query — switches the connection into push mode:
                                      the server streams 'D' frames until
                                      the client sends anything back
     'T'  query-stats   (empty body)  — per-fingerprint workload stats
                                        (the [:queries] verb), as a Result
     'C'  cluster-health (empty body) — role, replication lag, view
                                        freshness, group-commit and
                                        subscription summary, as Stats

   Responses:
     'R'  result      #columns, column names, #rows, values row-major,
                      seq (commit watermark; 0 for reads)
     'E'  error       kind byte, message (bare: the kind is not repeated
                      in it; a client renders "<kind name>: <message>")
     'S'  stats       one Codec map value (string keys)
     'P'  repl-chunk  total size, chunk bytes
     'W'  repl-batch  last_seq, resync flag, #records, framed records
     'D'  delta       view name, seq, init flag, columns, added rows
                      (row values + multiplicity), removed rows, trace
                      (the id of the write that triggered the refresh;
                      0 for init frames and untraced writes) — one
                      subscription refresh (init: the full state)

   A malformed or oversized frame is a protocol error: the server
   replies with an 'E' frame where it still can, then closes. *)

open Cypher_values
module Codec = Cypher_storage.Codec

let default_max_frame = 16 * 1024 * 1024

exception Protocol_error of string
exception Closed

type request =
  | Query of {
      text : string;
      params : (string * Value.t) list;
      options : (string * Value.t) list;
          (* per-request overrides; the server understands
             "timeout_ms" : Int, "explain" : Bool and "profile" : Bool *)
    }
  | Server_stats
  | Store_health
  | Metrics
  | Repl_snapshot of { offset : int; chunk : int }
      (* one chunk of the bootstrap snapshot image, starting at byte
         [offset]; the first request (offset 0) pins the image on the
         connection so later chunks come from the same version *)
  | Repl_fetch of { from_seq : int; max_records : int; wait_ms : int }
      (* long-poll: records with seq >= [from_seq], blocking up to
         [wait_ms] when the primary has nothing new *)
  | View_materialize of { name : string; query : string }
      (* register a maintained view; replies with an empty Result
         carrying the seq the view was built at *)
  | View_unmaterialize of { name : string }
  | View_list  (* replies with a Result table describing every view *)
  | View_read of { name : string; min_seq : int; wait_ms : int }
      (* read a view's current contents; [min_seq] demands freshness
         (Stale_replica if unreachable within [wait_ms]) *)
  | Subscribe of { query : string }
      (* switch the connection into push mode: the server answers with
         a stream of Delta frames (first frame has [init = true]) until
         the client sends any frame back or closes *)
  | Query_stats
      (* per-fingerprint workload statistics (pg_stat_statements-style),
         served by primaries and replicas alike as a Result table *)
  | Cluster_health
      (* operator summary: role, commit watermark, replication lag,
         per-view freshness, group-commit and subscription counters *)

type error_kind =
  | Parse_error
  | Syntax_error
  | Type_error
  | Runtime_error
  | Unsupported
  | Timeout
  | Server_error
  | Protocol_violation
  | Read_only_replica
      (* a write reached a replica; the message names the primary *)
  | Stale_replica
      (* a read demanded [min_seq] freshness the replica could not
         reach within its wait budget *)

type response =
  | Result of { columns : string list; rows : Value.t list list; seq : int }
      (* [seq]: the store's commit watermark after a write (what the
         client's session-consistency high-water mark tracks); 0 for
         reads and mid-transaction statements *)
  | Error of { kind : error_kind; message : string }
  | Stats of (string * Value.t) list
  | Repl_chunk of { total : int; data : string }
  | Repl_batch of { last_seq : int; resync : bool; records : string list }
      (* [records] are framed WAL records, byte-identical to the
         primary's log (len · crc · payload) *)
  | Delta of {
      view : string;
      seq : int;  (* commit watermark the frame brings the view to *)
      init : bool;  (* the subscription's opening full-state frame *)
      columns : string list;
      added : (Value.t list * int) list;  (* row, multiplicity *)
      removed : (Value.t list * int) list;
      trace : int;
          (* trace id of the write whose refresh produced this frame;
             0 for init frames and untraced writes *)
    }

let error_kind_to_byte = function
  | Parse_error -> 0
  | Syntax_error -> 1
  | Type_error -> 2
  | Runtime_error -> 3
  | Unsupported -> 4
  | Timeout -> 5
  | Server_error -> 6
  | Protocol_violation -> 7
  | Read_only_replica -> 8
  | Stale_replica -> 9

let error_kind_of_byte = function
  | 0 -> Parse_error
  | 1 -> Syntax_error
  | 2 -> Type_error
  | 3 -> Runtime_error
  | 4 -> Unsupported
  | 5 -> Timeout
  | 6 -> Server_error
  | 7 -> Protocol_violation
  | 8 -> Read_only_replica
  | 9 -> Stale_replica
  | b -> raise (Protocol_error (Printf.sprintf "unknown error kind 0x%02x" b))

(* How a client shows an error: "<kind name>: <message>".  The engine's
   five kinds read exactly as {!Cypher_engine.Engine.error_message}
   renders them in process. *)
let error_kind_name = function
  | Parse_error -> "parse error"
  | Syntax_error -> "syntax error"
  | Type_error -> "type error"
  | Runtime_error -> "runtime error"
  | Unsupported -> "unsupported"
  | Timeout -> "timeout"
  | Server_error -> "server error"
  | Protocol_violation -> "protocol violation"
  | Read_only_replica -> "read-only replica"
  | Stale_replica -> "stale replica"

(* --- frame I/O -------------------------------------------------------- *)

let write_all fd data =
  let len = String.length data in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write_substring fd data !sent (len - !sent)
  done

(* Reads exactly [n] bytes; [None] on a clean EOF at a frame boundary.
   An EOF mid-read is a truncated frame and therefore a protocol
   error. *)
let read_exactly ?(at_boundary = false) fd n =
  let buf = Bytes.create n in
  let got = ref 0 in
  (try
     while !got < n do
       let r = Unix.read fd buf !got (n - !got) in
       if r = 0 then
         if !got = 0 && at_boundary then raise Closed
         else raise (Protocol_error "connection closed mid-frame");
       got := !got + r
     done
   with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
     if !got = 0 && at_boundary then raise Closed
     else raise (Protocol_error "connection reset mid-frame"));
  Bytes.unsafe_to_string buf

let write_frame fd payload =
  let n = String.length payload in
  let head = Bytes.create 4 in
  for i = 0 to 3 do
    Bytes.set head i (Char.chr ((n lsr (8 * i)) land 0xFF))
  done;
  write_all fd (Bytes.unsafe_to_string head ^ payload)

(* [None] on clean EOF.  Raises [Protocol_error] on an oversized frame —
   the caller must not try to resynchronise after that. *)
let read_frame ?(max_frame = default_max_frame) fd =
  match read_exactly ~at_boundary:true fd 4 with
  | exception Closed -> None
  | head ->
    let b i = Char.code head.[i] in
    let n = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    if n < 1 then raise (Protocol_error "empty frame")
    else if n > max_frame then
      raise
        (Protocol_error
           (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
              max_frame))
    else Some (read_exactly fd n)

(* --- payload encode/decode -------------------------------------------- *)

let write_pairs buf pairs =
  Codec.write_uvarint buf (List.length pairs);
  List.iter
    (fun (k, v) ->
      Codec.write_string buf k;
      Codec.write_value buf v)
    pairs

let read_pairs r =
  let n = Codec.read_uvarint r in
  List.init n (fun _ ->
      let k = Codec.read_string r in
      (k, Codec.read_value r))

let encode_request req =
  let buf = Buffer.create 128 in
  (match req with
  | Query { text; params; options } ->
    Buffer.add_char buf 'Q';
    Codec.write_string buf text;
    write_pairs buf params;
    write_pairs buf options
  | Server_stats -> Buffer.add_char buf 'S'
  | Store_health -> Buffer.add_char buf 'H'
  | Metrics -> Buffer.add_char buf 'M'
  | Repl_snapshot { offset; chunk } ->
    Buffer.add_char buf 'B';
    Codec.write_uvarint buf offset;
    Codec.write_uvarint buf chunk
  | Repl_fetch { from_seq; max_records; wait_ms } ->
    Buffer.add_char buf 'F';
    Codec.write_uvarint buf from_seq;
    Codec.write_uvarint buf max_records;
    Codec.write_uvarint buf wait_ms
  | View_materialize { name; query } ->
    Buffer.add_char buf 'V';
    Buffer.add_char buf '\000';
    Codec.write_string buf name;
    Codec.write_string buf query
  | View_unmaterialize { name } ->
    Buffer.add_char buf 'V';
    Buffer.add_char buf '\001';
    Codec.write_string buf name
  | View_list ->
    Buffer.add_char buf 'V';
    Buffer.add_char buf '\002'
  | View_read { name; min_seq; wait_ms } ->
    Buffer.add_char buf 'V';
    Buffer.add_char buf '\003';
    Codec.write_string buf name;
    Codec.write_uvarint buf min_seq;
    Codec.write_uvarint buf wait_ms
  | Subscribe { query } ->
    Buffer.add_char buf 'U';
    Codec.write_string buf query
  | Query_stats -> Buffer.add_char buf 'T'
  | Cluster_health -> Buffer.add_char buf 'C');
  Buffer.contents buf

let encode_response resp =
  let buf = Buffer.create 256 in
  (match resp with
  | Result { columns; rows; seq } ->
    Buffer.add_char buf 'R';
    Codec.write_uvarint buf (List.length columns);
    List.iter (Codec.write_string buf) columns;
    Codec.write_uvarint buf (List.length rows);
    List.iter (fun row -> List.iter (Codec.write_value buf) row) rows;
    Codec.write_uvarint buf seq
  | Error { kind; message } ->
    Buffer.add_char buf 'E';
    Buffer.add_char buf (Char.chr (error_kind_to_byte kind));
    Codec.write_string buf message
  | Stats pairs ->
    Buffer.add_char buf 'S';
    write_pairs buf pairs
  | Repl_chunk { total; data } ->
    Buffer.add_char buf 'P';
    Codec.write_uvarint buf total;
    Codec.write_string buf data
  | Repl_batch { last_seq; resync; records } ->
    Buffer.add_char buf 'W';
    Codec.write_uvarint buf last_seq;
    Codec.write_uvarint buf (if resync then 1 else 0);
    Codec.write_uvarint buf (List.length records);
    List.iter (Codec.write_string buf) records
  | Delta { view; seq; init; columns; added; removed; trace } ->
    Buffer.add_char buf 'D';
    Codec.write_string buf view;
    Codec.write_uvarint buf seq;
    Codec.write_uvarint buf (if init then 1 else 0);
    Codec.write_uvarint buf (List.length columns);
    List.iter (Codec.write_string buf) columns;
    let write_side rows =
      Codec.write_uvarint buf (List.length rows);
      List.iter
        (fun (row, mult) ->
          List.iter (Codec.write_value buf) row;
          Codec.write_uvarint buf mult)
        rows
    in
    write_side added;
    write_side removed;
    Codec.write_uvarint buf trace);
  Buffer.contents buf

let decoding payload f =
  if String.length payload < 1 then raise (Protocol_error "empty payload");
  let r = Codec.reader ~pos:1 payload in
  match f payload.[0] r with
  | v ->
    if Codec.remaining r <> 0 then
      raise (Protocol_error "trailing bytes in frame");
    v
  | exception Codec.Corrupt msg ->
    raise (Protocol_error ("malformed frame: " ^ msg))

let decode_request payload =
  decoding payload (fun verb r ->
      match verb with
      | 'Q' ->
        let text = Codec.read_string r in
        let params = read_pairs r in
        let options = read_pairs r in
        Query { text; params; options }
      | 'S' -> Server_stats
      | 'H' -> Store_health
      | 'M' -> Metrics
      | 'B' ->
        let offset = Codec.read_uvarint r in
        let chunk = Codec.read_uvarint r in
        Repl_snapshot { offset; chunk }
      | 'F' ->
        let from_seq = Codec.read_uvarint r in
        let max_records = Codec.read_uvarint r in
        let wait_ms = Codec.read_uvarint r in
        Repl_fetch { from_seq; max_records; wait_ms }
      | 'V' -> (
        match Codec.read_uvarint r with
        | 0 ->
          let name = Codec.read_string r in
          let query = Codec.read_string r in
          View_materialize { name; query }
        | 1 -> View_unmaterialize { name = Codec.read_string r }
        | 2 -> View_list
        | 3 ->
          let name = Codec.read_string r in
          let min_seq = Codec.read_uvarint r in
          let wait_ms = Codec.read_uvarint r in
          View_read { name; min_seq; wait_ms }
        | op ->
          raise (Protocol_error (Printf.sprintf "unknown view op %d" op)))
      | 'U' -> Subscribe { query = Codec.read_string r }
      | 'T' -> Query_stats
      | 'C' -> Cluster_health
      | c -> raise (Protocol_error (Printf.sprintf "unknown request verb %C" c)))

let decode_response payload =
  decoding payload (fun verb r ->
      match verb with
      | 'R' ->
        let ncols = Codec.read_uvarint r in
        let columns = List.init ncols (fun _ -> Codec.read_string r) in
        let nrows = Codec.read_uvarint r in
        let rows =
          List.init nrows (fun _ ->
              List.init ncols (fun _ -> Codec.read_value r))
        in
        let seq = Codec.read_uvarint r in
        Result { columns; rows; seq }
      | 'E' ->
        let kind = error_kind_of_byte (Codec.read_uvarint r) in
        let message = Codec.read_string r in
        Error { kind; message }
      | 'S' -> Stats (read_pairs r)
      | 'P' ->
        let total = Codec.read_uvarint r in
        let data = Codec.read_string r in
        Repl_chunk { total; data }
      | 'W' ->
        let last_seq = Codec.read_uvarint r in
        let resync = Codec.read_uvarint r <> 0 in
        let n = Codec.read_uvarint r in
        let records = List.init n (fun _ -> Codec.read_string r) in
        Repl_batch { last_seq; resync; records }
      | 'D' ->
        let view = Codec.read_string r in
        let seq = Codec.read_uvarint r in
        let init = Codec.read_uvarint r <> 0 in
        let ncols = Codec.read_uvarint r in
        let columns = List.init ncols (fun _ -> Codec.read_string r) in
        let read_side () =
          let n = Codec.read_uvarint r in
          List.init n (fun _ ->
              let row = List.init ncols (fun _ -> Codec.read_value r) in
              let mult = Codec.read_uvarint r in
              (row, mult))
        in
        let added = read_side () in
        let removed = read_side () in
        let trace = Codec.read_uvarint r in
        Delta { view; seq; init; columns; added; removed; trace }
      | c ->
        raise (Protocol_error (Printf.sprintf "unknown response verb %C" c)))
