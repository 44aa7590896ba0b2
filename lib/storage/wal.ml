open Cypher_values
module Engine = Cypher_engine.Engine
module Config = Cypher_semantics.Config
module Registry = Cypher_obs.Registry
module Trace = Cypher_obs.Trace

let m_appends =
  Registry.counter ~help:"WAL append batches (one fsync each)"
    "cypher_storage_wal_appends_total"

let m_records =
  Registry.counter ~help:"statements appended to the WAL"
    "cypher_storage_wal_records_total"

let m_fsync =
  Registry.histogram ~help:"WAL fsync latency (microsecond buckets)"
    "cypher_storage_wal_fsync_latency"

let m_replayed =
  Registry.counter ~help:"WAL records re-executed during recovery"
    "cypher_storage_recovery_replayed_total"

let magic = "CYWAL"

(* Version 2 appends the originating request's trace id to each record
   payload (a trailing uvarint).  Version-1 files — no trailing bytes —
   are still readable: the decoder treats an exhausted payload as trace
   0, so recovery from a pre-upgrade log just works. *)
let version = 2
let header_len = String.length magic + 2

let header_for v =
  let buf = Buffer.create header_len in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.contents buf

let header = header_for version
let header_v1 = header_for 1

type record = {
  seq : int;
  text : string;
  params : (string * Value.t) list;
  trace : int;
}

(* --- appending ------------------------------------------------------- *)

type writer = { fd : Unix.file_descr; mutable next_seq : int }

let write_all fd data =
  let len = String.length data in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write_substring fd data !written (len - !written)
  done

let open_writer ?(next_seq = 1) path =
  let exists = Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 in
  if exists then begin
    let head =
      In_channel.with_open_bin path (fun ic ->
          really_input_string ic (min header_len (Int64.to_int (In_channel.length ic))))
    in
    if head <> header && head <> header_v1 then
      failwith (path ^ ": not a WAL file (bad or unsupported header)")
  end;
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  if not exists then begin
    write_all fd header;
    Unix.fsync fd
  end;
  { fd; next_seq }

let encode_record ~seq (text, params, trace) =
  let payload = Buffer.create (64 + String.length text) in
  Codec.write_uvarint payload seq;
  Codec.write_string payload text;
  Codec.write_uvarint payload (List.length params);
  List.iter
    (fun (k, v) ->
      Codec.write_string payload k;
      Codec.write_value payload v)
    params;
  Codec.write_uvarint payload trace;
  let payload = Buffer.contents payload in
  let framed = Buffer.create (String.length payload + 8) in
  let u32 n =
    for i = 0 to 3 do
      Buffer.add_char framed (Char.chr ((n lsr (8 * i)) land 0xFF))
    done
  in
  u32 (String.length payload);
  u32 (Crc32.digest payload);
  Buffer.add_string framed payload;
  Buffer.contents framed

(* Appends and returns each record's (seq, framed bytes) — the framed
   form is exactly what lands in the file, so a primary can ship the
   same CRC-guarded bytes to replicas and a replica can re-verify them
   with the file-recovery checks. *)
let append_encoded w stmts =
  match stmts with
  | [] -> []
  | _ ->
    Trace.with_span "wal_append" @@ fun () ->
    let buf = Buffer.create 256 in
    let encoded =
      List.map
        (fun stmt ->
          let seq = w.next_seq in
          let framed = encode_record ~seq stmt in
          Buffer.add_string buf framed;
          w.next_seq <- w.next_seq + 1;
          (seq, framed))
        stmts
    in
    write_all w.fd (Buffer.contents buf);
    let t0 = Trace.now_us () in
    Trace.with_span "fsync" (fun () -> Unix.fsync w.fd);
    Registry.observe_us m_fsync (Trace.now_us () - t0);
    Registry.incr m_appends;
    Registry.add m_records (List.length stmts);
    encoded

let append w stmts =
  match append_encoded w stmts with
  | [] -> 0
  | encoded -> fst (List.nth encoded (List.length encoded - 1))

let truncate w =
  Unix.ftruncate w.fd header_len;
  Unix.fsync w.fd

(* Truncate and restart the sequence — a replica resyncing from a fresh
   snapshot drops its whole log and continues at the snapshot's seq. *)
let reset w ~next_seq =
  truncate w;
  w.next_seq <- next_seq

let close_writer w = Unix.close w.fd

(* --- recovery -------------------------------------------------------- *)

type scan = { records : record list; valid_len : int; torn : bool }

let truncate_file path len = Unix.truncate path len

let decode_payload payload =
  let r = Codec.reader payload in
  let seq = Codec.read_uvarint r in
  let text = Codec.read_string r in
  let nparams = Codec.read_uvarint r in
  let params =
    List.init nparams (fun _ ->
        let k = Codec.read_string r in
        (k, Codec.read_value r))
  in
  (* version-1 records end here; version 2 carries the trace id *)
  let trace = if Codec.remaining r > 0 then Codec.read_uvarint r else 0 in
  if Codec.remaining r <> 0 then
    raise (Codec.Corrupt "trailing bytes in WAL record payload");
  { seq; text; params; trace }

(* One framed record (len · crc · payload) as shipped over the
   replication stream, verified with the same checks the file scan
   applies: a short, oversized or checksum-failing frame is an error,
   never a silently skipped record. *)
let decode_framed data =
  let len = String.length data in
  if len < 8 then Error "framed WAL record shorter than its prologue"
  else begin
    let u32 pos =
      let b i = Char.code data.[pos + i] in
      b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
    in
    let payload_len = u32 0 in
    let crc = u32 4 in
    if len - 8 <> payload_len then
      Error
        (Printf.sprintf
           "framed WAL record length mismatch (prologue says %d, frame \
            carries %d)"
           payload_len (len - 8))
    else if Crc32.digest_sub data ~pos:8 ~len:payload_len <> crc then
      Error "framed WAL record checksum mismatch"
    else
      match decode_payload (String.sub data 8 payload_len) with
      | record -> Ok record
      | exception Codec.Corrupt msg -> Error ("framed WAL record: " ^ msg)
  end

let scan path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | data ->
    let len = String.length data in
    if
      len < header_len
      || (String.sub data 0 header_len <> header
         && String.sub data 0 header_len <> header_v1)
    then Error (path ^ ": not a WAL file (bad or unsupported header)")
    else begin
      let u32 pos =
        let b i = Char.code data.[pos + i] in
        b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
      in
      let rec go pos acc =
        if pos = len then Ok { records = List.rev acc; valid_len = pos; torn = false }
        else if len - pos < 8 then
          (* crash cut the length/crc prologue short *)
          Ok { records = List.rev acc; valid_len = pos; torn = true }
        else begin
          let payload_len = u32 pos in
          let crc = u32 (pos + 4) in
          if len - pos - 8 < payload_len then
            (* crash cut the payload short *)
            Ok { records = List.rev acc; valid_len = pos; torn = true }
          else if Crc32.digest_sub data ~pos:(pos + 8) ~len:payload_len <> crc
          then
            Error
              (Printf.sprintf
                 "%s: corrupt WAL record at offset %d (checksum mismatch on a \
                  complete record); refusing to recover past committed data"
                 path pos)
          else
            match decode_payload (String.sub data (pos + 8) payload_len) with
            | record -> go (pos + 8 + payload_len) (record :: acc)
            | exception Codec.Corrupt msg ->
              Error
                (Printf.sprintf "%s: corrupt WAL record at offset %d: %s" path
                   pos msg)
        end
      in
      go header_len []
    end

let replay ?(mode = Engine.Planned) g records =
  List.fold_left
    (fun acc record ->
      match acc with
      | Error _ as e -> e
      | Ok g -> (
        let config = Config.with_params record.params Config.default in
        match Engine.query ~config ~mode g record.text with
        | Ok outcome ->
          Registry.incr m_replayed;
          Ok outcome.Engine.graph
        | Error e ->
          Error
            (Printf.sprintf "WAL replay failed at record %d (%s): %s"
               record.seq record.text (Engine.error_message e))))
    (Ok g) records
