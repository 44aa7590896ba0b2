module Registry = Cypher_obs.Registry
module Trace = Cypher_obs.Trace

let m_appends =
  Registry.counter ~help:"WAL append batches (one fsync each)"
    "cypher_storage_wal_appends_total"

let m_records =
  Registry.counter ~help:"change records appended to the WAL (one per commit)"
    "cypher_storage_wal_records_total"

let m_fsync =
  Registry.histogram ~help:"WAL fsync latency (microsecond buckets)"
    "cypher_storage_wal_fsync_latency"

let magic = "CYWAL"

(* Version 3 logs changes; versions 1 and 2 logged statement texts. *)
let version = 3
let header_len = String.length magic + 2

let header_for v = Printf.sprintf "%s%c\000" magic (Char.chr v) (* u16-LE *)

let header = header_for version

(* What a file's first bytes are: this version's header, an older
   version's, or no WAL header at all. *)
let classify head =
  if head = header then `Current
  else if head = header_for 1 || head = header_for 2 then `Old
  else `Bad

let not_a_wal path = path ^ ": not a WAL file (bad or unsupported header)"

let old_log path =
  path
  ^ ": a statement log of an earlier version that still holds records; open \
     it once with the previous binary and checkpoint"

type record = { seq : int; traces : int list; change : string }

(* --- appending ------------------------------------------------------- *)

type writer = { fd : Unix.file_descr; mutable next_seq : int }

let write_all fd data =
  let len = String.length data in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write_substring fd data !written (len - !written)
  done

(* A missing or empty file, or an older version's log that holds only
   its header, is (re)written with this version's header. *)
let open_writer ?(next_seq = 1) path =
  let size = if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0 in
  let fresh =
    size = 0
    ||
    let head =
      In_channel.with_open_bin path (fun ic ->
          really_input_string ic (min header_len size))
    in
    match classify head with
    | `Current -> false
    | `Old when size = header_len -> true
    | `Old -> failwith (old_log path)
    | `Bad -> failwith (not_a_wal path)
  in
  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] in
  let fd =
    Unix.openfile path (if fresh then Unix.O_TRUNC :: flags else flags) 0o644
  in
  if fresh then begin
    write_all fd header;
    Unix.fsync fd
  end;
  { fd; next_seq }

let frame ~seq (traces, change) =
  let payload = Buffer.create (16 + String.length change) in
  Codec.write_uvarint payload seq;
  Codec.write_uvarint payload (List.length traces);
  List.iter (Codec.write_uvarint payload) traces;
  Buffer.add_string payload change;
  let payload = Buffer.contents payload in
  let framed = Buffer.create (String.length payload + 8) in
  Buffer.add_int32_le framed (Int32.of_int (String.length payload));
  Buffer.add_int32_le framed (Int32.of_int (Crc32.digest payload));
  Buffer.add_string framed payload;
  Buffer.contents framed

(* Appends and returns each record's (seq, framed bytes) — the framed
   form is exactly what lands in the file, so a primary can ship the
   same CRC-guarded bytes to replicas and a replica can re-verify them
   with the file-recovery checks. *)
let append w records =
  match records with
  | [] -> []
  | _ ->
    Trace.with_span "wal_append" @@ fun () ->
    let buf = Buffer.create 256 in
    let framed =
      List.map
        (fun record ->
          let seq = w.next_seq in
          let f = frame ~seq record in
          Buffer.add_string buf f;
          w.next_seq <- w.next_seq + 1;
          (seq, f))
        records
    in
    write_all w.fd (Buffer.contents buf);
    let t0 = Trace.now_us () in
    Trace.with_span "fsync" (fun () -> Unix.fsync w.fd);
    Registry.observe_us m_fsync (Trace.now_us () - t0);
    Registry.incr m_appends;
    Registry.add m_records (List.length records);
    framed

let truncate w =
  Unix.ftruncate w.fd header_len;
  Unix.fsync w.fd

(* Truncate and restart the sequence — a replica resyncing from a fresh
   snapshot drops its whole log and continues at the snapshot's seq. *)
let reset w ~next_seq =
  truncate w;
  w.next_seq <- next_seq

let close_writer w = Unix.close w.fd

let note_lineage name dur ~seq traces =
  List.iter
    (fun trace_id ->
      Trace.note
        ~ctx:{ Trace.trace_id; parent_span = 0 }
        ~attrs:[ ("seq", string_of_int seq) ]
        name dur)
    traces

(* --- recovery -------------------------------------------------------- *)

type scan = { records : record list; valid_len : int; torn : bool }


(* The payload at [pos, pos + len) of [data]: seq, traces, change. *)
let decode_payload data ~pos ~len =
  let r = Codec.reader ~pos data in
  let seq = Codec.read_uvarint r in
  let ntraces = Codec.read_uvarint r in
  let traces = List.init ntraces (fun _ -> Codec.read_uvarint r) in
  let at = Codec.pos r in
  if at > pos + len then raise (Codec.Corrupt "WAL record payload overrun");
  { seq; traces; change = String.sub data at (pos + len - at) }

let u32 data pos = Int32.to_int (String.get_int32_le data pos) land 0xFFFFFFFF

(* The record framed (len · crc · payload) at [pos] of [data] and the
   offset past it, [`Torn] if the bytes end inside it. *)
let record_at data pos =
  let avail = String.length data - pos - 8 in
  if avail < 0 || avail < u32 data pos then `Torn
  else
    let len = u32 data pos in
    if Crc32.digest_sub data ~pos:(pos + 8) ~len <> u32 data (pos + 4) then
      `Corrupt "checksum mismatch on a complete record"
    else
      match decode_payload data ~pos:(pos + 8) ~len with
      | record -> `Record (record, pos + 8 + len)
      | exception Codec.Corrupt msg -> `Corrupt msg

(* One framed record as shipped over the replication stream, verified
   with the file scan's checks: a short, oversized or checksum-failing
   frame is an error, never a silently skipped record. *)
let decode_framed data =
  match record_at data 0 with
  | `Record (record, len) when len = String.length data -> Ok record
  | `Record _ -> Error "framed WAL record: trailing bytes after the record"
  | `Torn -> Error "framed WAL record: truncated"
  | `Corrupt msg -> Error ("framed WAL record: " ^ msg)

let scan path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | data -> (
    let len = String.length data in
    let rec go pos acc =
      let stop torn = Ok { records = List.rev acc; valid_len = pos; torn } in
      if pos = len then stop false
      else
        match record_at data pos with
        | `Record (record, next) -> go next (record :: acc)
        | `Torn -> stop true (* a crash cut the last record short *)
        | `Corrupt msg ->
          Error
            (Printf.sprintf
               "%s: corrupt WAL record at offset %d (%s); refusing to recover \
                past committed data"
               path pos msg)
    in
    (* empty: an upgrade was cut between truncation and the new header *)
    if len = 0 then Ok { records = []; valid_len = 0; torn = false }
    else if len < header_len then Error (not_a_wal path)
    else
      match classify (String.sub data 0 header_len) with
      | `Bad -> Error (not_a_wal path)
      | `Old when len > header_len -> Error (old_log path)
      | `Old -> Ok { records = []; valid_len = len; torn = false }
      | `Current -> go header_len [])
