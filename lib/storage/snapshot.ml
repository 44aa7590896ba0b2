open Cypher_graph
open Cypher_values
module Registry = Cypher_obs.Registry
module Trace = Cypher_obs.Trace

let m_save =
  Registry.histogram
    ~help:"snapshot encode+write+fsync duration (microsecond buckets)"
    "cypher_storage_snapshot_save_duration"

let m_load =
  Registry.histogram
    ~help:"snapshot read+decode duration (microsecond buckets)"
    "cypher_storage_snapshot_load_duration"

let timed hist f =
  let t0 = Trace.now_us () in
  Fun.protect
    ~finally:(fun () -> Registry.observe_us hist (Trace.now_us () - t0))
    f

let magic = "CYSNAP"
let version = 1

(* --- low-level file helpers ------------------------------------------ *)

let fsync_dir dir =
  (* Persist the rename itself.  Not every filesystem supports fsync on a
     directory fd; failure to do so only weakens crash-atomicity, so it
     is ignored rather than fatal. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

let write_file_atomic path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let len = String.length data in
      let written = ref 0 in
      while !written < len do
        written :=
          !written + Unix.write_substring fd data !written (len - !written)
      done;
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* --- encoding -------------------------------------------------------- *)

let write_props buf props =
  Codec.write_uvarint buf (Value.Smap.cardinal props);
  Value.Smap.iter
    (fun k v ->
      Codec.write_string buf k;
      Codec.write_value buf v)
    props

let read_props intern r =
  let n = Codec.read_uvarint r in
  let props = ref Value.Smap.empty in
  for _ = 1 to n do
    let k = intern (Codec.read_string r) in
    props := Value.Smap.add k (Codec.read_value r) !props
  done;
  !props

let encode ?(last_seq = 0) g =
  let buf = Buffer.create (4096 + (64 * Graph.node_count g)) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr (version land 0xFF));
  Buffer.add_char buf (Char.chr ((version lsr 8) land 0xFF));
  let body = Buffer.create (4096 + (64 * Graph.node_count g)) in
  Codec.write_uvarint body last_seq;
  let next_node, next_rel = Graph.next_ids g in
  Codec.write_uvarint body next_node;
  Codec.write_uvarint body next_rel;
  let nodes = Graph.nodes g in
  Codec.write_uvarint body (List.length nodes);
  List.iter
    (fun n ->
      let d = Graph.node_data g n in
      Codec.write_uvarint body (Ids.node_to_int n);
      Codec.write_uvarint body (Graph.Sset.cardinal d.Graph.labels);
      Graph.Sset.iter (Codec.write_string body) d.Graph.labels;
      write_props body d.Graph.node_props)
    nodes;
  let rels = Graph.rels g in
  Codec.write_uvarint body (List.length rels);
  List.iter
    (fun r ->
      let d = Graph.rel_data g r in
      Codec.write_uvarint body (Ids.rel_to_int r);
      Codec.write_uvarint body (Ids.node_to_int d.Graph.src);
      Codec.write_uvarint body (Ids.node_to_int d.Graph.tgt);
      Codec.write_string body d.Graph.rel_type;
      write_props body d.Graph.rel_props)
    rels;
  let indexes = Graph.indexes g in
  Codec.write_uvarint body (List.length indexes);
  List.iter
    (fun (label, key) ->
      Codec.write_string body label;
      Codec.write_string body key)
    indexes;
  let body = Buffer.contents body in
  Buffer.add_string buf body;
  let crc = Crc32.digest body in
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((crc lsr (8 * i)) land 0xFF))
  done;
  Buffer.contents buf

let save ?last_seq g path =
  Trace.with_span "snapshot_save" (fun () ->
      timed m_save (fun () -> write_file_atomic path (encode ?last_seq g)))

(* --- decoding -------------------------------------------------------- *)

let decode data =
  let header_len = String.length magic + 2 in
  if String.length data < header_len + 4 then Error "snapshot file too short"
  else if String.sub data 0 (String.length magic) <> magic then
    Error "not a snapshot file (bad magic)"
  else begin
    let ver =
      Char.code data.[String.length magic]
      lor (Char.code data.[String.length magic + 1] lsl 8)
    in
    if ver <> version then
      Error
        (Printf.sprintf "unsupported snapshot version %d (expected %d)" ver
           version)
    else begin
      let body_len = String.length data - header_len - 4 in
      let stored_crc =
        let b i = Char.code data.[header_len + body_len + i] in
        b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
      in
      let actual_crc = Crc32.digest_sub data ~pos:header_len ~len:body_len in
      if stored_crc <> actual_crc then
        Error
          (Printf.sprintf
             "snapshot checksum mismatch (stored %08x, computed %08x): file \
              is corrupt"
             stored_crc actual_crc)
      else
        match
          let r = Codec.reader ~pos:header_len data in
          (* Labels, types and property keys repeat on every record: one
             shared copy of each instead of one string per occurrence. *)
          let interned = Hashtbl.create 64 in
          let intern s =
            match Hashtbl.find_opt interned s with
            | Some s -> s
            | None ->
              Hashtbl.add interned s s;
              s
          in
          let last_seq = Codec.read_uvarint r in
          let next_node = Codec.read_uvarint r in
          let next_rel = Codec.read_uvarint r in
          let g = ref Graph.empty in
          let n_nodes = Codec.read_uvarint r in
          for _ = 1 to n_nodes do
            let id = Ids.node_of_int (Codec.read_uvarint r) in
            let n_labels = Codec.read_uvarint r in
            let labels = ref Graph.Sset.empty in
            for _ = 1 to n_labels do
              labels := Graph.Sset.add (intern (Codec.read_string r)) !labels
            done;
            let node_props = read_props intern r in
            g := Graph.insert_node !g id { Graph.labels = !labels; node_props }
          done;
          let n_rels = Codec.read_uvarint r in
          let rels = ref [] in
          for _ = 1 to n_rels do
            let id = Ids.rel_of_int (Codec.read_uvarint r) in
            let src = Ids.node_of_int (Codec.read_uvarint r) in
            let tgt = Ids.node_of_int (Codec.read_uvarint r) in
            let rel_type = intern (Codec.read_string r) in
            let rel_props = read_props intern r in
            rels := Graph.rel_record id ~src ~tgt ~rel_type rel_props :: !rels
          done;
          g := Graph.insert_rels !g (List.rev !rels);
          let n_indexes = Codec.read_uvarint r in
          for _ = 1 to n_indexes do
            let label = Codec.read_string r in
            let key = Codec.read_string r in
            g := Graph.create_index !g ~label ~key
          done;
          (Graph.reserve_ids !g ~next_node ~next_rel, last_seq)
        with
        | result -> Ok result
        | exception Codec.Corrupt msg -> Error ("snapshot decode: " ^ msg)
        | exception Invalid_argument msg -> Error ("snapshot decode: " ^ msg)
    end
  end

let load_with_seq path =
  Trace.with_span "snapshot_load" (fun () ->
      timed m_load (fun () ->
          match read_file path with
          | exception Sys_error e -> Error e
          | data -> decode data))

let load path = Result.map fst (load_with_seq path)

let save_encoded ~bytes path = write_file_atomic path bytes
