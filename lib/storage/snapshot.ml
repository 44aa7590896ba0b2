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

(* --- the entity encoding ---------------------------------------------- *)

(* Snapshot bodies and change records share one layout for entities:
   the id watermarks, nodes and relationships in ascending id order, and
   the index set.  A snapshot is the change from the empty graph. *)

let write_list buf f xs =
  Codec.write_uvarint buf (List.length xs);
  List.iter f xs

let write_props buf props =
  Codec.write_uvarint buf (Value.Smap.cardinal props);
  Value.Smap.iter
    (fun k v ->
      Codec.write_string buf k;
      Codec.write_value buf v)
    props

let write_rel buf g r =
  let d = Graph.rel_data g r in
  Codec.write_uvarint buf (Ids.rel_to_int r);
  Codec.write_uvarint buf (Ids.node_to_int d.Graph.src);
  Codec.write_uvarint buf (Ids.node_to_int d.Graph.tgt);
  Codec.write_string buf d.Graph.rel_type;
  write_props buf d.Graph.rel_props

(* A watermark that did not move past [base]'s is written as 0: applying
   reserves ids, which never moves a counter back, so 0 is a no-op. *)
let write_entities ?base buf g nodes rels =
  let next_node, next_rel = Graph.next_ids g in
  let base_node, base_rel = Option.fold ~none:(0, 0) ~some:Graph.next_ids base in
  Codec.write_uvarint buf (if next_node = base_node then 0 else next_node);
  Codec.write_uvarint buf (if next_rel = base_rel then 0 else next_rel);
  write_list buf
    (fun n ->
      let d = Graph.node_data g n in
      Codec.write_uvarint buf (Ids.node_to_int n);
      Codec.write_uvarint buf (Graph.Sset.cardinal d.Graph.labels);
      Graph.Sset.iter (Codec.write_string buf) d.Graph.labels;
      write_props buf d.Graph.node_props)
    nodes;
  write_list buf (write_rel buf g) rels;
  write_list buf
    (fun (label, key) ->
      Codec.write_string buf label;
      Codec.write_string buf key)
    (Graph.indexes g)

(* Labels, types and property keys repeat on every record: one shared
   copy of each instead of one string per occurrence. *)
let interner () =
  let interned = Hashtbl.create 64 in
  fun s ->
    match Hashtbl.find_opt interned s with
    | Some s -> s
    | None ->
      Hashtbl.add interned s s;
      s

let read_props intern r =
  let n = Codec.read_uvarint r in
  let props = ref Value.Smap.empty in
  for _ = 1 to n do
    let k = intern (Codec.read_string r) in
    props := Value.Smap.add k (Codec.read_value r) !props
  done;
  !props

let read_rel intern r =
  let id = Ids.rel_of_int (Codec.read_uvarint r) in
  let src = Ids.node_of_int (Codec.read_uvarint r) in
  let tgt = Ids.node_of_int (Codec.read_uvarint r) in
  let rel_type = intern (Codec.read_string r) in
  Graph.rel_record id ~src ~tgt ~rel_type (read_props intern r)

(* Applies an entity section to [g]: the nodes through [insert_node],
   the relationships as one [insert_rels] batch, then [trailer] (a
   change record's replaced relationships), then the index set and the
   watermarks. *)
let read_entities ?(trailer = fun _ g -> g) r g =
  let intern = interner () in
  let next_node = Codec.read_uvarint r in
  let next_rel = Codec.read_uvarint r in
  let g = ref g in
  for _ = 1 to Codec.read_uvarint r do
    let id = Ids.node_of_int (Codec.read_uvarint r) in
    let labels = ref Graph.Sset.empty in
    for _ = 1 to Codec.read_uvarint r do
      labels := Graph.Sset.add (intern (Codec.read_string r)) !labels
    done;
    let node_props = read_props intern r in
    g := Graph.insert_node !g id { Graph.labels = !labels; node_props }
  done;
  let rels = ref [] in
  for _ = 1 to Codec.read_uvarint r do
    rels := read_rel intern r :: !rels
  done;
  if !rels <> [] then g := Graph.insert_rels !g (List.rev !rels);
  let indexes =
    List.init (Codec.read_uvarint r) (fun _ ->
        let label = Codec.read_string r in
        (label, Codec.read_string r))
  in
  let g = trailer intern !g in
  let drop g (label, key) =
    if List.mem (label, key) indexes then g else Graph.drop_index g ~label ~key
  in
  let g = List.fold_left drop g (Graph.indexes g) in
  let create g (label, key) = Graph.create_index g ~label ~key in
  Graph.reserve_ids (List.fold_left create g indexes) ~next_node ~next_rel

(* --- snapshots -------------------------------------------------------- *)

let encode ?(last_seq = 0) g =
  let buf = Buffer.create (4096 + (64 * Graph.node_count g)) in
  Buffer.add_string buf magic;
  Buffer.add_uint16_le buf version;
  let header_len = Buffer.length buf in
  Codec.write_uvarint buf last_seq;
  write_entities buf g (Graph.nodes g) (Graph.rels g);
  let body = Buffer.sub buf header_len (Buffer.length buf - header_len) in
  Buffer.add_int32_le buf (Int32.of_int (Crc32.digest body));
  Buffer.contents buf

let save ?last_seq g path =
  Trace.with_span "snapshot_save" (fun () ->
      timed m_save (fun () -> write_file_atomic path (encode ?last_seq g)))

let decoded what f =
  match f () with
  | result -> Ok result
  | exception Codec.Corrupt msg -> Error (what ^ ": " ^ msg)
  | exception Invalid_argument msg -> Error (what ^ ": " ^ msg)

let decode data =
  let header_len = String.length magic + 2 in
  if String.length data < header_len + 4 then Error "snapshot file too short"
  else if String.sub data 0 (String.length magic) <> magic then
    Error "not a snapshot file (bad magic)"
  else begin
    let ver = String.get_uint16_le data (String.length magic) in
    if ver <> version then
      Error
        (Printf.sprintf "unsupported snapshot version %d (expected %d)" ver
           version)
    else begin
      let body_len = String.length data - header_len - 4 in
      let stored_crc = String.get_int32_le data (header_len + body_len) in
      let stored_crc = Int32.to_int stored_crc land 0xFFFFFFFF in
      let actual_crc = Crc32.digest_sub data ~pos:header_len ~len:body_len in
      if stored_crc <> actual_crc then
        Error
          (Printf.sprintf
             "snapshot checksum mismatch (stored %08x, computed %08x): file \
              is corrupt"
             stored_crc actual_crc)
      else
        decoded "snapshot decode" (fun () ->
            let r = Codec.reader ~pos:header_len data in
            let last_seq = Codec.read_uvarint r in
            (read_entities r Graph.empty, last_seq))
    end
  end

(* --- change records --------------------------------------------------- *)

(* A change starts with whether it applies to the empty graph (a whole
   graph: every entity counts as added) or to the previous state. *)
let encode_change ~base g delta =
  let buf = Buffer.create 256 in
  let d =
    match delta with
    | Some d -> d
    | None ->
      let open Graph in
      { empty_delta with d_nodes_added = nodes g; d_rels_added = rels g }
  in
  let ids to_int xs =
    List.map to_int xs |> List.sort Int.compare
    |> write_list buf (Codec.write_uvarint buf)
  in
  let by_id = List.sort Ids.compare_rel in
  Codec.write_bool buf (Option.is_none delta);
  ids Ids.rel_to_int d.Graph.d_rels_removed;
  ids Ids.node_to_int d.Graph.d_nodes_removed;
  let nodes = d.Graph.d_nodes_added @ d.Graph.d_nodes_changed in
  (* a whole graph's watermarks are absolute *)
  write_entities ?base:(Option.map (fun _ -> base) delta) buf g
    (List.sort Ids.compare_node nodes) (by_id d.Graph.d_rels_added);
  write_list buf (write_rel buf g) (by_id d.Graph.d_rels_changed);
  Buffer.contents buf

let apply_change g change =
  decoded "change record" (fun () ->
      let r = Codec.reader change in
      let g = ref (if Codec.read_bool r then Graph.empty else g) in
      let absent = Printf.ksprintf invalid_arg "removed %s %d is absent" in
      for _ = 1 to Codec.read_uvarint r do
        let id = Codec.read_uvarint r in
        let rel = Ids.rel_of_int id in
        if not (Graph.mem_rel !g rel) then absent "relationship" id;
        g := Graph.delete_rel !g rel
      done;
      for _ = 1 to Codec.read_uvarint r do
        let id = Codec.read_uvarint r in
        let node = Ids.node_of_int id in
        if not (Graph.mem_node !g node) then absent "node" id;
        match Graph.delete_node !g node with
        | Ok g' -> g := g'
        | Error e -> invalid_arg e
      done;
      let replace intern g =
        let g = ref g in
        for _ = 1 to Codec.read_uvarint r do
          g := Graph.replace_rel !g (read_rel intern r)
        done;
        !g
      in
      let g = read_entities ~trailer:replace r !g in
      if Codec.remaining r <> 0 then raise (Codec.Corrupt "trailing bytes");
      g)

let load_with_seq path =
  Trace.with_span "snapshot_load" (fun () ->
      timed m_load (fun () ->
          match read_file path with
          | exception Sys_error e -> Error e
          | data -> decode data))

let load path = Result.map fst (load_with_seq path)

let save_encoded ~bytes path = write_file_atomic path bytes
