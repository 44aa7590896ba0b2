(** Binary whole-graph snapshots.

    A snapshot is the durable image of one property graph: every node
    and relationship under its original identifier, all labels, types
    and properties, the set of (label, key) property indexes, the id
    allocation watermarks, and the WAL sequence number up to which the
    image is current.

    File layout:

    {v
    "CYSNAP" · version u16-LE      8-byte magic
    body                           Codec-encoded, see below
    crc32(body)                    4 bytes LE
    v}

    The body is [last_seq] followed by the {e entity section}:
    [next_node], [next_rel], the nodes in ascending id order (id,
    labels, properties), the relationships in ascending id order (id,
    src, tgt, type, properties), and the index descriptors.  Identifiers
    are preserved exactly, so stored paths and property indexes rebuild
    against the same ids, and [save] followed by [load] is an
    isomorphism that is the identity on ids.  The entity section is also
    the heart of a change record (below): a snapshot is the change from the
    empty graph.

    [save] is atomic: the image is written to a temporary sibling,
    fsync'd, and renamed over the target, so a crash mid-save leaves
    the previous snapshot intact. *)

open Cypher_graph

val save : ?last_seq:int -> Graph.t -> string -> unit
(** [save g path] writes the snapshot.  [last_seq] (default 0) is the
    sequence number of the last WAL record already reflected in [g];
    recovery skips WAL records at or below it.  Raises [Sys_error] /
    [Unix.Unix_error] on I/O failure. *)

val load : string -> (Graph.t, string) result
(** Rebuilds the graph.  The result is a fresh value with a bumped
    {!Graph.version} (cached plans replan) and allocation counters at
    least as high as when the snapshot was taken. *)

val load_with_seq : string -> (Graph.t * int, string) result
(** Like {!load}, also returning the stored [last_seq]. *)

(** {1 In-memory form}

    Replication bootstrap ships a snapshot over the wire instead of
    through a file: the primary encodes its committed version to bytes,
    the replica decodes (or persists) the very same bytes.  The encoded
    form is byte-identical to the file form, CRC included. *)

val encode : ?last_seq:int -> Graph.t -> string
(** The full snapshot image (magic · body · crc) as a string. *)

val decode : string -> (Graph.t * int, string) result
(** Decodes {!encode}'s output, verifying magic, version and CRC. *)

val save_encoded : bytes:string -> string -> unit
(** [save_encoded ~bytes path] writes already-encoded snapshot bytes
    with the same atomicity as {!save} (tmp · fsync · rename) — used by
    a replica to persist a snapshot it fetched from the primary. *)

(** {1:changes Change records}

    The effect of one commit, as the WAL logs it and replicas receive
    it: [from_empty] (bool), the removed relationship ids and node ids
    (each a count then ids), an entity section holding the after-state
    of the added and changed nodes and of the added relationships, the
    id watermarks (0 for one that did not move) and the whole index
    set, then the replaced relationships.  Its size follows the entities
    the commit touched, not the graph.  Applying runs removed
    relationships, removed nodes, [Graph.insert_node], one
    [Graph.insert_rels] batch in ascending id, [Graph.replace_rel] in
    place, then the index set and the watermarks.  Every adjacency block
    lists its relationships newest (highest id) first, and these steps
    keep it so: the applied graph enumerates each node's adjacency in
    the committing graph's order. *)

val encode_change : base:Graph.t -> Graph.t -> Graph.delta option -> string
(** [encode_change ~base g delta] is the change that took [base] to [g],
    [delta] naming the entities it touched.  With [None] (the delta is
    unknown) it is the whole of [g], applied to the empty graph. *)

val apply_change : Graph.t -> string -> (Graph.t, string) result
(** Applies a change with identifiers preserved.  A removed id that is
    absent, a node removal or relationship replacement that fails, or
    malformed bytes are an [Error]: the change does not belong to this
    graph. *)
