(** The property graph data model (paper, Section 4.1).

    A property graph is a tuple [G = ⟨N, R, src, tgt, ι, λ, τ⟩]: finite
    sets of node and relationship identifiers, source and target maps, a
    partial property map ι from (id, key) to values, a node-labelling
    function λ, and a relationship-typing function τ.

    The implementation is persistent (purely functional): update clauses
    produce new graphs, and snapshots used by OPTIONAL MATCH and MERGE
    are free.  Each node keeps direct references to its incident
    relationships, which is the structural property the paper ascribes to
    Neo4j's store: the Expand operator "never needs to read any
    unnecessary data, or proceed via an indirection such as an index in
    order to find related nodes" (Section 2).  Each node has one packed
    adjacency block: per incident relationship its id, far end, interned
    type and record, in flat arrays, so a neighbour's far end and type
    are read off the block with no record dereference and its
    properties off the record with no lookup by id (see
    {!iter_adjacent}).

    Node records, relationship records and adjacency blocks are filed in
    {!Idmap} tries keyed by the ids' integers: a lookup is one array read
    per five bits of id, and an update copies only the arrays on its
    key's path — and builds new blocks, never writing one a graph value
    holds — so every published graph value can be read from any domain
    with no lock.  The one exception is a block's cost column (see
    {!iter_adjacent_costs}): a memo built whole on first use and
    published through an [Atomic.t], so a reader sees no column or a
    complete one. *)

open Cypher_values

module Sset : Set.S with type elt = string

type node_data = {
  labels : Sset.t;  (** λ(n): finite set of node labels *)
  node_props : Value.t Value.Smap.t;  (** ι(n, ·) *)
}

type rel_data = private {
  rel_id : Ids.rel;  (** r, the key the record is filed under *)
  src : Ids.node;  (** src(r) *)
  tgt : Ids.node;  (** tgt(r) *)
  rel_type : string;  (** τ(r) *)
  rel_props : Value.t Value.Smap.t;  (** ι(r, ·) *)
}

type t

val empty : t

val version : t -> int
(** Modification stamp.  Every update produces a graph with a fresh stamp
    drawn from a process-global monotonic counter, so within one process
    two graphs with the same version are the same value ([empty] alone is
    version 0).  The plan cache uses this to invalidate cached physical
    plans — and their cardinality estimates — when the store changes,
    while repeated read-only queries keep hitting the cache. *)

(** {1 Db-hit accounting}

    PROFILE's cost unit, in the style of Neo4j: one "db hit" per store
    access — an entity-record fetch ([node_data]/[rel_data] and every
    reader routed through them, e.g. property and label reads), one per
    entity surfaced by a scan ([nodes], [nodes_with_label], …), an
    adjacency read, or an index lookup.  An adjacency read
    ({!iter_adjacent}, {!degree}) costs one hit per direction — two for
    [`Both] — however many neighbours it yields: the block holds each
    neighbour's far end, type and record, so reading a neighbour off it
    costs none.  Counting is on while any profiled run
    is in flight and costs one atomic load per access when off.  Counts
    are kept per thread, so a profiled run reads exactly its own hits
    however many other threads, on any domain, touch the store meanwhile
    (the server runs connections on several request domains). *)

val with_db_hit_counting : (unit -> 'a) -> 'a
(** [with_db_hit_counting f] runs [f] with counting on.  Nested and
    concurrent calls are counted, not set and restored: counting stays
    on until the last of them returns. *)

val db_hits : unit -> int
(** The calling thread's running total of store accesses made while
    counting was on, since its innermost {!own_db_hits} began; readers
    take deltas. *)

val own_db_hits : (unit -> 'a) -> 'a * int
(** [own_db_hits f] runs [f] and also returns the store accesses the
    calling thread made in it while counting was on, not counting those
    of nested [own_db_hits] calls.  The thread's total is restored when
    [f] returns or raises, so the outermost call leaves it at zero. *)

val db_hit_counting_on : unit -> bool

(** {1 Construction} *)

val add_node : ?labels:string list -> ?props:(string * Value.t) list -> t -> t * Ids.node
(** Allocates a fresh node identifier. *)

val add_rel :
  src:Ids.node -> tgt:Ids.node -> rel_type:string ->
  ?props:(string * Value.t) list -> t -> t * Ids.rel
(** Allocates a fresh relationship.  Raises [Invalid_argument] if either
    endpoint is not in the graph, if an endpoint's id is 2^42 or more, or
    if the type would be the lineage's 2^20 + 1st (the limits of the
    packed adjacency, see {!iter_adjacent}). *)

val delete_node : t -> Ids.node -> (t, string) result
(** Fails if the node still has incident relationships (Cypher's DELETE
    rule); use {!detach_delete_node} to also remove them. *)

val detach_delete_node : t -> Ids.node -> t
val delete_rel : t -> Ids.rel -> t

val set_node_prop : t -> Ids.node -> string -> Value.t -> t
(** Setting a property to [Null] removes it, as in Cypher. *)

val set_rel_prop : t -> Ids.rel -> string -> Value.t -> t
(** Like {!set_node_prop}, an update of an id outside the graph returns
    the graph unchanged, version included.  Older graph values keep the
    old record, in [rel_data] and in both endpoints' adjacency alike. *)

val remove_node_prop : t -> Ids.node -> string -> t
val remove_rel_prop : t -> Ids.rel -> string -> t
val add_label : t -> Ids.node -> string -> t
val remove_label : t -> Ids.node -> string -> t

(** {1 Access} *)

val mem_node : t -> Ids.node -> bool
val mem_rel : t -> Ids.rel -> bool

val node_data : t -> Ids.node -> node_data
(** Raises [Not_found] for an id outside the graph. *)

val rel_data : t -> Ids.rel -> rel_data

val labels : t -> Ids.node -> string list
(** λ(n), sorted. *)

val has_label : t -> Ids.node -> string -> bool
val node_prop : t -> Ids.node -> string -> Value.t
(** ι(n, k), or [Null] when undefined — Cypher returns null for a missing
    property. *)

val rel_prop : t -> Ids.rel -> string -> Value.t
val node_props : t -> Ids.node -> Value.t Value.Smap.t
val rel_props : t -> Ids.rel -> Value.t Value.Smap.t
val src : t -> Ids.rel -> Ids.node
val tgt : t -> Ids.rel -> Ids.node
val rel_type : t -> Ids.rel -> string

val nodes : t -> Ids.node list
(** All node ids, ascending. *)

val rels : t -> Ids.rel list
val node_count : t -> int
val rel_count : t -> int

(** {1 Adjacency — the substrate of Expand}

    A node's block holds its outgoing relationships, loops included,
    then its incoming ones, loops included, each part newest first
    (a relationship re-filed by {!insert_rels} counts as new).  Writes
    build new blocks in time linear in the degree of the endpoints they
    touch; {!set_rel_prop} shares a block's int arrays and copies only
    its record array. *)

type direction = [ `Out | `In | `Both ]

type type_filter
(** A set of relationship types resolved against one graph's interned
    type ids: a filter tests an entry's type with integer comparisons,
    never a string one.  Type ids are stable along a lineage, so a
    filter stays valid for the graph it was built from and every graph
    derived from it, but admits a type only if that graph had it. *)

val any_type : type_filter
val type_filter : t -> string list -> type_filter
(** [type_filter g ts]: the types [ts] of [g]; [[]] admits every type. *)

val iter_adjacent :
  t -> Ids.node -> [< direction ] -> type_filter ->
  (Ids.rel -> Ids.node -> rel_data -> unit) -> unit
(** [iter_adjacent g n dir types f] calls [f r m d] for every
    relationship [r] incident to [n] whose type [types] admits, with [m]
    its other end ([n] for a loop) and [d] its record, physically the
    one {!rel_data} returns: those whose source [n] is ([`Out]), whose
    target it is ([`In]), or either ([`Both]: the outgoing, then the
    incoming that are not loops), each newest first.  Nothing is
    allocated and no record is read.  One db hit per direction read —
    two for [`Both] — and none per relationship.  A node outside the
    graph has no relationships. *)

val iter_adjacent_costs :
  t -> Ids.node -> [< direction ] -> type_filter -> string ->
  (Ids.rel -> Ids.node -> float -> rel_data -> unit) -> unit
(** [iter_adjacent_costs g n dir types key f] calls [f r m w d] for the
    relationships {!iter_adjacent} enumerates, in its order and at its
    db hits, with [w] the property [key] of [r] as a float: an integer
    converted, a float as it is, and NaN when the property is missing,
    is not a number, or is NaN — the caller tells those apart from [d].
    The costs come from a column of [n]'s block, built from the records
    the first time the block is read for [key] (it then holds [key]
    until it is read for another) and published atomically, so later
    reads — on any domain — are a float array read.  A block lives as
    long as no write touches its node's relationships; every such write
    ({!set_rel_prop}, {!replace_rel}, {!delete_rel}, {!add_rel},
    {!insert_rels}) builds a new block with no column. *)

val degree : t -> Ids.node -> [< direction ] -> int
(** The number of relationships {!iter_adjacent} enumerates for the
    direction with {!any_type}, at the same db hits. *)

val other_end : t -> Ids.rel -> Ids.node -> Ids.node
(** The endpoint of [r] that is not [n]; for a loop, [n] itself. *)

(** {1 Indexes} *)

val nodes_with_label : t -> string -> Ids.node list
val rels_with_type : t -> string -> Ids.rel list
val label_count : t -> string -> int
val type_count : t -> string -> int
val all_labels : t -> string list
val all_types : t -> string list

(** {1 Property indexes}

    The paper's history section (Section 5) ties Cypher's node labels to
    "changes in the database implementation that increasingly automated
    search optimizations through indexing of node data".  An index on
    (label, key) maps property values to the nodes carrying them; it is
    maintained incrementally by every update. *)

val create_index : t -> label:string -> key:string -> t
(** Builds the index over existing nodes and keeps it maintained. *)

val drop_index : t -> label:string -> key:string -> t
val has_index : t -> label:string -> key:string -> bool
val indexes : t -> (string * string) list

val index_seek : t -> label:string -> key:string -> Value.t -> Ids.node list
(** Nodes with the label whose property equals the value (by the total
    value equality).  Raises [Not_found] when the index does not exist. *)

(** {1 Identity-preserving insertion}

    The multiple-graphs extension (Section 6) projects new graphs whose
    nodes keep their identity, so that a follow-up query can join them
    against other graphs of the same universe. *)

val insert_node : t -> Ids.node -> node_data -> t
(** Inserts (or replaces) a node under a caller-chosen identifier.
    Replacing keeps existing incident relationships. *)

val rel_record :
  Ids.rel -> src:Ids.node -> tgt:Ids.node -> rel_type:string ->
  Value.t Value.Smap.t -> rel_data
(** A relationship record for {!insert_rels}. *)

val insert_rels : t -> rel_data list -> t
(** Inserts (or replaces) each relationship under its record's
    [rel_id], with the result of inserting them one by one in list
    order, but with one rebuild per endpoint block rather than one per
    relationship.  Endpoints must exist and the ids must be distinct, and
    the limits of {!add_rel} hold ([Invalid_argument] otherwise).  The
    records themselves are filed, so a record taken from another graph
    of the same universe is shared, not copied. *)

val replace_rel : t -> rel_data -> t
(** Replaces a relationship's record in place, keeping its adjacency
    position as a property update does.  Raises [Invalid_argument] if
    the graph has no relationship with its id, endpoints and type. *)

(** {1 Identifier allocation}

    Fresh ids come from two monotonic per-graph counters; these are the
    single entry point through which the storage layer observes and
    restores them, so a reloaded graph can never hand out an id that
    collides with — or drifts from — a persisted identifier, even when
    the highest-numbered node or relationship was deleted before the
    snapshot was taken. *)

val next_ids : t -> int * int
(** [(next_node, next_rel)]: the integer ids the next {!add_node} and
    {!add_rel} will allocate. *)

val reserve_ids : t -> next_node:int -> next_rel:int -> t
(** Advances the allocation counters to at least the given values;
    counters never move backwards, so reserving below the current
    watermark is a no-op. *)

(** {1 Change journal — deltas between versions}

    Every mutation appends the touched node or relationship id to a
    journal carried by the (persistent) graph value, so two versions of
    the same lineage share a journal tail and the entities touched
    between them can be recovered in O(changes) — the substrate of
    incremental view maintenance ({!module:Cypher_ivm}).  Rolled-back
    updates live only in discarded graph values and therefore never
    appear in a delta between two committed versions. *)

type delta = {
  d_nodes_added : Ids.node list;
  d_nodes_changed : Ids.node list;  (** present in both, properties/labels touched *)
  d_nodes_removed : Ids.node list;
  d_rels_added : Ids.rel list;
  d_rels_changed : Ids.rel list;
  d_rels_removed : Ids.rel list;
}

val empty_delta : delta
val delta_is_empty : delta -> bool
val delta_size : delta -> int
(** Total number of entity ids in the delta. *)

val delta_between : since:t -> t -> delta option
(** [delta_between ~since g] is the set of entities touched between the
    older version [since] and [g], classified by presence on each side
    (an entity created and deleted within the span appears on neither
    side and is omitted).  Returns [None] when the two versions are not
    of the same lineage or the journal was truncated between them: it is
    capped at 65536 entries, and a graph keeps the epoch its last reset
    closed, so a delta spans at most one reset.  Callers must then fall
    back to full recomputation — never assume an empty delta. *)

(** {1 Whole-graph operations} *)

val union : t -> t -> t
(** Disjoint union with id remapping of the second graph; used by the
    multiple-graphs extension (Section 6). *)

val equal_structure : t -> t -> bool
(** Isomorphism up to identifier renaming is expensive; this checks
    equality of the canonical dump, which is sufficient for graphs built
    deterministically in tests. *)

val pp : Format.formatter -> t -> unit
(** Canonical human-readable dump: one line per node and relationship. *)
