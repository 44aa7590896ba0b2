open Cypher_values
module Sset = Set.Make (String)
module Smap = Value.Smap
module Vmap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare_total
end)
module Pmap = Map.Make (struct
  type t = string * string

  let compare = compare
end)

type node_data = { labels : Sset.t; node_props : Value.t Smap.t }

type rel_data = {
  rel_id : Ids.rel;
  src : Ids.node;
  tgt : Ids.node;
  rel_type : string;
  rel_props : Value.t Smap.t;
}

(* One node's adjacency, packed: the "direct references from each node
   via its edges to the related nodes" of Section 2.  Entries [0, n_out)
   are the relationships the node is the source of, loops included, and
   the rest those it is the target of, loops included; each part is
   newest first.  Entry [i] holds the relationship's id at
   [slots.(2i)], its far end and interned type at [slots.(2i + 1)]
   (see {!pack}), and its record — physically the one [rel_map] holds —
   at [recs.(i)], so a search reads the far end and filters the type
   with no record dereference, and a consumer that needs properties
   finds the record with no second lookup.  A block is never written
   after a graph value holds it — every write builds a new one — but for
   its cost column, a memo written through [costs]. *)
type block = {
  n_out : int;
  slots : int array;
  recs : rel_data array;
  costs : cost_column Atomic.t;
}

(* Entry [i]'s property [key] as a float at [column.(i)], for
   cheapestPath: NaN where the property is missing, is not a number, or
   is NaN.  A block's column is built the first time a cost search
   expands the block for [key], and replaced when one expands it for
   another key.  It is built whole before the [Atomic.set] that
   publishes it, so a domain reading the block sees no column or a full
   one.  Every write builds new blocks, each with no column, so a column
   never outlives the records it was read from. *)
and cost_column = { key : string; column : Float.Array.t }

let no_column = { key = ""; column = Float.Array.create 0 }

let make_block n_out slots recs =
  { n_out; slots; recs; costs = Atomic.make no_column }

(* No cost search fills the shared empty block's column: it has no
   entries to read. *)
let empty_block = make_block 0 [||] [||]

(* A type id takes the low [type_bits] bits of an entry's second slot
   and the far end's id the rest, so node ids stay below 2^42. *)
let type_bits = 20
let type_mask = (1 lsl type_bits) - 1
let max_node_id = max_int lsr type_bits

let[@inline] pack far tid = (far lsl type_bits) lor tid

(* The store maps are dense-id tries ({!Idmap}) keyed by the ids'
   integers: a record or adjacency block is a few array reads away. *)
type t = {
  node_map : node_data Idmap.t;
  rel_map : rel_data Idmap.t;
  (* Every node's adjacency block, the shared [empty_block] for a node
     with no relationships. *)
  adj : block Idmap.t;
  (* Relationship type ids, interned per lineage: a type keeps its id in
     every graph value derived from the one that first filed it. *)
  type_ids : int Smap.t;
  n_type_ids : int;
  label_index : Ids.Node_set.t Smap.t;
  type_index : Ids.Rel_set.t Smap.t;
  (* (label, key) -> value -> nodes; maintained by every node update *)
  prop_indexes : Ids.Node_set.t Vmap.t Pmap.t;
  (* Entity and per-label/per-type cardinalities, maintained
     incrementally alongside the maps above: [Map.cardinal] and
     [Set.cardinal] are O(n), and the planner's statistics ask for
     these counts after every committed write — deriving them on
     demand made every write O(graph) at plan time on large stores. *)
  n_nodes : int;
  n_rels : int;
  label_counts : int Smap.t;
  type_counts : int Smap.t;
  next_node : int;
  next_rel : int;
  (* Monotonic modification stamp drawn from a process-global counter, so
     no two distinct non-empty graph values ever share a version — the
     plan cache keys cardinality estimates on it.  Only [empty] is
     version 0. *)
  version : int;
  (* Change journal: ids touched by mutations, newest first, tagged
     node = 2·id / rel = 2·id + 1.  Because the graph is persistent the
     journal is too: two versions of the same lineage share a physical
     tail, and [delta_between] recovers the entities touched between
     them by walking [chg_len] difference entries and checking that the
     remaining tail is physically the older journal.  Rolled-back
     updates live only in discarded graph values, so their entries are
     unreachable from any surviving version.  The journal is capped:
     appending past [journal_cap] starts a fresh epoch and keeps the
     epoch just closed in [chg_prev], dropping the one before it, so at
     most two epochs stay reachable.  A delta spanning one reset walks
     both; one spanning two reports [None] (callers fall back to full
     recomputation).  [chg_epoch] counts resets along the lineage:
     without it, a [since] with an empty journal (the pristine graph)
     would be physically indistinguishable from the [[]] tail reached
     after walking a post-reset journal, and a delta spanning the reset
     would silently drop every pre-reset entity. *)
  chg : int list;
  chg_len : int;
  chg_epoch : int;
  chg_prev : int list;  (* epoch [chg_epoch - 1] as the reset left it *)
  chg_prev_len : int;
}

(* --- db-hit accounting ----------------------------------------------- *)

(* PROFILE's cost unit: one "db hit" per store access — an entity-record
   fetch (node_data/rel_data, and everything routed through them:
   property reads, labels, endpoints), an adjacency read (one per
   direction: [`Both] reads two), or an index lookup.  An adjacency read
   hands out each neighbour's far end, type and record, so reading a
   neighbour off it costs nothing more.

   Counts are per thread ({!Cypher_obs.Per_thread}), so a profiled run
   reads only its own hits while other connections' threads — on its
   domain or another — touch the store.  [own_db_hits] scopes a thread's
   count to one query and resets it when the query ends, which keeps
   the per-thread store's overflow table from growing with the number
   of connections a long-lived server has served.

   Counting is on while any profiled run is in flight: [counting_depth]
   is a count, not a flag, so one run finishing cannot switch counting
   off under another.  When no run is profiled an access costs one
   atomic load. *)

let counting_depth = Atomic.make 0
let hits : int Cypher_obs.Per_thread.t = Cypher_obs.Per_thread.make 0
let db_hits () = Cypher_obs.Per_thread.get hits
let count_hits n = Cypher_obs.Per_thread.set hits (db_hits () + n)

let own_db_hits f =
  let saved = db_hits () in
  Cypher_obs.Per_thread.set hits 0;
  Fun.protect
    ~finally:(fun () -> Cypher_obs.Per_thread.set hits saved)
    (fun () ->
      let r = f () in
      (r, db_hits ()))

let with_db_hit_counting f =
  Atomic.incr counting_depth;
  Fun.protect ~finally:(fun () -> Atomic.decr counting_depth) f

let db_hit_counting_on () = Atomic.get counting_depth > 0

let[@inline] db_hit () = if Atomic.get counting_depth > 0 then count_hits 1
let[@inline] db_hit_n n = if Atomic.get counting_depth > 0 then count_hits n

let version_counter = ref 0

(* The counter is process-global and the server runs sessions on
   concurrent threads, so the increment must be atomic: two racing
   stamps yielding the same version would defeat every version-keyed
   cache (plan cache, statistics cache, read-only detection). *)
let version_mutex = Mutex.create ()

let stamp g =
  Mutex.lock version_mutex;
  incr version_counter;
  let v = !version_counter in
  Mutex.unlock version_mutex;
  { g with version = v }

let version g = g.version

let empty =
  {
    node_map = Idmap.empty;
    rel_map = Idmap.empty;
    adj = Idmap.empty;
    type_ids = Smap.empty;
    n_type_ids = 0;
    label_index = Smap.empty;
    type_index = Smap.empty;
    prop_indexes = Pmap.empty;
    n_nodes = 0;
    n_rels = 0;
    label_counts = Smap.empty;
    type_counts = Smap.empty;
    next_node = 1;
    next_rel = 1;
    version = 0;
    chg = [];
    chg_len = 0;
    chg_epoch = 0;
    chg_prev = [];
    chg_prev_len = 0;
  }

(* --- change journal --------------------------------------------------- *)

let journal_cap = 1 lsl 16

let journal e g =
  if g.chg_len >= journal_cap then
    {
      g with
      chg = [ e ];
      chg_len = 1;
      chg_epoch = g.chg_epoch + 1;
      chg_prev = g.chg;
      chg_prev_len = g.chg_len;
    }
  else { g with chg = e :: g.chg; chg_len = g.chg_len + 1 }

let nkey = Ids.node_to_int
let rkey = Ids.rel_to_int
let jnode n g = journal (nkey n lsl 1) g
let jrel r g = journal ((rkey r lsl 1) lor 1) g

let props_of_list kvs =
  List.fold_left
    (fun m (k, v) -> if Value.is_null v then m else Smap.add k v m)
    Smap.empty kvs

(* The label index and its cardinalities change together; both updates
   are membership-guarded so a duplicated label in the input cannot
   skew the counts. *)
let index_add_node label n (idx, counts) =
  let grew = ref false in
  let idx =
    Smap.update label
      (function
        | None ->
          grew := true;
          Some (Ids.Node_set.singleton n)
        | Some s ->
          if Ids.Node_set.mem n s then Some s
          else begin
            grew := true;
            Some (Ids.Node_set.add n s)
          end)
      idx
  in
  let counts =
    if !grew then
      Smap.update label (fun c -> Some (1 + Option.value c ~default:0)) counts
    else counts
  in
  (idx, counts)

let index_remove_node label n (idx, counts) =
  let shrank = ref false in
  let idx =
    Smap.update label
      (function
        | None -> None
        | Some s ->
          if not (Ids.Node_set.mem n s) then Some s
          else begin
            shrank := true;
            let s = Ids.Node_set.remove n s in
            if Ids.Node_set.is_empty s then None else Some s
          end)
      idx
  in
  let counts =
    if !shrank then
      Smap.update label
        (fun c ->
          match Option.value c ~default:1 - 1 with 0 -> None | k -> Some k)
        counts
    else counts
  in
  (idx, counts)

(* Same pairing for the relationship-type index. *)
let index_add_rel rel_type r (idx, counts) =
  ( Smap.update rel_type
      (function
        | None -> Some (Ids.Rel_set.singleton r)
        | Some s -> Some (Ids.Rel_set.add r s))
      idx,
    Smap.update rel_type (fun c -> Some (1 + Option.value c ~default:0)) counts
  )

let index_remove_rel rel_type r (idx, counts) =
  ( Smap.update rel_type
      (function
        | None -> None
        | Some s ->
          let s = Ids.Rel_set.remove r s in
          if Ids.Rel_set.is_empty s then None else Some s)
      idx,
    Smap.update rel_type
      (fun c ->
        match Option.value c ~default:1 - 1 with 0 -> None | k -> Some k)
      counts )

(* Adds/removes one node's contributions to every matching (label, key)
   index. *)
let pidx_update ~add g n (data : node_data) =
  let update_entry indexes (label, key) =
    if Sset.mem label data.labels then
      match Smap.find_opt key data.node_props with
      | None -> indexes
      | Some v ->
        Pmap.update (label, key)
          (Option.map
             (Vmap.update v (fun set ->
                  let set = Option.value set ~default:Ids.Node_set.empty in
                  let set =
                    if add then Ids.Node_set.add n set
                    else Ids.Node_set.remove n set
                  in
                  if Ids.Node_set.is_empty set then None else Some set)))
          indexes
    else indexes
  in
  {
    g with
    prop_indexes =
      List.fold_left update_entry g.prop_indexes
        (List.map fst (Pmap.bindings g.prop_indexes));
  }

let add_node ?(labels = []) ?(props = []) g =
  let id = Ids.node_of_int g.next_node in
  let data = { labels = Sset.of_list labels; node_props = props_of_list props } in
  let label_index, label_counts =
    List.fold_left
      (fun acc l -> index_add_node l id acc)
      (g.label_index, g.label_counts)
      labels
  in
  let g =
    {
      g with
      node_map = Idmap.add (nkey id) data g.node_map;
      adj = Idmap.add (nkey id) empty_block g.adj;
      label_index;
      label_counts;
      n_nodes = g.n_nodes + 1;
      next_node = g.next_node + 1;
    }
  in
  (stamp (jnode id (pidx_update ~add:true g id data)), id)

let mem_node g n = Idmap.mem (nkey n) g.node_map
let mem_rel g r = Idmap.mem (rkey r) g.rel_map

let rel_record rel_id ~src ~tgt ~rel_type rel_props =
  { rel_id; src; tgt; rel_type; rel_props }

(* --- adjacency blocks -------------------------------------------------- *)

let block g n =
  match Idmap.find (nkey n) g.adj with
  | b -> b
  | exception Not_found -> empty_block

(* [g] with relationship type [t] interned, and its id. *)
let intern_type g t =
  match Smap.find_opt t g.type_ids with
  | Some tid -> (g, tid)
  | None ->
    let tid = g.n_type_ids in
    if tid > type_mask then invalid_arg "Graph: more than 2^20 relationship types";
    ({ g with type_ids = Smap.add t tid g.type_ids; n_type_ids = tid + 1 }, tid)

(* The second slot of [d]'s entry in the block of [n], one of its
   endpoints: the other endpoint (for a loop, [n]) and the type id. *)
let entry_end d n tid =
  let far = if Ids.equal_node d.src n then d.tgt else d.src in
  if nkey far > max_node_id then invalid_arg "Graph: node id beyond 2^42";
  pack (nkey far) tid

(* [b] with [d] filed first among its outgoing ([~out:true]) or its
   incoming entries, [e] its second slot. *)
let block_add ~out d e b =
  let k = Array.length b.recs and at = if out then 0 else b.n_out in
  let slots = Array.make (2 * (k + 1)) 0 and recs = Array.make (k + 1) d in
  Array.blit b.slots 0 slots 0 (2 * at);
  slots.(2 * at) <- rkey d.rel_id;
  slots.((2 * at) + 1) <- e;
  Array.blit b.slots (2 * at) slots (2 * (at + 1)) (2 * (k - at));
  Array.blit b.recs 0 recs 0 at;
  Array.blit b.recs at recs (at + 1) (k - at);
  make_block (if out then b.n_out + 1 else b.n_out) slots recs

(* [b] without the entries of relationship [r]: two for a loop. *)
let block_remove r b =
  let r = rkey r and k = Array.length b.recs in
  let gone = ref 0 in
  for i = 0 to k - 1 do
    if b.slots.(2 * i) = r then incr gone
  done;
  if !gone = 0 then b
  else if !gone = k then empty_block
  else begin
    let slots = Array.make (2 * (k - !gone)) 0
    and recs = Array.make (k - !gone) b.recs.(0) in
    let j = ref 0 and n_out = ref 0 in
    for i = 0 to k - 1 do
      if b.slots.(2 * i) <> r then begin
        slots.(2 * !j) <- b.slots.(2 * i);
        slots.((2 * !j) + 1) <- b.slots.((2 * i) + 1);
        recs.(!j) <- b.recs.(i);
        if i < b.n_out then incr n_out;
        incr j
      end
    done;
    make_block !n_out slots recs
  end

(* [b] with [d] in place of its relationship's record: the int slots are
   shared, the record array copied, and the cost column left behind. *)
let block_replace d b =
  let r = rkey d.rel_id in
  make_block b.n_out b.slots
    (Array.mapi (fun i e -> if b.slots.(2 * i) = r then d else e) b.recs)

let update_block n f adj = Idmap.update (nkey n) (Option.map f) adj

let add_rel ~src ~tgt ~rel_type ?(props = []) g =
  if not (mem_node g src && mem_node g tgt) then
    invalid_arg "Graph.add_rel: endpoint not in graph";
  let id = Ids.rel_of_int g.next_rel in
  let data = rel_record id ~src ~tgt ~rel_type (props_of_list props) in
  let g, tid = intern_type g rel_type in
  let add_out = block_add ~out:true data (entry_end data src tid)
  and add_in = block_add ~out:false data (entry_end data tgt tid) in
  let adj =
    if Ids.equal_node src tgt then
      update_block src (fun b -> add_in (add_out b)) g.adj
    else update_block tgt add_in (update_block src add_out g.adj)
  in
  let type_index, type_counts =
    index_add_rel rel_type id (g.type_index, g.type_counts)
  in
  ( stamp
      (jrel id
         {
           g with
           rel_map = Idmap.add (rkey id) data g.rel_map;
           adj;
           type_index;
           type_counts;
           n_rels = g.n_rels + 1;
           next_rel = g.next_rel + 1;
         }),
    id )

let node_data g n =
  db_hit ();
  Idmap.find (nkey n) g.node_map

let rel_data g r =
  db_hit ();
  Idmap.find (rkey r) g.rel_map

type direction = [ `Out | `In | `Both ]

type type_filter = Any | Only of int list

let any_type = Any

let type_filter g = function
  | [] -> Any
  | ts -> Only (List.filter_map (fun t -> Smap.find_opt t g.type_ids) ts)

let rec admits tid = function [] -> false | t :: ts -> t = tid || admits tid ts

(* What an enumeration hands on for each entry: the relationship, its
   far end and record, and for a cost search the entry's cost off the
   block's cost column. *)
type visit =
  | Records of (Ids.rel -> Ids.node -> rel_data -> unit)
  | Costs of Float.Array.t * (Ids.rel -> Ids.node -> float -> rel_data -> unit)

(* Entries [lo, hi) of [b] that pass [types], minus those whose far end
   is [skip]. *)
let[@inline] iter_range b lo hi ~skip types visit =
  for i = lo to hi - 1 do
    let e = Array.unsafe_get b.slots ((2 * i) + 1) in
    let far = e lsr type_bits in
    if
      far <> skip
      && match types with Any -> true | Only ts -> admits (e land type_mask) ts
    then begin
      let r = Ids.rel_of_int (Array.unsafe_get b.slots (2 * i))
      and m = Ids.node_of_int far
      and d = Array.unsafe_get b.recs i in
      match visit with
      | Records f -> f r m d
      | Costs (column, f) -> f r m (Float.Array.unsafe_get column i) d
    end
  done

(* Visits the entries a read of [n]'s block [b] in [dir] enumerates. *)
let[@inline] iter_entries b n (dir : [< direction ]) types visit =
  let k = Array.length b.recs in
  match dir with
  | `Out ->
    db_hit ();
    iter_range b 0 b.n_out ~skip:(-1) types visit
  | `In ->
    db_hit ();
    iter_range b b.n_out k ~skip:(-1) types visit
  | `Both ->
    (* a loop's incoming entry repeats its outgoing one *)
    db_hit_n 2;
    iter_range b 0 b.n_out ~skip:(-1) types visit;
    iter_range b b.n_out k ~skip:(nkey n) types visit

let iter_adjacent g n dir types f = iter_entries (block g n) n dir types (Records f)

(* [b]'s cost column for [key], built and published if [b] has none for
   it.  Two domains may build the same column at once: each reads the
   one it built, and the last to publish wins. *)
let cost_column b key =
  let c = Atomic.get b.costs in
  if c != no_column && String.equal c.key key then c.column
  else begin
    let column =
      Float.Array.init (Array.length b.recs) (fun i ->
          match Smap.find key (Array.unsafe_get b.recs i).rel_props with
          | Value.Int c -> float_of_int c
          | Value.Float f -> f
          | _ | exception Not_found -> Float.nan)
    in
    Atomic.set b.costs { key; column };
    column
  end

let iter_adjacent_costs g n dir types key f =
  let b = block g n in
  let column =
    if Array.length b.recs = 0 then no_column.column else cost_column b key
  in
  iter_entries b n dir types (Costs (column, f))

let degree g n (dir : [< direction ]) =
  let b = block g n in
  let k = Array.length b.recs in
  match dir with
  | `Out ->
    db_hit ();
    b.n_out
  | `In ->
    db_hit ();
    k - b.n_out
  | `Both ->
    db_hit_n 2;
    let c = ref b.n_out in
    for i = b.n_out to k - 1 do
      if b.slots.((2 * i) + 1) lsr type_bits <> nkey n then incr c
    done;
    !c

(* [g] without relationship [data] — record, type index entry and the
   entries in its endpoints' blocks, but for the block of [skip] —
   journalled but not stamped. *)
let unlink ?skip g data =
  let r = data.rel_id in
  let type_index, type_counts =
    index_remove_rel data.rel_type r (g.type_index, g.type_counts)
  in
  let drop n adj =
    match skip with
    | Some s when Ids.equal_node s n -> adj
    | _ -> update_block n (block_remove r) adj
  in
  let adj =
    if Ids.equal_node data.src data.tgt then drop data.src g.adj
    else drop data.tgt (drop data.src g.adj)
  in
  jrel r
    {
      g with
      rel_map = Idmap.remove (rkey r) g.rel_map;
      adj;
      type_index;
      type_counts;
      n_rels = g.n_rels - 1;
    }

let delete_rel g r =
  match Idmap.find_opt (rkey r) g.rel_map with
  | None -> g
  | Some data -> stamp (unlink g data)

let remove_node_raw g n =
  match Idmap.find_opt (nkey n) g.node_map with
  | None -> g
  | Some data ->
    let g = pidx_update ~add:false g n data in
    let label_index, label_counts =
      Sset.fold
        (fun l acc -> index_remove_node l n acc)
        data.labels
        (g.label_index, g.label_counts)
    in
    stamp
      (jnode n
         {
           g with
           node_map = Idmap.remove (nkey n) g.node_map;
           adj = Idmap.remove (nkey n) g.adj;
           label_index;
           label_counts;
           n_nodes = g.n_nodes - 1;
         })

(* Reads both parts of the node's block: two hits, as [`Both]. *)
let delete_node g n =
  if not (mem_node g n) then Ok g
  else begin
    db_hit_n 2;
    if Array.length (block g n).recs > 0 then
      Error
        (Format.asprintf
           "cannot delete %a: it still has relationships (use DETACH DELETE)"
           Ids.pp_node n)
    else Ok (remove_node_raw g n)
  end

(* Each incident relationship leaves its far end's block; the node's
   own block goes with the node. *)
let detach_delete_node g n =
  if not (mem_node g n) then g
  else begin
    db_hit_n 2;
    let b = block g n in
    let g = ref g in
    Array.iteri
      (fun i d ->
        if i < b.n_out || not (Ids.equal_node d.src n) then g := unlink ~skip:n !g d)
      b.recs;
    remove_node_raw !g n
  end

let update_node g n f =
  match Idmap.find_opt (nkey n) g.node_map with
  | None -> g
  | Some old_data ->
    let new_data = f old_data in
    let g = pidx_update ~add:false g n old_data in
    let g = { g with node_map = Idmap.add (nkey n) new_data g.node_map } in
    stamp (jnode n (pidx_update ~add:true g n new_data))

(* [f] keeps the id, endpoints and type; the new record replaces the old
   one in [rel_map] and in both endpoint blocks, while older graph values
   keep the old record everywhere. *)
let update_rel g r f =
  match Idmap.find_opt (rkey r) g.rel_map with
  | None -> g
  | Some old ->
    let d = f old in
    let adj = update_block old.src (block_replace d) g.adj in
    let adj =
      if Ids.equal_node old.src old.tgt then adj
      else update_block old.tgt (block_replace d) adj
    in
    stamp (jrel r { g with rel_map = Idmap.add (rkey r) d g.rel_map; adj })

let replace_rel g d =
  match Idmap.find_opt (rkey d.rel_id) g.rel_map with
  | Some old
    when Ids.equal_node old.src d.src && Ids.equal_node old.tgt d.tgt
         && String.equal old.rel_type d.rel_type ->
    update_rel g d.rel_id (fun _ -> d)
  | _ -> invalid_arg "Graph.replace_rel: no such relationship"

let set_node_prop g n k v =
  update_node g n (fun d ->
      {
        d with
        node_props =
          (if Value.is_null v then Smap.remove k d.node_props
           else Smap.add k v d.node_props);
      })

let set_rel_prop g r k v =
  update_rel g r (fun d ->
      {
        d with
        rel_props =
          (if Value.is_null v then Smap.remove k d.rel_props
           else Smap.add k v d.rel_props);
      })

let remove_node_prop g n k = set_node_prop g n k Value.Null
let remove_rel_prop g r k = set_rel_prop g r k Value.Null

let add_label g n l =
  let g = update_node g n (fun d -> { d with labels = Sset.add l d.labels }) in
  let label_index, label_counts =
    index_add_node l n (g.label_index, g.label_counts)
  in
  { g with label_index; label_counts }

let remove_label g n l =
  let g = update_node g n (fun d -> { d with labels = Sset.remove l d.labels }) in
  let label_index, label_counts =
    index_remove_node l n (g.label_index, g.label_counts)
  in
  { g with label_index; label_counts }

let labels g n = Sset.elements (node_data g n).labels
let has_label g n l = Sset.mem l (node_data g n).labels

(* Property reads allocate nothing: [Smap.find_opt] would box each value
   found in an option. *)
let node_prop g n k =
  match Smap.find k (node_data g n).node_props with
  | v -> v
  | exception Not_found -> Value.Null

let rel_prop g r k =
  match Smap.find k (rel_data g r).rel_props with
  | v -> v
  | exception Not_found -> Value.Null

let node_props g n = (node_data g n).node_props
let rel_props g r = (rel_data g r).rel_props
let src g r = (rel_data g r).src
let tgt g r = (rel_data g r).tgt
let rel_type g r = (rel_data g r).rel_type

(* Whole-store scans count one hit per entity touched: a full
   AllNodesScan is as expensive as fetching every record. *)
let nodes g =
  db_hit_n g.n_nodes;
  Idmap.fold_right (fun n _ ns -> Ids.node_of_int n :: ns) g.node_map []

let rels g =
  db_hit_n g.n_rels;
  Idmap.fold_right (fun r _ rs -> Ids.rel_of_int r :: rs) g.rel_map []
let node_count g = g.n_nodes
let rel_count g = g.n_rels

let other_end g r n =
  let d = rel_data g r in
  if Ids.equal_node d.src n then d.tgt else d.src

(* Label and type scans, like whole-store scans, cost one hit per entity
   they surface (plus one for the index lookup itself). *)
let nodes_with_label g l =
  db_hit ();
  match Smap.find_opt l g.label_index with
  | Some s ->
    let ns = Ids.Node_set.elements s in
    db_hit_n (List.length ns);
    ns
  | None -> []

let rels_with_type g t =
  db_hit ();
  match Smap.find_opt t g.type_index with
  | Some s ->
    let rs = Ids.Rel_set.elements s in
    db_hit_n (List.length rs);
    rs
  | None -> []

let label_count g l = Option.value (Smap.find_opt l g.label_counts) ~default:0
let type_count g t = Option.value (Smap.find_opt t g.type_counts) ~default:0

let all_labels g = List.map fst (Smap.bindings g.label_index)
let all_types g = List.map fst (Smap.bindings g.type_index)

let insert_node g n data =
  let g =
    match Idmap.find_opt (nkey n) g.node_map with
    | Some old_data -> pidx_update ~add:false g n old_data
    | None -> g
  in
  let fresh = not (Idmap.mem (nkey n) g.node_map) in
  let prev_labels =
    match Idmap.find_opt (nkey n) g.node_map with
    | Some d -> d.labels
    | None -> Sset.empty
  in
  let acc =
    Sset.fold
      (fun l acc -> index_remove_node l n acc)
      prev_labels
      (g.label_index, g.label_counts)
  in
  let label_index, label_counts =
    Sset.fold (fun l acc -> index_add_node l n acc) data.labels acc
  in
  let adj =
    if Idmap.mem (nkey n) g.adj then g.adj
    else Idmap.add (nkey n) empty_block g.adj
  in
  let g =
    {
      g with
      node_map = Idmap.add (nkey n) data g.node_map;
      adj;
      label_index;
      label_counts;
      n_nodes = (if fresh then g.n_nodes + 1 else g.n_nodes);
      next_node = max g.next_node (Ids.node_to_int n + 1);
    }
  in
  stamp (jnode n (pidx_update ~add:true g n data))

(* A block [insert_rels] rebuilds: the node's old block, the entries
   each part gains (counted up, then counted down as they are filled),
   and the new block's outgoing count and arrays. *)
type refill = {
  old : block;
  mutable n_new_out : int;
  mutable n_new_in : int;
  mutable n_out : int;
  mutable slots : int array;
  mutable recs : rel_data array;
}

(* A table keyed by node ids, each its own hash: iterating it visits the
   ids in nearly ascending order, so [insert_rels] files its blocks in
   the trie leaf by leaf, and a leaf's path copies die young. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)

(* The records of [ds] grouped by [key], each group newest first. *)
let group_by key ds =
  let groups = Hashtbl.create 64 in
  List.iter
    (fun d ->
      let k = key d in
      Hashtbl.replace groups k
        (d :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    ds;
  groups

(* The same graph as inserting the records one by one, but each endpoint
   block and type set is updated once per batch rather than once per
   record: a snapshot load files every relationship through here. *)
let insert_rels g ds =
  List.iter
    (fun d ->
      if not (mem_node g d.src && mem_node g d.tgt) then
        invalid_arg "Graph.insert_rels: endpoint not in graph")
    ds;
  let g = List.fold_left (fun g d -> delete_rel g d.rel_id) g ds in
  let rel_map =
    List.fold_left
      (fun m d ->
        Idmap.update (rkey d.rel_id)
          (function
            | None -> Some d
            | Some _ -> invalid_arg "Graph.insert_rels: duplicate id")
          m)
      g.rel_map ds
  in
  let g = List.fold_left (fun g d -> fst (intern_type g d.rel_type)) g ds in
  (* Each endpoint's block is rebuilt once: counted, sized with its old
     entries in place, then filled from the back of each part, so the
     last record of the batch comes first. *)
  let fresh = Itbl.create 64 in
  let count n ~out =
    let f =
      match Itbl.find fresh (nkey n) with
      | f -> f
      | exception Not_found ->
        let f =
          { old = block g n; n_new_out = 0; n_new_in = 0; n_out = 0; slots = [||];
            recs = [||] }
        in
        Itbl.add fresh (nkey n) f;
        f
    in
    if out then f.n_new_out <- f.n_new_out + 1 else f.n_new_in <- f.n_new_in + 1
  in
  List.iter
    (fun d ->
      count d.src ~out:true;
      count d.tgt ~out:false)
    ds;
  Itbl.iter
    (fun _ f ->
      let b = f.old and d = List.hd ds in
      let k = Array.length b.recs in
      let len = k + f.n_new_out + f.n_new_in in
      f.n_out <- b.n_out + f.n_new_out;
      let in_at = f.n_out + f.n_new_in in
      f.slots <- Array.make (2 * len) 0;
      f.recs <- Array.make len d;
      Array.blit b.slots 0 f.slots (2 * f.n_new_out) (2 * b.n_out);
      Array.blit b.recs 0 f.recs f.n_new_out b.n_out;
      Array.blit b.slots (2 * b.n_out) f.slots (2 * in_at) (2 * (k - b.n_out));
      Array.blit b.recs b.n_out f.recs in_at (k - b.n_out))
    fresh;
  let put d n ~out tid =
    let f = Itbl.find fresh (nkey n) in
    let i =
      if out then begin
        f.n_new_out <- f.n_new_out - 1;
        f.n_new_out
      end
      else begin
        f.n_new_in <- f.n_new_in - 1;
        f.n_out + f.n_new_in
      end
    in
    f.slots.(2 * i) <- rkey d.rel_id;
    f.slots.((2 * i) + 1) <- entry_end d n tid;
    f.recs.(i) <- d
  in
  List.iter
    (fun d ->
      let tid = Smap.find d.rel_type g.type_ids in
      put d d.src ~out:true tid;
      put d d.tgt ~out:false tid)
    ds;
  let adj =
    Itbl.fold
      (fun n f adj ->
        Idmap.add n (make_block f.n_out f.slots f.recs) adj)
      fresh g.adj
  in
  let type_index, type_counts =
    Hashtbl.fold
      (fun t group (idx, counts) ->
        let ids = Ids.Rel_set.of_list (List.map (fun d -> d.rel_id) group) in
        ( Smap.update t
            (fun s ->
              Some
                (Ids.Rel_set.union ids
                   (Option.value ~default:Ids.Rel_set.empty s)))
            idx,
          Smap.update t
            (fun c -> Some (List.length group + Option.value c ~default:0))
            counts ))
      (group_by (fun d -> d.rel_type) ds)
      (g.type_index, g.type_counts)
  in
  let g =
    {
      g with
      rel_map;
      adj;
      type_index;
      type_counts;
      n_rels = g.n_rels + List.length ds;
      next_rel =
        List.fold_left
          (fun m d -> max m (Ids.rel_to_int d.rel_id + 1))
          g.next_rel ds;
    }
  in
  stamp (List.fold_left (fun g d -> jrel d.rel_id g) g ds)

let next_ids g = (g.next_node, g.next_rel)

let reserve_ids g ~next_node ~next_rel =
  if next_node <= g.next_node && next_rel <= g.next_rel then g
  else
    stamp
      {
        g with
        next_node = max g.next_node next_node;
        next_rel = max g.next_rel next_rel;
      }

let union g1 g2 =
  (* Remap g2's identifiers above g1's counters, preserving structure;
     insert_node keeps every index (label and property) maintained. *)
  let remap_node n = Ids.node_of_int (Ids.node_to_int n + g1.next_node) in
  let g =
    Idmap.fold
      (fun n d g -> insert_node g (remap_node (Ids.node_of_int n)) d)
      g2.node_map g1
  in
  Idmap.fold
    (fun _ d g ->
      let g, _ =
        add_rel ~src:(remap_node d.src) ~tgt:(remap_node d.tgt)
          ~rel_type:d.rel_type
          ~props:(Smap.bindings d.rel_props)
          g
      in
      g)
    g2.rel_map g

let pp ppf g =
  let pp_props ppf props =
    if not (Smap.is_empty props) then
      Format.fprintf ppf " {%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf (k, v) -> Format.fprintf ppf "%s: %a" k Value.pp v))
        (Smap.bindings props)
  in
  Idmap.iter
    (fun n d ->
      Format.fprintf ppf "(%a%t%a)@." Ids.pp_node (Ids.node_of_int n)
        (fun ppf ->
          Sset.iter (fun l -> Format.fprintf ppf ":%s" l) d.labels)
        pp_props d.node_props)
    g.node_map;
  Idmap.iter
    (fun _ d ->
      Format.fprintf ppf "(%a)-[%a:%s%a]->(%a)@." Ids.pp_node d.src Ids.pp_rel
        d.rel_id d.rel_type pp_props d.rel_props Ids.pp_node d.tgt)
    g.rel_map

let equal_structure g1 g2 =
  String.equal (Format.asprintf "%a" pp g1) (Format.asprintf "%a" pp g2)


(* --- property indexes ------------------------------------------------ *)

let has_index g ~label ~key = Pmap.mem (label, key) g.prop_indexes

let indexes g = List.map fst (Pmap.bindings g.prop_indexes)

let create_index g ~label ~key =
  if has_index g ~label ~key then g
  else begin
    let entries =
      List.fold_left
        (fun vmap n ->
          match Smap.find_opt key (node_data g n).node_props with
          | None -> vmap
          | Some v ->
            Vmap.update v
              (fun set ->
                Some
                  (Ids.Node_set.add n
                     (Option.value set ~default:Ids.Node_set.empty)))
              vmap)
        Vmap.empty (nodes_with_label g label)
    in
    stamp { g with prop_indexes = Pmap.add (label, key) entries g.prop_indexes }
  end

let drop_index g ~label ~key =
  stamp { g with prop_indexes = Pmap.remove (label, key) g.prop_indexes }

(* --- deltas between versions ----------------------------------------- *)

type delta = {
  d_nodes_added : Ids.node list;
  d_nodes_changed : Ids.node list;
  d_nodes_removed : Ids.node list;
  d_rels_added : Ids.rel list;
  d_rels_changed : Ids.rel list;
  d_rels_removed : Ids.rel list;
}

let empty_delta =
  {
    d_nodes_added = [];
    d_nodes_changed = [];
    d_nodes_removed = [];
    d_rels_added = [];
    d_rels_changed = [];
    d_rels_removed = [];
  }

let delta_is_empty d =
  d.d_nodes_added = [] && d.d_nodes_changed = [] && d.d_nodes_removed = []
  && d.d_rels_added = [] && d.d_rels_changed = [] && d.d_rels_removed = []

let delta_size d =
  List.length d.d_nodes_added + List.length d.d_nodes_changed
  + List.length d.d_nodes_removed + List.length d.d_rels_added
  + List.length d.d_rels_changed + List.length d.d_rels_removed

let delta_between ~since g =
  (* [since]'s epoch as [g] holds it, and the entries [g] filed after a
     reset: the current epoch alone, or across one reset the epoch kept
     in [chg_prev] and the whole current one.  Two resets apart, or from
     lineages that reset a different number of times, [g] holds no such
     journal: the walked tail could alias [[]] across a dropped epoch,
     so refuse rather than report a delta missing every entity it held. *)
  let span =
    if since.chg_epoch = g.chg_epoch then Some (g.chg, g.chg_len, [])
    else if since.chg_epoch = g.chg_epoch - 1 then
      Some (g.chg_prev, g.chg_prev_len, g.chg)
    else None
  in
  match span with
  | _ when since == g -> Some empty_delta
  | None -> None
  | Some (older, older_len, newer) ->
    let steps = older_len - since.chg_len in
    if steps < 0 then None
    else
      (* Collect the entries past the reset and the [steps] newest of
         [since]'s epoch, deduplicated, and check that what remains is
         physically the older journal — the only way the two versions
         belong to the same lineage. *)
      let touched = Hashtbl.create (min 64 (steps + 1)) in
      List.iter (fun e -> Hashtbl.replace touched e ()) newer;
      let rec walk k l =
        if k = 0 then
          if l == since.chg then true
          else false
        else
          match l with
          | [] -> false
          | e :: tl ->
            Hashtbl.replace touched e ();
            walk (k - 1) tl
      in
      if not (walk steps older) then None
      else begin
        let d = ref empty_delta in
        Hashtbl.iter
          (fun e () ->
            if e land 1 = 0 then begin
              let n = Ids.node_of_int (e lsr 1) in
              match (mem_node since n, mem_node g n) with
              | false, true ->
                d := { !d with d_nodes_added = n :: !d.d_nodes_added }
              | true, false ->
                d := { !d with d_nodes_removed = n :: !d.d_nodes_removed }
              | true, true ->
                d := { !d with d_nodes_changed = n :: !d.d_nodes_changed }
              | false, false -> () (* created and deleted within the span *)
            end
            else begin
              let r = Ids.rel_of_int (e lsr 1) in
              match (mem_rel since r, mem_rel g r) with
              | false, true -> d := { !d with d_rels_added = r :: !d.d_rels_added }
              | true, false ->
                d := { !d with d_rels_removed = r :: !d.d_rels_removed }
              | true, true ->
                d := { !d with d_rels_changed = r :: !d.d_rels_changed }
              | false, false -> ()
            end)
          touched;
        Some !d
      end

let index_seek g ~label ~key v =
  db_hit ();
  match Pmap.find_opt (label, key) g.prop_indexes with
  | None -> raise Not_found
  | Some vmap -> (
    match Vmap.find_opt v vmap with
    | Some set ->
      let ns = Ids.Node_set.elements set in
      db_hit_n (List.length ns);
      ns
    | None -> [])
