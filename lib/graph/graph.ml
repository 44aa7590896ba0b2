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

(* The store maps are dense-id tries ({!Idmap}) keyed by the ids'
   integers: a record or adjacency list is a few array reads away. *)
type t = {
  node_map : node_data Idmap.t;
  rel_map : rel_data Idmap.t;
  (* Adjacency lists: the relationship records themselves, in reverse
     insertion order.  These are the "direct references from each node
     via its edges to the related nodes" of Section 2: each entry is
     physically the record [rel_map] holds under its [rel_id], so a
     neighbour's other end, type and properties are read off the entry
     with no second lookup.  Every update of a relationship rewrites its
     record in all three places. *)
  out_adj : rel_data list Idmap.t;
  in_adj : rel_data list Idmap.t;
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
     appending past [journal_cap] starts a fresh epoch, after which
     deltas spanning the reset report [None] (callers fall back to full
     recomputation).  [chg_epoch] counts resets along the lineage:
     without it, a [since] with an empty journal (the pristine graph)
     would be physically indistinguishable from the [[]] tail reached
     after walking a post-reset journal, and a delta spanning the reset
     would silently drop every pre-reset entity. *)
  chg : int list;
  chg_len : int;
  chg_epoch : int;
}

(* --- db-hit accounting ----------------------------------------------- *)

(* PROFILE's cost unit: one "db hit" per store access — an entity-record
   fetch (node_data/rel_data, and everything routed through them:
   property reads, labels, endpoints), an adjacency-list read, or an
   index lookup.  An adjacency-list read hands out the relationship
   records themselves, so reading a neighbour off it costs nothing
   more.

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
    out_adj = Idmap.empty;
    in_adj = Idmap.empty;
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
  }

(* --- change journal --------------------------------------------------- *)

let journal_cap = 1 lsl 16

let journal e g =
  if g.chg_len >= journal_cap then
    { g with chg = [ e ]; chg_len = 1; chg_epoch = g.chg_epoch + 1 }
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
      out_adj = Idmap.add (nkey id) [] g.out_adj;
      in_adj = Idmap.add (nkey id) [] g.in_adj;
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

let adj_cons n d adj =
  Idmap.update (nkey n)
    (function None -> Some [ d ] | Some ds -> Some (d :: ds))
    adj

let adj_remove n r adj =
  Idmap.update (nkey n)
    (function
      | None -> None
      | Some ds ->
        Some (List.filter (fun d -> not (Ids.equal_rel r d.rel_id)) ds))
    adj

(* Swaps [old] for [d] in place, sharing the list's tail past it. *)
let adj_replace n old d adj =
  let rec swap = function
    | [] -> []
    | e :: tl -> if e == old then d :: tl else e :: swap tl
  in
  Idmap.update (nkey n) (Option.map swap) adj

let add_rel ~src ~tgt ~rel_type ?(props = []) g =
  if not (mem_node g src && mem_node g tgt) then
    invalid_arg "Graph.add_rel: endpoint not in graph";
  let id = Ids.rel_of_int g.next_rel in
  let data = rel_record id ~src ~tgt ~rel_type (props_of_list props) in
  let type_index, type_counts =
    index_add_rel rel_type id (g.type_index, g.type_counts)
  in
  ( stamp
      (jrel id
         {
           g with
           rel_map = Idmap.add (rkey id) data g.rel_map;
           out_adj = adj_cons src data g.out_adj;
           in_adj = adj_cons tgt data g.in_adj;
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

let adj_list adj n =
  db_hit ();
  try Idmap.find (nkey n) adj with Not_found -> []

let adjacent g n (dir : [< direction ]) =
  match dir with
  | `Out -> adj_list g.out_adj n
  | `In -> adj_list g.in_adj n
  | `Both ->
    (* loops already appear among the outgoing records *)
    adj_list g.out_adj n
    @ List.filter
        (fun d -> not (Ids.equal_node d.src n))
        (adj_list g.in_adj n)

let far_end d n = if Ids.equal_node d.src n then d.tgt else d.src

let rel_ids ds = List.map (fun d -> d.rel_id) ds
let out_rels g n = rel_ids (adjacent g n `Out)
let in_rels g n = rel_ids (adjacent g n `In)
(* [degree] and [delete_node] read the two lists as [`Both] does, at
   the same two hits, without building the joined list. *)
let degree g n =
  let outs = adjacent g n `Out and ins = adjacent g n `In in
  List.fold_left
    (fun c d -> if Ids.equal_node d.src n then c else c + 1)
    (List.length outs) ins

let delete_rel g r =
  match Idmap.find_opt (rkey r) g.rel_map with
  | None -> g
  | Some data ->
    let type_index, type_counts =
      index_remove_rel data.rel_type r (g.type_index, g.type_counts)
    in
    stamp
      (jrel r
         {
           g with
           rel_map = Idmap.remove (rkey r) g.rel_map;
           out_adj = adj_remove data.src r g.out_adj;
           in_adj = adj_remove data.tgt r g.in_adj;
           type_index;
           type_counts;
           n_rels = g.n_rels - 1;
         })

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
           out_adj = Idmap.remove (nkey n) g.out_adj;
           in_adj = Idmap.remove (nkey n) g.in_adj;
           label_index;
           label_counts;
           n_nodes = g.n_nodes - 1;
         })

let delete_node g n =
  if not (mem_node g n) then Ok g
  else if
    match (adjacent g n `Out, adjacent g n `In) with
    | [], [] -> false
    | _ -> true
  then
    Error
      (Format.asprintf
         "cannot delete %a: it still has relationships (use DETACH DELETE)"
         Ids.pp_node n)
  else Ok (remove_node_raw g n)

let detach_delete_node g n =
  if not (mem_node g n) then g
  else
    let incident = adjacent g n `Both in
    let g = List.fold_left (fun g d -> delete_rel g d.rel_id) g incident in
    remove_node_raw g n

let update_node g n f =
  match Idmap.find_opt (nkey n) g.node_map with
  | None -> g
  | Some old_data ->
    let new_data = f old_data in
    let g = pidx_update ~add:false g n old_data in
    let g = { g with node_map = Idmap.add (nkey n) new_data g.node_map } in
    stamp (jnode n (pidx_update ~add:true g n new_data))

(* [f] keeps the id and endpoints; the new record replaces the old one
   in [rel_map] and in both endpoint lists, while older graph values keep
   the old record everywhere. *)
let update_rel g r f =
  match Idmap.find_opt (rkey r) g.rel_map with
  | None -> g
  | Some old ->
    let d = f old in
    stamp
      (jrel r
         {
           g with
           rel_map = Idmap.add (rkey r) d g.rel_map;
           out_adj = adj_replace old.src old d g.out_adj;
           in_adj = adj_replace old.tgt old d g.in_adj;
         })

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

let node_prop g n k =
  match Smap.find_opt k (node_data g n).node_props with
  | Some v -> v
  | None -> Value.Null

let rel_prop g r k =
  match Smap.find_opt k (rel_data g r).rel_props with
  | Some v -> v
  | None -> Value.Null

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

let other_end g r n = far_end (rel_data g r) n

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
  let adj m = if Idmap.mem (nkey n) m then m else Idmap.add (nkey n) [] m in
  let g =
    {
      g with
      node_map = Idmap.add (nkey n) data g.node_map;
      out_adj = adj g.out_adj;
      in_adj = adj g.in_adj;
      label_index;
      label_counts;
      n_nodes = (if fresh then g.n_nodes + 1 else g.n_nodes);
      next_node = max g.next_node (Ids.node_to_int n + 1);
    }
  in
  stamp (jnode n (pidx_update ~add:true g n data))

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
   list and type set is updated once per batch rather than once per
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
  let prepend key adj =
    Hashtbl.fold
      (fun n group adj ->
        Idmap.update (nkey n)
          (fun old -> Some (group @ Option.value ~default:[] old))
          adj)
      (group_by key ds) adj
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
      out_adj = prepend (fun d -> d.src) g.out_adj;
      in_adj = prepend (fun d -> d.tgt) g.in_adj;
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
  if since == g then Some empty_delta
  else if since.chg_epoch <> g.chg_epoch then
    (* a journal reset lies between the two versions (or they are from
       unrelated lineages that reset a different number of times) — the
       walked tail could alias [[]] across the reset, so refuse rather
       than report a delta missing every pre-reset entity *)
    None
  else
    let steps = g.chg_len - since.chg_len in
    if steps < 0 then None
    else
      (* Collect the [steps] newest entries, deduplicated, and check that
         what remains is physically the older journal — the only way the
         two versions belong to the same journal epoch of the same
         lineage. *)
      let touched = Hashtbl.create (min 64 (steps + 1)) in
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
      if not (walk steps g.chg) then None
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
