(* Unit tests for the property graph store and its statistics. *)

open Helpers
open Cypher_values
open Cypher_graph

(* What [iter_adjacent] offers, in order: (relationship, far end, record). *)
let entries g n dir =
  let es = ref [] in
  Graph.iter_adjacent g n dir Graph.any_type (fun r m d -> es := (r, m, d) :: !es);
  List.rev !es

let records g n dir = List.map (fun (_, _, d) -> d) (entries g n dir)
let rel_ids g n dir = List.map (fun (r, _, _) -> r) (entries g n dir)

let build_small () =
  let g = Graph.empty in
  let g, a = Graph.add_node ~labels:[ "A" ] ~props:[ ("v", vint 1) ] g in
  let g, b = Graph.add_node ~labels:[ "B" ] g in
  let g, r = Graph.add_rel ~src:a ~tgt:b ~rel_type:"T" ~props:[ ("w", vint 2) ] g in
  (g, a, b, r)

let basics () =
  let g, a, b, r = build_small () in
  Alcotest.(check int) "node count" 2 (Graph.node_count g);
  Alcotest.(check int) "rel count" 1 (Graph.rel_count g);
  Alcotest.(check (list string)) "labels" [ "A" ] (Graph.labels g a);
  Alcotest.(check bool) "has label" true (Graph.has_label g a "A");
  check_value "node prop" (vint 1) (Graph.node_prop g a "v");
  check_value "missing prop is null" vnull (Graph.node_prop g a "zz");
  check_value "rel prop" (vint 2) (Graph.rel_prop g r "w");
  Alcotest.(check bool) "src" true (Ids.equal_node (Graph.src g r) a);
  Alcotest.(check bool) "tgt" true (Ids.equal_node (Graph.tgt g r) b);
  Alcotest.(check string) "type" "T" (Graph.rel_type g r)

let adjacency () =
  let g, a, b, r = build_small () in
  Alcotest.(check int) "out degree a" 1 (List.length (rel_ids g a `Out));
  Alcotest.(check int) "in degree b" 1 (List.length (rel_ids g b `In));
  Alcotest.(check int) "in degree a" 0 (List.length (rel_ids g a `In));
  Alcotest.(check bool) "other end" true
    (Ids.equal_node (Graph.other_end g r a) b);
  Alcotest.(check bool) "other end reversed" true
    (Ids.equal_node (Graph.other_end g r b) a);
  (* loops appear once among the undirected entries *)
  let g, l = Graph.add_rel ~src:a ~tgt:a ~rel_type:"L" g in
  ignore l;
  Alcotest.(check int) "loop counted once" 2 (List.length (entries g a `Both))

let indexes () =
  let g, a, _b, r = build_small () in
  Alcotest.(check bool) "label index" true
    (Graph.nodes_with_label g "A" = [ a ]);
  Alcotest.(check bool) "type index" true (Graph.rels_with_type g "T" = [ r ]);
  Alcotest.(check int) "label count" 1 (Graph.label_count g "A");
  Alcotest.(check int) "absent label" 0 (Graph.label_count g "Zz");
  let g = Graph.add_label g a "X" in
  Alcotest.(check bool) "index updated on add_label" true
    (Graph.nodes_with_label g "X" = [ a ]);
  let g = Graph.remove_label g a "X" in
  Alcotest.(check bool) "index updated on remove_label" true
    (Graph.nodes_with_label g "X" = [])

let deletion () =
  let g, a, b, r = build_small () in
  (match Graph.delete_node g a with
  | Ok _ -> Alcotest.fail "deleting a connected node must fail"
  | Error _ -> ());
  let g2 = Graph.delete_rel g r in
  Alcotest.(check int) "rel deleted" 0 (Graph.rel_count g2);
  Alcotest.(check int) "adjacency updated" 0 (List.length (rel_ids g2 a `Out));
  (match Graph.delete_node g2 a with
  | Ok g3 -> Alcotest.(check int) "node deleted" 1 (Graph.node_count g3)
  | Error e -> Alcotest.fail e);
  let g4 = Graph.detach_delete_node g b in
  Alcotest.(check int) "detach delete removes rels" 0 (Graph.rel_count g4);
  Alcotest.(check int) "detach delete removes the node" 1 (Graph.node_count g4);
  Alcotest.(check bool) "label index cleaned" true
    (Graph.nodes_with_label g4 "B" = [])

let persistence () =
  (* the store is persistent: old versions remain valid *)
  let g, a, _b, _r = build_small () in
  let g2 = Graph.set_node_prop g a "v" (vint 99) in
  check_value "new version" (vint 99) (Graph.node_prop g2 a "v");
  check_value "old version untouched" (vint 1) (Graph.node_prop g a "v")

(* SET on a relationship replaces its record in [rel_data] and in both
   endpoints' adjacency of the new version; the old version keeps the
   old record everywhere. *)
let rel_update_persistence () =
  let g, a, b, r = build_small () in
  let g2 = Graph.set_rel_prop g r "w" (vint 9) in
  let entry g n dir =
    match records g n dir with
    | [ d ] -> d
    | ds -> Alcotest.failf "expected one entry, got %d" (List.length ds)
  in
  let w (d : Graph.rel_data) = Value.Smap.find "w" d.rel_props in
  check_value "new out entry" (vint 9) (w (entry g2 a `Out));
  check_value "new in entry" (vint 9) (w (entry g2 b `In));
  Alcotest.(check bool) "entries are the record" true
    (entry g2 a `Out == Graph.rel_data g2 r
    && entry g2 b `In == Graph.rel_data g2 r);
  check_value "old out entry" (vint 2) (w (entry g a `Out));
  check_value "old in entry" (vint 2) (w (entry g b `In));
  check_value "old record" (vint 2) (Graph.rel_prop g r "w")

(* An update of a missing relationship is no update: same graph value,
   same version, nothing journalled. *)
let update_missing_rel () =
  let g, _a, _b, r = build_small () in
  let missing = Ids.rel_of_int (Ids.rel_to_int r + 100) in
  let set = Graph.set_rel_prop g missing "w" (vint 7) in
  Alcotest.(check int) "set keeps the version" (Graph.version g)
    (Graph.version set);
  let removed = Graph.remove_rel_prop g missing "w" in
  Alcotest.(check int) "remove keeps the version" (Graph.version g)
    (Graph.version removed);
  Alcotest.(check bool) "empty delta" true
    (match Graph.delta_between ~since:g set with
    | Some d -> Graph.delta_is_empty d
    | None -> false)

let null_prop_removes () =
  let g, a, _b, _r = build_small () in
  let g = Graph.set_node_prop g a "v" vnull in
  Alcotest.(check bool) "null removes the key" false
    (Value.Smap.mem "v" (Graph.node_props g a))

let insert_preserves_identity () =
  let g, a, _b, _r = build_small () in
  let data = Graph.node_data g a in
  let g2 = Graph.insert_node Graph.empty a data in
  Alcotest.(check bool) "same id" true (Graph.mem_node g2 a);
  Alcotest.(check (list string)) "labels preserved" [ "A" ] (Graph.labels g2 a);
  (* fresh allocation in the target graph does not collide *)
  let _g2, c = Graph.add_node g2 in
  Alcotest.(check bool) "fresh id distinct" false (Ids.equal_node a c)

let union_remaps () =
  let g1, _, _, _ = build_small () in
  let g2, _, _, _ = build_small () in
  let u = Graph.union g1 g2 in
  Alcotest.(check int) "union node count" 4 (Graph.node_count u);
  Alcotest.(check int) "union rel count" 2 (Graph.rel_count u);
  Alcotest.(check int) "label index merged" 2 (Graph.label_count u "A")

(* Ids far apart and across the store trie's level boundaries (32^k)
   behave as dense ones: a snapshot round trip keeps them, and a union
   whose remapping crosses 32^3 keeps structure and order. *)
let sparse_ids () =
  let chain g ~label k =
    let g, ns =
      List.fold_left
        (fun (g, ns) i ->
          let g, n =
            Graph.add_node ~labels:[ label ] ~props:[ ("i", vint i) ] g
          in
          (g, n :: ns))
        (g, []) (List.init k Fun.id)
    in
    let ns = List.rev ns in
    let g =
      List.fold_left2
        (fun g a b -> fst (Graph.add_rel ~src:a ~tgt:b ~rel_type:"NEXT" g))
        g
        (List.filteri (fun i _ -> i < k - 1) ns)
        (List.tl ns)
    in
    (g, ns)
  in
  let far =
    Graph.reserve_ids Graph.empty ~next_node:(1 lsl 30) ~next_rel:(1 lsl 30)
  in
  let g, ns = chain far ~label:"Far" 5 in
  Alcotest.(check (list int))
    "ids from 2^30"
    (List.init 5 (fun i -> (1 lsl 30) + i))
    (List.map Ids.node_to_int (Graph.nodes g));
  (* a low id beside the far ones, joined to them *)
  let near = Ids.node_of_int 7 in
  let g =
    Graph.insert_node g near
      {
        Graph.labels = Graph.Sset.singleton "Near";
        node_props = Value.Smap.empty;
      }
  in
  let g, _ = Graph.add_rel ~src:near ~tgt:(List.hd ns) ~rel_type:"TO" g in
  (match
     Cypher_storage.Snapshot.decode (Cypher_storage.Snapshot.encode g)
   with
  | Error e -> Alcotest.fail e
  | Ok (g', _) ->
    Alcotest.(check bool)
      "snapshot round trip" true
      (Graph.equal_structure g g');
    Alcotest.(check (pair int int))
      "counters" (Graph.next_ids g) (Graph.next_ids g');
    Alcotest.(check int) "far degree" 2 (Graph.degree g' (List.nth ns 2) `Both));
  let base =
    Graph.reserve_ids Graph.empty ~next_node:(32768 - 3) ~next_rel:1023
  in
  let g1, _ = chain base ~label:"A" 2 in
  let g2, _ = chain Graph.empty ~label:"B" 6 in
  let u = Graph.union g1 g2 in
  let ids = List.map Ids.node_to_int (Graph.nodes u) in
  Alcotest.(check (list int))
    "union ids cross 32^3"
    ([ 32765; 32766 ] @ List.init 6 (fun i -> 32768 + i))
    ids;
  Alcotest.(check int) "union rels" 6 (Graph.rel_count u);
  List.iter
    (fun r ->
      let d = Graph.rel_data u r in
      Alcotest.(check bool)
        "each NEXT joins same-label nodes" true
        (Graph.labels u d.src = Graph.labels u d.tgt))
    (Graph.rels u);
  Alcotest.(check (list int))
    "B chain in order"
    (List.init 6 Fun.id)
    (List.map
       (fun n ->
         match Graph.node_prop u n "i" with Value.Int i -> i | _ -> -1)
       (Graph.nodes_with_label u "B"))

(* The packed adjacency keeps a far end's id in 42 bits: a relationship
   reaching a node id beyond is refused, not filed under a wrong id. *)
let node_id_limit () =
  let g = Graph.reserve_ids Graph.empty ~next_node:((1 lsl 42) - 1) ~next_rel:1 in
  let g, below = Graph.add_node g in
  let g, beyond = Graph.add_node g in
  let g, r = Graph.add_rel ~src:below ~tgt:below ~rel_type:"T" g in
  Alcotest.(check (list int))
    "a loop at 2^42 - 1" [ Ids.rel_to_int r ]
    (List.map Ids.rel_to_int (rel_ids g below `Both));
  Alcotest.check_raises "an endpoint at 2^42"
    (Invalid_argument "Graph: node id beyond 2^42") (fun () ->
      ignore (Graph.add_rel ~src:below ~tgt:beyond ~rel_type:"T" g))

(* A deleted node's record and a deleted relationship's record are
   collectable once the graph that held them is gone, though the store
   leaves they sat in live on. *)
let[@inline never] delete_tracked () =
  let g, ns =
    List.fold_left
      (fun (g, ns) i ->
        let g, n = Graph.add_node ~props:[ ("i", vint i) ] g in
        (g, n :: ns))
      (Graph.empty, []) (List.init 6 Fun.id)
  in
  let n3 = List.nth (List.rev ns) 3 and n4 = List.nth (List.rev ns) 4 in
  let g, r = Graph.add_rel ~src:n3 ~tgt:n4 ~rel_type:"T" g in
  let g, _ = Graph.add_rel ~src:n4 ~tgt:n4 ~rel_type:"T" g in
  let node = Weak.create 1 and rel = Weak.create 1 in
  Weak.set node 0 (Some (Graph.node_data g n3));
  Weak.set rel 0 (Some (Graph.rel_data g r));
  (Graph.detach_delete_node g n3, node, rel)

let no_retention () =
  let g, node, rel = delete_tracked () in
  Gc.full_major ();
  Alcotest.(check bool) "node record collected" false (Weak.check node 0);
  Alcotest.(check bool) "rel record collected" false (Weak.check rel 0);
  Alcotest.(check (pair int int))
    "the rest stays" (5, 1)
    (Graph.node_count g, List.length (Graph.rels (Sys.opaque_identity g)))

(* The graph maintains node/rel/label/type cardinalities incrementally
   (enumerating to count made post-write statistics recollection O(graph)).
   Pin the incremental counts against the authoritative enumerations
   across every mutation path, including the insert_* persistence path. *)
let incremental_counts () =
  let check_counts msg g =
    Alcotest.(check int)
      (msg ^ ": node_count") (List.length (Graph.nodes g)) (Graph.node_count g);
    Alcotest.(check int)
      (msg ^ ": rel_count") (List.length (Graph.rels g)) (Graph.rel_count g);
    List.iter
      (fun l ->
        Alcotest.(check int)
          (msg ^ ": label_count " ^ l)
          (List.length (Graph.nodes_with_label g l))
          (Graph.label_count g l))
      (Graph.all_labels g);
    List.iter
      (fun ty ->
        Alcotest.(check int)
          (msg ^ ": type_count " ^ ty)
          (List.length (Graph.rels_with_type g ty))
          (Graph.type_count g ty))
      (Graph.all_types g)
  in
  let g = Graph.empty in
  (* duplicate labels on one node must count the node once *)
  let g, a = Graph.add_node ~labels:[ "A"; "A"; "B" ] g in
  let g, b = Graph.add_node ~labels:[ "B" ] g in
  let g, c = Graph.add_node g in
  check_counts "after adds" g;
  let g, r1 = Graph.add_rel ~src:a ~tgt:b ~rel_type:"T" g in
  let g, _r2 = Graph.add_rel ~src:b ~tgt:c ~rel_type:"T" g in
  let g, _r3 = Graph.add_rel ~src:c ~tgt:a ~rel_type:"U" g in
  check_counts "after rels" g;
  (* idempotent re-add must not double-count *)
  let g = Graph.add_label g a "B" in
  let g = Graph.add_label g a "B" in
  let g = Graph.remove_label g b "B" in
  let g = Graph.remove_label g b "Absent" in
  check_counts "after label churn" g;
  Alcotest.(check int) "B counts a once" 1 (Graph.label_count g "B");
  let g = Graph.delete_rel g r1 in
  let g = Graph.detach_delete_node g c in
  check_counts "after deletions" g;
  Alcotest.(check int) "U gone with its rel" 0 (Graph.type_count g "U");
  (* the identity-preserving insertion path (snapshot decode) maintains
     the same counts, and re-inserting an existing node is not a new node *)
  let g2 =
    List.fold_left
      (fun acc n -> Graph.insert_node acc n (Graph.node_data g n))
      Graph.empty (Graph.nodes g)
  in
  let g2 = Graph.insert_rels g2 (List.map (Graph.rel_data g) (Graph.rels g)) in
  check_counts "after insert round-trip" g2;
  Alcotest.(check int) "round-trip node_count" (Graph.node_count g)
    (Graph.node_count g2);
  let g2 = Graph.insert_node g2 a (Graph.node_data g a) in
  check_counts "after re-insert" g2;
  Alcotest.(check int) "re-insert is not a new node" (Graph.node_count g)
    (Graph.node_count g2)

(* Regression: a delta across a journal reset must hold every entity
   touched since [since], pre-reset ones included, even when [since] is
   the pristine empty graph — whose empty journal is physically equal to
   the [[]] tail left after walking a post-reset journal.  Without the
   epoch counter this returned a delta holding only the post-reset
   entities, silently dropping everything before the cap (e.g. a bulk
   load after registering a view on a fresh store).  The graph keeps the
   epoch a reset closed, so one reset is bridged; two are refused. *)
let journal_reset_spanning_delta () =
  let cap = 1 lsl 16 in
  let add_nodes g k =
    let g = ref g in
    for _ = 1 to k do
      let g', _ = Graph.add_node ~labels:[ "N" ] !g in
      g := g'
    done;
    !g
  in
  let one = add_nodes Graph.empty (cap + 8) in
  (match Graph.delta_between ~since:Graph.empty one with
  | Some d ->
    Alcotest.(check int) "delta across one reset holds every node" (cap + 8)
      (List.length d.Graph.d_nodes_added);
    Alcotest.(check int) "and nothing else" (cap + 8) (Graph.delta_size d)
  | None -> Alcotest.fail "delta across one journal reset refused");
  let two = add_nodes one cap in
  (match Graph.delta_between ~since:one two with
  | Some d ->
    Alcotest.(check int) "delta from the epoch before the reset" cap
      (List.length d.Graph.d_nodes_added)
  | None -> Alcotest.fail "delta from the closed epoch refused");
  (match Graph.delta_between ~since:Graph.empty two with
  | None -> ()
  | Some d ->
    Alcotest.failf "delta across two journal resets not refused (%d adds)"
      (List.length d.Graph.d_nodes_added));
  (* a version off the lineage, in the closed epoch, is refused *)
  (match Graph.delta_between ~since:(add_nodes one 1) two with
  | None -> ()
  | Some _ -> Alcotest.fail "delta from a discarded branch not refused");
  (* deltas within the post-reset epoch still work *)
  let base = one in
  let g2, n = Graph.add_node ~labels:[ "M" ] base in
  match Graph.delta_between ~since:base g2 with
  | Some d ->
    Alcotest.(check bool) "post-reset delta sees the new node" true
      (d.Graph.d_nodes_added = [ n ]
      && Graph.delta_size d = 1)
  | None -> Alcotest.fail "same-epoch delta refused"

let stats () =
  let g = Cypher_gen.Paper_graphs.academic () in
  let s = Stats.collect g in
  Alcotest.(check bool) "node count" true (Stats.node_count s = 10.);
  Alcotest.(check bool) "rel count" true (Stats.rel_count s = 11.);
  Alcotest.(check bool) "label cardinality" true
    (Stats.label_cardinality s "Researcher" = 3.);
  Alcotest.(check bool) "label selectivity" true
    (Stats.label_selectivity s "Publication" = 0.5);
  Alcotest.(check bool) "type selectivity" true
    (abs_float (Stats.type_selectivity s "CITES" -. (5. /. 11.)) < 1e-9);
  Alcotest.(check bool) "expand estimate" true
    (Stats.estimate_expand s ~direction:`Out ~rel_types:[ "CITES" ] = 0.5)

(* --- adjacency invariant under random mutation --------------------- *)

type op =
  | Add_node
  | Add_rel of int * int * bool
  | Delete_rel of int
  | Set_rel_prop of int * int option  (* [None] removes the property *)
  | Detach_delete of int
  | Delete_node of int  (* refused while the node has relationships *)
  | Insert_foreign of int * int  (* relationships of an earlier version *)
  | Snapshot_round_trip

let show_op = function
  | Add_node -> "add_node"
  | Add_rel (i, j, t) -> Printf.sprintf "add_rel(%d,%d,%b)" i j t
  | Delete_rel i -> Printf.sprintf "delete_rel %d" i
  | Set_rel_prop (i, v) ->
    Printf.sprintf "set_rel_prop(%d,%s)" i
      (Option.fold ~none:"null" ~some:string_of_int v)
  | Detach_delete i -> Printf.sprintf "detach_delete %d" i
  | Delete_node i -> Printf.sprintf "delete_node %d" i
  | Insert_foreign (h, i) -> Printf.sprintf "insert_foreign(%d,%d)" h i
  | Snapshot_round_trip -> "snapshot"

let gen_op =
  let open QCheck.Gen in
  let small = int_bound 50 in
  frequency
    [
      (3, return Add_node);
      (5, map3 (fun i j t -> Add_rel (i, j, t)) small small bool);
      (1, map (fun i -> Delete_rel i) small);
      (3, map2 (fun i v -> Set_rel_prop (i, v)) small (opt (int_bound 9)));
      (1, map (fun i -> Detach_delete i) small);
      (2, map (fun i -> Delete_node i) small);
      (2, map2 (fun h i -> Insert_foreign (h, i)) small small);
      (1, return Snapshot_round_trip);
    ]

let pick xs i =
  match xs with [] -> None | _ -> Some (List.nth xs (i mod List.length xs))

(* The records [Insert_foreign (h, i)] files into [g]: as Multigraph
   copies relationships between graphs of one universe, the foreign
   records themselves — a third of an earlier version's, some replacing
   a relationship still in [g], some re-adding a deleted one. *)
let foreign_records versions g h i =
  let from_g = Option.get (pick versions h) in
  List.filter_map
    (fun r ->
      let d = Graph.rel_data from_g r in
      if
        Ids.rel_to_int r mod 3 = i mod 3
        && Graph.mem_node g d.src && Graph.mem_node g d.tgt
      then Some d
      else None)
    (Graph.rels from_g)

(* Applies [op] to the newest of [versions], keeping every version. *)
let apply versions op =
  let g = List.hd versions in
  let g' =
    match op with
    | Add_node -> fst (Graph.add_node ~labels:[ "N" ] g)
    | Add_rel (i, j, t) -> (
      match pick (Graph.nodes g) i, pick (Graph.nodes g) j with
      | Some src, Some tgt ->
        fst
          (Graph.add_rel ~src ~tgt ~rel_type:(if t then "A" else "B")
             ~props:[ ("k", vint i) ] g)
      | _ -> g)
    | Delete_rel i ->
      Option.fold ~none:g ~some:(Graph.delete_rel g) (pick (Graph.rels g) i)
    | Set_rel_prop (i, v) ->
      Option.fold ~none:g
        ~some:(fun r ->
          Graph.set_rel_prop g r "k" (Option.fold ~none:vnull ~some:vint v))
        (pick (Graph.rels g) i)
    | Detach_delete i ->
      Option.fold ~none:g ~some:(Graph.detach_delete_node g)
        (pick (Graph.nodes g) i)
    | Delete_node i ->
      Option.fold ~none:g
        ~some:(fun n -> Result.value (Graph.delete_node g n) ~default:g)
        (pick (Graph.nodes g) i)
    | Insert_foreign (h, i) -> Graph.insert_rels g (foreign_records versions g h i)
    | Snapshot_round_trip -> (
      let module Snapshot = Cypher_storage.Snapshot in
      match Snapshot.decode (Snapshot.encode g) with
      | Ok (g, _) -> g
      | Error e -> failwith e)
  in
  g' :: versions

let rec ascending compare = function
  | a :: (b :: _ as tl) -> compare a b < 0 && ascending compare tl
  | _ -> true

(* Every relationship's record sits exactly once among its source's
   outgoing entries and once among its target's incoming ones,
   physically the [rel_map] record and filed under its own id, and the
   adjacency holds nothing else.  The id scans ascend and agree with the
   maintained counts, and [degree] counts the [`Both] entries. *)
let adjacency_consistent g =
  let occurrences d ds = List.length (List.filter (fun e -> e == d) ds) in
  let nodes = Graph.nodes g and rels = Graph.rels g in
  let total dir =
    List.fold_left
      (fun acc n -> acc + List.length (records g n dir))
      0 nodes
  in
  ascending Ids.compare_node nodes
  && ascending Ids.compare_rel rels
  && List.length nodes = Graph.node_count g
  && List.length rels = Graph.rel_count g
  && List.for_all
       (fun n ->
         Graph.degree g n `Both = List.length (records g n `Both)
         && List.for_all
              (fun e -> e == Graph.rel_data g e.Graph.rel_id)
              (records g n `Out @ records g n `In))
       nodes
  && List.for_all
    (fun r ->
      let d = Graph.rel_data g r in
      Ids.equal_rel d.rel_id r
      && occurrences d (records g d.src `Out) = 1
      && occurrences d (records g d.tgt `In) = 1)
    rels
  && total `Out = Graph.rel_count g
  && total `In = Graph.rel_count g

let t_adjacency_invariant =
  QCheck.Test.make ~count:200 ~name:"adjacency entries are the rel_map records"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      (* older versions must stay consistent too: updates never reach
         back into a pinned graph value *)
      List.for_all adjacency_consistent
        (List.fold_left apply [ Graph.empty ] ops))

(* --- adjacency against a model ------------------------------------- *)

(* The relationship ids of [g'], newest filing first, after [op] took the
   newest of [versions] (whose filing order was [order]) to [g']: a new
   or re-filed relationship goes first, a snapshot load files them in id
   order, and nothing else moves. *)
let filing_order versions order op g' =
  let g = List.hd versions in
  match op with
  | Add_rel _ -> List.filter (fun r -> not (Graph.mem_rel g r)) (Graph.rels g') @ order
  | Insert_foreign (h, i) ->
    let ids =
      List.map (fun (d : Graph.rel_data) -> d.rel_id) (foreign_records versions g h i)
    in
    List.rev ids
    @ List.filter (fun r -> not (List.exists (Ids.equal_rel r) ids)) order
  | Snapshot_round_trip -> List.rev (Graph.rels g')
  | _ -> List.filter (Graph.mem_rel g') order

(* What [iter_adjacent] must offer at [n]: read off [rel_map] in filing
   order, outgoing then incoming, a loop once in [`Both]. *)
let model g order n dir types =
  let pick end_ far =
    List.filter_map
      (fun r ->
        let d = Graph.rel_data g r in
        if Ids.equal_node (end_ d) n && (types = [] || List.mem d.rel_type types)
        then Some (r, far d, d)
        else None)
      order
  in
  let out = pick (fun d -> d.src) (fun d -> d.tgt)
  and inc = pick (fun d -> d.tgt) (fun d -> d.src) in
  match dir with
  | `Out -> out
  | `In -> inc
  | `Both -> out @ List.filter (fun (_, m, _) -> not (Ids.equal_node m n)) inc

let matches_model (g, order) =
  let next_node, _ = Graph.next_ids g in
  let same (r, m, d) (r', m', d') =
    Ids.equal_rel r r' && Ids.equal_node m m' && d == d'
  in
  List.for_all
    (fun n ->
      let n = Ids.node_of_int n in
      List.for_all
        (fun dir ->
          Graph.degree g n dir = List.length (model g order n dir [])
          && List.for_all
               (fun types ->
                 let got = ref [] in
                 Graph.iter_adjacent g n dir (Graph.type_filter g types)
                   (fun r m d -> got := (r, m, d) :: !got);
                 List.equal same (List.rev !got) (model g order n dir types))
               [ []; [ "A" ]; [ "B" ]; [ "B"; "A" ]; [ "Z" ] ])
        [ `Out; `In; `Both ])
    (List.init next_node Fun.id)

let t_adjacency_model =
  QCheck.Test.make ~count:200
    ~name:"adjacency enumerates rel_map in filing order, in every version"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      (* each version is checked when it is made and again at the end:
         a write that reached back into an earlier version's blocks
         fails the second check *)
      let versions =
        List.fold_left
          (fun versions op ->
            match versions with
            | None -> None
            | Some vs ->
              let graphs = List.map fst vs in
              let g' = List.hd (apply graphs op) in
              let v = (g', filing_order graphs (snd (List.hd vs)) op g') in
              if matches_model v then Some (v :: vs) else None)
          (Some [ (Graph.empty, []) ])
          ops
      in
      match versions with
      | None -> false
      | Some vs -> List.for_all matches_model vs)

let suite =
  [
    tc "construction and access" basics;
    tc "adjacency (Expand substrate)" adjacency;
    tc "label and type indexes" indexes;
    tc "deletion" deletion;
    tc "persistence" persistence;
    tc "relationship update persistence" rel_update_persistence;
    tc "update of a missing relationship" update_missing_rel;
    tc "setting a property to null removes it" null_prop_removes;
    tc "identity-preserving insertion" insert_preserves_identity;
    tc "union remaps identifiers" union_remaps;
    tc "sparse ids: snapshot and union across trie levels" sparse_ids;
    tc "node ids beyond the packed adjacency's range are refused" node_id_limit;
    tc "deleted records are not retained" no_retention;
    tc "incremental cardinalities match enumeration" incremental_counts;
    tc "deltas across journal resets: one bridged, two refused"
      journal_reset_spanning_delta;
    tc "statistics" stats;
    QCheck_alcotest.to_alcotest t_adjacency_invariant;
    QCheck_alcotest.to_alcotest t_adjacency_model;
  ]
