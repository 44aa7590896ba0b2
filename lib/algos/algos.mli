(** Built-in graph algorithms.

    The paper's introduction lists "built-in support for graph algorithms
    (e.g., Page Rank, subgraph matching and so on)" among the benefits of
    graph databases; subgraph matching is the query language itself, and
    this module supplies the analytical algorithms on top of the same
    store. *)

open Cypher_values
open Cypher_graph

val pagerank :
  ?damping:float -> ?iterations:int -> ?tolerance:float -> Graph.t ->
  (Ids.node * float) list
(** Power iteration over the directed relationship structure; dangling
    nodes redistribute uniformly.  Scores sum to 1.  Sorted by node id. *)

val weakly_connected_components : Graph.t -> (Ids.node * int) list
(** Component identifiers (0, 1, ...) ignoring direction, in node order;
    components are numbered by first appearance. *)

val strongly_connected_components : Graph.t -> (Ids.node * int) list
(** Tarjan's algorithm; component numbering by completion order. *)

val bfs_distances :
  Graph.t -> from:Ids.node -> ?direction:[ `Out | `In | `Both ] -> unit ->
  (Ids.node * int) list
(** Unweighted hop distances from [from] to every reachable node
    (including [from] at distance 0), in node order. *)

val triangle_count : Graph.t -> int
(** Number of undirected triangles (each counted once). *)

val degree_histogram : Graph.t -> (int * int) list
(** (degree, number of nodes with that degree), ascending by degree. *)

val local_clustering : Graph.t -> Ids.node -> float
(** Fraction of existing links among the node's neighbours (undirected);
    0 for degree < 2. *)
