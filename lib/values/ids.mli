(** Node and relationship identifiers.

    The paper (Section 4.1) assumes two countably infinite, disjoint sets
    [N] of node identifiers and [R] of relationship identifiers.  We
    realise them as two incompatible abstract integer types so that the
    type checker enforces the disjointness. *)

type node
(** Identifier of a node, an element of the paper's set [N]. *)

type rel
(** Identifier of a relationship, an element of the paper's set [R]. *)

val node_of_int : int -> node
val rel_of_int : int -> rel
val node_to_int : node -> int
val rel_to_int : rel -> int

val compare_node : node -> node -> int
val compare_rel : rel -> rel -> int
val equal_node : node -> node -> bool
val equal_rel : rel -> rel -> bool

val pp_node : Format.formatter -> node -> unit
(** Prints as [n42], matching the paper's naming of nodes. *)

val pp_rel : Format.formatter -> rel -> unit
(** Prints as [r17], matching the paper's naming of relationships. *)

module Node_map : Map.S with type key = node
module Node_set : Set.S with type elt = node
module Rel_set : Set.S with type elt = rel
