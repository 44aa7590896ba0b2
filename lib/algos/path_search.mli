(** The path-search kernel behind variable-length and regex hops,
    [shortestPath], [allShortestPaths] and [cheapestPath], shared by the
    reference evaluator and the planner.

    GPC and GQL define shortest and cheapest selection over a restricted
    set of walks; that definition does not depend on the search order,
    so one search serves both engines.  Each engine supplies only its
    neighbour function — direction, type filter, relationship property
    predicates, relationship uniqueness against the rest of the pattern
    tuple, and (for the cheapest search) the cost of each relationship.

    Search state lives in pooled tables.  Each side of a search takes
    one from a process-wide pool (a lock-free stack on an [Atomic]) and
    gives it back when the search ends, by return or by exception, so a
    failing neighbour function or cost leaks nothing.  A table is keyed
    by node id with open addressing and sized by the nodes the search
    touches, never by id.  Its slots carry an epoch stamp, so a new
    search starts with one increment and no clearing, and no mark of an
    earlier search is ever read.  A state belongs to one search at a
    time: concurrent searches on any domains or threads take distinct
    states, and a search started from inside a neighbour function takes
    states of its own.  A state grown past 2^16 slots or heap entries
    by one large search goes back to the GC rather than to the pool. *)

open Cypher_values

type step = Ids.rel * Ids.node
(** One hop of a path: the relationship taken and the node it leads to. *)

type 'w neighbours = Ids.node -> (Ids.rel -> Ids.node -> 'w -> unit) -> unit
(** [next n f] calls [f r m w] for each relationship [r] a search may
    follow from [n], with [m] the node at its other end and [w] a payload
    ([unit] for the breadth-first searches, the relationship's cost for
    {!cheapest}).  For a search running backwards from the end node,
    "other end" is the node the path comes from.

    The order of the calls is the adjacency order the search sees:
    returned paths and the tie-breaks among equal ones follow it, so a
    neighbour function that keeps {!Cypher_graph.Graph.iter_adjacent}'s
    order gives the same answers on every engine.  The search acts on
    each neighbour as it is offered, before the next one; a neighbour
    function may raise (a predicate or a cost that cannot evaluate), and
    the exception ends the search with its state given back. *)

exception Invalid_cost of float
(** Raised by {!cheapest} when it relaxes a relationship whose cost is
    negative or NaN.  [+∞] is a valid cost. *)

val walks :
  ('s -> Ids.node -> (Ids.rel -> Ids.node -> 's -> unit) -> unit) ->
  accept:(int -> 's -> bool) -> kmax:int -> 's -> Ids.node ->
  (Ids.node -> step list -> 's -> unit) -> unit
(** [walks next ~accept ~kmax st s emit] enumerates depth first the
    walks from [s] of at most [kmax] hops, threading a caller-owned
    state: [next st n f] offers the steps a walk in state [st] may take
    from [n], each with the state after it, as {!neighbours} does; the
    walk descends into each step as it is offered.  Every walk of depth [d]
    whose state [st'] passes [accept d st'] is reported as
    [emit e steps st'], where [e] is its last node — before any of its
    extensions, and in adjacency order.

    The kernel keeps no uniqueness of its own: relationship uniqueness,
    a regex automaton's state set, or a matcher's bindings all travel in
    the state, and [next] refuses the steps they forbid.  Variable-length
    and regex hops in both engines, and {!shortest}'s iterative
    deepening, are walks. *)

val shortest :
  ?bwd:'w neighbours -> 'w neighbours -> Ids.node -> Ids.node -> kmin:int ->
  kmax:int -> all:bool -> accept:(step list -> bool) -> unit
(** [shortest ?bwd fwd s e ~kmin ~kmax ~all ~accept] offers to [accept]
    the step lists of minimal-length relationship-distinct walks from [s]
    to [e] with length in [[kmin, kmax]].  With [all], every one.
    Otherwise the first the search finds; if [accept] returns [false]
    for it (a restrictor or the rest of the pattern rejects it), every
    other minimal walk follows in turn until [accept] returns [true].
    The zero-length walk [s = e, kmin = 0] is offered as [[]].

    - [s = e] or [kmin > 1]: iterative deepening over walk lengths
      (visited marking could prune the only valid walk).
    - [all], or no [bwd]: level-synchronised BFS; within a level every
      path reaching a node is kept, so [all] finds them all.
    - otherwise: bidirectional BFS, expanding the side whose frontier
      has fewer nodes; [bwd] follows relationships against the pattern
      direction. *)

val cheapest :
  fwd:float neighbours -> bwd:float neighbours -> Ids.node -> Ids.node ->
  (float * step list) option
(** Bidirectional Dijkstra between two distinct nodes: the cost of a
    cheapest path from [s] to [e] and one such path, node-simple, or
    [None] when [e] is unreachable.  Raises {!Invalid_cost} when it
    relaxes a relationship with a negative or NaN cost.  Equal-cost ties
    break deterministically for a given adjacency order: the side with
    the smaller frontier key settles next (forward on a tie), the heap
    pops equal keys in insertion order, and the first meeting of the
    minimum cost wins. *)
