(** Physical query plans.

    The operator vocabulary follows the description of Neo4j's executor
    in Section 2 of the paper: "an execution plan for a Cypher query in
    Neo4j contains largely the same operators as in relational database
    engines and an additional operator called Expand", which walks the
    direct node-to-relationship references of the store.  Plans here are
    executed tuple-at-a-time with a Volcano-style iterator model
    ({!Exec}).

    All operators are Apply-shaped: they consume the rows of their input
    operator, so a leaf scan enumerates nodes {e per input row}; the plan
    for a whole query starts from [Argument], the driving table. *)

type dir = Out | In | Both

type hop_binding =
  | Single_rel of string  (** a rigid hop bound to a relationship variable *)
  | Rel_list of string  (** a variable-length hop bound to a list variable *)

type sort_dir = Asc | Desc

type t =
  | Argument
  | All_nodes_scan of { var : string; input : t }
  | Node_by_label_scan of { var : string; label : string; input : t }
  | Node_index_seek of {
      var : string;
      label : string;
      key : string;
      value : Cypher_ast.Ast.expr;
          (** evaluated per driving row; must not reference variables
              bound by the same pattern *)
      input : t;
    }
  | Rel_type_scan of {
      rel : string;
      types : string list;  (** non-empty *)
      from_ : string;
      to_ : string;
      dir : dir;
          (** [Both]: each relationship is emitted in both orientations *)
      input : t;
    }
      (** leaf scan over the relationship-type index, binding the
          relationship and both endpoints — cheaper than a node scan plus
          Expand when the type is rare *)
  | Expand of {
      from_ : string;
      rel : string;
      types : string list;
      dir : dir;
      to_ : string;
      scan_rels : bool;
          (** baseline mode: find neighbours by scanning the whole
              relationship set instead of the adjacency lists — used to
              measure what Expand's locality buys (experiment B1) *)
      input : t;
    }
  | Var_expand of {
      from_ : string;
      rel : string;
      types : string list;
      dir : dir;
      min_len : int;
      max_len : int option;
      to_ : string;
      reversed : bool;
          (** traversed against the written order: [rel] binds the list
              reversed, so it reads left to right as written *)
      input : t;
    }
  | Filter of { pred : Cypher_ast.Ast.expr; input : t }
  | Project of { items : (string * Cypher_ast.Ast.expr) list; input : t }
  | Aggregate of {
      keys : (string * Cypher_ast.Ast.expr) list;
      aggs : (string * Cypher_semantics.Agg.spec) list;
      input : t;
    }
  | Distinct of { input : t }
  | Sort of { by : (Cypher_ast.Ast.expr * sort_dir) list; input : t }
  | Skip_rows of { count : Cypher_ast.Ast.expr; input : t }
  | Limit_rows of { count : Cypher_ast.Ast.expr; input : t }
  | Unwind of { expr : Cypher_ast.Ast.expr; var : string; input : t }
  | Optional of { inner : t; introduced : string list; input : t }
      (** for each input row, runs [inner] with the row as argument; if it
          produces nothing, pads the row with nulls on [introduced] *)
  | Rel_uniqueness of { vars : hop_binding list; input : t }
      (** enforces relationship isomorphism across the relationship
          variables of one MATCH *)
  | Project_path of {
      var : string;
      start_var : string;
      hops : hop_binding list;
      input : t;
    }
  | Regex_expand of {
      from_ : string;
      rel : string;  (** binds the list of traversed relationships *)
      regex : Cypher_ast.Ast.type_regex;
      dir : dir;
      to_ : string;
      input : t;
    }
      (** RPQ hop: subset-simulates the type regex's NFA on the product
          of automaton states and graph nodes, along relationship-unique
          walks *)
  | Shortest_path of {
      from_ : string;  (** both endpoint variables are bound by the input *)
      to_ : string;
      rel : string;
      rel_single : bool;
          (** a single-hop pattern binds a relationship, not a list *)
      types : string list;
      dir : dir;
      props : (string * Cypher_ast.Ast.expr) list;
      min_len : int;
      max_len : int option;
      all : bool;  (** allShortestPaths *)
      restr : Cypher_ast.Ast.path_restrictor;
      path : string option;
      input : t;
    }
      (** per driving row: bidirectional BFS (single path, distinct
          endpoints), level BFS (all shortest), or iterative deepening
          (cycles, [min_len > 1]) between the two bound endpoints *)
  | Cheapest_path of {
      from_ : string;
      to_ : string;
      rel : string;
      types : string list;
      dir : dir;
      props : (string * Cypher_ast.Ast.expr) list;
      cost_prop : string;
      restr : Cypher_ast.Ast.path_restrictor;
      path : string option;
      input : t;
    }  (** Dijkstra over a numeric relationship cost property *)
  | Path_restrict of {
      restr : Cypher_ast.Ast.path_restrictor;
      start_var : string;
      hops : hop_binding list;
      input : t;
    }
      (** filters rows whose reconstructed path violates a GQL TRAIL /
          ACYCLIC restrictor *)

val input_of : t -> t option

val describe : t -> string
(** One line describing the operator itself, without its input. *)

val pp : Format.formatter -> t -> unit
(** Indented operator tree, leaf-first, in the style of EXPLAIN output. *)

val pp_annotated :
  annotate:(t -> string) -> Format.formatter -> t -> unit
(** Like {!pp}, appending [annotate node] to each operator line (used by
    {!Cost.explain_with_estimates} to attach row estimates). *)

val to_string : t -> string
