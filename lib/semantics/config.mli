(** Evaluation configuration.

    Cypher 9 matches patterns with relationship isomorphism: "each
    matched instance of a given pattern never binds the same relationship
    from the underlying data graph to more than one relationship variable
    or path variable" (Section 8).  The paper envisions making the
    morphism configurable (homomorphism, node isomorphism); this
    configuration realises that extension. *)

open Cypher_values

type morphism =
  | Edge_isomorphism
      (** The Cypher 9 default: no relationship is traversed twice within
          one MATCH. *)
  | Node_isomorphism
      (** No node appears twice among the nodes visited by the match. *)
  | Homomorphism
      (** No uniqueness restriction; variable-length patterns are cut off
          at {!field-var_length_cap} hops to keep the result finite, as the
          discussion in Section 4.2 requires. *)

type t = {
  morphism : morphism;
  var_length_cap : int option;
      (** Upper bound on variable-length, regex and shortest-path hops
          when the pattern gives none, in both engines (the reference
          evaluator and the planner read it through [Eval.max_hops]).
          [None] means |R(G)| (sound for edge isomorphism, where a path
          cannot repeat a relationship).  Homomorphism always needs a cap;
          when [None] it also defaults to |R(G)|. *)
  params : Value.t Value.Smap.t;  (** bindings for [$param] references *)
}

val default : t

val with_params : (string * Value.t) list -> t -> t
val with_morphism : morphism -> t -> t

val morphism_name : morphism -> string
