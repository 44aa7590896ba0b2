(** A parser for the Cucumber/Gherkin subset used by the openCypher TCK
    (paper, Section 5: "a Technology Compatibility Kit (TCK), designed
    using a language neutral framework (Cucumber)").

    Supported steps:

    {v
    Feature: <title>
      Scenario: <name>
        Given an empty graph
        And having executed:
          """
          CREATE (:A)
          """
        And parameters are:
          | name | 'Alice' |
        When executing query:
          """
          MATCH (n) RETURN count(*) AS c
          """
        Then the result should be, in any order:
          | c |
          | 1 |
        Then the result should be, in order: ...
        Then the result should be empty
        Then a SyntaxError should be raised   (also TypeError,
                                               ArithmeticError, or
                                               "an Error" for any error)
        And the side effects should be:
          | +nodes | 2 |
          | -relationships | 1 |
        And no side effects
    v}

    Cell values in result tables are Cypher literals, as in the real TCK. *)

val parse : string -> (Tck.scenario list, string) result
(** Parses the text of one feature file into scenarios (the feature
    title is prefixed to each scenario name). *)

val load_file : string -> (Tck.scenario list, string) result

val run_file :
  ?config:Cypher_semantics.Config.t ->
  string ->
  (string * [ `Quick | `Slow ] * (unit -> unit)) list
(** Parses the file and converts its scenarios to alcotest cases (both
    engine modes); a parse failure becomes a single failing case. *)
