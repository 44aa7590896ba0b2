open Cypher_values
open Cypher_graph
open Cypher_table
module Engine = Cypher_engine.Engine
module Config = Cypher_semantics.Config

type side_effects = {
  nodes_created : int;
  nodes_deleted : int;
  rels_created : int;
  rels_deleted : int;
  props_set : int;
  labels_added : int;
  labels_removed : int;
}

let no_effects =
  {
    nodes_created = 0;
    nodes_deleted = 0;
    rels_created = 0;
    rels_deleted = 0;
    props_set = 0;
    labels_added = 0;
    labels_removed = 0;
  }

type error_class = SyntaxError | TypeError | ArithmeticError

(* The engine errors each TCK class accepts. *)
let in_class cls (e : Engine.error) =
  match (cls, e) with
  | SyntaxError, (Parse_error _ | Syntax_error _)
  | TypeError, Type_error _
  | ArithmeticError, Runtime_error _ ->
    true
  | _ -> false

let class_name = function
  | SyntaxError -> "SyntaxError"
  | TypeError -> "TypeError"
  | ArithmeticError -> "ArithmeticError"

type expectation =
  | Rows of string list * string list list
  | Rows_ordered of string list * string list list
  | Row_count of int
  | Empty_result
  | Error_raised
  | Error_of_class of error_class
  | Side_effects of side_effects

type scenario = {
  name : string;
  given : string list;
  when_ : string;
  params : (string * Value.t) list;
  then_ : expectation list;
}

let scenario ?(given = []) ?(params = []) name ~when_ ~then_ =
  { name; given; when_; params; then_ }

let graph_of_given setup =
  List.fold_left
    (fun g q ->
      match Engine.query g q with
      | Ok outcome -> outcome.Engine.graph
      | Error e ->
        failwith
          (Printf.sprintf "setup query %S failed: %s" q (Engine.error_message e)))
    Graph.empty setup

(* Expected cells are Cypher literals, evaluated against the empty graph
   and environment. *)
let eval_literal cell =
  match Cypher_parser.Parser.parse_expr_exn cell with
  | e ->
    Cypher_semantics.Eval.eval_expr Config.default Graph.empty Record.empty e
  | exception Cypher_parser.Parser.Parse_error (msg, _) ->
    failwith (Printf.sprintf "bad expected literal %S: %s" cell msg)

let expected_table columns rows =
  Table.create ~fields:columns
    (List.map
       (fun row ->
         if List.length row <> List.length columns then
           failwith "expected row width differs from column count";
         Record.of_list (List.map2 (fun c cell -> (c, eval_literal cell)) columns row))
       rows)

let node_set g = Ids.Node_set.of_list (Graph.nodes g)
let rel_set g = Ids.Rel_set.of_list (Graph.rels g)

let prop_changes p0 p1 =
  (* keys whose value changed, appeared or disappeared *)
  let changed = ref 0 in
  Value.Smap.iter
    (fun k v1 ->
      match Value.Smap.find_opt k p0 with
      | Some v0 when Value.equal_total v0 v1 -> ()
      | _ -> incr changed)
    p1;
  Value.Smap.iter
    (fun k _ -> if not (Value.Smap.mem k p1) then incr changed)
    p0;
  !changed

let effects_between g0 g1 =
  let n0 = node_set g0 and n1 = node_set g1 in
  let r0 = rel_set g0 and r1 = rel_set g1 in
  let surviving_nodes = Ids.Node_set.inter n0 n1 in
  let surviving_rels = Ids.Rel_set.inter r0 r1 in
  let props_set =
    Ids.Node_set.fold
      (fun n acc -> acc + prop_changes (Graph.node_props g0 n) (Graph.node_props g1 n))
      surviving_nodes 0
    + Ids.Rel_set.fold
        (fun r acc -> acc + prop_changes (Graph.rel_props g0 r) (Graph.rel_props g1 r))
        surviving_rels 0
  in
  let labels_added, labels_removed =
    Ids.Node_set.fold
      (fun n (added, removed) ->
        let l0 = Graph.labels g0 n and l1 = Graph.labels g1 n in
        ( added + List.length (List.filter (fun l -> not (List.mem l l0)) l1),
          removed + List.length (List.filter (fun l -> not (List.mem l l1)) l0) ))
      surviving_nodes (0, 0)
  in
  {
    nodes_created = Ids.Node_set.cardinal (Ids.Node_set.diff n1 n0);
    nodes_deleted = Ids.Node_set.cardinal (Ids.Node_set.diff n0 n1);
    rels_created = Ids.Rel_set.cardinal (Ids.Rel_set.diff r1 r0);
    rels_deleted = Ids.Rel_set.cardinal (Ids.Rel_set.diff r0 r1);
    props_set;
    labels_added;
    labels_removed;
  }

let pp_effects ppf e =
  Format.fprintf ppf "+%dn -%dn +%dr -%dr ~%dp +%dl -%dl" e.nodes_created
    e.nodes_deleted e.rels_created e.rels_deleted e.props_set e.labels_added
    e.labels_removed

let check_expectation ~query_text g0 result expectation =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  match expectation, result with
  | Error_raised, Error _ -> Ok ()
  | Error_of_class cls, Error e ->
    if in_class cls e then Ok ()
    else
      fail "expected a %s, got %s" (class_name cls) (Engine.error_message e)
  | (Error_raised | Error_of_class _), Ok _ ->
    fail "expected an error, query succeeded"
  | _, Error e -> fail "query %S failed: %s" query_text (Engine.error_message e)
  | Rows (columns, rows), Ok (outcome : Engine.outcome) ->
    let expected = expected_table columns rows in
    if Table.bag_equal expected outcome.Engine.table then Ok ()
    else
      fail "rows differ:@.expected:@.%a@.actual:@.%a" Table.pp expected
        Table.pp outcome.Engine.table
  | Rows_ordered (columns, rows), Ok outcome ->
    let expected = expected_table columns rows in
    if Table.equal_ordered expected outcome.Engine.table then Ok ()
    else
      fail "ordered rows differ:@.expected:@.%a@.actual:@.%a" Table.pp
        expected Table.pp outcome.Engine.table
  | Row_count n, Ok outcome ->
    let actual = Table.row_count outcome.Engine.table in
    if actual = n then Ok () else fail "expected %d rows, got %d" n actual
  | Empty_result, Ok outcome ->
    if Table.is_empty outcome.Engine.table then Ok ()
    else
      fail "expected no rows, got:@.%a" Table.pp outcome.Engine.table
  | Side_effects expected, Ok outcome ->
    let actual = effects_between g0 outcome.Engine.graph in
    if actual = expected then Ok ()
    else
      fail "side effects differ: expected %a, got %a" pp_effects expected
        pp_effects actual

let run_scenario ?(config = Config.default) ~mode s =
  match graph_of_given s.given with
  | exception Failure e -> Error e
  | g0 ->
    let config = Config.with_params s.params config in
    let result = Engine.query ~config ~mode g0 s.when_ in
    let rec check = function
      | [] -> Ok ()
      | e :: rest -> (
        match check_expectation ~query_text:s.when_ g0 result e with
        | Ok () -> check rest
        | Error _ as err -> err)
    in
    check s.then_

let to_alcotest ?config scenarios =
  List.concat_map
    (fun s ->
      List.map
        (fun (mode, tag) ->
          ( Printf.sprintf "%s [%s]" s.name tag,
            `Quick,
            fun () ->
              match run_scenario ?config ~mode s with
              | Ok () -> ()
              | Error e -> failwith e ))
        [ (Engine.Reference, "ref"); (Engine.Planned, "plan") ])
    scenarios
