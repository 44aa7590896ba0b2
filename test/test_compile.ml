(* Compiled expressions against the reference evaluator.  Every
   constructor of [Ast.expr] is generated, compiled against a slot
   layout and run over rows with nulls, mixed types and parameters; the
   interpreter runs it over the record of the same bindings.  The two
   must return equal values, or raise the same exception with the same
   message. *)

open Helpers
open Cypher_values
open Cypher_ast
open Ast
module Compile = Cypher_planner.Compile
module Eval = Cypher_semantics.Eval
module Prng = Cypher_gen.Prng

let g = Cypher_gen.Paper_graphs.academic ()
let node_ids = Array.of_list (Cypher_graph.Graph.nodes g)
let rel_ids = Array.of_list (Cypher_graph.Graph.rels g)

(* The variables a row binds; [nope] is never bound. *)
let bound = [ "a"; "b"; "l"; "m"; "n"; "r"; "z" ]

let params =
  Value.Smap.of_seq
    (List.to_seq
       [
         ("p", vint 3);
         ("s", vstr "abc");
         ("pat", vstr "a.*");
         ("bad", vstr "(");
         ("nul", vnull);
       ])

let config = { cfg with Cypher_semantics.Config.params }

let random_value rng =
  match Prng.int rng 10 with
  | 0 -> vnull
  | 1 -> vbool (Prng.bool rng)
  | 2 -> vint (Prng.int rng 7 - 2)
  | 3 -> Value.Float (float_of_int (Prng.int rng 9) /. 4.)
  | 4 -> vstr (Prng.pick rng [ ""; "a"; "abc"; "bca"; "Ab" ])
  | 5 -> vlist (List.init (Prng.int rng 4) (fun i -> vint i))
  | 6 -> Value.map_of_list [ ("k", vint (Prng.int rng 3)); ("name", vstr "x") ]
  | 7 -> Value.Node (Prng.pick_array rng node_ids)
  | 8 -> Value.Rel (Prng.pick_array rng rel_ids)
  | _ -> vlist [ vnull; vstr "a" ]

let random_row rng = List.map (fun a -> (a, random_value rng)) bound

let literals =
  [ L_null; L_bool true; L_bool false; L_int 0; L_int 2; L_float 1.5;
    L_string "a"; L_string "ab"; L_string "(" ]

(* One random expression; [depth] bounds its height. *)
let rec gen_expr rng depth =
  let sub () = gen_expr rng (depth - 1) in
  let leaf () =
    match Prng.int rng 4 with
    | 0 -> E_lit (Prng.pick rng literals)
    | 1 -> E_param (Prng.pick rng [ "p"; "s"; "pat"; "bad"; "nul"; "missing" ])
    | _ -> E_var (Prng.pick rng ("nope" :: bound))
  in
  if depth <= 0 then leaf ()
  else
    match Prng.int rng 36 with
    | 0 | 1 -> leaf ()
    | 2 -> E_prop (sub (), Prng.pick rng [ "name"; "k"; "year"; "day"; "nokey" ])
    | 3 -> E_map [ ("x", sub ()); ("y", sub ()) ]
    | 4 -> E_list (List.init (Prng.int rng 3) (fun _ -> sub ()))
    | 5 -> E_in (sub (), sub ())
    | 6 -> E_index (sub (), sub ())
    | 7 ->
      let opt () = if Prng.bool rng then Some (sub ()) else None in
      let e = sub () in
      let lo = opt () in
      E_slice (e, lo, opt ())
    | 8 -> E_starts_with (sub (), sub ())
    | 9 -> E_ends_with (sub (), sub ())
    | 10 -> E_contains (sub (), sub ())
    | 11 -> E_regex_match (sub (), sub ())
    | 12 -> E_or (sub (), sub ())
    | 13 -> E_and (sub (), sub ())
    | 14 -> E_xor (sub (), sub ())
    | 15 -> E_not (sub ())
    | 16 -> E_is_null (sub ())
    | 17 -> E_is_not_null (sub ())
    | 18 -> E_cmp (Prng.pick rng [ Lt; Le; Ge; Gt; Eq; Neq ], sub (), sub ())
    | 19 -> E_arith (Prng.pick rng [ Add; Sub; Mul; Div; Mod; Pow ], sub (), sub ())
    | 20 -> E_neg (sub ())
    | 21 ->
      E_fn
        ( Prng.pick rng [ "size"; "toString"; "coalesce"; "head"; "id"; "nosuchfn"; "exists" ],
          List.init (1 + Prng.int rng 2) (fun _ -> sub ()) )
    | 22 -> Prng.pick rng [ E_count_star; E_agg (Count, false, sub ()) ]
    | 23 -> E_agg_percentile (true, false, sub (), sub ())
    | 24 -> E_has_labels (sub (), Prng.pick rng [ [ "Researcher" ]; [ "Nope" ]; [] ])
    | 25 ->
      E_case
        {
          case_subject = (if Prng.bool rng then Some (sub ()) else None);
          case_branches = [ (sub (), sub ()) ];
          case_default = (if Prng.bool rng then Some (sub ()) else None);
        }
    | 26 ->
      E_list_comp
        {
          lc_var = "x";
          lc_source = sub ();
          lc_where = (if Prng.bool rng then Some (E_is_not_null (E_var "x")) else None);
          lc_body = (if Prng.bool rng then Some (sub ()) else None);
        }
    | 27 | 28 ->
      let pattern =
        {
          pp_name = None;
          pp_first = { np_name = Some "n"; np_labels = []; np_props = [] };
          pp_rest =
            [
              ( { rp_name = None; rp_types = []; rp_props = []; rp_dir = Left_to_right;
                  rp_len = None; rp_regex = None },
                { np_name = None; np_labels = []; np_props = [] } );
            ];
          pp_shortest = No_shortest;
          pp_restr = Walk;
        }
      in
      if Prng.bool rng then E_pattern_pred pattern
      else
        E_pattern_comp
          { pc_pattern = pattern; pc_where = None; pc_body = sub () }
    | 29 -> E_map_projection (sub (), [ Mp_property "name"; Mp_literal ("v", sub ()) ])
    | 30 ->
      E_quantified
        (Prng.pick rng [ Q_all; Q_any; Q_none; Q_single ], "x", sub (),
         E_cmp (Gt, E_var "x", sub ()))
    | 31 ->
      E_reduce
        { rd_acc = "acc"; rd_init = sub (); rd_var = "x"; rd_list = sub ();
          rd_body = E_arith (Add, E_var "acc", E_var "x") }
    | 32 -> E_fn ("exists", [ E_prop (sub (), "name") ])
    | 33 -> E_fn ("size", [ E_pattern_pred
                               { pp_name = None;
                                 pp_first = { np_name = Some "n"; np_labels = []; np_props = [] };
                                 pp_rest = []; pp_shortest = No_shortest; pp_restr = Walk } ])
    | _ -> E_exists_pattern
             { pp_name = None;
               pp_first = { np_name = Some "n"; np_labels = []; np_props = [] };
               pp_rest = []; pp_shortest = No_shortest; pp_restr = Walk }

(* A layout with the bound variables on scattered slots, so a slot is
   never a variable's position in the record. *)
let scope =
  List.fold_left
    (fun s (i, a) -> Compile.Smap.add a ((3 * i) + 1) s)
    Compile.Smap.empty
    (List.mapi (fun i a -> (i, a)) bound)

let width = (3 * List.length bound) + 1

let row_of bindings =
  let row = Array.make width (vstr "not a slot of this scope") in
  List.iter (fun (a, v) -> row.(Compile.Smap.find a scope) <- v) bindings;
  row

let outcome f =
  match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let interpreted e bindings =
  outcome (fun () ->
      Eval.eval_expr config g (Cypher_table.Record.of_list bindings) e)

let compiled e bindings =
  let c = Compile.expr scope e in
  let f = c { Compile.cfg = config; g } in
  outcome (fun () -> f (row_of bindings))

let agree e bindings =
  match interpreted e bindings, compiled e bindings with
  | Ok v1, Ok v2 when Value.equal_total v1 v2 -> ()
  | Error m1, Error m2 when String.equal m1 m2 -> ()
  | r1, r2 ->
    let show = function
      | Ok v -> Value.to_string v
      | Error m -> "raised " ^ m
    in
    Alcotest.failf "%s\non %a\ninterpreted: %s\ncompiled:    %s"
      (Pretty.expr_to_string e) Cypher_table.Record.pp
      (Cypher_table.Record.of_list bindings)
      (show r1) (show r2)

let constructor = function
  | E_lit _ -> "lit" | E_var _ -> "var" | E_param _ -> "param"
  | E_prop _ -> "prop" | E_map _ -> "map" | E_list _ -> "list" | E_in _ -> "in"
  | E_index _ -> "index" | E_slice _ -> "slice"
  | E_starts_with _ -> "starts_with" | E_ends_with _ -> "ends_with"
  | E_contains _ -> "contains" | E_regex_match _ -> "regex_match"
  | E_or _ -> "or" | E_and _ -> "and" | E_xor _ -> "xor" | E_not _ -> "not"
  | E_is_null _ -> "is_null" | E_is_not_null _ -> "is_not_null"
  | E_cmp _ -> "cmp" | E_arith _ -> "arith" | E_neg _ -> "neg" | E_fn _ -> "fn"
  | E_count_star -> "count_star" | E_agg _ -> "agg"
  | E_agg_percentile _ -> "agg_percentile" | E_has_labels _ -> "has_labels"
  | E_case _ -> "case" | E_list_comp _ -> "list_comp"
  | E_pattern_pred _ -> "pattern_pred" | E_pattern_comp _ -> "pattern_comp"
  | E_map_projection _ -> "map_projection"
  | E_exists_pattern _ -> "exists_pattern" | E_quantified _ -> "quantified"
  | E_reduce _ -> "reduce"

let all_constructors =
  [ "lit"; "var"; "param"; "prop"; "map"; "list"; "in"; "index"; "slice";
    "starts_with"; "ends_with"; "contains"; "regex_match"; "or"; "and"; "xor";
    "not"; "is_null"; "is_not_null"; "cmp"; "arith"; "neg"; "fn"; "count_star";
    "agg"; "agg_percentile"; "has_labels"; "case"; "list_comp"; "pattern_pred";
    "pattern_comp"; "map_projection"; "exists_pattern"; "quantified"; "reduce" ]

(* The constructors of [e] and its subexpressions, as far as the
   generator nests them. *)
let rec constructors e =
  let sub = match e with
    | E_prop (a, _) | E_not a | E_is_null a | E_is_not_null a | E_neg a
    | E_has_labels (a, _) | E_agg (_, _, a) | E_map_projection (a, _) -> [ a ]
    | E_in (a, b) | E_index (a, b) | E_starts_with (a, b) | E_ends_with (a, b)
    | E_contains (a, b) | E_regex_match (a, b) | E_or (a, b) | E_and (a, b)
    | E_xor (a, b) | E_cmp (_, a, b) | E_arith (_, a, b)
    | E_agg_percentile (_, _, a, b) | E_quantified (_, _, a, b) -> [ a; b ]
    | E_map kvs -> List.map snd kvs
    | E_list es | E_fn (_, es) -> es
    | E_slice (a, lo, hi) -> a :: List.filter_map Fun.id [ lo; hi ]
    | _ -> []
  in
  constructor e :: List.concat_map constructors sub

let differential () =
  let rng = Prng.create 2026 in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 4000 do
    let e = gen_expr rng (1 + Prng.int rng 3) in
    List.iter (fun c -> Hashtbl.replace seen c ()) (constructors e);
    for _ = 1 to 4 do
      agree e (random_row rng)
    done
  done;
  Alcotest.(check (list string)) "every constructor generated" []
    (List.filter (fun c -> not (Hashtbl.mem seen c)) all_constructors)

(* An unbound variable that only an untaken CASE branch reads raises
   nothing; reading it does raise, when evaluated and not before. *)
let unbound_in_untaken_branch () =
  let bindings = [ ("a", vint 1) ] in
  let e =
    E_case
      { case_subject = None;
        case_branches = [ (E_lit (L_bool true), E_var "a") ];
        case_default = Some (E_var "nope") }
  in
  agree e bindings;
  check_value "taken branch" (vint 1)
    (Result.get_ok (compiled e bindings));
  let read = E_arith (Add, E_var "nope", E_lit (L_int 1)) in
  let c = Compile.expr scope read in
  let f = c { Compile.cfg = config; g } in
  (match f (row_of bindings) with
  | _ -> Alcotest.fail "an unbound variable must raise when read"
  | exception Cypher_semantics.Eval.Eval_error m ->
    Alcotest.(check string) "the interpreter's message" "unbound variable: nope" m);
  agree read bindings

(* A type error raises the interpreter's own exception and message. *)
let type_error_is_interpreters () =
  let bindings = [ ("a", vint 1); ("b", vstr "x") ] in
  List.iter
    (fun e ->
      agree e bindings;
      match compiled e bindings with
      | Error m ->
        Alcotest.(check bool) ("a type error: " ^ m) true
          (String.starts_with ~prefix:"Cypher_values.Value.Type_error" m)
      | Ok _ -> Alcotest.failf "%s must fail" (Pretty.expr_to_string e))
    [
      E_arith (Sub, E_var "b", E_var "a");
      E_prop (E_var "a", "k");
      E_and (E_var "a", E_lit (L_bool true));
      E_has_labels (E_var "b", [ "L" ]);
    ]

(* A fallback constructor is evaluated by [Eval.eval_expr] on the record
   of the row's bound slots: a comprehension sees the row's variables
   beside its own, and a pattern predicate the row's node. *)
let fallback_goes_through_eval () =
  let n = node_ids.(0) in
  let bindings = [ ("a", vint 10); ("n", Value.Node n) ] in
  let comp =
    E_list_comp
      { lc_var = "x"; lc_source = E_list [ E_lit (L_int 1); E_lit (L_int 2) ];
        lc_where = None; lc_body = Some (E_arith (Add, E_var "x", E_var "a")) }
  in
  check_value "comprehension" (vlist [ vint 11; vint 12 ])
    (Result.get_ok (compiled comp bindings));
  let pred =
    E_fn ("exists", [ E_prop (E_var "n", "name") ])
  in
  agree pred bindings;
  agree comp bindings

(* An invalid =~ pattern raises the typed error only when evaluated: a
   planned query over zero rows succeeds, one row fails with it. *)
let invalid_regex_is_lazy () =
  let engine q =
    Result.map_error Cypher_engine.Engine.error_message
      (Cypher_engine.Engine.query ~config g q)
  in
  (match engine "MATCH (n:Nope) WHERE n.name =~ $bad RETURN n" with
  | Ok o ->
    Alcotest.(check int) "no rows" 0
      (Cypher_table.Table.row_count o.Cypher_engine.Engine.table)
  | Error e -> Alcotest.failf "zero rows must not fail: %s" e);
  match engine "UNWIND ['a'] AS s WITH s WHERE s =~ '(' RETURN s" with
  | Error e ->
    Alcotest.(check string) "typed error" "runtime error: invalid regular expression: ("
      e
  | Ok _ -> Alcotest.fail "an invalid pattern must fail once evaluated"

(* Aggregation streams, but its errors keep the reference order: every
   grouping key first, then group by group in order of first
   occurrence.  Row 6 (group k = 0, the last group) and row 20 (group
   k = 2) raise in their arguments, so the reference reports row 20's
   error; row 35's key raises, which comes before any argument.  The
   planner must report the same. *)
let aggregate_error_order () =
  let module Engine = Cypher_engine.Engine in
  let g =
    (Engine.run_exn Cypher_graph.Graph.empty
       "UNWIND range(1, 40) AS i CREATE (:R {k: CASE WHEN i = 35 THEN 'y' \
        ELSE i % 3 END, a: CASE i WHEN 6 THEN 'x' WHEN 20 THEN true ELSE i \
        END})")
      .Engine.graph
  in
  let error mode q =
    match Engine.query ~config ~mode g q with
    | Ok _ -> Alcotest.failf "%s must fail" q
    | Error e -> Engine.error_message e
  in
  List.iter
    (fun (q, expected) ->
      Alcotest.(check string) ("reference: " ^ q) expected (error Engine.Reference q);
      Alcotest.(check string) ("planned: " ^ q) expected (error Engine.Planned q))
    [
      ( "MATCH (r:R) WHERE r.k <> 'y' RETURN r.k AS k, sum(r.a - 1) AS s",
        "type error: -: cannot apply to BOOLEAN and INTEGER" );
      ( "MATCH (r:R) RETURN r.k * 2 AS k, sum(r.a - 1) AS s",
        "type error: *: cannot apply to STRING and INTEGER" );
    ]

let suite =
  [
    tc "compiled and interpreted agree on 4000 random expressions" differential;
    tc "unbound variable in an untaken CASE branch" unbound_in_untaken_branch;
    tc "type errors are the interpreter's" type_error_is_interpreters;
    tc "fallback constructors go through Eval.eval_expr" fallback_goes_through_eval;
    tc "an invalid regex fails only when evaluated" invalid_regex_is_lazy;
    tc "aggregate errors keep the keys-then-groups order" aggregate_error_order;
  ]
