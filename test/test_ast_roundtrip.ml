(* Property: pretty-printing a randomly generated AST and re-parsing it
   yields the same AST.  This pins the printer and parser to each other
   at the structural level (the text-level fuzzing in test_fuzz.ml only
   checks stability). *)

open Cypher_ast.Ast
module Q = QCheck
module G = QCheck.Gen

let ident_gen = G.map (Printf.sprintf "v%d") (G.int_bound 20)
let label_gen = G.oneofl [ "A"; "B"; "Person"; "X" ]
let type_gen = G.oneofl [ "T"; "KNOWS"; "R" ]
let key_gen = G.oneofl [ "k"; "name"; "v" ]

let literal_gen =
  G.oneof
    [
      G.return L_null;
      G.map (fun b -> L_bool b) G.bool;
      (* the parser never produces a negative literal: -89 parses as the
         negation of 89, so the generator stays non-negative *)
      G.map (fun i -> L_int i) (G.int_range 0 99);
      G.map (fun s -> L_string s) (G.oneofl [ "a"; "xy"; "hello world" ]);
    ]

let rec expr_gen depth =
  if depth = 0 then
    G.oneof
      [
        G.map (fun l -> E_lit l) literal_gen;
        G.map (fun v -> E_var v) ident_gen;
        G.map (fun p -> E_param p) ident_gen;
      ]
  else
    let sub = expr_gen (depth - 1) in
    G.oneof
      [
        G.map (fun l -> E_lit l) literal_gen;
        G.map (fun v -> E_var v) ident_gen;
        G.map2 (fun a b -> E_arith (Add, a, b)) sub sub;
        G.map2 (fun a b -> E_arith (Mul, a, b)) sub sub;
        G.map2 (fun a b -> E_arith (Sub, a, b)) sub sub;
        G.map2 (fun a b -> E_arith (Pow, a, b)) sub sub;
        G.map2 (fun a b -> E_cmp (Lt, a, b)) sub sub;
        G.map2 (fun a b -> E_cmp (Eq, a, b)) sub sub;
        G.map2 (fun a b -> E_and (a, b)) sub sub;
        G.map2 (fun a b -> E_or (a, b)) sub sub;
        G.map (fun e -> E_not e) sub;
        G.map (fun e -> E_neg e) sub;
        G.map (fun e -> E_is_null e) sub;
        G.map (fun es -> E_list es) (G.list_size (G.int_bound 3) sub);
        G.map2 (fun k e -> E_map [ (k, e) ]) key_gen sub;
        G.map2 (fun e k -> E_prop (e, k)) (G.map (fun v -> E_var v) ident_gen) key_gen;
        G.map2 (fun a b -> E_in (a, b)) sub sub;
        G.map2
          (fun e i -> E_index (e, i))
          (G.map (fun es -> E_list es) (G.list_size (G.int_bound 2) sub))
          sub;
        G.map2 (fun a b -> E_starts_with (a, b)) sub sub;
        G.map
          (fun (s, w, b) ->
            E_case { case_subject = s; case_branches = [ (w, b) ]; case_default = Some b })
          (G.triple (G.option sub) sub sub);
        G.map2
          (fun v src -> E_list_comp { lc_var = v; lc_source = src; lc_where = None; lc_body = None })
          ident_gen sub;
        G.map2
          (fun v (src, pred) -> E_quantified (Q_any, v, src, pred))
          ident_gen (G.pair sub sub);
        G.map (fun e -> E_fn ("size", [ e ])) sub;
        G.map (fun e -> E_agg (Sum, false, e)) sub;
      ]

let node_pattern_gen =
  G.map3
    (fun name labels props -> { np_name = name; np_labels = labels; np_props = props })
    (G.option ident_gen)
    (G.list_size (G.int_bound 2) label_gen)
    (G.list_size (G.int_bound 2)
       (G.pair key_gen (G.map (fun l -> E_lit l) literal_gen)))

let len_gen =
  G.oneof
    [
      G.return None;
      G.return (Some { len_min = None; len_max = None });
      G.map (fun n -> Some { len_min = Some n; len_max = Some n }) (G.int_range 1 3);
      G.map (fun n -> Some { len_min = Some n; len_max = None }) (G.int_range 1 3);
      G.map (fun n -> Some { len_min = None; len_max = Some n }) (G.int_range 1 3);
      G.map2
        (fun a b -> Some { len_min = Some a; len_max = Some (a + b) })
        (G.int_range 0 2) (G.int_range 0 3);
    ]

(* canonical type regexes only: TR_seq/TR_alt carry >= 2 elements, so
   printing and re-parsing is the identity *)
let regex_gen =
  let atom = G.map (fun t -> TR_type t) type_gen in
  let alt2 = G.map2 (fun a b -> TR_alt [ a; b ]) atom atom in
  let post =
    G.map2
      (fun wrap r -> wrap r)
      (G.oneofl
         [ (fun r -> TR_star r); (fun r -> TR_plus r); (fun r -> TR_opt r) ])
      (G.oneof [ atom; alt2 ])
  in
  let unit_ = G.oneof [ atom; alt2; post ] in
  G.oneof [ unit_; G.map2 (fun a b -> TR_seq [ a; b ]) unit_ unit_ ]

let rel_pattern_gen =
  G.map3
    (fun (name, dir) (types, regex) (len, props) ->
      (* a regex hop replaces both the type list and the length range *)
      let types = if regex = None then types else [] in
      let len = if regex = None then len else None in
      { rp_name = name; rp_dir = dir; rp_types = types; rp_len = len;
        rp_props = props; rp_regex = regex })
    (G.pair (G.option ident_gen)
       (G.oneofl [ Left_to_right; Right_to_left; Undirected ]))
    (G.pair
       (G.list_size (G.int_bound 2) type_gen)
       (G.oneof [ G.return None; G.map (fun r -> Some r) regex_gen ]))
    (G.pair len_gen
       (G.list_size (G.int_bound 1)
          (G.pair key_gen (G.map (fun l -> E_lit l) literal_gen))))

let path_pattern_gen =
  G.map3
    (fun (name, restr) first rest ->
      { pp_name = name; pp_first = first; pp_rest = rest;
        pp_shortest = No_shortest; pp_restr = restr })
    (G.pair (G.option ident_gen) (G.oneofl [ Walk; Trail; Acyclic ]))
    node_pattern_gen
    (G.list_size (G.int_bound 3) (G.pair rel_pattern_gen node_pattern_gen))

(* label lists print as a set of :labels — normalise duplicates away *)
let normalize_expr e = e
let dedup l = List.sort_uniq compare l

let normalize_np np = { np with np_labels = dedup np.np_labels }

let normalize_rp rp = { rp with rp_types = dedup rp.rp_types }

let normalize_pp pp =
  {
    pp with
    pp_first = normalize_np pp.pp_first;
    pp_rest = List.map (fun (rp, np) -> (normalize_rp rp, normalize_np np)) pp.pp_rest;
  }

let expr_roundtrip =
  Q.Test.make ~name:"expression ASTs round-trip through print/parse"
    ~count:500
    (Q.make ~print:Cypher_ast.Pretty.expr_to_string (expr_gen 4))
    (fun e ->
      let printed = Cypher_ast.Pretty.expr_to_string e in
      match Cypher_parser.Parser.parse_expr_exn printed with
      | e' -> normalize_expr e' = normalize_expr e
      | exception exn ->
        Q.Test.fail_reportf "failed to re-parse %S: %s" printed
          (Printexc.to_string exn))

(* A list whose first element's text begins [v IN ...] without being a
   membership test at the top: the printer must parenthesize it, or the
   parser reads a comprehension over [$v17 AND v12].  Shrunk from a
   failing run of the property above. *)
let list_of_in_and () =
  let e =
    E_arith
      ( Sub,
        E_not (E_index (E_list [], E_lit (L_string "xy"))),
        E_list [ E_and (E_in (E_var "v16", E_param "v17"), E_var "v12") ] )
  in
  let printed = Cypher_ast.Pretty.expr_to_string e in
  Alcotest.(check bool)
    (Printf.sprintf "%S re-parses to the same AST" printed)
    true
    (Cypher_parser.Parser.parse_expr_exn printed = e)

let pattern_roundtrip =
  Q.Test.make ~name:"pattern ASTs round-trip through print/parse" ~count:500
    (Q.make
       ~print:(fun p -> Format.asprintf "%a" Cypher_ast.Pretty.pp_path_pattern p)
       path_pattern_gen)
    (fun p ->
      let p = normalize_pp p in
      let printed = Format.asprintf "%a" Cypher_ast.Pretty.pp_path_pattern p in
      match Cypher_parser.Parser.parse_pattern_exn printed with
      | [ p' ] -> normalize_pp p' = p
      | _ -> false
      | exception exn ->
        Q.Test.fail_reportf "failed to re-parse %S: %s" printed
          (Printexc.to_string exn))

let suite =
  Alcotest.test_case "a list's first element beginning v IN is parenthesized"
    `Quick list_of_in_and
  :: List.map QCheck_alcotest.to_alcotest [ expr_roundtrip; pattern_roundtrip ]
