(* Path finding: shortestPath / allShortestPaths / cheapestPath, GQL
   restrictor modes (TRAIL / ACYCLIC / SHORTEST) and relationship-type
   regexes — TCK-style cases plus differential checks of the planner's
   path operators against the reference semantics and the paper's naive
   enumeration oracle. *)

open Helpers
open Cypher_gen
module Engine = Cypher_engine.Engine
module Graph = Cypher_graph.Graph
module Value = Cypher_values.Value
module Registry = Cypher_obs.Registry

(* A diamond with a shortcut: a -1-> b -1-> d, a -1-> c -1-> d, and an
   expensive direct edge a -5-> d; plus a back edge d -G-> a. *)
let diamond () =
  (Engine.run_exn Graph.empty
     "CREATE (a:P {name:'a'})-[:F {w:1}]->(b:P {name:'b'})-[:F {w:1}]->(d:P \
      {name:'d'}), (a)-[:F {w:1}]->(c:P {name:'c'})-[:F {w:1}]->(d), \
      (a)-[:F {w:5}]->(d), (d)-[:G {w:1}]->(a)")
    .Engine.graph

let contains_s haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let run_both g q =
  match Engine.cross_check g q with
  | Ok t -> t
  | Error e -> Alcotest.fail e

(* Runs [q] through the cross-checker and compares the agreed table to
   the expected rows. *)
let expect g q fields rows () = check_table_bag q (table fields rows) (run_both g q)

let expect_error ?contains mode g q () =
  match Engine.query ~mode g q with
  | Ok _ -> Alcotest.failf "%S: expected an error" q
  | Error e -> (
    match contains with
    | None -> ()
    | Some frag ->
      if not (contains_s (Engine.error_message e) frag) then
        Alcotest.failf "%S: error %S does not mention %S" q
            (Engine.error_message e) frag)

(* --- TCK-style cases -------------------------------------------------- *)

let tck_cases =
  let g = diamond () in
  [
    ( "shortest: bound endpoints, direct edge wins",
      expect g
        "MATCH p = shortestPath((a:P {name:'a'})-[:F*]->(d:P {name:'d'})) \
         RETURN length(p)"
        [ "length(p)" ]
        [ [ ("length(p)", vint 1) ] ] );
    ( "shortest: single-hop pattern binds a relationship",
      expect g
        "MATCH shortestPath((a:P {name:'a'})-[r:F]->(d:P {name:'d'})) \
         RETURN r.w"
        [ "r.w" ]
        [ [ ("r.w", vint 5) ] ] );
    ( "shortest: unreachable pair yields no rows",
      expect g
        "MATCH p = shortestPath((b:P {name:'b'})-[:G*]->(c:P {name:'c'})) \
         RETURN length(p)"
        [ "length(p)" ] [] );
    ( "shortest: zero length when start equals end and 0 is allowed",
      expect g
        "MATCH p = shortestPath((a:P {name:'a'})-[*0..]->(a)) RETURN length(p)"
        [ "length(p)" ]
        [ [ ("length(p)", vint 0) ] ] );
    ( "shortest: cycle back to the start needs the back edge",
      expect g
        "MATCH p = shortestPath((a:P {name:'a'})-[*]->(a)) RETURN length(p)"
        [ "length(p)" ]
        [ [ ("length(p)", vint 2) ] ] );
    ( "shortest: kmin > 1 skips the direct edge",
      expect g
        "MATCH p = shortestPath((a:P {name:'a'})-[:F*2..]->(d:P {name:'d'})) \
         RETURN length(p)"
        [ "length(p)" ]
        [ [ ("length(p)", vint 2) ] ] );
    ( "shortest: type filter changes reachability",
      expect g
        "MATCH p = shortestPath((d:P {name:'d'})-[:G*]->(b:P {name:'b'})) \
         RETURN length(p)"
        [ "length(p)" ] [] );
    ( "shortest: unbound end enumerates a path per reachable node",
      expect g
        "MATCH p = shortestPath((a:P {name:'a'})-[:F*]->(x)) \
         RETURN x.name, length(p)"
        [ "x.name"; "length(p)" ]
        [
          [ ("x.name", vstr "b"); ("length(p)", vint 1) ];
          [ ("x.name", vstr "c"); ("length(p)", vint 1) ];
          [ ("x.name", vstr "d"); ("length(p)", vint 1) ];
        ] );
    ( "allShortestPaths: both two-hop routes tie once the shortcut is \
       excluded",
      expect g
        "MATCH p = allShortestPaths((a:P {name:'a'})-[:F*2..]->(d:P \
         {name:'d'})) RETURN length(p)"
        [ "length(p)" ]
        [ [ ("length(p)", vint 2) ]; [ ("length(p)", vint 2) ] ] );
    ( "allShortestPaths: single minimum is returned once",
      expect g
        "MATCH p = allShortestPaths((a:P {name:'a'})-[:F*]->(d:P {name:'d'})) \
         RETURN length(p)"
        [ "length(p)" ]
        [ [ ("length(p)", vint 1) ] ] );
    ( "cheapest: two cheap hops beat the expensive shortcut",
      expect g
        "MATCH p = cheapestPath((a:P {name:'a'})-[:F*]->(d:P {name:'d'}), \
         'w') RETURN length(p), reduce(c = 0, r IN relationships(p) | c + \
         r.w) AS cost"
        [ "length(p)"; "cost" ]
        [ [ ("length(p)", vint 2); ("cost", vint 2) ] ] );
    ( "cheapest: unreachable pair yields no rows",
      expect g
        "MATCH p = cheapestPath((b:P {name:'b'})-[:G*]->(c:P {name:'c'}), \
         'w') RETURN length(p)"
        [ "length(p)" ] [] );
    ( "regex: sequence of two types",
      expect g
        "MATCH (x)-[r:(F G)]->(y) RETURN x.name, y.name, size(r) AS hops"
        [ "x.name"; "y.name"; "hops" ]
        [
          [ ("x.name", vstr "a"); ("y.name", vstr "a"); ("hops", vint 2) ];
          [ ("x.name", vstr "b"); ("y.name", vstr "a"); ("hops", vint 2) ];
          [ ("x.name", vstr "c"); ("y.name", vstr "a"); ("hops", vint 2) ];
        ] );
    ( "regex: alternation with star",
      expect g
        "MATCH (x {name:'b'})-[r:((F|G)*)]->(y {name:'c'}) RETURN size(r) AS \
         hops"
        [ "hops" ]
        [ [ ("hops", vint 3) ] ] );
    ( "regex: optional type matches the empty walk",
      expect g
        "MATCH (x {name:'b'})-[r:(G?)]->(y) WHERE x = y RETURN size(r) AS \
         hops"
        [ "hops" ]
        [ [ ("hops", vint 0) ] ] );
    ( "trail: relationship-distinct walks only",
      expect (Engine.run_exn Graph.empty
                "CREATE (a:N {name:'a'})-[:R]->(b:N {name:'b'}), (b)-[:R]->(a)")
               .Engine.graph
        "MATCH TRAIL (x {name:'a'})-[*]->(y) RETURN y.name, count(*) AS c"
        [ "y.name"; "c" ]
        [
          [ ("y.name", vstr "b"); ("c", vint 1) ];
          [ ("y.name", vstr "a"); ("c", vint 1) ];
        ] );
    ( "acyclic: node-distinct walks cut the cycle",
      expect (Engine.run_exn Graph.empty
                "CREATE (a:N {name:'a'})-[:R]->(b:N {name:'b'}), (b)-[:R]->(a)")
               .Engine.graph
        "MATCH ACYCLIC (x {name:'a'})-[*]->(y) RETURN y.name"
        [ "y.name" ]
        [ [ ("y.name", vstr "b") ] ] );
    ( "cheapest: an infinite cost still yields the path",
      expect (Engine.run_exn Graph.empty
                "CREATE (a:N {name:'a'})-[:R {w: 1.0/0.0}]->(b:N {name:'b'}), \
                 (b)-[:R {w: 1}]->(c:N {name:'c'})")
               .Engine.graph
        "MATCH p = cheapestPath((a {name:'a'})-[:R*]->(c {name:'c'}), 'w') \
         RETURN length(p)"
        [ "length(p)" ]
        [ [ ("length(p)", vint 2) ] ] );
    ( "cheapest: ACYCLIC and TRAIL accept the cheapest path across a \
       zero-cost cycle",
      expect (Engine.run_exn Graph.empty
                "CREATE (a:N {name:'a'})-[:R {w: 0}]->(b:N {name:'b'})-[:R {w: \
                 0}]->(c:N {name:'c'})-[:R {w: 0}]->(b), (c)-[:R {w: \
                 1}]->(d:N {name:'d'}), (b)-[:R {w: 2}]->(d)")
               .Engine.graph
        "MATCH p = ACYCLIC cheapestPath((a {name:'a'})-[:R*]->(d {name:'d'}), \
         'w') MATCH q = TRAIL cheapestPath((a)-[:R*]->(d), 'w') RETURN \
         [n IN nodes(p) | n.name] AS acyclic, [n IN nodes(q) | n.name] AS \
         trail"
        [ "acyclic"; "trail" ]
        [
          [
            ("acyclic", vlist [ vstr "a"; vstr "b"; vstr "c"; vstr "d" ]);
            ("trail", vlist [ vstr "a"; vstr "b"; vstr "c"; vstr "d" ]);
          ];
        ] );
    ( "gql prefix: SHORTEST is shortestPath",
      expect g
        "MATCH p = SHORTEST (a:P {name:'a'})-[:F*]->(d:P {name:'d'}) RETURN \
         length(p)"
        [ "length(p)" ]
        [ [ ("length(p)", vint 1) ] ] );
    ( "gql prefix: ALL SHORTEST is allShortestPaths",
      expect g
        "MATCH p = ALL SHORTEST (a:P {name:'a'})-[:F*2..]->(d:P {name:'d'}) \
         RETURN length(p)"
        [ "length(p)" ]
        [ [ ("length(p)", vint 2) ]; [ ("length(p)", vint 2) ] ] );
    ( "restricted shortest: TRAIL SHORTEST cycle cannot reuse the back \
       edge",
      expect g
        "MATCH p = TRAIL SHORTEST (a:P {name:'a'})-[*]->(a) RETURN length(p)"
        [ "length(p)" ]
        [ [ ("length(p)", vint 2) ] ] );
  ]

(* --- typed errors ------------------------------------------------------ *)

let error_cases =
  let g = diamond () in
  let neg =
    (Engine.run_exn Graph.empty
       "CREATE (a:N {name:'a'})-[:R {w: -1}]->(b:N {name:'b'})")
      .Engine.graph
  in
  let untyped =
    (Engine.run_exn Graph.empty
       "CREATE (a:N {name:'a'})-[:R {w: 'x'}]->(b:N {name:'b'})")
      .Engine.graph
  in
  let nan =
    (Engine.run_exn Graph.empty
       "CREATE (a:N {name:'a'})-[:F {w: 0.0/0.0}]->(b:N {name:'b'})-[:F {w: \
        1}]->(c:N {name:'c'}), (a)-[:F {w: 5}]->(c)")
      .Engine.graph
  in
  (* s -1-> m -1-> e and x -(-1)-> e: the forward search from s never
     reaches the bad relationship, the backward search from e does *)
  let neg_behind =
    (Engine.run_exn Graph.empty
       "CREATE (s:N {name:'s'})-[:R {w: 1}]->(m:N {name:'m'})-[:R {w: \
        1}]->(e:N {name:'e'}), (:N {name:'x'})-[:R {w: -1}]->(e)")
      .Engine.graph
  in
  List.concat_map
    (fun mode ->
      let m = match mode with Engine.Planned -> "plan" | _ -> "ref" in
      [
        ( m ^ ": multi-segment shortestPath is a typed error",
          expect_error ~contains:"single-relationship pattern" mode g
            "MATCH p = shortestPath((a)-[:F*]->(b)-[:F*]->(c)) RETURN p" );
        ( m ^ ": shortestPath over a regex is a typed error",
          expect_error ~contains:"type regex" mode g
            "MATCH p = shortestPath((a)-[:(F G)]->(b)) RETURN p" );
        ( m ^ ": negative cost is rejected",
          expect_error ~contains:"negative" mode neg
            "MATCH p = cheapestPath((a {name:'a'})-[:R*]->(b {name:'b'}), \
             'w') RETURN p" );
        ( m ^ ": NaN cost is rejected",
          expect_error ~contains:"NaN" mode nan
            "MATCH p = cheapestPath((a {name:'a'})-[:F*]->(c {name:'c'}), \
             'w') RETURN p" );
        ( m ^ ": negative cost met only by the backward search is rejected",
          expect_error ~contains:"negative" mode neg_behind
            "MATCH p = cheapestPath((s {name:'s'})-[:R*]->(e {name:'e'}), \
             'w') RETURN p" );
        ( m ^ ": non-numeric cost is rejected",
          expect_error mode untyped
            "MATCH p = cheapestPath((a {name:'a'})-[:R*]->(b {name:'b'}), \
             'w') RETURN p" );
        ( m ^ ": a missing parameter in a path predicate is named",
          expect_error ~contains:"missing parameter: $nope" mode g
            "MATCH p = shortestPath((a:P {name:'a'})-[:F* {w: $nope}]->(d:P \
             {name:'d'})) RETURN p" );
        ( m ^ ": an unknown function in a path predicate is named",
          expect_error ~contains:"unknown function: nosuchfn" mode g
            "MATCH p = cheapestPath((a:P {name:'a'})-[:F* {w: \
             nosuchfn(1)}]->(d:P {name:'d'}), 'w') RETURN p" );
        (* each search reads the other's path: whichever runs first
           finds its variable unbound *)
        ( m ^ ": two searches reading each other's paths name the unbound \
               variable",
          expect_error ~contains:"references the unbound variable" mode g
            "MATCH (a:P {name:'a'}), (d:P {name:'d'}) MATCH p = \
             shortestPath((a)-[:F* {w: q.w}]->(d)), q = \
             shortestPath((d)-[:G* {w: p.w}]->(a)) RETURN p" );
        ( m ^ ": shortestPath in CREATE is rejected",
          expect_error mode g "CREATE shortestPath((a)-[:R*]->(b))" );
        ( m ^ ": regex in CREATE is rejected",
          expect_error mode g "CREATE (a)-[:(F G)]->(b)" );
      ])
    [ Engine.Planned; Engine.Reference ]
  @ [
      (* A tuple's patterns are satisfied under one assignment, so a
         search's predicate may read [k], which a pattern written after
         it binds: one search per [k], on the relationships whose [w]
         equals [k.w].  Both engines run the search after [k] is bound. *)
      ( "a path predicate reads a variable a later pattern of the tuple \
         binds",
        let g =
          (Engine.run_exn g "CREATE (:K {w: 1}), (:K {w: 5}), (:K {w: 7})")
            .Engine.graph
        in
        expect g
          "MATCH (a:P {name:'a'}), (d:P {name:'d'}) MATCH p = \
           shortestPath((a)-[:F* {w: k.w}]->(d)), (k:K) RETURN k.w AS w, \
           length(p) AS l"
          [ "w"; "l" ]
          [ [ ("w", vint 1); ("l", vint 2) ]; [ ("w", vint 5); ("l", vint 1) ] ] );
      (* [k] is bound by the pattern written before the search, so the
         search keeps its written place: the reference evaluator nests
         k, then p, then x. *)
      ( "a path predicate reading an earlier pattern's variable keeps the \
         tuple's order",
        fun () ->
          let g =
            (Engine.run_exn g
               "CREATE (:K {w: 1}), (:K {w: 5}), (:X {v: 1}), (:X {v: 2})")
              .Engine.graph
          in
          let row w names v =
            [ ("w", vint w); ("p", vlist (List.map vstr names)); ("v", vint v) ]
          in
          expect_ordered g
            "MATCH (a:P {name:'a'}), (d:P {name:'d'}) MATCH (k:K), p = \
             allShortestPaths((a)-[:F* {w: k.w}]->(d)), (x:X) RETURN k.w AS \
             w, [n IN nodes(p) | n.name] AS p, x.v AS v"
            [ "w"; "p"; "v" ]
            [
              row 1 [ "a"; "c"; "d" ] 1; row 1 [ "a"; "c"; "d" ] 2;
              row 1 [ "a"; "b"; "d" ] 1; row 1 [ "a"; "b"; "d" ] 2;
              row 5 [ "a"; "d" ] 1; row 5 [ "a"; "d" ] 2;
            ] );
    ]

(* --- planner integration ---------------------------------------------- *)

let explain_names_operator () =
  let g = diamond () in
  let check q frag =
    match Engine.explain g q with
    | Error e -> Alcotest.failf "explain %S: %s" q (Engine.error_message e)
    | Ok text ->
      if not (contains_s text frag) then
        Alcotest.failf "EXPLAIN %S does not mention %s:\n%s" q frag text
  in
  check
    "MATCH p = shortestPath((a:P {name:'a'})-[:F*]->(d:P {name:'d'})) RETURN \
     length(p)"
    "ShortestPath";
  check
    "MATCH p = allShortestPaths((a:P {name:'a'})-[:F*]->(d:P {name:'d'})) \
     RETURN length(p)"
    "AllShortestPaths";
  check
    "MATCH p = cheapestPath((a:P {name:'a'})-[:F*]->(d:P {name:'d'}), 'w') \
     RETURN length(p)"
    "CheapestPath";
  (* the undirected shapes the path benchmarks run *)
  check
    "MATCH p = shortestPath((a:P {name:'a'})-[:F*]-(d:P {name:'d'})) RETURN \
     length(p)"
    "ShortestPath";
  check
    "MATCH p = cheapestPath((a:P {name:'a'})-[:F*]-(d:P {name:'d'}), 'w') \
     RETURN length(p)"
    "CheapestPath";
  check "MATCH (x)-[r:(F G)]->(y) RETURN x" "RegexExpand";
  check "MATCH TRAIL (x)-[*1..2]->(y) RETURN x" "PathRestrict[trail]"

let profile_names_operator () =
  let g = diamond () in
  match
    Engine.profile g
      "MATCH p = shortestPath((a:P {name:'a'})-[:F*]->(d:P {name:'d'})) \
       RETURN length(p)"
  with
  | Error e -> Alcotest.fail (Engine.error_message e)
  | Ok text ->
    if not (contains_s text "ShortestPath") then
      Alcotest.failf "PROFILE does not mention ShortestPath:\n%s" text

let fallback_counter = Registry.counter "cypher_engine_reference_fallback_total"

let fallback_is_observable () =
  let g = diamond () in
  (* two shortest-path patterns in one MATCH: parses and scope-checks,
     but the planner refuses the tuple, so Planned mode must fall back
     to the reference evaluator — visibly. *)
  let q =
    "MATCH p = shortestPath((a:P {name:'a'})-[:F*]->(d:P {name:'d'})), q = \
     shortestPath((d)-[:G*]->(a)) RETURN length(p) + length(q) AS l"
  in
  let before = Registry.value fallback_counter in
  (match Engine.query ~mode:Engine.Planned g q with
  | Ok t ->
    check_table_bag q (table [ "l" ] [ [ ("l", vint 2) ] ]) t.Engine.table
  | Error e -> Alcotest.fail (Engine.error_message e));
  let after = Registry.value fallback_counter in
  if after <= before then
    Alcotest.failf "fallback counter did not move (%d -> %d)" before after;
  (* reference mode is not a fallback: the counter must stay put *)
  let before = Registry.value fallback_counter in
  (match Engine.query ~mode:Engine.Reference g q with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.error_message e));
  if Registry.value fallback_counter <> before then
    Alcotest.fail "reference-mode run incremented the fallback counter";
  (* EXPLAIN surfaces the same refusal *)
  match Engine.explain g q with
  | Error e -> Alcotest.fail (Engine.error_message e)
  | Ok text ->
    if not (contains_s text "not planned") then
      Alcotest.failf "EXPLAIN does not surface the planner refusal:\n%s" text

let social_agrees () =
  (* both engines on a social graph larger than the fuzz's random ones:
     many sources, long searches, one cheapest-path cost property *)
  let g = Generate.social ~seed:7 ~people:60 ~avg_friends:4 in
  let name i =
    match
      Graph.node_prop g
        (List.nth (Graph.nodes_with_label g "Person") i)
        "name"
    with
    | Value.String s -> s
    | _ -> Alcotest.fail "social node without a name"
  in
  List.iter
    (fun q ->
      let t = run_both g q in
      if Cypher_table.Table.rows t = [] then
        Alcotest.failf "%S: no rows, so nothing was compared" q)
    [
      "MATCH (a:Person), (b:Person) WHERE a.name < b.name MATCH p = \
       shortestPath((a)-[:FRIEND*]->(b)) RETURN length(p) AS l, count(*) AS \
       c ORDER BY l";
      Printf.sprintf
        "MATCH (a:Person {name: '%s'}) MATCH p = \
         allShortestPaths((a)-[:FRIEND*]-(b:Person)) RETURN b.name, \
         length(p)"
        (name 0);
      Printf.sprintf
        "MATCH (a:Person {name: '%s'}), (b:Person {name: '%s'}) MATCH p = \
         cheapestPath((a)-[:FRIEND*]-(b), 'since') RETURN length(p)"
        (name 1) (name 17);
    ]

(* --- differential fuzz: planner vs reference -------------------------- *)

let fuzz_differential () =
  let rng = Prng.create 20260808 in
  let failures = ref [] in
  for round = 1 to 60 do
    let g =
      Generate.random_uniform
        ~seed:(Prng.int rng 1_000_000)
        ~nodes:(2 + Prng.int rng 7)
        ~rels:(Prng.int rng 14) ~rel_types:[ "A"; "B" ] ~labels:[ "X"; "Y" ]
    in
    (* the single-shortest queries project only length(p): the choice
       among equal-length paths is implementation-defined, the length is
       not.  allShortestPaths and cheapestPath project the full path. *)
    let queries =
      [
        "MATCH p = shortestPath((a)-[*]->(b)) RETURN length(p)";
        "MATCH p = shortestPath((a:X)-[:A*0..]->(b)) RETURN length(p)";
        "MATCH p = shortestPath((a)-[*2..4]->(b)) RETURN length(p)";
        "MATCH p = shortestPath((a)-[*]-(b)) RETURN length(p)";
        "MATCH p = allShortestPaths((a)-[*]->(b)) RETURN nodes(p), \
         relationships(p)";
        "MATCH p = allShortestPaths((a)-[:A*1..3]->(b)) RETURN nodes(p)";
        "MATCH p = TRAIL SHORTEST (a)-[*]->(b) RETURN length(p)";
        "MATCH p = ACYCLIC SHORTEST (a)-[*]->(b) RETURN length(p)";
        "MATCH (x)-[r:(A B)]->(y) RETURN x, y, r";
        "MATCH (x)-[r:((A|B)+)]->(y) RETURN x, y, size(r)";
        "MATCH (x)-[r:(A* B?)]->(y) RETURN x, y, size(r)";
        "MATCH TRAIL (x)-[*1..3]->(y) RETURN x, y, count(*)";
        "MATCH ACYCLIC (x)-[*1..3]-(y) RETURN x, y";
      ]
    in
    List.iter
      (fun q ->
        match Engine.cross_check g q with
        | Ok _ -> ()
        | Error e ->
          failures := Printf.sprintf "round %d: %s" round e :: !failures)
      queries
  done;
  match !failures with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d differential failures; first: %s" (List.length fs)
      (List.nth fs (List.length fs - 1))

(* A random graph of [V {id}] nodes whose [E] relationships all carry an
   integer cost [w] in [0, 3], so zero-cost cycles are common.  Built by
   script so the cost exists on every relationship. *)
let weighted_graph rng =
  let n = 3 + Prng.int rng 5 in
  let g =
    (Engine.run_exn Graph.empty
       (Printf.sprintf "UNWIND range(0, %d) AS i CREATE (:V {id: i})" (n - 1)))
      .Engine.graph
  in
  let g = ref g in
  for _ = 1 to 1 + Prng.int rng (2 * n) do
    g :=
      (Engine.run_exn !g
         (Printf.sprintf
            "MATCH (a:V {id: %d}), (b:V {id: %d}) CREATE (a)-[:E {w: %d}]->(b)"
            (Prng.int rng n) (Prng.int rng n) (Prng.int rng 4)))
        .Engine.graph
  done;
  !g

(* The least total cost from node [V {id: 0}] to every other node it
   reaches, by brute force over [Naive.paths] (every relationship-distinct
   walk): a result that does not depend on the search both engines
   share.  [directed] keeps only the walks that follow each relationship
   from source to target. *)
let oracle_costs g ~directed =
  let int_prop get x k =
    match get g x k with Value.Int i -> i | _ -> Alcotest.fail "missing int"
  in
  let best = Hashtbl.create 8 in
  List.iter
    (fun (p : Value.path) ->
      let rec walk cur cost = function
        | [] -> Some (cur, cost)
        | (r, next) :: rest ->
          if
            directed
            && not
                 (Cypher_values.Ids.equal_node (Graph.src g r) cur
                 && Cypher_values.Ids.equal_node (Graph.tgt g r) next)
          then None
          else walk next (cost + int_prop Graph.rel_prop r "w") rest
      in
      if int_prop Graph.node_prop p.path_start "id" = 0 then
        match walk p.path_start 0 p.path_steps with
        | Some (last, c) ->
          let b = int_prop Graph.node_prop last "id" in
          if b <> 0 && Option.fold ~none:true ~some:(fun c' -> c < c') (Hashtbl.find_opt best b)
          then Hashtbl.replace best b c
        | None -> ())
    (Cypher_semantics.Naive.paths g ~max_len:(Graph.rel_count g));
  List.sort compare (Hashtbl.fold (fun b c acc -> (b, c) :: acc) best [])

(* Both engines' cheapestPath costs from [V {id: 0}] on [g] against the
   oracle, directed and undirected, under every restrictor: a cheapest
   path is node-simple, so TRAIL and ACYCLIC must accept it, zero-cost
   cycles included.  The engines share the search and its tie-break, so
   their full rows (path length included) must also agree. *)
let check_cheapest_costs what g =
  List.iter
    (fun (arrow, directed) ->
      let expected = oracle_costs g ~directed in
      List.iter
        (fun restr ->
          let q =
            Printf.sprintf
              "MATCH (a:V {id: 0}), (b:V) WHERE b.id <> 0 MATCH p = %s \
               cheapestPath((a)%s(b), 'w') RETURN b.id AS b, length(p) AS \
               l, reduce(c = 0, r IN relationships(p) | c + r.w) AS cost"
              restr arrow
          in
          let run mode =
            match Engine.query ~mode g q with
            | Ok out -> out.Engine.table
            | Error e -> Alcotest.failf "%s, %s: %s" what q (Engine.error_message e)
          in
          let reference = run Engine.Reference and planned = run Engine.Planned in
          if not (Cypher_table.Table.bag_equal reference planned) then
            Alcotest.failf "%s, %s: engines disagree" what q;
          let costs =
            List.sort compare
              (List.map
                 (fun row ->
                   match
                     ( Cypher_table.Record.find_or_null row "b",
                       Cypher_table.Record.find_or_null row "cost" )
                   with
                   | Value.Int b, Value.Int c -> (b, c)
                   | _ -> Alcotest.failf "%s: non-integer row" what)
                 (Cypher_table.Table.rows reference))
          in
          if costs <> expected then
            Alcotest.failf "%s, %s: costs %s, oracle %s" what q
              (String.concat " " (List.map (fun (b, c) -> Printf.sprintf "%d:%d" b c) costs))
              (String.concat " " (List.map (fun (b, c) -> Printf.sprintf "%d:%d" b c) expected)))
        [ ""; "TRAIL"; "ACYCLIC" ])
    [ ("-[:E*]->", true); ("-[:E*]-", false) ]

let fuzz_cheapest_differential () =
  let rng = Prng.create 4242 in
  for round = 1 to 60 do
    check_cheapest_costs (Printf.sprintf "round %d" round) (weighted_graph rng)
  done

(* The search reads costs off cost columns that a first search fills and
   that live as long as their blocks.  Every write that rebuilds a block
   must leave its column behind: after a search has filled the columns
   of a graph, a SET on the relationships it relaxed, a DELETE and a
   CREATE each give the oracle's answer, as does the same write shipped
   as a change record (WAL recovery and replicas apply those, through
   [Graph.replace_rel] for a SET) onto a snapshot-loaded copy whose
   columns are filled too; the graph taken before the writes keeps its
   own answer. *)
let cheapest_sees_every_rebuild () =
  let module Snapshot = Cypher_storage.Snapshot in
  let rng = Prng.create 515 in
  for round = 1 to 8 do
    let what = Printf.sprintf "round %d" round in
    let g = weighted_graph rng in
    check_cheapest_costs (what ^ ", fresh") g;
    let loaded =
      match Snapshot.decode (Snapshot.encode g) with
      | Ok (l, _) -> l
      | Error e -> Alcotest.failf "%s: %s" what e
    in
    check_cheapest_costs (what ^ ", snapshot reload") loaded;
    List.iter
      (fun (write, q) ->
        let g' = (Engine.run_exn g q).Engine.graph in
        check_cheapest_costs (Printf.sprintf "%s, %s" what write) g';
        match
          Snapshot.apply_change loaded
            (Snapshot.encode_change ~base:g g' (Graph.delta_between ~since:g g'))
        with
        | Ok applied ->
          check_cheapest_costs (Printf.sprintf "%s, %s as a change record" what write)
            applied
        | Error e -> Alcotest.failf "%s, %s: %s" what write e)
      [
        ("SET", "MATCH (:V {id: 0})-[r:E]-() SET r.w = (r.w + 3) % 4");
        ( "DELETE",
          "MATCH (:V {id: 0})-[r:E]-() WITH r ORDER BY id(r) DESC LIMIT 1 DELETE r" );
        ( "CREATE",
          "MATCH (a:V {id: 0}), (b:V) WHERE b.id <> 0 WITH a, b ORDER BY b.id \
           DESC LIMIT 1 CREATE (a)-[:E {w: 0}]->(b)" );
      ];
    check_cheapest_costs (what ^ ", the graph before the writes") g
  done

(* One hub's block holds Int, Float, +∞ and one or more bad costs, each
   read twice (the second time off a filled column).  Both engines raise
   the typed error of the first bad relationship the search relaxes —
   the newest of the hub's — with the message the record-read search
   gave; the relationships that the type filter or a property predicate
   excludes never raise, costs or not. *)
let cheapest_mixed_costs_in_one_block () =
  let base =
    "CREATE (h:H {name:'h'})-[:F {w: 1, ok: true}]->(:M {name:'a'})-[:F {w: \
     1, ok: true}]->(t:T {name:'t'}), (h)-[:F {w: 0.5, ok: true}]->(:M \
     {name:'b'})-[:F {w: 2.5, ok: true}]->(t), (h)-[:F {w: 1.0/0.0, ok: \
     true}]->(t)"
  in
  let missing = "(h)-[:F]->(t)" and string = "(h)-[:F {w: 'x'}]->(t)"
  and negative = "(h)-[:F {w: -1}]->(t)" and nan = "(h)-[:F {w: 0.0/0.0}]->(t)" in
  let no_cost = Engine.Runtime_error "cheapestPath: relationship has no 'w' cost property"
  and not_number =
    Engine.Type_error "cheapestPath: cost property 'w' is STRING, expected a number"
  and below_zero = Engine.Runtime_error "cheapestPath: negative 'w' cost on a relationship"
  and not_a_cost = Engine.Runtime_error "cheapestPath: NaN 'w' cost on a relationship" in
  let query arrow pred =
    Printf.sprintf
      "MATCH p = cheapestPath((h:H)%s(t:T), 'w') RETURN [n IN nodes(p) | n.name] AS p"
      (Printf.sprintf arrow pred)
  in
  List.iter
    (fun (extra, want) ->
      let g = (Engine.run_exn Graph.empty (String.concat ", " (base :: extra))).Engine.graph in
      List.iter
        (fun q ->
          List.iter
            (fun mode ->
              for _ = 1 to 2 do
                match Engine.query ~mode g q with
                | Error e when e = want -> ()
                | Error e -> Alcotest.failf "%s: %s" q (Engine.error_message e)
                | Ok _ -> Alcotest.failf "%s: expected %s" q (Engine.error_message want)
              done)
            [ Engine.Reference; Engine.Planned ])
        [ query "-[:F*%s]->" ""; query "-[:F*%s]-" "" ];
      (* the predicate and the type filter exclude every bad one *)
      let g =
        (Engine.run_exn g "MATCH (h:H), (t:T) CREATE (h)-[:X]->(t), (h)-[:X {w: 'y'}]->(t)")
          .Engine.graph
      in
      List.iter
        (fun q ->
          expect g q [ "p" ] [ [ ("p", Value.List [ vstr "h"; vstr "a"; vstr "t" ]) ] ] ();
          expect g q [ "p" ] [ [ ("p", Value.List [ vstr "h"; vstr "a"; vstr "t" ]) ] ] ())
        [ query "-[:F* %s]->" "{ok: true}"; query "-[:F* %s]-" "{ok: true}" ])
    [
      ([ missing ], no_cost);
      ([ string ], not_number);
      ([ negative ], below_zero);
      ([ nan ], not_a_cost);
      ([ negative; missing ], no_cost);
      ([ missing; nan; string ], not_number);
      ([ string; negative ], below_zero);
      ([ nan; "(h)-[:F {w: -1.5}]->(t)" ], below_zero);
      ([ missing; string; negative; nan ], not_a_cost);
    ]

(* Searches on one graph value alternate their cost key, so the blocks
   they expand swap columns; each answer is the one for its key. *)
let cheapest_alternating_cost_keys () =
  let g =
    (Engine.run_exn Graph.empty
       "CREATE (a:K {name:'a'})-[:F {since: 1, w: 10}]->(b:K {name:'b'})-[:F \
        {since: 1, w: 10}]->(d:K {name:'d'}), (a)-[:F {since: 5, w: 1}]->(d), \
        (d)-[:F {since: 1}]->(:K {name:'e'})")
      .Engine.graph
  in
  let q key =
    Printf.sprintf
      "MATCH p = cheapestPath((a:K {name:'a'})-[:F*]-(d:K {name:'d'}), '%s') \
       RETURN [n IN nodes(p) | n.name] AS p"
      key
  in
  let path names = [ [ ("p", Value.List (List.map vstr names)) ] ] in
  List.iter
    (fun key ->
      expect g (q key) [ "p" ]
        (if key = "since" then path [ "a"; "b"; "d" ] else path [ "a"; "d" ])
        ())
    [ "since"; "w"; "since"; "w"; "since" ];
  expect_error ~contains:"no 'w' cost property" Engine.Planned g
    "MATCH p = cheapestPath((a:K {name:'a'})-[:F*]-(e:K {name:'e'}), 'w') RETURN p" ();
  expect g
    "MATCH p = cheapestPath((a:K {name:'a'})-[:F*]-(e:K {name:'e'}), 'since') \
     RETURN [n IN nodes(p) | n.name] AS p"
    [ "p" ] (path [ "a"; "b"; "d"; "e" ]) ()

(* [var_length_cap] bounds an unbounded hop in both engines, plain and
   regex alike, on the chain 0 -> 1 -> 2 -> 3. *)
let var_length_cap_bounds_both_engines () =
  let g =
    (Engine.run_exn Graph.empty
       "CREATE (:N {i:0})-[:R]->(:N {i:1})-[:R]->(:N {i:2})-[:R]->(:N {i:3})")
      .Engine.graph
  in
  let config = { cfg with Cypher_semantics.Config.var_length_cap = Some 1 } in
  List.iter
    (fun (hop, is) ->
      let q = Printf.sprintf "MATCH (a:N {i:0})%s(b) RETURN b.i AS i" hop in
      match Engine.cross_check ~config g q with
      | Error e -> Alcotest.fail e
      | Ok t ->
        check_table_bag q
          (table [ "i" ] (List.map (fun i -> [ ("i", vint i) ]) is))
          t)
    [ ("-[*]->", [ 1 ]); ("-[*2..]->", []); ("-[:(R*)]->", [ 0; 1 ]) ]

(* A type regex as an [Re] over words of type names, each name followed
   by ';' — built from the AST, independently of [Type_regex]'s NFA. *)
let rec re_of_type_regex = function
  | Cypher_ast.Ast.TR_type t -> Re.str (t ^ ";")
  | TR_seq rs -> Re.seq (List.map re_of_type_regex rs)
  | TR_alt rs -> Re.alt (List.map re_of_type_regex rs)
  | TR_star r -> Re.rep (re_of_type_regex r)
  | TR_plus r -> Re.seq [ re_of_type_regex r; Re.rep (re_of_type_regex r) ]
  | TR_opt r -> Re.opt (re_of_type_regex r)

(* An RPQ hop's matches by definition: every relationship-distinct walk
   of [Naive.paths] that follows the pattern's direction and whose word
   of type names the regex matches.  Both engines walk with the same
   kernel, so this oracle is what keeps that kernel honest. *)
let oracle_rpq () =
  let rng = Prng.create 7331 in
  for round = 1 to 40 do
    let g =
      Generate.random_uniform
        ~seed:(Prng.int rng 1_000_000)
        ~nodes:(1 + Prng.int rng 5)
        ~rels:(Prng.int rng 7) ~rel_types:[ "A"; "B" ] ~labels:[ "X" ]
    in
    let walks = Cypher_semantics.Naive.paths g ~max_len:(Graph.rel_count g) in
    List.iter
      (fun regex ->
        let re =
          match Cypher_parser.Parser.parse_pattern_exn ("()-[:" ^ regex ^ "]->()") with
          | [ { Cypher_ast.Ast.pp_rest = [ ({ rp_regex = Some re; _ }, _) ]; _ } ] ->
            Re.compile (Re.whole_string (re_of_type_regex re))
          | _ -> Alcotest.failf "%s: not a regex hop" regex
        in
        List.iter
          (fun (arrow, directed) ->
            let follows (p : Value.path) =
              let rec ok cur = function
                | [] -> true
                | (r, next) :: rest ->
                  Cypher_values.Ids.equal_node (Graph.src g r) cur
                  && Cypher_values.Ids.equal_node (Graph.tgt g r) next
                  && ok next rest
              in
              (not directed) || ok p.path_start p.path_steps
            in
            let word (p : Value.path) =
              String.concat ""
                (List.map (fun (r, _) -> Graph.rel_type g r ^ ";") p.path_steps)
            in
            let expected =
              List.filter_map
                (fun (p : Value.path) ->
                  if follows p && Re.execp re (word p) then
                    let last =
                      List.fold_left (fun _ (_, n) -> n) p.path_start p.path_steps
                    in
                    Some
                      [
                        ("x", Value.Node p.path_start);
                        ("y", Value.Node last);
                        ("r", vlist (List.map (fun (r, _) -> Value.Rel r) p.path_steps));
                      ]
                  else None)
                walks
            in
            let q =
              Printf.sprintf "MATCH (x)-[r:%s]%s(y) RETURN x, y, r" regex arrow
            in
            List.iter
              (fun mode ->
                match Engine.query ~mode g q with
                | Error e -> Alcotest.failf "round %d, %s: %s" round q
                    (Engine.error_message e)
                | Ok out ->
                  check_table_bag
                    (Printf.sprintf "round %d, %s (%s)" round q
                       (match mode with Engine.Planned -> "planned" | _ -> "reference"))
                    (table [ "x"; "y"; "r" ] expected)
                    out.Engine.table)
              [ Engine.Reference; Engine.Planned ])
          [ ("->", true); ("-", false) ])
      [ "(A B)"; "((A|B)+)"; "(A* B?)" ]
  done

(* --- the naive oracle (satellite proof) -------------------------------- *)

(* [Naive.paths] enumerates every relationship-distinct walk of the
   graph.  The minimal walk length between two nodes, computed by brute
   force over that enumeration, must equal what shortestPath returns —
   in both engines.  This is the differential proof that the visited-set
   pruning in the BFS cannot lose a shorter (or equal-length, when the
   first is rejected by a restrictor) alternative. *)
let oracle_shortest_lengths () =
  let rng = Prng.create 1337 in
  for round = 1 to 40 do
    let g =
      Generate.random_uniform
        ~seed:(Prng.int rng 1_000_000)
        ~nodes:(2 + Prng.int rng 4)
        ~rels:(Prng.int rng 7) ~rel_types:[ "A" ] ~labels:[ "X" ]
    in
    let all = Cypher_semantics.Naive.paths g ~max_len:(Graph.rel_count g) in
    (* brute-force shortest length per ordered pair, excluding the empty
       walk (kmin defaults to 1) *)
    let best = Hashtbl.create 16 in
    List.iter
      (fun p ->
        let len = List.length p.Value.path_steps in
        (* [paths] enumerates undirected traversals too; keep only the
           forward-directed ones to mirror (a)-[*]->(b) *)
        let directed =
          let rec ok cur = function
            | [] -> true
            | (r, next) :: rest ->
              Graph.src g r = cur && Graph.tgt g r = next && ok next rest
          in
          ok p.Value.path_start p.Value.path_steps
        in
        if len >= 1 && directed then begin
          let key =
            ( Cypher_values.Ids.node_to_int p.Value.path_start,
              Cypher_values.Ids.node_to_int
                (match List.rev p.Value.path_steps with
                | (_, last) :: _ -> last
                | [] -> p.Value.path_start) )
          in
          match Hashtbl.find_opt best key with
          | Some l when l <= len -> ()
          | _ -> Hashtbl.replace best key len
        end)
      all;
    let expected =
      Hashtbl.fold (fun _ len acc -> (len, 1) :: acc) best []
      |> List.sort compare
      |> fun pairs ->
      (* fold equal lengths into (length, count) rows *)
      List.fold_left
        (fun acc (l, c) ->
          match acc with
          | (l', c') :: rest when l' = l -> (l', c' + c) :: rest
          | _ -> (l, c) :: acc)
        [] pairs
      |> List.rev
    in
    let q =
      "MATCH p = shortestPath((a)-[*]->(b)) RETURN length(p) AS l, count(*) \
       AS c ORDER BY l"
    in
    let expected_table =
      table [ "l"; "c" ]
        (List.map (fun (l, c) -> [ ("l", vint l); ("c", vint c) ]) expected)
    in
    List.iter
      (fun mode ->
        match Engine.query ~mode g q with
        | Error e -> Alcotest.failf "round %d: %s" round (Engine.error_message e)
        | Ok out ->
          check_table_bag
            (Printf.sprintf "round %d (%s)" round
               (match mode with Engine.Planned -> "planned" | _ -> "reference"))
            expected_table out.Engine.table)
      [ Engine.Reference; Engine.Planned ]
  done

(* Equal-length alternatives must survive pruning: when a restrictor
   or the rest of the pattern tuple rejects the first minimal candidate,
   another candidate of the same length must still be found.  Adjacency
   lists put the newest relationship first, so the graphs with two
   routes are built in both orders: whichever route the search offers
   first, one order makes it the rejected one. *)
let restrictor_does_not_lose_alternatives () =
  let build script = (Engine.run_exn Graph.empty script).Engine.graph in
  let check g q fields rows =
    List.iter
      (fun mode ->
        match Engine.query ~mode g q with
        | Error e -> Alcotest.fail (Engine.error_message e)
        | Ok out -> check_table_bag q (table fields rows) out.Engine.table)
      [ Engine.Reference; Engine.Planned ]
  in
  let in_both_orders r1 r2 q names =
    List.iter
      (fun routes ->
        check
          (build ("CREATE (a:N {name:'a'}), (c:N {name:'c'}), " ^ routes))
          q [ "n" ]
          [ [ ("n", vlist (List.map vstr names)) ] ])
      [ r1 ^ ", " ^ r2; r2 ^ ", " ^ r1 ]
  in
  (* ACYCLIC shortest a->c: the x route and the b route are both length
     2 and acyclic; the self-loop on x must not poison the search *)
  check
    (build
       "CREATE (a:N {name:'a'})-[:R]->(b:N {name:'b'}), (b)-[:R]->(c:N \
        {name:'c'}), (a)-[:R]->(x:N {name:'x'}), (x)-[:R]->(x), \
        (x)-[:R]->(c)")
    "MATCH p = ACYCLIC SHORTEST (a {name:'a'})-[*]->(c {name:'c'}) RETURN \
     length(p)"
    [ "length(p)" ]
    [ [ ("length(p)", vint 2) ] ];
  (* three hops: through the loop on x, which ACYCLIC rejects, or
     through b and d *)
  in_both_orders "(a)-[:R]->(x:N {name:'x'})-[:R]->(x), (x)-[:R]->(c)"
    "(a)-[:R]->(:N {name:'b'})-[:R]->(:N {name:'d'})-[:R]->(c)"
    "MATCH p = ACYCLIC SHORTEST (a {name:'a'})-[*3..]->(c {name:'c'}) \
     RETURN [n IN nodes(p) | n.name] AS n"
    [ "a"; "b"; "d"; "c" ];
  (* the second pattern needs the relationship a->b, so a shortest path
     through b leaves it nothing *)
  in_both_orders "(a)-[:R]->(:N {name:'b'})-[:R]->(c)"
    "(a)-[:R]->(:N {name:'x'})-[:R]->(c)"
    "MATCH p = shortestPath((a {name:'a'})-[*]->(c {name:'c'})), \
     (a)-[:R]->(b {name:'b'}) RETURN [n IN nodes(p) | n.name] AS n"
    [ "a"; "x"; "c" ]

(* SET on a relationship reaches every reader of the adjacency lists —
   Expand's property filter, the shortest-path predicate and the
   cheapest-path cost, in both engines — while the graph value taken
   before the SET keeps the old value for all of them. *)
let set_rel_prop_reaches_adjacency () =
  let before = diamond () in
  let after =
    (Engine.run_exn before
       "MATCH (:P {name:'a'})-[r:F {w:5}]->(:P {name:'d'}) SET r.w = 1")
      .Engine.graph
  in
  let names rows = List.map (fun n -> [ ("x", vstr n) ]) rows in
  let expand =
    "MATCH (:P {name:'a'})-[:F {w: 1}]->(x) RETURN x.name AS x"
  in
  let shortest =
    "MATCH p = shortestPath((a:P {name:'a'})-[:F* {w: 1}]->(d:P {name:'d'})) \
     RETURN length(p) AS l"
  in
  let cheapest =
    "MATCH p = cheapestPath((a:P {name:'a'})-[:F*]->(d:P {name:'d'}), 'w') \
     RETURN length(p) AS l, reduce(s = 0, r IN relationships(p) | s + r.w) \
     AS c"
  in
  expect after expand [ "x" ] (names [ "b"; "c"; "d" ]) ();
  expect after shortest [ "l" ] [ [ ("l", vint 1) ] ] ();
  expect after cheapest [ "l"; "c" ] [ [ ("l", vint 1); ("c", vint 1) ] ] ();
  expect before expand [ "x" ] (names [ "b"; "c" ]) ();
  expect before shortest [ "l" ] [ [ ("l", vint 2) ] ] ();
  expect before cheapest [ "l"; "c" ] [ [ ("l", vint 2); ("c", vint 2) ] ] ()

(* --- the kernel's pooled search state ----------------------------------- *)

module Path_search = Cypher_algos.Path_search
module Ids = Cypher_values.Ids

(* Forward and backward neighbour functions over [edges], given as
   (relationship, source, target, cost) on hand-picked ids. *)
let adjacency edges =
  let along from_ to_ n f =
    List.iter
      (fun e ->
        if from_ e = Ids.node_to_int n then
          let r, _, _, w = e in
          f (Ids.rel_of_int r) (Ids.node_of_int (to_ e)) w)
      edges
  in
  ( along (fun (_, a, _, _) -> a) (fun (_, _, b, _) -> b),
    along (fun (_, _, b, _) -> b) (fun (_, a, _, _) -> a) )

let shortest_steps ?bwd fwd s e ~all =
  let found = ref [] in
  Path_search.shortest ?bwd fwd (Ids.node_of_int s) (Ids.node_of_int e) ~kmin:1
    ~kmax:max_int ~all ~accept:(fun steps ->
      found := steps :: !found;
      true);
  List.rev !found

let cheapest_steps fwd bwd s e =
  Path_search.cheapest ~fwd ~bwd (Ids.node_of_int s) (Ids.node_of_int e)

let check_steps msg expected actual =
  Alcotest.(check (list (pair int int)))
    msg expected
    (List.map (fun (r, n) -> (Ids.rel_to_int r, Ids.node_to_int n)) actual)

(* A search that fails half way must leave nothing behind for the next
   one: after each failure below, the next search's endpoints are the
   same, and a label left from the failed search on node 1 would offer a
   false two-hop meeting through it. *)
let failed_search_leaves_no_marks () =
  (* cheapestPath: the forward side settles 0 and reaches 5, the backward
     side settles 9 and reaches 1 and 2, then 5 -(-1)-> 6 is relaxed *)
  let fwd, bwd =
    adjacency [ (100, 0, 5, 1.); (101, 5, 6, -1.); (102, 1, 9, 1.); (103, 2, 9, 1.) ]
  in
  (match cheapest_steps fwd bwd 0 9 with
  | _ -> Alcotest.fail "a negative cost was accepted"
  | exception Path_search.Invalid_cost _ -> ());
  let fwd, bwd = adjacency [ (200, 0, 1, 1.); (201, 1, 3, 1.); (202, 3, 9, 1.) ] in
  (match cheapest_steps fwd bwd 0 9 with
  | Some (c, steps) ->
    Alcotest.(check (float 0.)) "cost after a failed search" 3. c;
    check_steps "path after a failed search" [ (200, 1); (201, 3); (202, 9) ] steps
  | None -> Alcotest.fail "no path after a failed search");
  (* shortestPath: the forward side reaches 5 and 7, the backward side
     reaches 1, and expanding 1 backwards meets an unbound variable *)
  let fwd, bwd = adjacency [ (100, 0, 5, ()); (101, 0, 7, ()); (102, 1, 9, ()) ] in
  let bwd n =
    if Ids.node_to_int n = 1 then
      raise (Cypher_semantics.Eval.Eval_error "unbound variable: x")
    else bwd n
  in
  (match shortest_steps ~bwd fwd 0 9 ~all:false with
  | _ -> Alcotest.fail "the neighbour function's error was lost"
  | exception Cypher_semantics.Eval.Eval_error _ -> ());
  let fwd, bwd =
    adjacency [ (300, 0, 1, ()); (301, 1, 3, ()); (302, 3, 4, ()); (303, 4, 9, ()) ]
  in
  match shortest_steps ~bwd fwd 0 9 ~all:false with
  | [ steps ] ->
    check_steps "path after a failed search" [ (300, 1); (301, 3); (302, 4); (303, 9) ]
      steps
  | found -> Alcotest.failf "%d paths after a failed search" (List.length found)

(* Equal heap keys pop first-in first-out: from s, the entries of a, b
   and c all cost 1, and whichever settles first becomes x's parent on
   the cheapest path s ~> x -> e. *)
let cheapest_ties_pop_in_insertion_order () =
  let edges =
    [ (1, 0, 1, 1.); (2, 0, 2, 1.); (3, 0, 3, 1.); (4, 3, 4, 1.); (5, 2, 4, 1.);
      (6, 1, 4, 1.); (7, 4, 9, 10.) ]
  in
  let fwd, bwd = adjacency edges in
  match cheapest_steps fwd bwd 0 9 with
  | Some (c, steps) ->
    Alcotest.(check (float 0.)) "cost" 12. c;
    check_steps "the first-pushed route" [ (1, 1); (6, 4); (7, 9) ] steps
  | None -> Alcotest.fail "no path"

(* The tables start at 256 slots and grow with the nodes a search
   touches; searches far past that, between two small ones, must agree
   with the answers by construction. *)
let search_state_grows_past_initial_capacity () =
  let chain n = List.init n (fun i -> (1000 + i, i, i + 1, 1.)) in
  let both edges =
    let fwd, bwd = adjacency edges in
    fun n f ->
      fwd n f;
      bwd n f
  in
  let small () =
    let g = both (chain 3) in
    check_steps "small shortest" [ (1000, 1); (1001, 2); (1002, 3) ]
      (List.hd (shortest_steps ~bwd:g g 0 3 ~all:false));
    match cheapest_steps g g 3 0 with
    | Some (c, steps) ->
      Alcotest.(check (float 0.)) "small cheapest" 3. c;
      check_steps "small cheapest path" [ (1002, 2); (1001, 1); (1000, 0) ] steps
    | None -> Alcotest.fail "small cheapest: no path"
  in
  small ();
  let n = 3000 in
  let g = both (chain n) in
  let expected = List.init n (fun i -> (1000 + i, i + 1)) in
  List.iter
    (fun (name, found) ->
      match found with
      | [ steps ] -> check_steps name expected steps
      | l -> Alcotest.failf "%s: %d paths" name (List.length l))
    [
      ("bidirectional BFS", shortest_steps ~bwd:g g 0 n ~all:false);
      ("level BFS", shortest_steps g 0 n ~all:false);
      ("level BFS, all", shortest_steps g 0 n ~all:true);
    ];
  (match cheapest_steps g g 0 n with
  | Some (c, steps) ->
    Alcotest.(check (float 0.)) "large cheapest" (float n) c;
    check_steps "large cheapest path" expected steps
  | None -> Alcotest.fail "large cheapest: no path");
  (* depths survive growth: the forward side reaches s = 0's [k]
     neighbours, more than half of the largest pooled table, so it grows
     with 1 in it and without [k]; the backward side then meets [k] and 1
     at the same length, and the first meeting stands *)
  let k = 40_000 in
  let fan = List.init k (fun i -> (10_000 + i, 0, i + 1, ())) in
  let e = 1_000_000 in
  let fwd, bwd = adjacency (fan @ [ (1, k, e, ()); (2, 1, e, ()) ]) in
  check_steps "first of equal meetings after growth" [ (10_000 + k - 1, k); (1, e) ]
    (List.hd (shortest_steps ~bwd fwd 0 e ~all:false));
  small ()

(* Several domains, each with several threads, run shortest,
   allShortest and cheapest searches at once on one graph; every answer
   must be the one a sequential run gives. *)
let concurrent_searches_agree () =
  let g = Generate.social ~seed:20 ~people:200 ~avg_friends:4 in
  let names =
    Array.of_list
      (List.map
         (fun n ->
           match Graph.node_prop g n "name" with
           | Value.String s -> s
           | _ -> Alcotest.fail "social node without a name")
         (Graph.nodes_with_label g "Person"))
  in
  let queries =
    List.concat_map
      (fun (i, j) ->
        let a = names.(i) and b = names.(j) in
        List.map
          (fun (mode, q) -> (mode, Printf.sprintf q a b))
          [
            ( Engine.Planned,
              "MATCH (a:Person {name: '%s'}), (b:Person {name: '%s'}) MATCH p = \
               shortestPath((a)-[:FRIEND*]-(b)) RETURN nodes(p) AS p" );
            ( Engine.Reference,
              "MATCH (a:Person {name: '%s'}), (b:Person {name: '%s'}) MATCH p = \
               shortestPath((a)-[:FRIEND*]-(b)) RETURN nodes(p) AS p" );
            ( Engine.Planned,
              "MATCH (a:Person {name: '%s'}), (b:Person {name: '%s'}) MATCH p = \
               allShortestPaths((a)-[:FRIEND*]-(b)) RETURN nodes(p) AS p" );
            ( Engine.Planned,
              "MATCH (a:Person {name: '%s'}), (b:Person {name: '%s'}) MATCH p = \
               cheapestPath((a)-[:FRIEND*]-(b), 'since') RETURN nodes(p) AS p" );
          ])
      [ (0, 199); (3, 150); (17, 42); (60, 61); (99, 5); (120, 180) ]
  in
  let run (mode, q) =
    match Engine.query ~mode g q with
    | Ok out -> out.Engine.table
    | Error e -> Alcotest.failf "%S: %s" q (Engine.error_message e)
  in
  let expected = List.map (fun q -> (q, run q)) queries in
  let failures = Atomic.make [] in
  let worker offset () =
    for round = 0 to 2 do
      List.iteri
        (fun i _ ->
          let q, want =
            List.nth expected ((i + offset + round) mod List.length expected)
          in
          match Engine.query ~mode:(fst q) g (snd q) with
          | Ok out when Cypher_table.Table.equal_ordered want out.Engine.table -> ()
          | Ok _ | Error _ ->
            let rec note () =
              let l = Atomic.get failures in
              if not (Atomic.compare_and_set failures l (snd q :: l)) then note ()
            in
            note ())
        expected
    done
  in
  let domains =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            List.iter Thread.join
              (List.init 2 (fun t -> Thread.create (worker ((2 * d) + t)) ()))))
  in
  List.iter Domain.join domains;
  match Atomic.get failures with
  | [] -> ()
  | q :: _ as l ->
    Alcotest.failf "%d concurrent answers differ from the sequential run; one: %s"
      (List.length l) q

(* Three domains race to fill the first cost columns of one graph value,
   under two cost keys, so a column is published while another domain
   reads or replaces it; every answer must be the one a sequential run
   on an identical graph gives. *)
let racing_domains_fill_cost_columns () =
  let build () =
    (Engine.run_exn
       (Generate.social ~seed:33 ~people:150 ~avg_friends:4)
       "MATCH ()-[r:FRIEND]->() SET r.w = (r.since * 7) % 13")
      .Engine.graph
  in
  let sequential = build () and raced = build () in
  let name i =
    match Graph.node_prop sequential (Cypher_values.Ids.node_of_int i) "name" with
    | Value.String s -> s
    | _ -> Alcotest.failf "person %d has no name" i
  in
  let queries =
    List.concat_map
      (fun (i, j) ->
        List.concat_map
          (fun key ->
            List.map
              (fun mode ->
                ( mode,
                  Printf.sprintf
                    "MATCH (a:Person {name: '%s'}), (b:Person {name: '%s'}) \
                     MATCH p = cheapestPath((a)-[:FRIEND*]-(b), '%s') RETURN \
                     [n IN nodes(p) | id(n)] AS p"
                    (name i) (name j) key ))
              [ Engine.Planned; Engine.Reference ])
          [ "since"; "w" ])
      [ (1, 150); (7, 90); (33, 34); (120, 2) ]
  in
  let run g (mode, q) =
    match Engine.query ~mode g q with
    | Ok out -> out.Engine.table
    | Error e -> Alcotest.failf "%S: %s" q (Engine.error_message e)
  in
  let expected = Array.of_list (List.map (fun q -> (q, run sequential q)) queries) in
  Array.iter
    (fun ((_, q), t) ->
      if Cypher_table.Table.rows t = [] then Alcotest.failf "%S: no path" q)
    expected;
  let n = Array.length expected and domains = 3 in
  let ready = Atomic.make 0 and failures = Atomic.make 0 in
  let worker d () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    for k = 0 to (8 * n) - 1 do
      (* domain [d] starts on the other key from [d + 1] *)
      let q, want = expected.((k + (d * 2)) mod n) in
      if not (Cypher_table.Table.equal_ordered want (run raced q)) then
        Atomic.incr failures
    done
  in
  List.iter Domain.join (List.init domains (fun d -> Domain.spawn (worker d)));
  Alcotest.(check int) "answers differing from the sequential run" 0
    (Atomic.get failures)

(* Node ids up to 2^30 are legal; a search between such ids and a low one
   must be sized by the nodes it touches, not by the ids. *)
let sparse_ids_search () =
  let far = Graph.reserve_ids Graph.empty ~next_node:(1 lsl 30) ~next_rel:(1 lsl 30) in
  let g, ns =
    List.fold_left
      (fun (g, ns) i ->
        let g, n = Graph.add_node ~labels:[ "Far" ] ~props:[ ("i", vint i) ] g in
        (g, n :: ns))
      (far, []) (List.init 5 Fun.id)
  in
  let ns = List.rev ns in
  let link g a b w = fst (Graph.add_rel ~src:a ~tgt:b ~rel_type:"R" ~props:[ ("w", vint w) ] g) in
  let g = List.fold_left2 (fun g a b -> link g a b 1) g (List.filteri (fun i _ -> i < 4) ns) (List.tl ns) in
  let near = Cypher_values.Ids.node_of_int 7 in
  let g =
    Graph.insert_node g near
      { Graph.labels = Graph.Sset.singleton "Near"; node_props = Value.Smap.empty }
  in
  (* near -1-> far0 -> ... -> far4, and an expensive shortcut near -100-> far4 *)
  let g = link (link g near (List.hd ns) 1) near (List.nth ns 4) 100 in
  let q =
    [
      ( "MATCH p = shortestPath((a:Near)-[:R*]->(b:Far {i: 4})) RETURN length(p) AS l",
        [ [ ("l", vint 1) ] ] );
      ( "MATCH p = cheapestPath((a:Near)-[:R*]->(b:Far {i: 4}), 'w') RETURN \
         length(p) AS l, [n IN nodes(p) | id(n)] AS ids",
        [
          [
            ("l", vint 5);
            ("ids", vlist (vint 7 :: List.init 5 (fun i -> vint ((1 lsl 30) + i))));
          ];
        ] );
      ( "MATCH p = cheapestPath((b:Far {i: 4})<-[:R*]-(a:Near), 'w') RETURN \
         length(p) AS l",
        [ [ ("l", vint 5) ] ] );
    ]
  in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.heap_words in
  List.iter
    (fun (q, rows) ->
      List.iter
        (fun mode ->
          match Engine.query ~mode g q with
          | Error e -> Alcotest.failf "%S: %s" q (Engine.error_message e)
          | Ok out ->
            check_table_bag q (table (List.map fst (List.hd rows)) rows) out.Engine.table)
        [ Engine.Reference; Engine.Planned ])
    q;
  let grown = ((Gc.quick_stat ()).Gc.heap_words - before) * (Sys.word_size / 8) in
  if grown >= 1024 * 1024 then
    Alcotest.failf "the major heap grew by %d KB during searches on sparse ids"
      (grown / 1024)

(* --- answers pinned across an adjacency change --------------------------- *)

(* Two relationship types, loops on a, d and e, and ties everywhere: which
   of several equal paths a search returns follows the order it reads
   each node's relationships in, so these answers — recorded before the
   packed adjacency replaced the per-node lists — fail on any change of
   enumeration order.  The single shortestPath differs between engines
   on the undirected untyped pattern: the reference evaluator's level
   BFS and the planner's bidirectional BFS pick different equal-length
   paths. *)
let pinned_graph () =
  (Engine.run_exn Graph.empty
     "CREATE (a:N {i:0}), (b:N {i:1}), (c:N {i:2}), (d:N {i:3}), (e:N {i:4}), \
      (f:N {i:5}), (a)-[:A {w:1}]->(b), (b)-[:A {w:1}]->(d), (a)-[:B {w:1}]->(c), \
      (c)-[:B {w:1}]->(d), (a)-[:A {w:5}]->(a), (d)-[:B {w:0}]->(d), \
      (c)-[:A {w:2}]->(b), (d)-[:A {w:1}]->(e), (e)-[:B {w:1}]->(f), \
      (b)-[:B {w:3}]->(e), (f)-[:A {w:1}]->(d), (b)-[:A {w:2}]->(a), \
      (e)-[:A {w:1}]->(e), (f)-[:B {w:2}]->(a)")
    .Engine.graph

let pinned_answers () =
  let g = pinned_graph () in
  let both a = (a, a) and split ~ref ~plan = (ref, plan) in
  let query pat = function
    | `Shortest ->
      Printf.sprintf "MATCH p = shortestPath((a)%s(b))" pat, ""
    | `All -> Printf.sprintf "MATCH p = allShortestPaths((a)%s(b))" pat, ", rs"
    | `Cheapest -> Printf.sprintf "MATCH p = cheapestPath((a)%s(b), 'w')" pat, ""
  in
  let answer mode q =
    match Engine.query ~mode g q with
    | Error e -> "error: " ^ Engine.error_message e
    | Ok out ->
      String.concat "; "
        (List.map
           (fun r ->
             String.concat " "
               (List.map
                  (fun f -> Value.to_string (Cypher_table.Record.find_or_null r f))
                  (Cypher_table.Table.fields out.Engine.table)))
           (Cypher_table.Table.rows out.Engine.table))
  in
  List.iter
    (fun (pat, kind, (ref, plan)) ->
      let m, order = query pat kind in
      let q =
        Printf.sprintf
          "MATCH (a:N {i:0}), (b:N) WHERE b.i > 0 %s RETURN b.i AS b, \
           [n IN nodes(p) | n.i] AS ns, [r IN relationships(p) | id(r)] AS rs \
           ORDER BY b%s"
          m order
      in
      Alcotest.(check string) ("reference: " ^ q) ref (answer Engine.Reference q);
      Alcotest.(check string) ("planner: " ^ q) plan (answer Engine.Planned q))
    [
      ("-[:A*]->", `Shortest, both "1 [0, 1] [1]; 3 [0, 1, 3] [1, 2]; 4 [0, 1, 3, 4] [1, 2, 8]");
      ("-[:A*]->", `All, both "1 [0, 1] [1]; 3 [0, 1, 3] [1, 2]; 4 [0, 1, 3, 4] [1, 2, 8]");
      ("-[:A*]->", `Cheapest, both "1 [0, 1] [1]; 3 [0, 1, 3] [1, 2]; 4 [0, 1, 3, 4] [1, 2, 8]");
      ("-[*]->", `Shortest, both "1 [0, 1] [1]; 2 [0, 2] [3]; 3 [0, 2, 3] [3, 4]; 4 [0, 1, 4] [1, 10]; 5 [0, 1, 4, 5] [1, 10, 9]");
      ("-[*]->", `All, both "1 [0, 1] [1]; 2 [0, 2] [3]; 3 [0, 1, 3] [1, 2]; 3 [0, 2, 3] [3, 4]; 4 [0, 1, 4] [1, 10]; 5 [0, 1, 4, 5] [1, 10, 9]");
      ("-[*]->", `Cheapest, both "1 [0, 1] [1]; 2 [0, 2] [3]; 3 [0, 2, 3] [3, 4]; 4 [0, 2, 3, 4] [3, 4, 8]; 5 [0, 2, 3, 4, 5] [3, 4, 8, 9]");
      ("<-[:A*]-", `Shortest, both "1 [0, 1] [12]; 2 [0, 1, 2] [12, 7]");
      ("<-[:A*]-", `All, both "1 [0, 1] [12]; 2 [0, 1, 2] [12, 7]");
      ("<-[:A*]-", `Cheapest, both "1 [0, 1] [12]; 2 [0, 1, 2] [12, 7]");
      ("<-[*]-", `Shortest, both "1 [0, 1] [12]; 2 [0, 1, 2] [12, 7]; 3 [0, 5, 4, 3] [14, 9, 8]; 4 [0, 5, 4] [14, 9]; 5 [0, 5] [14]");
      ("<-[*]-", `All, both "1 [0, 1] [12]; 2 [0, 1, 2] [12, 7]; 3 [0, 5, 4, 3] [14, 9, 8]; 4 [0, 5, 4] [14, 9]; 5 [0, 5] [14]");
      ("<-[*]-", `Cheapest, both "1 [0, 1] [12]; 2 [0, 1, 2] [12, 7]; 3 [0, 5, 4, 3] [14, 9, 8]; 4 [0, 5, 4] [14, 9]; 5 [0, 5] [14]");
      ("-[:A*]-", `Shortest, both "1 [0, 1] [1]; 2 [0, 1, 2] [1, 7]; 3 [0, 1, 3] [1, 2]; 4 [0, 1, 3, 4] [1, 2, 8]; 5 [0, 1, 3, 5] [1, 2, 11]");
      ("-[:A*]-", `All, both "1 [0, 1] [1]; 1 [0, 1] [12]; 2 [0, 1, 2] [1, 7]; 2 [0, 1, 2] [12, 7]; 3 [0, 1, 3] [1, 2]; 3 [0, 1, 3] [12, 2]; 4 [0, 1, 3, 4] [1, 2, 8]; 4 [0, 1, 3, 4] [12, 2, 8]; 5 [0, 1, 3, 5] [1, 2, 11]; 5 [0, 1, 3, 5] [12, 2, 11]");
      ("-[:A*]-", `Cheapest, both "1 [0, 1] [1]; 2 [0, 1, 2] [1, 7]; 3 [0, 1, 3] [1, 2]; 4 [0, 1, 3, 4] [1, 2, 8]; 5 [0, 1, 3, 5] [1, 2, 11]");
      ("-[*]-", `Shortest, split ~ref:"1 [0, 1] [1]; 2 [0, 2] [3]; 3 [0, 2, 3] [3, 4]; 4 [0, 1, 4] [1, 10]; 5 [0, 5] [14]"
         ~plan:"1 [0, 1] [1]; 2 [0, 2] [3]; 3 [0, 5, 3] [14, 11]; 4 [0, 5, 4] [14, 9]; 5 [0, 5] [14]");
      ("-[*]-", `All, both "1 [0, 1] [1]; 1 [0, 1] [12]; 2 [0, 2] [3]; 3 [0, 1, 3] [1, 2]; 3 [0, 2, 3] [3, 4]; 3 [0, 1, 3] [12, 2]; 3 [0, 5, 3] [14, 11]; 4 [0, 1, 4] [1, 10]; 4 [0, 1, 4] [12, 10]; 4 [0, 5, 4] [14, 9]; 5 [0, 5] [14]");
      ("-[*]-", `Cheapest, both "1 [0, 1] [1]; 2 [0, 2] [3]; 3 [0, 2, 3] [3, 4]; 4 [0, 5, 4] [14, 9]; 5 [0, 5] [14]");
    ]

let suite =
  List.map (fun (name, f) -> tc name f) (tck_cases @ error_cases)
  @ [
      tc "EXPLAIN names the path operators" explain_names_operator;
      tc "PROFILE names the path operators" profile_names_operator;
      tc "reference fallback is counted and surfaced" fallback_is_observable;
      tc "planner and reference agree on path operators over a social graph"
        social_agrees;
      tc "fuzz: planner and reference agree on path queries" fuzz_differential;
      tc "fuzz: cheapest-path costs agree" fuzz_cheapest_differential;
      tc "cheapest: every block rebuild leaves the cost column behind"
        cheapest_sees_every_rebuild;
      tc "cheapest: mixed costs in one block keep their typed errors"
        cheapest_mixed_costs_in_one_block;
      tc "cheapest: alternating cost keys on one graph" cheapest_alternating_cost_keys;
      tc "cheapest: racing domains fill cost columns" racing_domains_fill_cost_columns;
      tc "oracle: shortest lengths match naive enumeration"
        oracle_shortest_lengths;
      tc "var_length_cap bounds both engines" var_length_cap_bounds_both_engines;
      tc "oracle: RPQ hops match naive enumeration" oracle_rpq;
      tc "restrictors do not lose equal-length alternatives"
        restrictor_does_not_lose_alternatives;
      tc "SET on a relationship reaches Expand and both path searches"
        set_rel_prop_reaches_adjacency;
      tc "a failed search leaves no marks for the next" failed_search_leaves_no_marks;
      tc "cheapest: equal costs settle first-in first-out"
        cheapest_ties_pop_in_insertion_order;
      tc "search state grows past its initial capacity and is reused"
        search_state_grows_past_initial_capacity;
      tc "concurrent searches on domains and threads agree" concurrent_searches_agree;
      tc "searches between sparse ids stay small" sparse_ids_search;
      tc "typed and untyped searches in each direction keep their answers"
        pinned_answers;
    ]
