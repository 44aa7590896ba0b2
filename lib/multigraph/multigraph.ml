open Cypher_values
open Cypher_graph
open Cypher_table
open Cypher_ast
open Cypher_semantics

module Engine = Cypher_engine.Engine
module Smap = Map.Make (String)

module Catalog = struct
  type t = { graphs : Graph.t Smap.t; locs : string Smap.t }

  let empty = { graphs = Smap.empty; locs = Smap.empty }
  let add name g c = { c with graphs = Smap.add name g c.graphs }
  let find name c = Smap.find_opt name c.graphs
  let names c = List.map fst (Smap.bindings c.graphs)
  let locations c = Smap.bindings c.locs
  let add_location name url c = { c with locs = Smap.add name url c.locs }
end

type outcome = {
  table : Table.t;
  catalog : Catalog.t;
  produced : string option;
}

(* ------------------------------------------------------------------ *)
(* Parsing the composed syntax                                         *)
(* ------------------------------------------------------------------ *)

(* The extended clauses are recognized line by line (the formatting used
   by the paper's Example 6.1); everything else is accumulated into core
   Cypher segments. *)

type piece =
  | From_graph of string * string option (* name, AT url *)
  | Core of string (* core Cypher text *)
  | Return_graph of string * Ast.path_pattern
  | Graph_setop of string * [ `Union | `Intersection | `Difference ] * string * string

let starts_with_kw line kws =
  let tokens = String.split_on_char ' ' (String.trim line) in
  let rec go tokens kws =
    match tokens, kws with
    | _, [] -> true
    | t :: ts, k :: ks when String.uppercase_ascii t = k -> go ts ks
    | "" :: ts, kws -> go ts kws
    | _ -> false
  in
  go tokens kws

let strip_prefix_words line n =
  let rec go words n =
    match words, n with
    | ws, 0 -> String.concat " " (List.filter (fun w -> w <> "") ws)
    | "" :: ws, n -> go ws n
    | _ :: ws, n -> go ws (n - 1)
    | [], _ -> ""
  in
  go (String.split_on_char ' ' (String.trim line)) n

let parse_from_graph line =
  (* FROM GRAPH name [AT "url"] / QUERY GRAPH name *)
  let rest = strip_prefix_words line 2 in
  match String.split_on_char ' ' rest with
  | [ name ] -> Ok (From_graph (name, None))
  | [ name; at; url ] when String.uppercase_ascii at = "AT" ->
    let url = String.trim url in
    let unquoted =
      if String.length url >= 2 && (url.[0] = '"' || url.[0] = '\'') then
        String.sub url 1 (String.length url - 2)
      else url
    in
    Ok (From_graph (name, Some unquoted))
  | _ -> Error (Printf.sprintf "cannot parse graph reference: %s" line)

let parse_return_graph line =
  (* RETURN GRAPH name OF <pattern> *)
  let rest = strip_prefix_words line 2 in
  match String.index_opt rest ' ' with
  | None -> Error (Printf.sprintf "RETURN GRAPH: missing pattern in %s" line)
  | Some i ->
    let name = String.sub rest 0 i in
    let after = String.trim (String.sub rest i (String.length rest - i)) in
    let pattern_text =
      if String.length after >= 3 && String.uppercase_ascii (String.sub after 0 3) = "OF "
      then String.sub after 3 (String.length after - 3)
      else after
    in
    (match Cypher_parser.Parser.parse_pattern_exn pattern_text with
    | [ p ] -> Ok (Return_graph (name, p))
    | _ -> Error "RETURN GRAPH: expected a single path pattern"
    | exception Cypher_parser.Parser.Parse_error (msg, _) ->
      Error ("RETURN GRAPH: " ^ msg))

(* GRAPH c = UNION OF a, b  (also INTERSECTION / DIFFERENCE) *)
let parse_graph_setop line =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
    |> List.map (fun w ->
           match w with
           | "," -> ","
           | w when String.length w > 1 && w.[String.length w - 1] = ',' ->
             String.sub w 0 (String.length w - 1) ^ " ,"
           | w -> w)
    |> List.concat_map (String.split_on_char ' ')
  in
  match words with
  | [ _graph; name; "="; op; of_; a; ","; b ]
    when String.uppercase_ascii of_ = "OF" -> (
    let op =
      match String.uppercase_ascii op with
      | "UNION" -> Some `Union
      | "INTERSECTION" -> Some `Intersection
      | "DIFFERENCE" -> Some `Difference
      | _ -> None
    in
    match op with
    | Some op -> Ok (Graph_setop (name, op, a, b))
    | None -> Error (Printf.sprintf "unknown graph set operation in: %s" line))
  | _ -> Error (Printf.sprintf "cannot parse graph set operation: %s" line)

let split_pieces text =
  let lines = String.split_on_char '\n' text in
  let flush core acc =
    match core with
    | [] -> acc
    | _ -> Core (String.concat "\n" (List.rev core)) :: acc
  in
  let rec go core acc = function
    | [] -> Ok (List.rev (flush core acc))
    | line :: rest when starts_with_kw line [ "FROM"; "GRAPH" ]
                     || starts_with_kw line [ "QUERY"; "GRAPH" ] -> (
      match parse_from_graph line with
      | Ok piece -> go [] (piece :: flush core acc) rest
      | Error e -> Error e)
    | line :: rest when starts_with_kw line [ "GRAPH" ] -> (
      match parse_graph_setop line with
      | Ok piece -> go [] (piece :: flush core acc) rest
      | Error e -> Error e)
    | line :: rest when starts_with_kw line [ "RETURN"; "GRAPH" ] -> (
      match parse_return_graph line with
      | Ok piece -> go [] (piece :: flush core acc) rest
      | Error e -> Error e)
    | line :: rest -> go (line :: core) acc rest
  in
  go [] [] lines

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let copy_node ~from_g ~into n =
  if Graph.mem_node into n then into
  else Graph.insert_node into n (Graph.node_data from_g n)

let project_graph cfg source_graph table (pattern : Ast.path_pattern) =
  (* RETURN GRAPH name OF (a)-[:T]->(b): per row, copy the endpoint nodes
     (with identity) and create a fresh relationship. *)
  let endpoint np =
    match np.Ast.np_name with
    | Some a -> a
    | None ->
      raise
        (Functions.Eval_error "RETURN GRAPH: endpoint nodes must be named")
  in
  match pattern.Ast.pp_rest with
  | [ (rp, np2) ] ->
    let a = endpoint pattern.Ast.pp_first and b = endpoint np2 in
    let rel_type =
      match rp.Ast.rp_types with
      | [ t ] -> t
      | _ ->
        raise
          (Functions.Eval_error
             "RETURN GRAPH: the relationship needs exactly one type")
    in
    List.fold_left
      (fun g row ->
        match Record.find row a, Record.find row b with
        | Some (Value.Node na), Some (Value.Node nb) ->
          let g = copy_node ~from_g:source_graph ~into:g na in
          let g = copy_node ~from_g:source_graph ~into:g nb in
          let src, tgt =
            match rp.Ast.rp_dir with
            | Ast.Right_to_left -> (nb, na)
            | Ast.Left_to_right | Ast.Undirected -> (na, nb)
          in
          let props =
            List.map
              (fun (k, e) -> (k, Eval.eval_expr cfg g row e))
              rp.Ast.rp_props
          in
          fst (Graph.add_rel ~src ~tgt ~rel_type ~props g)
        | _ ->
          raise
            (Functions.Eval_error
               "RETURN GRAPH: endpoints must be bound to nodes"))
      Graph.empty (Table.rows table)
  | _ ->
    raise
      (Functions.Eval_error
         "RETURN GRAPH: expected a single-relationship pattern")

(* --- set operations on identity-sharing graphs ---------------------- *)

let copy_rel ~from_g ~into r =
  if Graph.mem_rel into r then into
  else Graph.insert_rels into [ Graph.rel_data from_g r ]

let graph_union g1 g2 =
  let g =
    List.fold_left
      (fun acc n ->
        if Graph.mem_node acc n then acc
        else Graph.insert_node acc n (Graph.node_data g2 n))
      g1 (Graph.nodes g2)
  in
  List.fold_left (fun acc r -> copy_rel ~from_g:g2 ~into:acc r) g (Graph.rels g2)

let graph_intersection g1 g2 =
  let g =
    List.fold_left
      (fun acc n ->
        if Graph.mem_node g2 n then
          Graph.insert_node acc n (Graph.node_data g1 n)
        else acc)
      Graph.empty (Graph.nodes g1)
  in
  List.fold_left
    (fun acc r ->
      if
        Graph.mem_rel g2 r
        && Graph.mem_node acc (Graph.src g1 r)
        && Graph.mem_node acc (Graph.tgt g1 r)
      then copy_rel ~from_g:g1 ~into:acc r
      else acc)
    g (Graph.rels g1)

let graph_difference g1 g2 =
  let g =
    List.fold_left
      (fun acc n ->
        if Graph.mem_node g2 n then acc
        else Graph.insert_node acc n (Graph.node_data g1 n))
      Graph.empty (Graph.nodes g1)
  in
  List.fold_left
    (fun acc r ->
      if Graph.mem_node acc (Graph.src g1 r) && Graph.mem_node acc (Graph.tgt g1 r)
      then copy_rel ~from_g:g1 ~into:acc r
      else acc)
    g (Graph.rels g1)

(* The core pieces go through the engine's front end — parse and static
   check, with the incoming table's fields in scope — and its exception
   mapping, so a composed query fails exactly as the same text would on
   its own. *)
let run ?(config = Config.default) ~catalog ~default text =
  let find catalog name =
    match Catalog.find name catalog with
    | Some g -> g
    | None -> Functions.eval_error "unknown graph in catalog: %s" name
  in
  let step (catalog, current_name, table, produced) = function
    | From_graph (name, at) ->
      Engine.catching (fun () ->
          let catalog =
            match at with
            | Some url -> Catalog.add_location name url catalog
            | None -> catalog
          in
          ignore (find catalog name);
          (catalog, name, table, produced))
    | Core text ->
      Result.bind (Engine.parse ~bound:(Table.fields table) text) (function
        | Ast.Q_single { sq_clauses; sq_return } ->
          Engine.catching (fun () ->
              let state =
                List.fold_left
                  (fun state clause -> Clauses.apply_clause config clause state)
                  { Clauses.graph = find catalog current_name; table }
                  sq_clauses
              in
              let state =
                match sq_return with
                | Some proj ->
                  Clauses.apply_projection config ~kw:"RETURN" proj state
                | None -> state
              in
              let catalog = Catalog.add current_name state.Clauses.graph catalog in
              (catalog, current_name, state.Clauses.table, produced))
        | _ -> Error (Engine.Unsupported "UNION inside a composed query"))
    | Graph_setop (name, op, a, b) ->
      Engine.catching (fun () ->
          let ga = find catalog a and gb = find catalog b in
          let combined =
            match op with
            | `Union -> graph_union ga gb
            | `Intersection -> graph_intersection ga gb
            | `Difference -> graph_difference ga gb
          in
          (Catalog.add name combined catalog, current_name, table, Some name))
    | Return_graph (name, pattern) ->
      Engine.catching (fun () ->
          let projected =
            project_graph config (find catalog current_name) table pattern
          in
          (Catalog.add name projected catalog, current_name, table, Some name))
  in
  let rec go ((catalog, _, table, produced) as state) = function
    | [] -> Ok { table; catalog; produced }
    | piece :: rest -> Result.bind (step state piece) (fun state -> go state rest)
  in
  match split_pieces text with
  | Error e -> Error (Engine.Parse_error e)
  | Ok pieces -> go (catalog, default, Table.unit, None) pieces

let run_chain ?config ~catalog ~default texts =
  let rec go catalog last = function
    | [] -> (
      match last with
      | Some r -> Ok r
      | None -> Error (Engine.Runtime_error "empty query chain"))
    | text :: rest -> (
      match run ?config ~catalog ~default text with
      | Error e -> Error e
      | Ok r -> go r.catalog (Some r) rest)
  in
  go catalog None texts
