type dir = Out | In | Both

type hop_binding = Single_rel of string | Rel_list of string

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
      input : t;
    }
  | Rel_type_scan of {
      rel : string;
      types : string list; (* non-empty *)
      from_ : string;
      to_ : string;
      dir : dir; (* Both: each relationship yields both orientations *)
      input : t;
    }
  | Expand of {
      from_ : string;
      rel : string;
      types : string list;
      dir : dir;
      to_ : string;
      scan_rels : bool;
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
      reversed : bool; (* traversed against the written order *)
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
  | Rel_uniqueness of { vars : hop_binding list; input : t }
  | Project_path of {
      var : string;
      start_var : string;
      hops : hop_binding list;
      input : t;
    }
  | Regex_expand of {
      from_ : string;
      rel : string; (* binds the list of traversed relationships *)
      regex : Cypher_ast.Ast.type_regex;
      dir : dir;
      to_ : string;
      input : t;
    }
  | Shortest_path of {
      from_ : string; (* both endpoint variables are bound by the input *)
      to_ : string;
      rel : string;
      rel_single : bool; (* a single-hop pattern binds Rel, not a list *)
      types : string list;
      dir : dir;
      props : (string * Cypher_ast.Ast.expr) list;
      min_len : int;
      max_len : int option;
      all : bool; (* allShortestPaths *)
      restr : Cypher_ast.Ast.path_restrictor;
      path : string option;
      input : t;
    }
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
    }
  | Path_restrict of {
      restr : Cypher_ast.Ast.path_restrictor;
      start_var : string;
      hops : hop_binding list;
      input : t;
    }

let input_of = function
  | Argument -> None
  | All_nodes_scan { input; _ }
  | Node_by_label_scan { input; _ }
  | Node_index_seek { input; _ }
  | Rel_type_scan { input; _ }
  | Expand { input; _ }
  | Var_expand { input; _ }
  | Filter { input; _ }
  | Project { input; _ }
  | Aggregate { input; _ }
  | Distinct { input }
  | Sort { input; _ }
  | Skip_rows { input; _ }
  | Limit_rows { input; _ }
  | Unwind { input; _ }
  | Optional { input; _ }
  | Rel_uniqueness { input; _ }
  | Project_path { input; _ }
  | Regex_expand { input; _ }
  | Shortest_path { input; _ }
  | Cheapest_path { input; _ }
  | Path_restrict { input; _ } ->
    Some input

let dir_arrow = function Out -> "-->" | In -> "<--" | Both -> "--"

let hop_name = function Single_rel r -> r | Rel_list r -> r ^ "*"

let types_str = function
  | [] -> ""
  | ts -> ":" ^ String.concat "|" ts

let restr_str = function
  | Cypher_ast.Ast.Walk -> ""
  | Cypher_ast.Ast.Trail -> "[trail]"
  | Cypher_ast.Ast.Acyclic -> "[acyclic]"

(* One line describing the operator itself (without its input). *)
let describe = function
  | Argument -> "Argument"
  | All_nodes_scan { var; _ } -> Printf.sprintf "AllNodesScan (%s)" var
  | Node_by_label_scan { var; label; _ } ->
    Printf.sprintf "NodeByLabelScan (%s:%s)" var label
  | Node_index_seek { var; label; key; value; _ } ->
    Printf.sprintf "NodeIndexSeek (%s:%s {%s: %s})" var label key
      (Cypher_ast.Pretty.expr_to_string value)
  | Rel_type_scan { rel; types; from_; to_; dir; _ } ->
    Printf.sprintf "RelationshipTypeScan (%s)-[%s%s]%s(%s)" from_ rel
      (types_str types) (dir_arrow dir) to_
  | Expand { from_; rel; types; dir; to_; scan_rels; _ } ->
    Printf.sprintf "Expand%s (%s)-[%s%s]%s(%s)"
      (if scan_rels then "[scan]" else "")
      from_ rel (types_str types) (dir_arrow dir) to_
  | Var_expand { from_; rel; types; dir; min_len; max_len; to_; _ } ->
    Printf.sprintf "VarLengthExpand (%s)-[%s%s*%d..%s]%s(%s)" from_ rel
      (types_str types) min_len
      (match max_len with Some n -> string_of_int n | None -> "")
      (dir_arrow dir) to_
  | Filter { pred; _ } ->
    Printf.sprintf "Filter (%s)" (Cypher_ast.Pretty.expr_to_string pred)
  | Project { items; _ } ->
    Printf.sprintf "Projection (%s)"
      (String.concat ", "
         (List.map
            (fun (name, e) ->
              Printf.sprintf "%s AS %s" (Cypher_ast.Pretty.expr_to_string e) name)
            items))
  | Aggregate { keys; aggs; _ } ->
    Printf.sprintf "EagerAggregation (keys: %s; aggregates: %s)"
      (String.concat ", " (List.map fst keys))
      (String.concat ", " (List.map fst aggs))
  | Distinct _ -> "Distinct"
  | Sort { by; _ } ->
    Printf.sprintf "Sort (%s)"
      (String.concat ", "
         (List.map
            (fun (e, d) ->
              Cypher_ast.Pretty.expr_to_string e
              ^ match d with Asc -> "" | Desc -> " DESC")
            by))
  | Skip_rows { count; _ } ->
    Printf.sprintf "Skip (%s)" (Cypher_ast.Pretty.expr_to_string count)
  | Limit_rows { count; _ } ->
    Printf.sprintf "Limit (%s)" (Cypher_ast.Pretty.expr_to_string count)
  | Unwind { expr; var; _ } ->
    Printf.sprintf "Unwind (%s AS %s)"
      (Cypher_ast.Pretty.expr_to_string expr)
      var
  | Optional { introduced; _ } ->
    Printf.sprintf "OptionalApply (introduces: %s)"
      (String.concat ", " introduced)
  | Rel_uniqueness { vars; _ } ->
    Printf.sprintf "RelationshipUniqueness (%s)"
      (String.concat ", " (List.map hop_name vars))
  | Project_path { var; start_var; hops; _ } ->
    Printf.sprintf "ProjectPath (%s = (%s)%s)" var start_var
      (String.concat "" (List.map (fun h -> "-" ^ hop_name h ^ "-") hops))
  | Regex_expand { from_; rel; regex; dir; to_; _ } ->
    Printf.sprintf "RegexExpand (%s)-[%s:(%s)]%s(%s)" from_ rel
      (Cypher_ast.Ast.regex_to_string regex)
      (dir_arrow dir) to_
  | Shortest_path { from_; to_; rel; types; dir; min_len; max_len; all; restr; _ }
    ->
    Printf.sprintf "%s%s (%s)-[%s%s*%d..%s]%s(%s)"
      (if all then "AllShortestPaths" else "ShortestPath")
      (restr_str restr) from_ rel (types_str types) min_len
      (match max_len with Some n -> string_of_int n | None -> "")
      (dir_arrow dir) to_
  | Cheapest_path { from_; to_; rel; types; dir; cost_prop; restr; _ } ->
    Printf.sprintf "CheapestPath%s (%s)-[%s%s*]%s(%s) (cost: %s)"
      (restr_str restr) from_ rel (types_str types) (dir_arrow dir) to_
      cost_prop
  | Path_restrict { restr; start_var; hops; _ } ->
    Printf.sprintf "PathRestrict%s ((%s)%s)" (restr_str restr) start_var
      (String.concat "" (List.map (fun h -> "-" ^ hop_name h ^ "-") hops))

let rec pp_gen ~annotate depth ppf plan =
  let pad = String.make (depth * 2) ' ' in
  Format.fprintf ppf "%s+ %s%s@." pad (describe plan) (annotate plan);
  (match plan with
  | Optional { inner; _ } ->
    Format.fprintf ppf "%s  [inner]@." pad;
    pp_gen ~annotate (depth + 2) ppf inner
  | _ -> ());
  match input_of plan with
  | Some input -> pp_gen ~annotate (depth + 1) ppf input
  | None -> ()

let pp ppf plan = pp_gen ~annotate:(fun _ -> "") 0 ppf plan
let pp_annotated ~annotate ppf plan = pp_gen ~annotate 0 ppf plan
let to_string plan = Format.asprintf "%a" pp plan
