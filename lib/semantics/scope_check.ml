open Cypher_ast
open Ast

module Sset = Set.Make (String)

exception Undefined of string
exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* Static shape checks for the path-finding extensions: shortest and
   cheapest patterns take exactly one relationship segment, and neither
   they, restrictors nor type regexes make sense in update patterns. *)
let check_path_pattern ~updating pp =
  (match pp.pp_shortest with
  | No_shortest -> ()
  | mode ->
    let name =
      match mode with
      | Shortest -> "shortestPath"
      | All_shortest -> "allShortestPaths"
      | Cheapest _ -> "cheapestPath"
      | No_shortest -> assert false
    in
    if updating then invalid "%s cannot be used in an update pattern" name;
    if List.length pp.pp_rest <> 1 then
      invalid
        "%s requires a pattern with exactly one relationship segment (got %d)"
        name (List.length pp.pp_rest);
    match pp.pp_rest with
    | [ (rp, _) ] when rp.rp_regex <> None ->
      invalid "%s over a type regex is not supported" name
    | _ -> ());
  if updating then begin
    if pp.pp_restr <> Walk then
      invalid "path restrictors cannot be used in an update pattern";
    List.iter
      (fun (rp, _) ->
        if rp.rp_regex <> None then
          invalid "type regexes cannot be used in an update pattern")
      pp.pp_rest
  end

(* Variables an expression requires to be in scope.  Unlike
   [Ast.expr_free_vars], pattern predicates contribute nothing: their
   variables are existential (new ones may be introduced freely). *)
let rec required_vars e =
  match e with
  | E_lit _ | E_param _ | E_count_star -> []
  | E_var a -> [ a ]
  | E_prop (e, _) | E_not e | E_is_null e | E_is_not_null e | E_neg e
  | E_has_labels (e, _) | E_agg (_, _, e) ->
    required_vars e
  | E_agg_percentile (_, _, a, b) -> required_vars a @ required_vars b
  | E_map kvs -> List.concat_map (fun (_, e) -> required_vars e) kvs
  | E_list es | E_fn (_, es) -> List.concat_map required_vars es
  | E_in (a, b) | E_index (a, b)
  | E_starts_with (a, b) | E_ends_with (a, b) | E_contains (a, b)
  | E_regex_match (a, b)
  | E_or (a, b) | E_and (a, b) | E_xor (a, b)
  | E_cmp (_, a, b) | E_arith (_, a, b) ->
    required_vars a @ required_vars b
  | E_slice (e, lo, hi) ->
    required_vars e
    @ (match lo with Some e -> required_vars e | None -> [])
    @ (match hi with Some e -> required_vars e | None -> [])
  | E_case { case_subject; case_branches; case_default } ->
    (match case_subject with Some e -> required_vars e | None -> [])
    @ List.concat_map
        (fun (w, t) -> required_vars w @ required_vars t)
        case_branches
    @ (match case_default with Some e -> required_vars e | None -> [])
  | E_list_comp { lc_var; lc_source; lc_where; lc_body } ->
    required_vars lc_source
    @ List.filter
        (fun v -> not (String.equal v lc_var))
        ((match lc_where with Some e -> required_vars e | None -> [])
        @ match lc_body with Some e -> required_vars e | None -> [])
  | E_quantified (_, x, src, pred) ->
    required_vars src
    @ List.filter (fun v -> not (String.equal v x)) (required_vars pred)
  | E_reduce { rd_acc; rd_init; rd_var; rd_list; rd_body } ->
    required_vars rd_init @ required_vars rd_list
    @ List.filter
        (fun v -> not (String.equal v rd_acc || String.equal v rd_var))
        (required_vars rd_body)
  | E_map_projection (e, items) ->
    required_vars e
    @ List.concat_map
        (function
          | Mp_property _ | Mp_all_properties -> []
          | Mp_literal (_, e) -> required_vars e
          | Mp_variable v -> [ v ])
        items
  | E_pattern_pred p | E_exists_pattern p ->
    (* existential, but property expressions inside the pattern still
       reference the outer scope (or the pattern's own variables) *)
    pattern_internal_requirements [ p ]
  | E_pattern_comp { pc_pattern; pc_where; pc_body } ->
    let own = Ast.free_path_pattern pc_pattern in
    pattern_internal_requirements [ pc_pattern ]
    @ List.filter
        (fun v -> not (List.mem v own))
        (required_vars pc_body
        @ match pc_where with Some e -> required_vars e | None -> [])

(* Property expressions within patterns may use the pattern's own
   variables; anything else must come from outside. *)
and pattern_internal_requirements pps =
  let own = Sset.of_list (Ast.free_pattern_tuple pps) in
  let of_props props =
    List.concat_map (fun (_, e) -> required_vars e) props
  in
  List.concat_map
    (fun pp ->
      of_props pp.pp_first.np_props
      @ List.concat_map
          (fun (rp, np) -> of_props rp.rp_props @ of_props np.np_props)
          pp.pp_rest)
    pps
  |> List.filter (fun v -> not (Sset.mem v own))

let need scope vars =
  List.iter (fun v -> if not (Sset.mem v scope) then raise (Undefined v)) vars

let need_expr scope e = need scope (required_vars e)

(* A record binds each name once (paper §4.1), so a projection may not
   produce two columns of the same name — [*] included. *)
let check_projection scope proj =
  let items_scope =
    List.fold_left
      (fun acc item ->
        need_expr scope item.ri_expr;
        let name = Clauses.item_name item in
        if Sset.mem name acc then
          invalid "duplicate column name in projection: %s" name;
        Sset.add name acc)
      (if proj.pj_star then scope else Sset.empty)
      proj.pj_items
  in
  (* ORDER BY sees both the projected names and the source scope *)
  List.iter
    (fun (e, _) -> need (Sset.union scope items_scope) (required_vars e))
    proj.pj_order_by;
  (* SKIP and LIMIT cannot reference variables *)
  (match proj.pj_skip with Some e -> need_expr Sset.empty e | None -> ());
  (match proj.pj_limit with Some e -> need_expr Sset.empty e | None -> ());
  items_scope

let check_set_items scope pattern_scope items =
  let s = Sset.union scope pattern_scope in
  List.iter
    (function
      | S_prop (target, _, e) ->
        need_expr s target;
        need_expr s e
      | S_all_props (a, e) | S_merge_props (a, e) ->
        need s [ a ];
        need_expr s e
      | S_labels (a, _) -> need s [ a ])
    items

let rec check_clause scope clause =
  match clause with
  | C_foreach { fe_var; fe_list; fe_clauses } ->
    need_expr scope fe_list;
    let inner = List.fold_left check_clause (Sset.add fe_var scope) fe_clauses in
    ignore inner;
    scope
  | C_match { pattern; where; _ } ->
    List.iter (check_path_pattern ~updating:false) pattern;
    need scope (pattern_internal_requirements pattern);
    let scope = Sset.union scope (Sset.of_list (Ast.free_pattern_tuple pattern)) in
    (match where with Some e -> need_expr scope e | None -> ());
    scope
  | C_with { proj; where } ->
    let scope' = check_projection scope proj in
    (match where with Some e -> need_expr scope' e | None -> ());
    scope'
  | C_unwind (e, a) ->
    need_expr scope e;
    Sset.add a scope
  | C_create pattern ->
    List.iter (check_path_pattern ~updating:true) pattern;
    need scope (pattern_internal_requirements pattern);
    Sset.union scope (Sset.of_list (Ast.free_pattern_tuple pattern))
  | C_delete { exprs; _ } ->
    List.iter (need_expr scope) exprs;
    scope
  | C_set items ->
    check_set_items scope Sset.empty items;
    scope
  | C_remove items ->
    List.iter
      (function
        | R_prop (target, _) -> need_expr scope target
        | R_labels (a, _) -> need scope [ a ])
      items;
    scope
  | C_merge { pattern; on_create; on_match } ->
    check_path_pattern ~updating:true pattern;
    need scope (pattern_internal_requirements [ pattern ]);
    let pattern_scope = Sset.of_list (Ast.free_path_pattern pattern) in
    check_set_items scope pattern_scope on_create;
    check_set_items scope pattern_scope on_match;
    Sset.union scope pattern_scope
  | C_call { args; yield_; _ } ->
    List.iter (need_expr scope) args;
    List.fold_left
      (fun acc (c, alias) -> Sset.add (Option.value alias ~default:c) acc)
      scope yield_

(* The columns a query returns. *)
let check_single bound sq =
  let scope = List.fold_left check_clause bound sq.sq_clauses in
  match sq.sq_return with
  | Some proj -> check_projection scope proj
  | None -> Sset.empty

(* UNION joins only tables with the same fields (paper §4.1). *)
let rec check bound = function
  | Q_single sq -> check_single bound sq
  | Q_union (q1, q2) | Q_union_all (q1, q2) ->
    let c1 = check bound q1 in
    let c2 = check bound q2 in
    if not (Sset.equal c1 c2) then
      invalid "all sub queries in a UNION must return the same columns (%s vs %s)"
        (String.concat ", " (Sset.elements c1))
        (String.concat ", " (Sset.elements c2));
    c1

let check_query ?(bound = []) q =
  match check (Sset.of_list bound) q with
  | _ -> Ok ()
  | exception Undefined v ->
    Error (Printf.sprintf "variable `%s` not defined" v)
  | exception Invalid msg -> Error msg
