open Ast

let pf = Format.fprintf

let pp_sep_str s ppf () = Format.pp_print_string ppf s
let comma = pp_sep_str ", "

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '\'' -> Buffer.add_string buf "\\'"
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pp_literal ppf = function
  | L_null -> Format.pp_print_string ppf "null"
  | L_bool b -> Format.pp_print_bool ppf b
  | L_int i -> Format.pp_print_int ppf i
  | L_float f ->
    if Float.is_integer f && Float.abs f < 1e15 then pf ppf "%.1f" f
    else pf ppf "%g" f
  | L_string s -> pf ppf "'%s'" (escape_string s)

let cmp_str = function
  | Lt -> "<"
  | Le -> "<="
  | Ge -> ">="
  | Gt -> ">"
  | Eq -> "="
  | Neq -> "<>"

let agg_str = function
  | Count -> "count"
  | Sum -> "sum"
  | Avg -> "avg"
  | Min -> "min"
  | Max -> "max"
  | Collect -> "collect"
  | Std_dev -> "stDev"
  | Std_dev_p -> "stDevP"

let quant_str = function
  | Q_all -> "all"
  | Q_any -> "any"
  | Q_none -> "none"
  | Q_single -> "single"

(* Whether [text] begins with an identifier and then the IN keyword. *)
let begins_var_in text =
  let ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
    || (c >= '0' && c <= '9')
  in
  let n = String.length text in
  let i = ref 0 in
  while !i < n && ident text.[!i] do incr i done;
  !i > 0 && !i + 4 <= n && String.sub text !i 4 = " IN "

(* Precedence levels, loosest to tightest, mirroring the parser:
   or < xor < and < not < comparison < add/sub < mul/div/mod < pow <
   unary minus < postfix (property access, index, slice) < atom. *)
let rec pp_prec level ppf e =
  let paren wanted body =
    if level > wanted then pf ppf "(%t)" body else body ppf
  in
  match e with
  | E_or (a, b) ->
    paren 1 (fun ppf -> pf ppf "%a OR %a" (pp_prec 2) a (pp_prec 1) b)
  | E_xor (a, b) ->
    paren 2 (fun ppf -> pf ppf "%a XOR %a" (pp_prec 3) a (pp_prec 2) b)
  | E_and (a, b) ->
    paren 3 (fun ppf -> pf ppf "%a AND %a" (pp_prec 4) a (pp_prec 3) b)
  | E_not a -> paren 4 (fun ppf -> pf ppf "NOT %a" (pp_prec 4) a)
  | E_cmp (op, a, b) ->
    paren 5 (fun ppf -> pf ppf "%a %s %a" (pp_prec 6) a (cmp_str op) (pp_prec 6) b)
  | E_in (a, b) ->
    paren 5 (fun ppf -> pf ppf "%a IN %a" (pp_prec 6) a (pp_prec 6) b)
  | E_starts_with (a, b) ->
    paren 5 (fun ppf ->
        pf ppf "%a STARTS WITH %a" (pp_prec 6) a (pp_prec 6) b)
  | E_ends_with (a, b) ->
    paren 5 (fun ppf -> pf ppf "%a ENDS WITH %a" (pp_prec 6) a (pp_prec 6) b)
  | E_contains (a, b) ->
    paren 5 (fun ppf -> pf ppf "%a CONTAINS %a" (pp_prec 6) a (pp_prec 6) b)
  | E_regex_match (a, b) ->
    paren 5 (fun ppf -> pf ppf "%a =~ %a" (pp_prec 6) a (pp_prec 6) b)
  | E_is_null a -> paren 5 (fun ppf -> pf ppf "%a IS NULL" (pp_prec 6) a)
  | E_is_not_null a ->
    paren 5 (fun ppf -> pf ppf "%a IS NOT NULL" (pp_prec 6) a)
  | E_has_labels (a, ls) ->
    paren 5 (fun ppf ->
        pf ppf "%a%t" (pp_prec 9) a (fun ppf ->
            List.iter (fun l -> pf ppf ":%s" l) ls))
  | E_arith (Add, a, b) ->
    paren 6 (fun ppf -> pf ppf "%a + %a" (pp_prec 6) a (pp_prec 7) b)
  | E_arith (Sub, a, b) ->
    paren 6 (fun ppf -> pf ppf "%a - %a" (pp_prec 6) a (pp_prec 7) b)
  | E_arith (Mul, a, b) ->
    paren 7 (fun ppf -> pf ppf "%a * %a" (pp_prec 7) a (pp_prec 8) b)
  | E_arith (Div, a, b) ->
    paren 7 (fun ppf -> pf ppf "%a / %a" (pp_prec 7) a (pp_prec 8) b)
  | E_arith (Mod, a, b) ->
    paren 7 (fun ppf -> pf ppf "%a %% %a" (pp_prec 7) a (pp_prec 8) b)
  | E_arith (Pow, a, b) ->
    paren 8 (fun ppf -> pf ppf "%a ^ %a" (pp_prec 9) a (pp_prec 8) b)
  | E_neg a -> paren 9 (fun ppf -> pf ppf "-%a" (pp_prec 9) a)
  | E_prop (a, k) -> paren 10 (fun ppf -> pf ppf "%a.%s" (pp_prec 10) a k)
  | E_index (a, i) ->
    paren 10 (fun ppf -> pf ppf "%a[%a]" (pp_prec 10) a (pp_prec 0) i)
  | E_slice (a, lo, hi) ->
    paren 10 (fun ppf ->
        pf ppf "%a[%t..%t]" (pp_prec 10) a
          (fun ppf -> Option.iter (pp_prec 0 ppf) lo)
          (fun ppf -> Option.iter (pp_prec 0 ppf) hi))
  | E_lit l -> pp_literal ppf l
  | E_var a -> Format.pp_print_string ppf a
  | E_param p -> pf ppf "$%s" p
  | E_map kvs ->
    pf ppf "{%a}"
      (Format.pp_print_list ~pp_sep:comma (fun ppf (k, v) ->
           pf ppf "%s: %a" k (pp_prec 0) v))
      kvs
  | E_list es ->
    (* an element whose text begins [x IN ...] would re-parse as a
       comprehension binding x — [x IN y], but also [x IN y AND z] — so
       it is parenthesized *)
    let pp_elem ppf e =
      let text = Format.asprintf "%a" (pp_prec 0) e in
      if begins_var_in text then pf ppf "(%s)" text
      else Format.pp_print_string ppf text
    in
    pf ppf "[%a]" (Format.pp_print_list ~pp_sep:comma pp_elem) es
  | E_fn (f, args) ->
    pf ppf "%s(%a)" f (Format.pp_print_list ~pp_sep:comma (pp_prec 0)) args
  | E_count_star -> Format.pp_print_string ppf "count(*)"
  | E_agg (fn, distinct, e) ->
    pf ppf "%s(%s%a)" (agg_str fn)
      (if distinct then "DISTINCT " else "")
      (pp_prec 0) e
  | E_agg_percentile (cont, distinct, v, p) ->
    pf ppf "%s(%s%a, %a)"
      (if cont then "percentileCont" else "percentileDisc")
      (if distinct then "DISTINCT " else "")
      (pp_prec 0) v (pp_prec 0) p
  | E_case { case_subject; case_branches; case_default } ->
    pf ppf "CASE";
    Option.iter (fun s -> pf ppf " %a" (pp_prec 0) s) case_subject;
    List.iter
      (fun (w, t) -> pf ppf " WHEN %a THEN %a" (pp_prec 0) w (pp_prec 0) t)
      case_branches;
    Option.iter (fun d -> pf ppf " ELSE %a" (pp_prec 0) d) case_default;
    pf ppf " END"
  | E_list_comp { lc_var; lc_source; lc_where; lc_body } ->
    pf ppf "[%s IN %a" lc_var (pp_prec 0) lc_source;
    Option.iter (fun w -> pf ppf " WHERE %a" (pp_prec 0) w) lc_where;
    Option.iter (fun b -> pf ppf " | %a" (pp_prec 0) b) lc_body;
    pf ppf "]"
  | E_map_projection (e, items) ->
    paren 10 (fun ppf ->
        pf ppf "%a {%a}" (pp_prec 10) e
          (Format.pp_print_list ~pp_sep:comma (fun ppf item ->
               match item with
               | Mp_property k -> pf ppf ".%s" k
               | Mp_all_properties -> Format.pp_print_string ppf ".*"
               | Mp_literal (k, e) -> pf ppf "%s: %a" k (pp_prec 0) e
               | Mp_variable v -> Format.pp_print_string ppf v))
          items)
  | E_pattern_pred p -> pp_path_pattern ppf p
  | E_pattern_comp { pc_pattern; pc_where; pc_body } ->
    pf ppf "[%a" pp_path_pattern pc_pattern;
    Option.iter (fun w -> pf ppf " WHERE %a" (pp_prec 0) w) pc_where;
    pf ppf " | %a]" (pp_prec 0) pc_body
  | E_exists_pattern p -> pf ppf "exists(%a)" pp_path_pattern p
  | E_quantified (q, x, src, pred) ->
    pf ppf "%s(%s IN %a WHERE %a)" (quant_str q) x (pp_prec 0) src (pp_prec 0)
      pred
  | E_reduce { rd_acc; rd_init; rd_var; rd_list; rd_body } ->
    pf ppf "reduce(%s = %a, %s IN %a | %a)" rd_acc (pp_prec 0) rd_init rd_var
      (pp_prec 0) rd_list (pp_prec 0) rd_body

and pp_props ppf props =
  if props <> [] then
    pf ppf " {%a}"
      (Format.pp_print_list ~pp_sep:comma (fun ppf (k, v) ->
           pf ppf "%s: %a" k (pp_prec 0) v))
      props

and pp_node_pattern ppf np =
  pf ppf "(%t%t%t)"
    (fun ppf -> Option.iter (Format.pp_print_string ppf) np.np_name)
    (fun ppf -> List.iter (fun l -> pf ppf ":%s" l) np.np_labels)
    (fun ppf ->
      if np.np_props <> [] then (
        if np.np_name <> None || np.np_labels <> [] then
          Format.pp_print_string ppf " ";
        pf ppf "{%a}"
          (Format.pp_print_list ~pp_sep:comma (fun ppf (k, v) ->
               pf ppf "%s: %a" k (pp_prec 0) v))
          np.np_props))

and pp_len ppf = function
  | { len_min = None; len_max = None } -> Format.pp_print_string ppf "*"
  | { len_min = Some m; len_max = Some n } when m = n -> pf ppf "*%d" m
  | { len_min = Some m; len_max = None } -> pf ppf "*%d.." m
  | { len_min = None; len_max = Some n } -> pf ppf "*..%d" n
  | { len_min = Some m; len_max = Some n } -> pf ppf "*%d..%d" m n

and pp_rel_pattern ppf rp =
  let body ppf =
    let empty =
      rp.rp_name = None && rp.rp_types = [] && rp.rp_len = None
      && rp.rp_props = [] && rp.rp_regex = None
    in
    if not empty then (
      Format.pp_print_string ppf "[";
      Option.iter (Format.pp_print_string ppf) rp.rp_name;
      (match rp.rp_regex with
      | Some re ->
        (* the regex form always starts with a group, which is what
           distinguishes it from a plain type list in the parser *)
        pf ppf ":(%s)" (regex_to_string re)
      | None ->
        (match rp.rp_types with
        | [] -> ()
        | t :: ts ->
          pf ppf ":%s" t;
          List.iter (fun t -> pf ppf "|%s" t) ts));
      Option.iter (pp_len ppf) rp.rp_len;
      pp_props ppf rp.rp_props;
      Format.pp_print_string ppf "]")
  in
  match rp.rp_dir with
  | Left_to_right -> pf ppf "-%t->" body
  | Right_to_left -> pf ppf "<-%t-" body
  | Undirected -> pf ppf "-%t-" body

and pp_path_pattern ppf pp =
  Option.iter (fun a -> pf ppf "%s = " a) pp.pp_name;
  (match pp.pp_restr with
  | Walk -> ()
  | Trail -> Format.pp_print_string ppf "TRAIL "
  | Acyclic -> Format.pp_print_string ppf "ACYCLIC ");
  (match pp.pp_shortest with
  | No_shortest -> ()
  | Shortest -> Format.pp_print_string ppf "shortestPath("
  | All_shortest -> Format.pp_print_string ppf "allShortestPaths("
  | Cheapest _ -> Format.pp_print_string ppf "cheapestPath(");
  pp_node_pattern ppf pp.pp_first;
  List.iter
    (fun (rp, np) -> pf ppf "%a%a" pp_rel_pattern rp pp_node_pattern np)
    pp.pp_rest;
  match pp.pp_shortest with
  | No_shortest -> ()
  | Shortest | All_shortest -> Format.pp_print_string ppf ")"
  | Cheapest prop -> pf ppf ", '%s')" prop

let pp_expr ppf e = pp_prec 0 ppf e
let expr_to_string e = Format.asprintf "%a" pp_expr e

let pp_pattern_tuple ppf pps =
  Format.pp_print_list ~pp_sep:comma pp_path_pattern ppf pps

let pp_ret_item ppf { ri_expr; ri_alias } =
  match ri_alias with
  | None -> pp_expr ppf ri_expr
  | Some a -> pf ppf "%a AS %s" pp_expr ri_expr a

let pp_projection ~kw ppf p =
  pf ppf "%s%s " kw (if p.pj_distinct then " DISTINCT" else "");
  let items ppf =
    Format.pp_print_list ~pp_sep:comma pp_ret_item ppf p.pj_items
  in
  (if p.pj_star then
     if p.pj_items = [] then Format.pp_print_string ppf "*"
     else pf ppf "*, %t" items
   else items ppf);
  if p.pj_order_by <> [] then
    pf ppf " ORDER BY %a"
      (Format.pp_print_list ~pp_sep:comma (fun ppf (e, dir) ->
           pf ppf "%a%s" pp_expr e
             (match dir with Asc -> "" | Desc -> " DESC")))
      p.pj_order_by;
  Option.iter (fun e -> pf ppf " SKIP %a" pp_expr e) p.pj_skip;
  Option.iter (fun e -> pf ppf " LIMIT %a" pp_expr e) p.pj_limit

let pp_set_item ppf = function
  | S_prop (e, k, v) -> pf ppf "%a.%s = %a" pp_expr e k pp_expr v
  | S_all_props (a, e) -> pf ppf "%s = %a" a pp_expr e
  | S_merge_props (a, e) -> pf ppf "%s += %a" a pp_expr e
  | S_labels (a, ls) ->
    pf ppf "%s%t" a (fun ppf -> List.iter (fun l -> pf ppf ":%s" l) ls)

let pp_remove_item ppf = function
  | R_prop (e, k) -> pf ppf "%a.%s" pp_expr e k
  | R_labels (a, ls) ->
    pf ppf "%s%t" a (fun ppf -> List.iter (fun l -> pf ppf ":%s" l) ls)

let rec pp_clause ppf = function
  | C_foreach { fe_var; fe_list; fe_clauses } ->
    pf ppf "FOREACH (%s IN %a | %a)" fe_var pp_expr fe_list
      (Format.pp_print_list ~pp_sep:(pp_sep_str " ") pp_clause)
      fe_clauses
  | C_call { proc; args; yield_ } ->
    pf ppf "CALL %s(%a)" proc
      (Format.pp_print_list ~pp_sep:comma pp_expr)
      args;
    if yield_ <> [] then
      pf ppf " YIELD %a"
        (Format.pp_print_list ~pp_sep:comma (fun ppf (c, alias) ->
             match alias with
             | None -> Format.pp_print_string ppf c
             | Some a -> pf ppf "%s AS %s" c a))
        yield_
  | C_match { opt; pattern; where } ->
    pf ppf "%sMATCH %a" (if opt then "OPTIONAL " else "") pp_pattern_tuple
      pattern;
    Option.iter (fun w -> pf ppf " WHERE %a" pp_expr w) where
  | C_with { proj; where } ->
    pp_projection ~kw:"WITH" ppf proj;
    Option.iter (fun w -> pf ppf " WHERE %a" pp_expr w) where
  | C_unwind (e, a) -> pf ppf "UNWIND %a AS %s" pp_expr e a
  | C_create pattern -> pf ppf "CREATE %a" pp_pattern_tuple pattern
  | C_delete { detach; exprs } ->
    pf ppf "%sDELETE %a"
      (if detach then "DETACH " else "")
      (Format.pp_print_list ~pp_sep:comma pp_expr)
      exprs
  | C_set items ->
    pf ppf "SET %a" (Format.pp_print_list ~pp_sep:comma pp_set_item) items
  | C_remove items ->
    pf ppf "REMOVE %a"
      (Format.pp_print_list ~pp_sep:comma pp_remove_item)
      items
  | C_merge { pattern; on_create; on_match } ->
    pf ppf "MERGE %a" pp_path_pattern pattern;
    if on_match <> [] then
      pf ppf " ON MATCH SET %a"
        (Format.pp_print_list ~pp_sep:comma pp_set_item)
        on_match;
    if on_create <> [] then
      pf ppf " ON CREATE SET %a"
        (Format.pp_print_list ~pp_sep:comma pp_set_item)
        on_create

let rec pp_query ppf = function
  | Q_single { sq_clauses; sq_return } ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
      pp_clause ppf sq_clauses;
    Option.iter
      (fun p ->
        if sq_clauses <> [] then Format.pp_print_string ppf " ";
        pp_projection ~kw:"RETURN" ppf p)
      sq_return
  | Q_union (q1, q2) -> pf ppf "%a UNION %a" pp_query q1 pp_query q2
  | Q_union_all (q1, q2) -> pf ppf "%a UNION ALL %a" pp_query q1 pp_query q2

let query_to_string q = Format.asprintf "%a" pp_query q
