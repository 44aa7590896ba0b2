open Cypher_values
open Cypher_ast
open Ast

type spec =
  [ `Count_star
  | `Agg of Ast.agg_fn * bool * Ast.expr
  | `Percentile of bool * bool * Ast.expr * Ast.expr ]

(* ------------------------------------------------------------------ *)

let rec contains_aggregate = function
  | E_count_star | E_agg _ | E_agg_percentile _ -> true
  | E_lit _ | E_var _ | E_param _ -> false
  | E_prop (e, _) | E_not e | E_is_null e | E_is_not_null e | E_neg e ->
    contains_aggregate e
  | E_map kvs -> List.exists (fun (_, e) -> contains_aggregate e) kvs
  | E_list es | E_fn (_, es) -> List.exists contains_aggregate es
  | E_in (a, b) | E_index (a, b)
  | E_starts_with (a, b) | E_ends_with (a, b) | E_contains (a, b)
  | E_regex_match (a, b)
  | E_or (a, b) | E_and (a, b) | E_xor (a, b)
  | E_cmp (_, a, b) | E_arith (_, a, b) ->
    contains_aggregate a || contains_aggregate b
  | E_slice (e, lo, hi) ->
    contains_aggregate e
    || Option.fold ~none:false ~some:contains_aggregate lo
    || Option.fold ~none:false ~some:contains_aggregate hi
  | E_has_labels (e, _) -> contains_aggregate e
  | E_case { case_subject; case_branches; case_default } ->
    Option.fold ~none:false ~some:contains_aggregate case_subject
    || List.exists
         (fun (w, t) -> contains_aggregate w || contains_aggregate t)
         case_branches
    || Option.fold ~none:false ~some:contains_aggregate case_default
  | E_list_comp { lc_source; lc_where; lc_body; _ } ->
    contains_aggregate lc_source
    || Option.fold ~none:false ~some:contains_aggregate lc_where
    || Option.fold ~none:false ~some:contains_aggregate lc_body
  | E_pattern_pred _ | E_exists_pattern _ | E_pattern_comp _ -> false
  | E_map_projection (e, items) ->
    contains_aggregate e
    || List.exists
         (function
           | Mp_literal (_, e) -> contains_aggregate e
           | Mp_property _ | Mp_all_properties | Mp_variable _ -> false)
         items
  | E_quantified (_, _, src, pred) ->
    contains_aggregate src || contains_aggregate pred
  | E_reduce { rd_init; rd_list; rd_body; _ } ->
    contains_aggregate rd_init || contains_aggregate rd_list
    || contains_aggregate rd_body

(* Rewrites an expression, lifting each aggregate subterm out into a
   synthetic variable, so that an aggregating item such as
   [r.name + count(s)] can be evaluated in two stages. *)
(* Global counter: two items of one projection must not share synthetic
   names, since their aggregate results are bound in a single record.
   Atomic, because queries are compiled on several domains at once. *)
let counter = Atomic.make 0

let extract_aggregates expr =
  let extracted = ref [] in
  let fresh spec =
    let name = Printf.sprintf "#agg%d" (1 + Atomic.fetch_and_add counter 1) in
    extracted := (name, spec) :: !extracted;
    E_var name
  in
  let rec go e =
    match e with
    | E_count_star -> fresh `Count_star
    | E_agg (fn, distinct, arg) -> fresh (`Agg (fn, distinct, arg))
    | E_agg_percentile (cont, distinct, v, p) ->
      fresh (`Percentile (cont, distinct, v, p))
    | E_lit _ | E_var _ | E_param _ | E_pattern_pred _ | E_exists_pattern _
    | E_pattern_comp _ ->
      e
    | E_map_projection (e1, items) ->
      E_map_projection
        ( go e1,
          List.map
            (function
              | Mp_literal (k, e) -> Mp_literal (k, go e)
              | other -> other)
            items )
    | E_prop (e1, k) -> E_prop (go e1, k)
    | E_map kvs -> E_map (List.map (fun (k, v) -> (k, go v)) kvs)
    | E_list es -> E_list (List.map go es)
    | E_fn (f, es) -> E_fn (f, List.map go es)
    | E_in (a, b) -> E_in (go a, go b)
    | E_index (a, b) -> E_index (go a, go b)
    | E_slice (e1, lo, hi) -> E_slice (go e1, Option.map go lo, Option.map go hi)
    | E_starts_with (a, b) -> E_starts_with (go a, go b)
    | E_ends_with (a, b) -> E_ends_with (go a, go b)
    | E_contains (a, b) -> E_contains (go a, go b)
    | E_regex_match (a, b) -> E_regex_match (go a, go b)
    | E_or (a, b) -> E_or (go a, go b)
    | E_and (a, b) -> E_and (go a, go b)
    | E_xor (a, b) -> E_xor (go a, go b)
    | E_not e1 -> E_not (go e1)
    | E_is_null e1 -> E_is_null (go e1)
    | E_is_not_null e1 -> E_is_not_null (go e1)
    | E_cmp (op, a, b) -> E_cmp (op, go a, go b)
    | E_arith (op, a, b) -> E_arith (op, go a, go b)
    | E_neg e1 -> E_neg (go e1)
    | E_has_labels (e1, ls) -> E_has_labels (go e1, ls)
    | E_case { case_subject; case_branches; case_default } ->
      E_case
        {
          case_subject = Option.map go case_subject;
          case_branches = List.map (fun (w, t) -> (go w, go t)) case_branches;
          case_default = Option.map go case_default;
        }
    | E_list_comp lc ->
      E_list_comp
        {
          lc with
          lc_source = go lc.lc_source;
          lc_where = Option.map go lc.lc_where;
          lc_body = Option.map go lc.lc_body;
        }
    | E_quantified (q, x, src, pred) -> E_quantified (q, x, go src, go pred)
    | E_reduce r ->
      E_reduce
        { r with rd_init = go r.rd_init; rd_list = go r.rd_list; rd_body = go r.rd_body }
  in
  let rewritten = go expr in
  (rewritten, List.rev !extracted)

let numeric_add a b =
  match a, b with
  | Value.Int x, Value.Int y -> Value.Int (x + y)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    Value.Float (Ops.to_float a +. Ops.to_float b)
  | _ ->
    Value.type_error "sum: expected numbers, got %s and %s" (Value.type_name a)
      (Value.type_name b)

let dedup_values values =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun v ->
      let h = Value.hash v in
      let bucket = try Hashtbl.find seen h with Not_found -> [] in
      if List.exists (Value.equal_total v) bucket then false
      else (
        Hashtbl.replace seen h (v :: bucket);
        true))
    values

(* The expression whose non-null values an aggregate consumes, one per
   input row in row order; none for [count( * )]. *)
let arg_expr = function
  | `Count_star -> None
  | `Percentile (_, _, value_expr, _) | `Agg (_, _, value_expr) -> Some value_expr

let percentile_expr = function
  | `Percentile (_, _, _, pct_expr) -> Some pct_expr
  | `Count_star | `Agg _ -> None

(* Folds the argument values (nulls already dropped, in row order,
   before any DISTINCT dedup) down to the aggregate's result.  Taking
   values rather than rows lets each executor evaluate them its own way
   — the reference per record, the planner per slotted row as rows
   arrive — and both fold in the same row order, so the
   non-associative float folds (sum, avg, stddev) agree bitwise.
   [percentile] evaluates the percentile expression against the
   group's first row ([None]: the group has no rows);
   [row_count] is the group's row count, what [count( * )] reports. *)
let finalize ~percentile ~row_count values spec =
  match spec with
  | `Count_star -> Value.Int row_count
  | `Percentile (cont, distinct, _, _) -> (
    let values = if distinct then dedup_values values else values in
    let pct = match percentile with Some f -> Ops.to_float (f ()) | None -> 0. in
    (* [not (>= && <=)] rather than [< || >]: NaN fails every comparison,
       so the old form let a NaN percentile through to [int_of_float]. *)
    if not (pct >= 0. && pct <= 1.) then
      Value.type_error "percentile must be between 0.0 and 1.0";
    match List.sort Value.compare_total values with
    | [] -> Value.Null
    | sorted ->
      let n = List.length sorted in
      if cont then begin
        let rank = pct *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor rank)
        and hi = int_of_float (Float.ceil rank) in
        let vlo = Ops.to_float (List.nth sorted lo)
        and vhi = Ops.to_float (List.nth sorted hi) in
        let frac = rank -. Float.floor rank in
        Value.Float (vlo +. (frac *. (vhi -. vlo)))
      end
      else begin
        (* nearest-rank (disc): smallest value whose cumulative share is
           >= pct *)
        let rank = max 0 (int_of_float (Float.ceil (pct *. float_of_int n)) - 1) in
        List.nth sorted rank
      end)
  | `Agg (fn, distinct, _) -> (
    let values = if distinct then dedup_values values else values in
    match fn with
    | Count -> Value.Int (List.length values)
    | Collect -> Value.List values
    | Sum -> List.fold_left numeric_add (Value.Int 0) values
    | Avg -> (
      match values with
      | [] -> Value.Null
      | _ ->
        let total =
          List.fold_left (fun acc v -> acc +. Ops.to_float v) 0. values
        in
        Value.Float (total /. float_of_int (List.length values)))
    | Min -> (
      match values with
      | [] -> Value.Null
      | v :: rest ->
        List.fold_left
          (fun acc v -> if Value.compare_total v acc < 0 then v else acc)
          v rest)
    | Max -> (
      match values with
      | [] -> Value.Null
      | v :: rest ->
        List.fold_left
          (fun acc v -> if Value.compare_total v acc > 0 then v else acc)
          v rest)
    | Std_dev | Std_dev_p -> (
      (* sample vs population standard deviation *)
      match values with
      | [] -> Value.Null
      | [ _ ] -> Value.Float 0.
      | _ ->
        let xs = List.map Ops.to_float values in
        let n = float_of_int (List.length xs) in
        let mean = List.fold_left ( +. ) 0. xs /. n in
        let ss =
          List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
        in
        let divisor = if fn = Std_dev then n -. 1. else n in
        Value.Float (sqrt (ss /. divisor))))

let compute cfg g rows spec =
  let eval row e = Eval.eval_expr cfg g row e in
  let values =
    match arg_expr spec with
    | None -> []
    | Some e ->
      List.filter (fun v -> not (Value.is_null v)) (List.map (fun row -> eval row e) rows)
  in
  let percentile =
    match rows, percentile_expr spec with
    | row :: _, Some e -> Some (fun () -> eval row e)
    | _ -> None
  in
  finalize ~percentile ~row_count:(List.length rows) values spec

