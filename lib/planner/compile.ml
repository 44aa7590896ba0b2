open Cypher_values
open Cypher_graph
open Cypher_table
open Cypher_ast
open Ast
open Cypher_semantics
module Smap = Map.Make (String)

type row = Value.t array
type env = { cfg : Config.t; g : Graph.t }
type scope = int Smap.t
type 'a compiled = env -> row -> 'a

let record_of bindings (row : row) =
  Record.of_list (List.map (fun (a, i) -> (a, row.(i))) bindings)

let to_record scope =
  let bindings = Smap.bindings scope in
  fun row -> record_of bindings row

(* The one rule for what is not compiled natively: rebuild the record
   the reference evaluator expects from the row's bound slots, and ask
   it.  Unbound variables and missing parameters come here too, so their
   errors are the evaluator's own and raise only on evaluation. *)
let fallback scope e : Value.t compiled =
  let to_record = to_record scope in
  fun env ->
    let cfg = env.cfg and g = env.g in
    fun row -> Eval.eval_expr cfg g (to_record row) e

let value_of_ternary = Eval.value_of_ternary

(* Each constructor below mirrors the shape of its [Eval.eval_expr] case
   — same operands, same evaluation order — so both engines raise the
   same error first when several operands would. *)
let rec expr scope e : Value.t compiled =
  match e with
  | E_lit l ->
    let v = Ast.value_of_literal l in
    fun _ _ -> v
  | E_var a -> (
    match Smap.find_opt a scope with
    | Some i -> fun _ row -> row.(i)
    | None -> fallback scope e)
  | E_param p ->
    fun env -> (
      match Value.Smap.find_opt p env.cfg.Config.params with
      | Some v -> fun _ -> v
      | None -> fallback scope e env)
  | E_prop (E_var a, k) when Smap.mem a scope ->
    let i = Smap.find a scope in
    fun env ->
      let g = env.g in
      fun row -> Eval.property g row.(i) k
  | E_prop (e1, k) ->
    let c1 = expr scope e1 in
    fun env ->
      let f1 = c1 env and g = env.g in
      fun row -> Eval.property g (f1 row) k
  | E_in (e1, e2) -> ternary2 Ops.in_list scope e1 e2
  | E_starts_with (e1, e2) -> ternary2 Ops.starts_with scope e1 e2
  | E_ends_with (e1, e2) -> ternary2 Ops.ends_with scope e1 e2
  | E_contains (e1, e2) -> ternary2 Ops.contains scope e1 e2
  | E_regex_match (e1, e2) ->
    let c1 = expr scope e1 and c2 = expr scope e2 in
    fun env ->
      let f1 = c1 env and f2 = c2 env in
      (* A literal or parameter pattern is the same on every row: its
         matcher is built on first use and kept for the execution.  The
         matcher is execution-local because a compiled regex mutates as
         it runs, so one cached plan's executions on several domains
         must not share it. *)
      let last = ref None in
      let matcher pat =
        match !last with
        | Some (p, m) when String.equal p pat -> m
        | _ ->
          let m = Eval.regex_matcher pat in
          last := Some (pat, m);
          m
      in
      fun row -> Eval.regex_match ~matcher (f1 row) (f2 row)
  | E_or _ | E_and _ | E_xor _ | E_not _ ->
    let c = truth scope e in
    fun env ->
      let f = c env in
      fun row -> value_of_ternary (f row)
  | E_is_null e1 ->
    let c1 = expr scope e1 in
    fun env ->
      let f1 = c1 env in
      fun row -> Value.Bool (Value.is_null (f1 row))
  | E_is_not_null e1 ->
    let c1 = expr scope e1 in
    fun env ->
      let f1 = c1 env in
      fun row -> Value.Bool (not (Value.is_null (f1 row)))
  | E_cmp (op, e1, e2) ->
    let c = compare scope op e1 e2 in
    fun env ->
      let f = c env in
      fun row -> value_of_ternary (f row)
  | E_arith (op, e1, e2) ->
    let c1 = expr scope e1 and c2 = expr scope e2 in
    fun env ->
      let f1 = c1 env and f2 = c2 env in
      fun row ->
        let v1 = f1 row and v2 = f2 row in
        Eval.arith op v1 v2
  | E_neg e1 ->
    let c1 = expr scope e1 in
    fun env ->
      let f1 = c1 env in
      fun row -> Ops.neg (f1 row)
  | E_has_labels (e1, labels) ->
    let c1 = expr scope e1 in
    fun env ->
      let f1 = c1 env and g = env.g in
      fun row -> Eval.has_labels g (f1 row) labels
  | E_fn (name, args) when plain_call name args ->
    let cs = List.map (expr scope) args in
    fun env ->
      let fs = List.map (fun c -> c env) cs and g = env.g in
      fun row -> Functions.apply g name (List.map (fun f -> f row) fs)
  | E_fn _ | E_map _ | E_list _ | E_index _ | E_slice _ | E_count_star
  | E_agg _ | E_agg_percentile _ | E_case _ | E_list_comp _ | E_map_projection _ | E_pattern_pred _ | E_exists_pattern _
  | E_reduce _ | E_pattern_comp _ | E_quantified _ ->
    fallback scope e

(* Calls that [Eval.eval_fn] hands to {!Functions.apply} unchanged: not
   [exists], which must see its argument's form, nor [size] or [length]
   of a pattern, which count matches. *)
and plain_call name args =
  match String.lowercase_ascii name, args with
  | "exists", _ -> false
  | ("size" | "length"), [ (E_pattern_pred _ | E_exists_pattern _) ] -> false
  | _ -> true

and ternary2 op scope e1 e2 =
  let c = binary ~left_first:false op scope e1 e2 in
  fun env ->
    let f = c env in
    fun row -> value_of_ternary (f row)

and compare scope op e1 e2 : Ternary.t compiled =
  binary ~left_first:true (Eval.comparison op) scope e1 e2

(* [op e1 e2].  [left_first] is the operand order of the interpreter's
   case: its comparisons bind both operands with [let ... and ...], left
   first; its other binary operators are applications, which evaluate
   the right operand first.  A literal right operand — the usual
   [p.city = 'x'] — cannot raise, so it is taken as it is. *)
and binary :
      'a. left_first:bool -> (Value.t -> Value.t -> 'a) -> scope -> expr -> expr ->
      'a compiled =
 fun ~left_first op scope e1 e2 ->
  let c1 = expr scope e1 in
  match e2 with
  | E_lit l ->
    let v2 = Ast.value_of_literal l in
    fun env ->
      let f1 = c1 env in
      fun row -> op (f1 row) v2
  | _ ->
    let c2 = expr scope e2 in
    fun env ->
      let f1 = c1 env and f2 = c2 env in
      if left_first then fun row ->
        let v1 = f1 row in
        op v1 (f2 row)
      else fun row ->
        let v2 = f2 row in
        op (f1 row) v2

(* A predicate straight to its truth value: the connectives, comparisons
   and string and list predicates never box an intermediate boolean. *)
and truth scope e : Ternary.t compiled =
  match e with
  | E_or (e1, e2) -> connective Ternary.or_ scope e1 e2
  | E_and (e1, e2) -> connective Ternary.and_ scope e1 e2
  | E_xor (e1, e2) -> connective Ternary.xor scope e1 e2
  | E_not e1 ->
    let c1 = truth scope e1 in
    fun env ->
      let f1 = c1 env in
      fun row -> Ternary.not_ (f1 row)
  | E_cmp (op, e1, e2) -> compare scope op e1 e2
  | E_in (e1, e2) -> binary ~left_first:false Ops.in_list scope e1 e2
  | E_starts_with (e1, e2) -> binary ~left_first:false Ops.starts_with scope e1 e2
  | E_ends_with (e1, e2) -> binary ~left_first:false Ops.ends_with scope e1 e2
  | E_contains (e1, e2) -> binary ~left_first:false Ops.contains scope e1 e2
  | _ ->
    let c = expr scope e in
    fun env ->
      let f = c env in
      fun row -> Eval.truth_of_value (f row)

and connective op scope e1 e2 =
  let c1 = truth scope e1 and c2 = truth scope e2 in
  fun env ->
    let f1 = c1 env and f2 = c2 env in
    fun row -> op (f1 row) (f2 row)
