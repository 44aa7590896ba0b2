open Cypher_values
open Cypher_graph
open Cypher_table
open Cypher_ast
open Ast

let eval_error = Functions.eval_error

type state = { graph : Graph.t; table : Table.t }

(* ------------------------------------------------------------------ *)
(* Projection (RETURN / WITH)                                          *)
(* ------------------------------------------------------------------ *)

let item_name { ri_expr; ri_alias } =
  match ri_alias with
  | Some a -> a
  | None -> Cypher_ast.Pretty.expr_to_string ri_expr

let expand_star proj table =
  if not proj.pj_star then proj.pj_items
  else
    let existing =
      List.map
        (fun b -> { ri_expr = E_var b; ri_alias = Some b })
        (Table.fields table)
    in
    existing @ proj.pj_items

let check_distinct_names names =
  let sorted = List.sort String.compare names in
  let rec dup = function
    | a :: b :: _ when String.equal a b -> Some a
    | _ :: rest -> dup rest
    | [] -> None
  in
  match dup sorted with
  | Some a -> eval_error "duplicate column name in projection: %s" a
  | None -> ()

(* Rewrites an ORDER BY expression: a subexpression that syntactically
   equals a projected item is replaced by a reference to that item's
   column, so that [ORDER BY count(s)] resolves to the already-computed
   aggregate and [ORDER BY n.name] to the projected value. *)
let rewrite_order_expr items names e =
  let table = List.combine items names in
  let lookup e =
    List.find_map
      (fun (item, name) -> if item.ri_expr = e then Some name else None)
      table
  in
  let rec go e =
    match lookup e with
    | Some name -> E_var name
    | None -> (
      match e with
      | E_prop (e1, k) -> E_prop (go e1, k)
      | E_not e1 -> E_not (go e1)
      | E_neg e1 -> E_neg (go e1)
      | E_cmp (op, a, b) -> E_cmp (op, go a, go b)
      | E_arith (op, a, b) -> E_arith (op, go a, go b)
      | E_and (a, b) -> E_and (go a, go b)
      | E_or (a, b) -> E_or (go a, go b)
      | E_xor (a, b) -> E_xor (go a, go b)
      | E_fn (f, es) -> E_fn (f, List.map go es)
      | E_list es -> E_list (List.map go es)
      | e -> e)
  in
  go e

let apply_projection cfg ~kw proj { graph = g; table } =
  ignore kw;
  let items = expand_star proj table in
  if items = [] then eval_error "projection with no columns";
  let names = List.map item_name items in
  check_distinct_names names;
  let aggregating = List.exists (fun i -> Agg.contains_aggregate i.ri_expr) items in
  (* Each output record is paired with a source record, so that ORDER BY
     can also see the pre-projection variables (e.g. ORDER BY n.age when
     only n.name was projected).  For aggregating projections the source
     is a representative row of the group. *)
  let projected_pairs =
    if not aggregating then
      List.map
        (fun row ->
          ( row,
            Record.of_list
              (List.map2
                 (fun name item -> (name, Eval.eval_expr cfg g row item.ri_expr))
                 names items) ))
        (Table.rows table)
    else begin
      (* Implicit grouping: the non-aggregating items are the grouping
         key (Section 3: "a non-aggregating expression ... acts as an
         implicit grouping key"). *)
      let key_items = List.filter (fun i -> not (Agg.contains_aggregate i.ri_expr)) items in
      let key_fn row =
        List.map (fun i -> Eval.eval_expr cfg g row i.ri_expr) key_items
      in
      let groups =
        if key_items = [] then [ ([], Table.rows table) ]
        else Table.group_by table ~key:key_fn
      in
      List.map
        (fun (_key, rows) ->
          let repr = match rows with r :: _ -> r | [] -> Record.empty in
          ( repr,
            Record.of_list
              (List.map2
                 (fun name item ->
                   if Agg.contains_aggregate item.ri_expr then begin
                     let rewritten, specs = Agg.extract_aggregates item.ri_expr in
                     let env =
                       List.fold_left
                         (fun env (nm, spec) ->
                           Record.add env nm (Agg.compute cfg g rows spec))
                         repr specs
                     in
                     (name, Eval.eval_expr cfg g env rewritten)
                   end
                   else (name, Eval.eval_expr cfg g repr item.ri_expr))
                 names items) ))
        groups
    end
  in
  let pairs =
    if proj.pj_distinct then begin
      let seen = Hashtbl.create 64 in
      List.filter
        (fun (_, out) ->
          let h = Record.hash out in
          let bucket = try Hashtbl.find seen h with Not_found -> [] in
          if List.exists (Record.equal out) bucket then false
          else (
            Hashtbl.replace seen h (out :: bucket);
            true))
        projected_pairs
    end
    else projected_pairs
  in
  let pairs =
    if proj.pj_order_by = [] then pairs
    else
      let order_by =
        List.map
          (fun (e, d) -> (rewrite_order_expr items names e, d))
          proj.pj_order_by
      in
      let env (src, out) = Record.overlay src out in
      let compare_pairs p1 p2 =
        let rec go = function
          | [] -> 0
          | (e, dir) :: rest ->
            let v1 = Eval.eval_expr cfg g (env p1) e
            and v2 = Eval.eval_expr cfg g (env p2) e in
            let c = Value.compare_total v1 v2 in
            let c = match dir with Asc -> c | Desc -> -c in
            if c <> 0 then c else go rest
        in
        go order_by
      in
      List.stable_sort compare_pairs pairs
  in
  let t = Table.create ~fields:names (List.map snd pairs) in
  let eval_count what = function
    | None -> None
    | Some e -> (
      match Eval.eval_expr cfg g Record.empty e with
      | Value.Int n when n >= 0 -> Some n
      | Value.Int n ->
        eval_error "%s: expected a non-negative integer, got %d" what n
      | v ->
        eval_error "%s: expected an integer, got %s" what (Value.type_name v))
  in
  let t =
    match eval_count "SKIP" proj.pj_skip with Some n -> Table.skip t n | None -> t
  in
  let t =
    match eval_count "LIMIT" proj.pj_limit with
    | Some n -> Table.limit t n
    | None -> t
  in
  { graph = g; table = t }

(* ------------------------------------------------------------------ *)
(* Reading clauses                                                     *)
(* ------------------------------------------------------------------ *)

let where_filter cfg g expr table =
  match expr with
  | None -> table
  | Some e ->
    Table.filter table (fun row -> Ternary.is_true (Eval.eval_truth cfg g row e))

let match_fields table pattern =
  List.sort_uniq String.compare
    (Table.fields table @ Ast.free_pattern_tuple pattern)

let apply_match cfg ~opt ~pattern ~where { graph = g; table } =
  let fields = match_fields table pattern in
  let table' =
    if not opt then
      let expanded =
        Table.concat_map table ~fields (fun row ->
            List.map (Record.combine row)
              (Eval.match_pattern_tuple cfg g row pattern))
      in
      where_filter cfg g where expanded
    else
      (* OPTIONAL MATCH (Figure 7): per driving row, if the matching
         clause (including its WHERE) yields rows, take them; otherwise
         keep the row padded with nulls. *)
      Table.concat_map table ~fields (fun row ->
          let matched =
            List.map (Record.combine row)
              (Eval.match_pattern_tuple cfg g row pattern)
          in
          let matched =
            match where with
            | None -> matched
            | Some e ->
              List.filter
                (fun r -> Ternary.is_true (Eval.eval_truth cfg g r e))
                matched
          in
          if matched <> [] then matched
          else
            let missing =
              List.filter (fun a -> not (Record.mem row a)) fields
            in
            [ Record.with_nulls row missing ])
  in
  { graph = g; table = table' }

let apply_unwind cfg (e, a) { graph = g; table } =
  let fields = List.sort_uniq String.compare (a :: Table.fields table) in
  let table' =
    Table.concat_map table ~fields (fun row ->
        match Eval.eval_expr cfg g row e with
        | Value.List vs -> List.map (fun v -> Record.add row a v) vs
        | Value.Null -> []
        | v -> [ Record.add row a v ])
  in
  { graph = g; table = table' }

(* ------------------------------------------------------------------ *)
(* Update clauses                                                      *)
(* ------------------------------------------------------------------ *)

let eval_props cfg g row props =
  List.map (fun (k, e) -> (k, Eval.eval_expr cfg g row e)) props

(* Instantiates one path pattern for CREATE (and the create branch of
   MERGE).  Bound node variables are reused; everything else is created. *)
let create_path cfg ~allow_decorated_bound g row (pp : path_pattern) =
  let create_node g row (np : node_pattern) =
    match np.np_name with
    | Some a when Record.mem row a -> (
      match Record.find_or_null row a with
      | Value.Node n when Graph.mem_node g n ->
        if (not allow_decorated_bound) && (np.np_labels <> [] || np.np_props <> [])
        then
          eval_error
            "CREATE: variable %s is already bound; it cannot be redeclared \
             with labels or properties"
            a
        else (g, row, n)
      | Value.Node _ -> eval_error "CREATE: node bound to %s no longer exists" a
      | v ->
        eval_error "CREATE: variable %s is bound to %s, not a node" a
          (Value.type_name v))
    | name ->
      let g, n =
        Graph.add_node ~labels:np.np_labels ~props:(eval_props cfg g row np.np_props) g
      in
      let row =
        match name with Some a -> Record.add row a (Value.Node n) | None -> row
      in
      (g, row, n)
  in
  let g, row, first = create_node g row pp.pp_first in
  let g, row, _last, steps_rev =
    List.fold_left
      (fun (g, row, prev, steps) ((rp : rel_pattern), np) ->
        let rel_type =
          match rp.rp_types with
          | [ t ] -> t
          | _ -> eval_error "CREATE: a relationship must have exactly one type"
        in
        if rp.rp_len <> None then
          eval_error "CREATE: variable-length relationships cannot be created";
        let g, row, next = create_node g row np in
        let src, tgt =
          match rp.rp_dir with
          | Left_to_right -> (prev, next)
          | Right_to_left -> (next, prev)
          | Undirected ->
            eval_error "CREATE: relationships must have a direction"
        in
        let g, r =
          Graph.add_rel ~src ~tgt ~rel_type
            ~props:(eval_props cfg g row rp.rp_props) g
        in
        let row =
          match rp.rp_name with
          | Some a -> Record.add row a (Value.Rel r)
          | None -> row
        in
        (g, row, next, (r, next) :: steps))
      (g, row, first, []) pp.pp_rest
  in
  let row =
    match pp.pp_name with
    | Some a ->
      Record.add row a
        (Value.Path { path_start = first; path_steps = List.rev steps_rev })
    | None -> row
  in
  (g, row)

let apply_create cfg pattern ~fields { graph = g; table } =
  let g = ref g in
  let rows =
    List.map
      (fun row ->
        List.fold_left
          (fun row pp ->
            let g', row' = create_path cfg ~allow_decorated_bound:false !g row pp in
            g := g';
            row')
          row pattern)
      (Table.rows table)
  in
  { graph = !g; table = Table.create ~fields rows }

let delete_value ~detach g v =
  match v with
  | Value.Null -> g
  | Value.Node n ->
    if not (Graph.mem_node g n) then g
    else if detach then Graph.detach_delete_node g n
    else (
      match Graph.delete_node g n with
      | Ok g -> g
      | Error msg -> eval_error "DELETE: %s" msg)
  | Value.Rel r -> Graph.delete_rel g r
  | Value.Path p ->
    let g = List.fold_left Graph.delete_rel g (Value.path_rels p) in
    List.fold_left
      (fun g n ->
        if not (Graph.mem_node g n) then g
        else if detach then Graph.detach_delete_node g n
        else
          match Graph.delete_node g n with
          | Ok g -> g
          | Error msg -> eval_error "DELETE: %s" msg)
      g (Value.path_nodes p)
  | v -> Value.type_error "DELETE: cannot delete %s" (Value.type_name v)

let apply_delete cfg ~detach exprs { graph = g; table } =
  let g =
    List.fold_left
      (fun g row ->
        List.fold_left
          (fun g e -> delete_value ~detach g (Eval.eval_expr cfg g row e))
          g exprs)
      g (Table.rows table)
  in
  { graph = g; table }

let props_of_value ~what v =
  match v with
  | Value.Map m -> Value.Smap.bindings m
  | v -> Value.type_error "%s: expected a map, got %s" what (Value.type_name v)

let set_entity_props g target bindings ~replace =
  match target with
  | Value.Node n ->
    let g =
      if replace then
        List.fold_left
          (fun g (k, _) -> Graph.remove_node_prop g n k)
          g
          (Value.Smap.bindings (Graph.node_props g n))
      else g
    in
    List.fold_left (fun g (k, v) -> Graph.set_node_prop g n k v) g bindings
  | Value.Rel r ->
    let g =
      if replace then
        List.fold_left
          (fun g (k, _) -> Graph.remove_rel_prop g r k)
          g
          (Value.Smap.bindings (Graph.rel_props g r))
      else g
    in
    List.fold_left (fun g (k, v) -> Graph.set_rel_prop g r k v) g bindings
  | Value.Null -> g
  | v ->
    Value.type_error "SET: expected a node or relationship, got %s"
      (Value.type_name v)

let apply_set_items cfg items g row =
  List.fold_left
    (fun g item ->
      match item with
      | S_prop (target, k, e) -> (
        let v = Eval.eval_expr cfg g row e in
        match Eval.eval_expr cfg g row target with
        | Value.Node n -> Graph.set_node_prop g n k v
        | Value.Rel r -> Graph.set_rel_prop g r k v
        | Value.Null -> g
        | tv ->
          Value.type_error "SET: expected a node or relationship, got %s"
            (Value.type_name tv))
      | S_all_props (a, e) ->
        let target = Record.find_or_null row a in
        let v = Eval.eval_expr cfg g row e in
        let bindings =
          match v with
          | Value.Node n -> Value.Smap.bindings (Graph.node_props g n)
          | Value.Rel r -> Value.Smap.bindings (Graph.rel_props g r)
          | _ -> props_of_value ~what:"SET =" v
        in
        set_entity_props g target bindings ~replace:true
      | S_merge_props (a, e) ->
        let target = Record.find_or_null row a in
        let v = Eval.eval_expr cfg g row e in
        set_entity_props g target (props_of_value ~what:"SET +=" v) ~replace:false
      | S_labels (a, labels) -> (
        match Record.find_or_null row a with
        | Value.Node n ->
          List.fold_left (fun g l -> Graph.add_label g n l) g labels
        | Value.Null -> g
        | v ->
          Value.type_error "SET label: expected a node, got %s"
            (Value.type_name v)))
    g items

let apply_set cfg items { graph = g; table } =
  let g =
    List.fold_left (fun g row -> apply_set_items cfg items g row) g
      (Table.rows table)
  in
  { graph = g; table }

let apply_remove cfg items { graph = g; table } =
  let remove_one g row item =
    match item with
    | R_prop (target, k) -> (
      match Eval.eval_expr cfg g row target with
      | Value.Node n -> Graph.remove_node_prop g n k
      | Value.Rel r -> Graph.remove_rel_prop g r k
      | Value.Null -> g
      | v ->
        Value.type_error "REMOVE: expected a node or relationship, got %s"
          (Value.type_name v))
    | R_labels (a, labels) -> (
      match Record.find_or_null row a with
      | Value.Node n ->
        List.fold_left (fun g l -> Graph.remove_label g n l) g labels
      | Value.Null -> g
      | v ->
        Value.type_error "REMOVE label: expected a node, got %s"
          (Value.type_name v))
  in
  let g =
    List.fold_left
      (fun g row -> List.fold_left (fun g item -> remove_one g row item) g items)
      g (Table.rows table)
  in
  { graph = g; table }

let apply_merge cfg ~pattern ~on_create ~on_match ~fields { graph = g; table } =
  let g = ref g in
  let rows =
    List.concat_map
      (fun row ->
        let matches = Eval.match_pattern_tuple cfg !g row [ pattern ] in
        if matches <> [] then
          List.map
            (fun u' ->
              let row' = Record.combine row u' in
              g := apply_set_items cfg on_match !g row';
              row')
            matches
        else begin
          let g', row' = create_path cfg ~allow_decorated_bound:true !g row pattern in
          g := apply_set_items cfg on_create g' row';
          [ row' ]
        end)
      (Table.rows table)
  in
  { graph = !g; table = Table.create ~fields rows }

(* ------------------------------------------------------------------ *)
(* Putting it together                                                 *)
(* ------------------------------------------------------------------ *)

let apply_call cfg ~proc ~args ~yield_ ~fields { graph = g; table } =
  (* each driving row is cross-joined with the procedure's result rows,
     restricted and renamed per the YIELD list *)
  let selection columns =
    match yield_ with
    | [] -> List.map (fun c -> (c, c)) columns
    | items ->
      List.map
        (fun (c, alias) ->
          if not (List.mem c columns) then
            eval_error "procedure %s does not yield column %s" proc c;
          (c, Option.value alias ~default:c))
        items
  in
  let columns = ref [] in
  let rows =
    List.concat_map
      (fun row ->
        let argv = List.map (fun e -> Eval.eval_expr cfg g row e) args in
        let result = Procedures.call g proc argv in
        columns := result.Procedures.columns;
        let sel = selection result.Procedures.columns in
        List.map
          (fun prow ->
            List.fold_left
              (fun acc (c, alias) ->
                let idx =
                  match
                    List.find_index (String.equal c) result.Procedures.columns
                  with
                  | Some i -> i
                  | None -> assert false
                in
                Record.add acc alias (List.nth prow idx))
              row sel)
          result.Procedures.rows)
      (Table.rows table)
  in
  let fields =
    match fields with
    | Some fields -> fields
    | None -> List.sort_uniq String.compare (Table.fields table @ !columns)
  in
  { graph = g; table = Table.create ~fields rows }

(* The fields of [apply_clause]'s output for an update clause or CALL,
   from its input's fields: the one rule both engines follow, so a plan
   compiled for the read segment after an update sees the fields the
   update will produce. *)
let update_fields clause prev =
  let extend names = Some (List.sort_uniq String.compare (prev @ names)) in
  match clause with
  | C_create pattern -> extend (Ast.free_pattern_tuple pattern)
  | C_merge { pattern; _ } -> extend (Ast.free_path_pattern pattern)
  | C_call { yield_ = []; _ } -> None
  | C_call { yield_; _ } ->
    extend (List.map (fun (c, alias) -> Option.value alias ~default:c) yield_)
  | C_delete _ | C_set _ | C_remove _ | C_foreach _ -> extend []
  | C_match _ | C_with _ | C_unwind _ ->
    invalid_arg "Clauses.update_fields: a read clause"

let rec apply_clause cfg clause state =
  let fields () = update_fields clause (Table.fields state.table) in
  match clause with
  | C_foreach { fe_var; fe_list; fe_clauses } ->
    (* per driving row, bind the variable to each list element and apply
       the update clauses; the driving table itself is unchanged *)
    let g =
      List.fold_left
        (fun g row ->
          match Eval.eval_expr cfg g row fe_list with
          | Value.Null -> g
          | Value.List elems ->
            List.fold_left
              (fun g v ->
                let inner_row = Record.add row fe_var v in
                let inner =
                  List.fold_left
                    (fun st c -> apply_clause cfg c st)
                    {
                      graph = g;
                      table = Table.create ~fields:(Record.dom inner_row) [ inner_row ];
                    }
                    fe_clauses
                in
                inner.graph)
              g elems
          | v ->
            Value.type_error "FOREACH: expected a list, got %s"
              (Value.type_name v))
        state.graph (Table.rows state.table)
    in
    { state with graph = g }
  | C_call { proc; args; yield_ } ->
    apply_call cfg ~proc ~args ~yield_ ~fields:(fields ()) state
  | C_match { opt; pattern; where } -> apply_match cfg ~opt ~pattern ~where state
  | C_with { proj; where } ->
    let state = apply_projection cfg ~kw:"WITH" proj state in
    { state with table = where_filter cfg state.graph where state.table }
  | C_unwind (e, a) -> apply_unwind cfg (e, a) state
  | C_create pattern ->
    apply_create cfg pattern ~fields:(Option.get (fields ())) state
  | C_delete { detach; exprs } -> apply_delete cfg ~detach exprs state
  | C_set items -> apply_set cfg items state
  | C_remove items -> apply_remove cfg items state
  | C_merge { pattern; on_create; on_match } ->
    apply_merge cfg ~pattern ~on_create ~on_match
      ~fields:(Option.get (fields ())) state

let run_single cfg g { sq_clauses; sq_return } =
  let state =
    List.fold_left
      (fun state clause -> apply_clause cfg clause state)
      { graph = g; table = Table.unit }
      sq_clauses
  in
  match sq_return with
  | Some proj -> apply_projection cfg ~kw:"RETURN" proj state
  | None -> { state with table = Table.empty ~fields:[] }

let rec run_query cfg g = function
  | Q_single sq -> run_single cfg g sq
  | Q_union (q1, q2) ->
    let s1 = run_query cfg g q1 in
    let s2 = run_query cfg s1.graph q2 in
    { graph = s2.graph; table = Table.dedup (Table.union s1.table s2.table) }
  | Q_union_all (q1, q2) ->
    let s1 = run_query cfg g q1 in
    let s2 = run_query cfg s1.graph q2 in
    { graph = s2.graph; table = Table.union s1.table s2.table }

let output cfg g q = (run_query cfg g q).table
