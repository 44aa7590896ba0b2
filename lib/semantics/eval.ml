open Cypher_values
open Cypher_graph
open Cypher_table
open Cypher_ast
open Ast
module Path_search = Cypher_algos.Path_search

exception Eval_error = Functions.Eval_error

let eval_error = Functions.eval_error

(* Force the temporal constructors into F whenever the evaluator links. *)
let () = Temporal_functions.ensure ()

let value_of_ternary = function
  | Ternary.True -> Value.Bool true
  | Ternary.False -> Value.Bool false
  | Ternary.Unknown -> Value.Null

let graph_direction = function
  | Left_to_right -> `Out
  | Right_to_left -> `In
  | Undirected -> `Both

(* ι(r, k) read off a relationship record in hand, allocating nothing. *)
let record_prop (d : Graph.rel_data) k =
  match Value.Smap.find k d.rel_props with
  | v -> v
  | exception Not_found -> Value.Null

(* The cost cheapestPath reads off one relationship's cost property:
   missing and non-numeric costs are typed errors here; negative and NaN
   costs are rejected by the search when it relaxes the relationship. *)
let path_cost prop (d : Graph.rel_data) =
  match record_prop d prop with
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | Value.Null ->
    eval_error "cheapestPath: relationship has no '%s' cost property" prop
  | v ->
    Value.type_error "cheapestPath: cost property '%s' is %s, expected a number"
      prop (Value.type_name v)

(* What a search's neighbour function hands over per relationship. *)
type _ payload =
  | Of_record : (Graph.rel_data -> 'w) -> 'w payload
  | Cost : string -> float payload

let cheapest_path prop ~fwd ~bwd s e =
  if Ids.equal_node s e then
    eval_error "cheapestPath between identical endpoints is not supported";
  match Path_search.cheapest ~fwd ~bwd s e with
  | None -> []
  | Some (_, steps) -> [ steps ]
  | exception Path_search.Invalid_cost w ->
    eval_error "cheapestPath: %s '%s' cost on a relationship"
      (if Float.is_nan w then "NaN" else "negative")
      prop

(* Whether the steps of a completed path, starting at [start], satisfy
   the GQL path restrictor.  WALK imposes nothing; TRAIL forbids
   repeated relationships; ACYCLIC forbids repeated nodes. *)
let restr_ok restr start steps =
  match restr with
  | Walk -> true
  | Trail ->
    let rec dup seen = function
      | [] -> false
      | (r, _) :: rest ->
        Ids.Rel_set.mem r seen || dup (Ids.Rel_set.add r seen) rest
    in
    not (dup Ids.Rel_set.empty steps)
  | Acyclic ->
    let rec dup seen = function
      | [] -> false
      | (_, n) :: rest ->
        Ids.Node_set.mem n seen || dup (Ids.Node_set.add n seen) rest
    in
    not (dup (Ids.Node_set.singleton start) steps)

let max_hops cfg g = function
  | Some n -> n
  | None -> (
    match cfg.Config.var_length_cap with
    | Some c -> c
    | None -> Graph.rel_count g)

type hop = {
  types : string list;
  start : Type_regex.states;
  step : Type_regex.states -> Graph.rel_data -> Type_regex.states option;
  ends : int -> Type_regex.states -> bool;
  kmax : int;
}

(* A plain hop's type filter is the adjacency's; it reads no automaton
   and no record, and its state set stays empty. *)
let type_filter_hop cfg g ~types ~min_len ~max_len =
  {
    types;
    start = Type_regex.Int_set.empty;
    step = (fun q _ -> Some q);
    ends = (fun depth _ -> depth >= min_len);
    kmax = max_hops cfg g max_len;
  }

let regex_hop cfg g re =
  let nfa = Type_regex.compile re in
  {
    types = [];
    start = Type_regex.start nfa;
    step =
      (fun q (d : Graph.rel_data) ->
        let q' = Type_regex.step nfa q d.rel_type in
        if Type_regex.is_empty q' then None else Some q');
    ends = (fun _ q -> Type_regex.accepting nfa q);
    kmax = max_hops cfg g None;
  }

(* ------------------------------------------------------------------ *)
(* Value-level steps of [eval_expr], shared with the planner's compiled *)
(* expressions so that neither engine owns a second copy.              *)
(* ------------------------------------------------------------------ *)

(* ι(v, k): a property of a node, relationship or map, or a component
   of a temporal value. *)
let property g v k =
  match v with
  | Value.Null -> Value.Null
  | Value.Node n -> Graph.node_prop g n k
  | Value.Rel r -> Graph.rel_prop g r k
  | Value.Map m -> (
    match Value.Smap.find_opt k m with Some v -> v | None -> Value.Null)
  | Value.Temporal t -> (
    match Cypher_temporal.Temporal.component t k with
    | Some v -> v
    | None -> Value.type_error "unknown temporal component: %s" k)
  | v ->
    Value.type_error "property access .%s: expected a node, relationship or map, got %s"
      k (Value.type_name v)

let comparison = function
  | Eq -> Value.equal_ternary
  | Neq -> fun v1 v2 -> Ternary.not_ (Value.equal_ternary v1 v2)
  | Lt -> Value.less_than
  | Le -> Value.less_eq
  | Gt -> Value.greater_than
  | Ge -> Value.greater_eq

(* Arithmetic, with the temporal cases before the numeric ones. *)
let arith op v1 v2 =
  match v1, v2 with
  | Value.Temporal t1, Value.Temporal t2 -> (
    match op with
    | Add -> Cypher_temporal.Temporal.add t1 t2
    | Sub -> Cypher_temporal.Temporal.sub t1 t2
    | _ -> Value.type_error "unsupported temporal arithmetic")
  | Value.Temporal t, (Value.Int _ | Value.Float _) when op = Mul ->
    Cypher_temporal.Temporal.scale t (Ops.to_float v2)
  | (Value.Int _ | Value.Float _), Value.Temporal t when op = Mul ->
    Cypher_temporal.Temporal.scale t (Ops.to_float v1)
  | _ -> (
    match op with
    | Add -> Ops.add v1 v2
    | Sub -> Ops.sub v1 v2
    | Mul -> Ops.mul v1 v2
    | Div -> Ops.div v1 v2
    | Mod -> Ops.modulo v1 v2
    | Pow -> Ops.pow v1 v2)

let has_labels g v labels =
  match v with
  | Value.Null -> Value.Null
  | Value.Node n ->
    Value.Bool (List.for_all (fun l -> Graph.has_label g n l) labels)
  | v ->
    Value.type_error "label predicate: expected a node, got %s"
      (Value.type_name v)

let truth_of_value = function
  | Value.Bool b -> Ternary.of_bool b
  | Value.Null -> Ternary.Unknown
  | v ->
    Value.type_error "expected a boolean predicate, got %s" (Value.type_name v)

(* The whole-string matcher of a =~ pattern, PCRE dialect, as in Cypher.
   An invalid pattern yields a matcher that raises the typed error when
   applied, so building one never fails. *)
let regex_matcher pat =
  match Re.Pcre.re ("^(?:" ^ pat ^ ")$") with
  | re ->
    let re = Re.compile re in
    fun s -> Value.Bool (Re.execp re s)
  | exception _ -> fun _ -> eval_error "invalid regular expression: %s" pat

(* [v1 =~ v2], with [matcher pat] the matcher of a pattern. *)
let regex_match ~matcher v1 v2 =
  match v1, v2 with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.String s, Value.String pat -> matcher pat s
  | a, b ->
    Value.type_error "=~: expected strings, got %s and %s" (Value.type_name a)
      (Value.type_name b)

(* ------------------------------------------------------------------ *)
(* Expressions: [[expr]]_{G,u}  (Section 4.3)                          *)
(* ------------------------------------------------------------------ *)

let rec eval_expr cfg g u expr =
  match expr with
  | E_lit l -> Ast.value_of_literal l
  | E_var a -> (
    match Record.find u a with
    | Some v -> v
    | None -> eval_error "unbound variable: %s" a)
  | E_param p -> (
    match Value.Smap.find_opt p cfg.Config.params with
    | Some v -> v
    | None -> eval_error "missing parameter: $%s" p)
  | E_prop (e, k) -> eval_prop_access cfg g u e k
  | E_map kvs ->
    Value.map_of_list (List.map (fun (k, e) -> (k, eval_expr cfg g u e)) kvs)
  | E_list es -> Value.List (List.map (eval_expr cfg g u) es)
  | E_in (e1, e2) ->
    value_of_ternary (Ops.in_list (eval_expr cfg g u e1) (eval_expr cfg g u e2))
  | E_index (e1, e2) -> Ops.index (eval_expr cfg g u e1) (eval_expr cfg g u e2)
  | E_slice (e, lo, hi) ->
    Ops.slice (eval_expr cfg g u e)
      (Option.map (eval_expr cfg g u) lo)
      (Option.map (eval_expr cfg g u) hi)
  | E_starts_with (e1, e2) ->
    value_of_ternary
      (Ops.starts_with (eval_expr cfg g u e1) (eval_expr cfg g u e2))
  | E_ends_with (e1, e2) ->
    value_of_ternary (Ops.ends_with (eval_expr cfg g u e1) (eval_expr cfg g u e2))
  | E_contains (e1, e2) ->
    value_of_ternary (Ops.contains (eval_expr cfg g u e1) (eval_expr cfg g u e2))
  | E_regex_match (e1, e2) ->
    regex_match ~matcher:regex_matcher (eval_expr cfg g u e1)
      (eval_expr cfg g u e2)
  | E_or (e1, e2) ->
    value_of_ternary
      (Ternary.or_ (eval_truth cfg g u e1) (eval_truth cfg g u e2))
  | E_and (e1, e2) ->
    value_of_ternary
      (Ternary.and_ (eval_truth cfg g u e1) (eval_truth cfg g u e2))
  | E_xor (e1, e2) ->
    value_of_ternary
      (Ternary.xor (eval_truth cfg g u e1) (eval_truth cfg g u e2))
  | E_not e -> value_of_ternary (Ternary.not_ (eval_truth cfg g u e))
  | E_is_null e -> Value.Bool (Value.is_null (eval_expr cfg g u e))
  | E_is_not_null e -> Value.Bool (not (Value.is_null (eval_expr cfg g u e)))
  | E_cmp (op, e1, e2) ->
    let v1 = eval_expr cfg g u e1 and v2 = eval_expr cfg g u e2 in
    value_of_ternary (comparison op v1 v2)
  | E_arith (op, e1, e2) ->
    let v1 = eval_expr cfg g u e1 and v2 = eval_expr cfg g u e2 in
    arith op v1 v2
  | E_neg e -> Ops.neg (eval_expr cfg g u e)
  | E_fn (name, args) -> eval_fn cfg g u name args
  | E_count_star | E_agg _ | E_agg_percentile _ ->
    eval_error "aggregation is only allowed in RETURN and WITH items"
  | E_has_labels (e, labels) -> has_labels g (eval_expr cfg g u e) labels
  | E_case { case_subject; case_branches; case_default } -> (
    let matches (w, _) =
      match case_subject with
      | Some s ->
        Ternary.is_true
          (Value.equal_ternary (eval_expr cfg g u s) (eval_expr cfg g u w))
      | None -> Ternary.is_true (eval_truth cfg g u w)
    in
    match List.find_opt matches case_branches with
    | Some (_, t) -> eval_expr cfg g u t
    | None -> (
      match case_default with
      | Some d -> eval_expr cfg g u d
      | None -> Value.Null))
  | E_list_comp { lc_var; lc_source; lc_where; lc_body } -> (
    match eval_expr cfg g u lc_source with
    | Value.Null -> Value.Null
    | Value.List elems ->
      let keep v =
        match lc_where with
        | None -> true
        | Some w -> Ternary.is_true (eval_truth cfg g (Record.add u lc_var v) w)
      in
      let body v =
        match lc_body with
        | None -> v
        | Some b -> eval_expr cfg g (Record.add u lc_var v) b
      in
      Value.List (List.map body (List.filter keep elems))
    | v ->
      Value.type_error "list comprehension: expected a list, got %s"
        (Value.type_name v))
  | E_map_projection (e, items) -> (
    match eval_expr cfg g u e with
    | Value.Null -> Value.Null
    | subject ->
      let props_of () =
        match subject with
        | Value.Node n -> Graph.node_props g n
        | Value.Rel r -> Graph.rel_props g r
        | Value.Map m -> m
        | v ->
          Value.type_error
            "map projection: expected a node, relationship or map, got %s"
            (Value.type_name v)
      in
      let prop k =
        match subject with
        | Value.Node n -> Graph.node_prop g n k
        | Value.Rel r -> Graph.rel_prop g r k
        | Value.Map m -> (
          match Value.Smap.find_opt k m with Some v -> v | None -> Value.Null)
        | v ->
          Value.type_error
            "map projection: expected a node, relationship or map, got %s"
            (Value.type_name v)
      in
      Value.Map
        (List.fold_left
           (fun acc item ->
             match item with
             | Mp_property k -> Value.Smap.add k (prop k) acc
             | Mp_all_properties ->
               Value.Smap.union (fun _ _ v -> Some v) acc (props_of ())
             | Mp_literal (k, e) -> Value.Smap.add k (eval_expr cfg g u e) acc
             | Mp_variable v -> Value.Smap.add v (eval_expr cfg g u (E_var v)) acc)
           Value.Smap.empty items))
  | E_pattern_pred p | E_exists_pattern p ->
    Value.Bool (match_pattern_tuple cfg g u [ p ] <> [])
  | E_reduce { rd_acc; rd_init; rd_var; rd_list; rd_body } -> (
    match eval_expr cfg g u rd_list with
    | Value.Null -> Value.Null
    | Value.List elems ->
      List.fold_left
        (fun acc v ->
          eval_expr cfg g
            (Record.add (Record.add u rd_acc acc) rd_var v)
            rd_body)
        (eval_expr cfg g u rd_init)
        elems
    | v -> Value.type_error "reduce: expected a list, got %s" (Value.type_name v))
  | E_pattern_comp { pc_pattern; pc_where; pc_body } ->
    (* one body value per match of the pattern under the current
       assignment, in match order *)
    let matches = match_pattern_tuple cfg g u [ pc_pattern ] in
    let envs = List.map (fun u' -> Record.overlay u u') matches in
    let envs =
      match pc_where with
      | None -> envs
      | Some w ->
        List.filter (fun env -> Ternary.is_true (eval_truth cfg g env w)) envs
    in
    Value.List (List.map (fun env -> eval_expr cfg g env pc_body) envs)
  | E_quantified (q, x, src, pred) -> (
    match eval_expr cfg g u src with
    | Value.Null -> Value.Null
    | Value.List elems ->
      let truths =
        List.map (fun v -> eval_truth cfg g (Record.add u x v) pred) elems
      in
      let count t = List.length (List.filter (Ternary.equal t) truths) in
      let trues = count Ternary.True
      and falses = count Ternary.False
      and unknowns = count Ternary.Unknown in
      value_of_ternary
        (match q with
        | Q_all ->
          if falses > 0 then Ternary.False
          else if unknowns > 0 then Ternary.Unknown
          else Ternary.True
        | Q_any ->
          if trues > 0 then Ternary.True
          else if unknowns > 0 then Ternary.Unknown
          else Ternary.False
        | Q_none ->
          if trues > 0 then Ternary.False
          else if unknowns > 0 then Ternary.Unknown
          else Ternary.True
        | Q_single ->
          if trues > 1 then Ternary.False
          else if unknowns > 0 then Ternary.Unknown
          else if trues = 1 then Ternary.True
          else Ternary.False)
    | v ->
      Value.type_error "quantifier: expected a list, got %s" (Value.type_name v))

and eval_prop_access cfg g u e k = property g (eval_expr cfg g u e) k

and eval_fn cfg g u name args =
  (* exists(n.prop) tests whether ι is defined on (n, prop): it must see
     the expression, not its value, because a missing property already
     evaluates to null. *)
  match String.lowercase_ascii name, args with
  | "exists", [ E_prop (e, k) ] -> (
    match eval_expr cfg g u e with
    | Value.Null -> Value.Null
    | Value.Node n -> Value.Bool (Value.Smap.mem k (Graph.node_props g n))
    | Value.Rel r -> Value.Bool (Value.Smap.mem k (Graph.rel_props g r))
    | Value.Map m -> Value.Bool (Value.Smap.mem k m)
    | v -> Value.type_error "exists: cannot apply to %s" (Value.type_name v))
  | "exists", [ e ] -> Value.Bool (not (Value.is_null (eval_expr cfg g u e)))
  (* size((a)-->(b)) counts the matches of the pattern (Neo4j 3.x
     behaviour); it must see the pattern, whose generic evaluation is a
     boolean. *)
  | ("size" | "length"), [ (E_pattern_pred p | E_exists_pattern p) ] ->
    Value.Int (List.length (match_pattern_tuple cfg g u [ p ]))
  | _ -> Functions.apply g name (List.map (eval_expr cfg g u) args)

and eval_truth cfg g u e = truth_of_value (eval_expr cfg g u e)

(* ------------------------------------------------------------------ *)
(* Pattern matching: match(π̄, G, u)  (Section 4.2)                     *)
(* ------------------------------------------------------------------ *)

(* The filtered adjacency every path search runs on, forwards along
   [dir] and backwards against it: type filter and relationship property
   predicates.  The types are resolved once per search and tested on the
   adjacency block itself; the candidate's record, in the block too,
   supplies its properties and an [Of_record] payload with no further
   store access (one db hit per direction read), and is read only when
   there are predicates or such a payload.  A [Cost] payload comes off
   the block's cost column; the record is read again only where the
   column holds NaN, through [path_cost], so a missing or non-numeric
   cost raises its typed error there and a NaN one reaches the search
   as NaN.  The predicate values depend only on
   [u], so they are evaluated once per search, on the first candidate
   that needs them.  A predicate that cannot evaluate is a
   typed error — silently dropping every edge would turn a user mistake
   into an empty result — named as an unbound variable when it
   references one, and otherwise the evaluator's own error. *)
and search_neighbours :
    type w.
    Config.t -> Graph.t -> Record.t -> types:string list ->
    props:(string * expr) list -> payload:w payload -> direction ->
    w Path_search.neighbours * w Path_search.neighbours =
 fun cfg g u ~types ~props ~payload dir ->
  let expected =
    lazy
      (List.map
         (fun (k, e) ->
           match eval_expr cfg g u e with
           | v -> (k, v)
           | exception (Eval_error _ as err) -> (
             match
               List.find_opt (fun a -> not (Record.mem u a)) (Ast.expr_free_vars e)
             with
             | Some a ->
               eval_error
                 "shortest-path relationship predicate on '%s' references \
                  the unbound variable %s"
                 k a
             | None -> raise err))
         props)
  in
  let passes d =
    List.for_all
      (fun (k, v) -> Ternary.is_true (Value.equal_ternary (record_prop d k) v))
      (Lazy.force expected)
  in
  let types = Graph.type_filter g types in
  let along dir : w Path_search.neighbours =
    let dir = graph_direction dir in
    match payload with
    | Of_record pay ->
      fun cur f ->
        Graph.iter_adjacent g cur dir types (fun r n d ->
            if props = [] || passes d then f r n (pay d))
    | Cost prop ->
      fun cur f ->
        Graph.iter_adjacent_costs g cur dir types prop (fun r n w d ->
            if props = [] || passes d then
              f r n (if Float.is_nan w then path_cost prop d else w))
  in
  let against = function
    | Left_to_right -> Right_to_left
    | Right_to_left -> Left_to_right
    | Undirected -> Undirected
  in
  (along dir, along (against dir))

and match_pattern_tuple cfg g u patterns =
  let results = ref [] in
  let free = Ast.free_pattern_tuple patterns in
  let new_names = List.filter (fun a -> not (Record.mem u a)) free in
  let track_nodes = cfg.Config.morphism = Config.Node_isomorphism in
  let track_rels = cfg.Config.morphism <> Config.Homomorphism in
  (* state passed along the search *)
  let module S = struct
    type t = {
      bnd : Record.t;
      used_rels : Ids.Rel_set.t;
      used_nodes : Ids.Node_set.t;
      deferred : (Record.t -> bool) list;
    }
  end in
  let open S in
  let init =
    {
      bnd = u;
      used_rels = Ids.Rel_set.empty;
      used_nodes = Ids.Node_set.empty;
      deferred = [];
    }
  in
  (* Checks pattern property constraints against [actual k]; a constraint
     that fails to evaluate because a variable is bound later in the
     pattern is deferred. *)
  let check_props st actual props =
    List.fold_left
      (fun st (k, e) ->
        Option.bind st (fun st ->
            match eval_expr cfg g st.bnd e with
            | expected ->
              if Ternary.is_true (Value.equal_ternary (actual k) expected) then
                Some st
              else None
            | exception Eval_error _ ->
              let check bnd =
                Ternary.is_true
                  (Value.equal_ternary (actual k) (eval_expr cfg g bnd e))
              in
              Some { st with deferred = check :: st.deferred }))
      (Some st) props
  in
  (* Binds [name] to [v] in [st], or checks consistency if already bound. *)
  let bind st name v kont =
    match name with
    | None -> kont st
    | Some a -> (
      match Record.find st.bnd a with
      | Some v0 -> if Value.equal_total v0 v then kont st
      | None -> kont { st with bnd = Record.add st.bnd a v })
  in
  (* (n, G, u) |= χ, extending the assignment.  Under node isomorphism a
     node already visited is only acceptable when the pattern refers to
     it through the same, already-bound variable. *)
  let match_node st n (np : node_pattern) kont =
    let already_this_node =
      match np.np_name with
      | Some a -> (
        match Record.find st.bnd a with
        | Some (Value.Node n0) -> Ids.equal_node n0 n
        | Some _ -> false
        | None -> false)
      | None -> false
    in
    let node_iso_ok =
      (not track_nodes) || already_this_node
      || not (Ids.Node_set.mem n st.used_nodes)
    in
    if node_iso_ok && List.for_all (fun l -> Graph.has_label g n l) np.np_labels
    then
      let st =
        if track_nodes then
          { st with used_nodes = Ids.Node_set.add n st.used_nodes }
        else st
      in
      bind st np.np_name (Value.Node n) (fun st ->
          Option.iter kont (check_props st (Graph.node_prop g n) np.np_props))
  in
  (* A single-hop pattern binds its relationship; a variable-length or
     regex hop binds the list. *)
  let rel_value (rp : rel_pattern) steps =
    match rp.rp_len, rp.rp_regex, steps with
    | None, None, [ (r, _) ] -> Value.Rel r
    | _ -> Value.List (List.map (fun (r, _) -> Value.Rel r) steps)
  in
  (* Enumerates the matches of one relationship hop (ρ, χ_next) starting
     at [node]: calls [kont st last steps] for every walk the hop allows,
     where [last] is the node of χ_next.  The walk state is the matcher's
     state, the hop's automaton state, and whether the walk's tip is an
     inner node of the hop — under node isomorphism the tip joins the
     visited nodes before the walk extends past it. *)
  let match_hop st node (rp : rel_pattern) (np_next : node_pattern) kont =
    let hop =
      match rp.rp_regex with
      | Some re -> regex_hop cfg g re
      | None ->
        let min_len, max_len = Ast.range_of_len rp.rp_len in
        type_filter_hop cfg g ~types:rp.rp_types ~min_len ~max_len
    in
    let visit st cur inner =
      if track_nodes && inner then
        if Ids.Node_set.mem cur st.used_nodes then None
        else Some { st with used_nodes = Ids.Node_set.add cur st.used_nodes }
      else Some st
    in
    let adjacent, _ =
      search_neighbours cfg g st.bnd ~types:hop.types ~props:[]
        ~payload:(Of_record Fun.id) rp.rp_dir
    in
    let next (st, q, inner) cur f =
      match visit st cur inner with
      | None -> ()
      | Some st ->
        adjacent cur (fun r n d ->
            if not (track_rels && Ids.Rel_set.mem r st.used_rels) then
              match hop.step q d with
              | None -> ()
              | Some q -> (
                match check_props st (record_prop d) rp.rp_props with
                | None -> ()
                | Some st ->
                  let st =
                    if track_rels then
                      { st with used_rels = Ids.Rel_set.add r st.used_rels }
                    else st
                  in
                  f r n (st, q, true)))
    in
    Path_search.walks next
      ~accept:(fun depth (_, q, _) -> hop.ends depth q)
      ~kmax:hop.kmax (st, hop.start, false) node
      (fun last steps (st, _, _) ->
        bind st rp.rp_name (rel_value rp steps) (fun st ->
            match_node st last np_next (fun st -> kont st last steps)))
  in
  let candidates_of st (np : node_pattern) =
    match np.np_name with
    | Some a when Record.mem st.bnd a -> (
      match Record.find st.bnd a with
      | Some (Value.Node n) when Graph.mem_node g n -> [ n ]
      | _ -> [])
    | _ -> (
      match np.np_labels with
      | l :: _ -> Graph.nodes_with_label g l
      | [] -> Graph.nodes g)
  in
  (* The search adjacency, minus the relationships the rest of the
     pattern tuple already uses. *)
  let unused_neighbours st (rp : rel_pattern) payload =
    let fwd, bwd =
      search_neighbours cfg g st.bnd ~types:rp.rp_types ~props:rp.rp_props
        ~payload rp.rp_dir
    in
    let unused next cur f =
      next cur (fun r n w -> if not (Ids.Rel_set.mem r st.used_rels) then f r n w)
    in
    if track_rels then (unused fwd, unused bwd) else (fwd, bwd)
  in
  (* Matches a shortestPath / allShortestPaths / cheapestPath pattern:
     both endpoints are enumerated (bound endpoints give singleton
     candidate sets) and bound *before* the search so relationship
     property predicates can see the end variable, then the search offers
     the candidate step lists.  A single shortest candidate counts as
     accepted when the rest of the pattern tuple produced a result from
     it; otherwise the kernel offers the other minimal-length ones. *)
  let match_path_shortest st (pp : path_pattern) ~mode kont =
    match pp.pp_rest with
    | [ (rp, np_end) ] ->
      if rp.rp_regex <> None then
        eval_error "shortestPath over a type regex is not supported";
      let kmin, kmax = Ast.range_of_len rp.rp_len in
      (match mode with
      | `Cheapest _ ->
        if rp.rp_len = None || kmin > 1 || kmax <> None then
          eval_error
            "cheapestPath requires an unbounded variable-length pattern \
             ([*] or [*0..])"
      | `Single | `All -> ());
      List.iter
        (fun s ->
          match_node st s pp.pp_first (fun st ->
              List.iter
                (fun e ->
                  match_node st e np_end (fun st ->
                      let try_candidate steps =
                        if restr_ok pp.pp_restr s steps then
                          let st =
                            if track_rels then
                              {
                                st with
                                used_rels =
                                  List.fold_left
                                    (fun acc (r, _) -> Ids.Rel_set.add r acc)
                                    st.used_rels steps;
                              }
                            else st
                          in
                          bind st rp.rp_name (rel_value rp steps) (fun st ->
                              bind st pp.pp_name
                                (Value.Path { path_start = s; path_steps = steps })
                                kont)
                      in
                      match mode with
                      | `Cheapest prop ->
                        let fwd, bwd = unused_neighbours st rp (Cost prop) in
                        List.iter try_candidate (cheapest_path prop ~fwd ~bwd s e)
                      | (`Single | `All) as mode ->
                        Path_search.shortest
                          (fst (unused_neighbours st rp (Of_record ignore)))
                          s e ~kmin ~kmax:(max_hops cfg g kmax) ~all:(mode = `All)
                          ~accept:(fun steps ->
                            let before = !results in
                            try_candidate steps;
                            !results != before)))
                (candidates_of st np_end)))
        (candidates_of st pp.pp_first)
    | segs ->
      eval_error
        "shortestPath requires a pattern with exactly one relationship \
         segment (got %d)"
        (List.length segs)
  in
  (* Matches a whole path pattern, producing the path value. *)
  let match_path st (pp : path_pattern) kont =
    match pp.pp_shortest with
    | Shortest -> match_path_shortest st pp ~mode:`Single kont
    | All_shortest -> match_path_shortest st pp ~mode:`All kont
    | Cheapest prop -> match_path_shortest st pp ~mode:(`Cheapest prop) kont
    | No_shortest ->
      List.iter
        (fun n0 ->
          match_node st n0 pp.pp_first (fun st ->
              let rec hops st cur remaining steps_acc =
                match remaining with
                | [] ->
                  let steps = List.rev steps_acc in
                  if restr_ok pp.pp_restr n0 steps then
                    let path =
                      Value.Path { path_start = n0; path_steps = steps }
                    in
                    bind st pp.pp_name path kont
                | (rp, np) :: rest ->
                  match_hop st cur rp np (fun st last steps ->
                      hops st last rest (List.rev_append steps steps_acc))
              in
              hops st n0 pp.pp_rest []))
        (candidates_of st pp.pp_first)
  in
  let rec match_all st = function
    | [] ->
      if List.for_all (fun check -> check st.bnd) st.deferred then
        results := Record.project st.bnd new_names :: !results
    | pp :: rest -> match_path st pp (fun st -> match_all st rest)
  in
  (* The assignment a tuple is checked under is one whole, u·u' (Equation
     1), so a pattern may read a variable that a pattern written after
     it binds.  Node and ordinary relationship properties defer such
     reads; a path search cannot, because its relationship predicates
     choose the path.  So a shortest-path pattern whose relationship
     predicates read a variable that only a pattern written after it
     binds is matched after the others — the order the planner runs it
     in.  Every other pattern keeps its written place. *)
  let patterns =
    let reads_later ~before ~after (pp : path_pattern) =
      pp.pp_shortest <> No_shortest
      && List.exists
           (fun ((rp : rel_pattern), _) ->
             List.exists
               (fun (_, e) ->
                 List.exists
                   (fun a ->
                     (not (Record.mem u a))
                     && (not (List.mem a before))
                     && List.exists
                          (fun q -> List.mem a (Ast.free_path_pattern q))
                          after)
                   (Ast.expr_free_vars e))
               rp.rp_props)
           pp.pp_rest
    in
    let rec split before = function
      | [] -> ([], [])
      | pp :: after ->
        let now, later = split (Ast.free_path_pattern pp @ before) after in
        if reads_later ~before ~after pp then (now, pp :: later)
        else (pp :: now, later)
    in
    let now, later = split [] patterns in
    now @ later
  in
  match_all init patterns;
  List.rev !results

(* Direct transcription of the base case of pattern satisfaction: given a
   node pattern χ = (a, L, P), [(n, G, u) |= χ] iff (a is nil or u(a) = n),
   L ⊆ λ(n), and [[ι(n,k) = P(k)]]_{G,u} is true for each defined key.  The
   assignment [u] must already bind every free variable. *)
let satisfies_node_pattern cfg g u n np =
  let name_ok =
    match np.np_name with
    | None -> true
    | Some a -> (
      match Record.find u a with
      | Some (Value.Node n0) -> Ids.equal_node n0 n
      | Some _ | None -> false)
  in
  name_ok
  && List.for_all (fun l -> Graph.has_label g n l) np.np_labels
  && List.for_all
       (fun (k, e) ->
         Ternary.is_true
           (Value.equal_ternary (Graph.node_prop g n k) (eval_expr cfg g u e)))
       np.np_props
