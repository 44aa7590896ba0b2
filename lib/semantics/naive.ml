open Cypher_values
open Cypher_graph
open Cypher_table
open Cypher_ast
open Ast

let eval_error = Functions.eval_error

(* ------------------------------------------------------------------ *)
(* rigid(π): the rigid extension                                       *)
(* ------------------------------------------------------------------ *)

let hop_lengths ~max_total (rp : rel_pattern) =
  match rp.rp_len with
  | None -> [ `Nil ] (* I = nil: a single hop binding the relationship *)
  | Some { len_min; len_max } ->
    let lo = Option.value len_min ~default:1 in
    let hi = match len_max with Some n -> min n max_total | None -> max_total in
    let rec range k = if k > hi then [] else `Exact k :: range (k + 1) in
    range lo

let rigid ~max_total (pp : path_pattern) =
  if pp.pp_shortest <> No_shortest then
    invalid_arg "Naive.rigid: shortest-path patterns have no rigid extension";
  if pp.pp_restr <> Walk then
    invalid_arg "Naive.rigid: restrictor modes are not part of Equation (1)";
  if List.exists (fun (rp, _) -> rp.rp_regex <> None) pp.pp_rest then
    invalid_arg "Naive.rigid: type-regex hops have no rigid extension";
  let rec combos budget = function
    | [] -> [ [] ]
    | (rp, np) :: rest ->
      List.concat_map
        (fun choice ->
          let k = match choice with `Nil -> 1 | `Exact k -> k in
          if k > budget then []
          else
            let rp' =
              match choice with
              | `Nil -> { rp with rp_len = None }
              | `Exact k ->
                { rp with rp_len = Some { len_min = Some k; len_max = Some k } }
            in
            List.map
              (fun tail -> (rp', np) :: tail)
              (combos (budget - k) rest))
        (hop_lengths ~max_total rp)
  in
  List.map
    (fun rest -> { pp with pp_rest = rest })
    (combos max_total pp.pp_rest)

(* ------------------------------------------------------------------ *)
(* Path enumeration                                                    *)
(* ------------------------------------------------------------------ *)

(* The ids of the relationships [cur] is the source ([`Out]) or the
   target ([`In]) of, in adjacency order; their endpoints are read back
   from the records, not from the adjacency. *)
let rels_at g cur dir =
  let rs = ref [] in
  Graph.iter_adjacent g cur dir Graph.any_type (fun r _ _ -> rs := r :: !rs);
  List.rev !rs

let step_candidates g cur =
  (* relationships incident to [cur] with the node on the far side; a
     relationship r may extend the path at cur when cur ∈ {src r, tgt r} *)
  let out = List.map (fun r -> (r, Graph.tgt g r)) (rels_at g cur `Out) in
  let inc =
    List.filter_map
      (fun r ->
        if Ids.equal_node (Graph.src g r) cur && Ids.equal_node (Graph.tgt g r) cur
        then None (* loop already covered by the out direction *)
        else Some (r, Graph.src g r))
      (rels_at g cur `In)
  in
  out @ inc

let paths g ~max_len =
  let results = ref [] in
  let rec extend start steps_rev used cur len =
    results :=
      { Value.path_start = start; path_steps = List.rev steps_rev } :: !results;
    if len < max_len then
      List.iter
        (fun (r, next) ->
          if not (Ids.Rel_set.mem r used) then
            extend start ((r, next) :: steps_rev) (Ids.Rel_set.add r used) next
              (len + 1))
        (step_candidates g cur)
  in
  List.iter (fun n -> extend n [] Ids.Rel_set.empty n 0) (Graph.nodes g);
  List.rev !results

(* ------------------------------------------------------------------ *)
(* Satisfaction of rigid patterns                                      *)
(* ------------------------------------------------------------------ *)

(* Unification environment: the paper's u·u', built incrementally; the
   property constraints [[ι(x,k) = P(k)]] are collected and evaluated at
   the end under the complete assignment, exactly as the definition
   evaluates them under the full u. *)
type env = {
  bnd : Record.t;
  constraints : (Record.t -> Ternary.t) list;
}

let bind env name v =
  match name with
  | None -> Some env
  | Some a -> (
    match Record.find env.bnd a with
    | Some v0 -> if Value.equal_total v0 v then Some env else None
    | None -> Some { env with bnd = Record.add env.bnd a v })

let node_check cfg g env (np : node_pattern) n =
  if not (List.for_all (fun l -> Graph.has_label g n l) np.np_labels) then None
  else
    match bind env np.np_name (Value.Node n) with
    | None -> None
    | Some env ->
      let constraints =
        List.map
          (fun (k, e) u ->
            Value.equal_ternary (Graph.node_prop g n k) (Eval.eval_expr cfg g u e))
          np.np_props
        @ env.constraints
      in
      Some { env with constraints }

let rel_check cfg g env (rp : rel_pattern) r (n_from, n_to) =
  (* (c') type, (d') properties, (e') direction *)
  let type_ok = rp.rp_types = [] || List.mem (Graph.rel_type g r) rp.rp_types in
  let src = Graph.src g r and tgt = Graph.tgt g r in
  let dir_ok =
    match rp.rp_dir with
    | Left_to_right -> Ids.equal_node src n_from && Ids.equal_node tgt n_to
    | Right_to_left -> Ids.equal_node src n_to && Ids.equal_node tgt n_from
    | Undirected ->
      (Ids.equal_node src n_from && Ids.equal_node tgt n_to)
      || (Ids.equal_node src n_to && Ids.equal_node tgt n_from)
  in
  if not (type_ok && dir_ok) then None
  else
    Some
      {
        env with
        constraints =
          List.map
            (fun (k, e) u ->
              Value.equal_ternary (Graph.rel_prop g r k) (Eval.eval_expr cfg g u e))
            rp.rp_props
          @ env.constraints;
      }

(* Decides (p, G, u·u') |= π' for a rigid π', returning the extended
   environment; the decomposition of the path into hop segments is
   unique because every hop length is fixed. *)
let satisfy_rigid cfg g env (pp : path_pattern) (p : Value.path) =
  let hop_len (rp : rel_pattern) =
    match rp.rp_len with
    | None -> 1
    | Some { len_min = Some k; len_max = Some k' } when k = k' -> k
    | Some _ -> invalid_arg "satisfy_rigid: pattern is not rigid"
  in
  let total = List.fold_left (fun acc (rp, _) -> acc + hop_len rp) 0 pp.pp_rest in
  if total <> Value.path_length p then None
  else begin
    let ( >>= ) = Option.bind in
    let rec hops env cur steps = function
      | [] -> Some env
      | (rp, np) :: rest ->
        let k = hop_len rp in
        let rec consume env cur steps i rels_rev =
          if i = k then
            (* bind the relationship variable: r for I = nil, the list
               for I = (m, m) *)
            let value =
              match rp.rp_len with
              | None -> (
                match rels_rev with [ r ] -> Value.Rel r | _ -> assert false)
              | Some _ ->
                Value.List (List.rev_map (fun r -> Value.Rel r) rels_rev)
            in
            bind env rp.rp_name value >>= fun env ->
            node_check cfg g env np cur >>= fun env -> hops env cur steps rest
          else
            match steps with
            | [] -> None
            | (r, next) :: steps ->
              rel_check cfg g env rp r (cur, next) >>= fun env ->
              consume env next steps (i + 1) (r :: rels_rev)
        in
        consume env cur steps 0 []
    in
    node_check cfg g env pp.pp_first p.Value.path_start >>= fun env ->
    hops env p.Value.path_start p.Value.path_steps pp.pp_rest >>= fun env ->
    bind env pp.pp_name (Value.Path p)
  end

(* ------------------------------------------------------------------ *)
(* match(π̄, G, u): Equation (1), by enumeration                       *)
(* ------------------------------------------------------------------ *)

let match_pattern cfg g u patterns =
  if cfg.Config.morphism <> Config.Edge_isomorphism then
    eval_error "Naive.match_pattern implements the paper's semantics only";
  let max_total = Graph.rel_count g in
  let all_paths = paths g ~max_len:max_total in
  let rigids = List.map (rigid ~max_total) patterns in
  let free = Ast.free_pattern_tuple patterns in
  let new_names = List.filter (fun a -> not (Record.mem u a)) free in
  let results = ref [] in
  (* iterate over tuples π̄' ∈ rigid(π̄) and tuples of paths p̄ with
     pairwise-disjoint relationship sets *)
  let rec product env used rigids_rest =
    match rigids_rest with
    | [] ->
      if
        List.for_all
          (fun check -> Ternary.is_true (check env.bnd))
          env.constraints
      then results := Record.project env.bnd new_names :: !results
    | rigid_choices :: rest ->
      List.iter
        (fun pp' ->
          List.iter
            (fun p ->
              let rels = Value.path_rels p in
              let disjoint =
                List.for_all (fun r -> not (Ids.Rel_set.mem r used)) rels
              in
              if disjoint then
                match satisfy_rigid cfg g env pp' p with
                | Some env' ->
                  let used' =
                    List.fold_left
                      (fun acc r -> Ids.Rel_set.add r acc)
                      used rels
                  in
                  product env' used' rest
                | None -> ())
            all_paths)
        rigid_choices
  in
  product { bnd = u; constraints = [] } Ids.Rel_set.empty rigids;
  List.rev !results
