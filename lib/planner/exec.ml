open Cypher_values
open Cypher_graph
open Cypher_table
open Cypher_semantics

let eval_error = Functions.eval_error

let node_of row var =
  match Record.find row var with
  | Some (Value.Node n) -> Some n
  | Some Value.Null | None -> None
  | Some v ->
    eval_error "expand: %s is bound to %s, not a node" var (Value.type_name v)

(* Binds [var] to [v] in [row], or keeps the row only when the existing
   binding agrees (Expand-into behaviour). *)
let bind_or_check row var v =
  match Record.find row var with
  | None -> Some (Record.add row var v)
  | Some v0 -> if Value.equal_total v0 v then Some row else None

let seq_filter_map_concat f seq = Seq.concat_map f seq

let graph_dir = function Plan.Out -> `Out | Plan.In -> `In | Plan.Both -> `Both

(* The records of the relationships [n] expands along. *)
let expand_candidates g ~scan_rels ~dir n =
  if not scan_rels then Graph.adjacent g n (graph_dir dir)
  else
    (* Baseline without adjacency locality: scan every relationship in
       the graph and keep the incident ones. *)
    List.filter_map
      (fun r ->
        let (d : Graph.rel_data) = Graph.rel_data g r in
        let from_src = Ids.equal_node d.src n
        and to_tgt = Ids.equal_node d.tgt n in
        match dir with
        | Plan.Out when from_src -> Some d
        | Plan.In when to_tgt -> Some d
        | Plan.Both when from_src || to_tgt -> Some d
        | _ -> None)
      (Graph.rels g)

(* A sequence whose computation is deferred until first demanded. *)
let delayed (f : unit -> 'a Seq.t) : 'a Seq.t = fun () -> f () ()

(* Bag grouping over plain record lists (rows out of different operator
   branches need not be uniform, so this bypasses Table's field check). *)
let group_rows rows ~key =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun row ->
      let k = key row in
      let h = Hashtbl.hash (List.map Value.hash k) in
      let bucket = try Hashtbl.find tbl h with Not_found -> [] in
      match
        List.find_opt (fun (k', _) -> List.equal Value.equal_total k k') bucket
      with
      | Some (_, cell) -> cell := row :: !cell
      | None ->
        let cell = ref [ row ] in
        Hashtbl.replace tbl h ((k, cell) :: bucket);
        order := (k, cell) :: !order)
    rows;
  List.rev_map (fun (k, cell) -> (k, List.rev !cell)) !order

let rel_ids_of_binding row = function
  | Plan.Single_rel var -> (
    match Record.find row var with
    | Some (Value.Rel r) -> [ r ]
    | _ -> [])
  | Plan.Rel_list var -> (
    match Record.find row var with
    | Some (Value.List vs) ->
      List.filter_map (function Value.Rel r -> Some r | _ -> None) vs
    | _ -> [])

(* --- path-finding operators ------------------------------------------ *)

module Path_search = Cypher_algos.Path_search

let ast_dir = function
  | Plan.Out -> Cypher_ast.Ast.Left_to_right
  | Plan.In -> Cypher_ast.Ast.Right_to_left
  | Plan.Both -> Cypher_ast.Ast.Undirected

(* The rows a variable-length or regex hop extends [input] by: one per
   relationship-unique walk from [from_] that [hop] accepts, binding the
   relationship list and the end node, in the walker's order. *)
let walk_rows cfg g ~from_ ~rel ~dir ~to_ (hop : Eval.hop) input =
  let adjacent, _ =
    Eval.search_neighbours cfg g Record.empty ~types:[] ~props:[]
      ~cost:(fun d -> d.Graph.rel_type) (ast_dir dir)
  in
  let next (used, q) cur =
    List.filter_map
      (fun (r, n, t) ->
        if Ids.Rel_set.mem r used then None
        else Option.map (fun q -> (r, n, (Ids.Rel_set.add r used, q))) (hop.step q t))
      (adjacent cur)
  in
  seq_filter_map_concat
    (fun row ->
      match node_of row from_ with
      | None -> Seq.empty
      | Some n0 ->
        let results = ref [] in
        Path_search.walks next
          ~accept:(fun depth (_, q) -> hop.ends depth q)
          ~kmax:hop.kmax (Ids.Rel_set.empty, hop.start) n0
          (fun last steps _ ->
            let rels = Value.List (List.map (fun (r, _) -> Value.Rel r) steps) in
            Option.iter
              (fun row -> results := row :: !results)
              (Option.bind (bind_or_check row rel rels) (fun row ->
                   bind_or_check row to_ (Value.Node last))));
        List.to_seq (List.rev !results))
    input

(* A path-search result [steps] from [s] as a row, when it passes the
   restrictor and agrees with the row's bindings. *)
let bind_path row ~rel ~rel_single ~path restr s steps =
  if not (Eval.restr_ok restr s steps) then None
  else
    let rel_value =
      match rel_single, steps with
      | true, [ (r, _) ] -> Value.Rel r
      | _ -> Value.List (List.map (fun (r, _) -> Value.Rel r) steps)
    in
    Option.bind (bind_or_check row rel rel_value) (fun row ->
        match path with
        | None -> Some row
        | Some p ->
          bind_or_check row p (Value.Path { path_start = s; path_steps = steps }))

(* The steps of the path a row binds from [start] through [hops]. *)
let bound_steps g row start hops =
  List.concat_map (rel_ids_of_binding row) hops
  |> List.fold_left
       (fun (cur, acc) r ->
         let next = Graph.other_end g r cur in
         (next, (r, next) :: acc))
       (start, [])
  |> snd |> List.rev

(* Observation hook for PROFILE.  When a run carries a profiler, every
   operator's output sequence is wrapped so that each pull is measured:
   rows produced, db hits (the calling thread's {!Graph} access count)
   and wall-clock time.  A pull of an operator forces pulls of its inputs
   inside it, so the recorded hits and time are *inclusive* — per-node
   self costs are recovered by {!self_profile}.  A profiled run is fully
   materialised while counting is on, so laziness cannot leak
   measurements outside it. *)

type profile = { prof_rows : int; prof_hits : int; prof_ns : int }

type prof_entry = {
  mutable e_rows : int;
  mutable e_hits : int;
  mutable e_ns : int;
}

(* The profiler of one run: maps each operator (by physical identity)
   to its measurement cell.  It is passed down the pipeline explicitly,
   so only the run that asked for it is instrumented — not the pipelines
   that other connections' threads build meanwhile. *)
type profiler = Plan.t -> prof_entry

let rec instrument entry (seq : 'a Seq.t) : 'a Seq.t =
 fun () ->
  let h0 = Graph.db_hits () in
  let t0 = Cypher_obs.Clock.now_ns () in
  let step = seq () in
  (* monotonic difference: non-negative even if NTP steps the wall clock *)
  entry.e_ns <- entry.e_ns + (Cypher_obs.Clock.now_ns () - t0);
  entry.e_hits <- entry.e_hits + (Graph.db_hits () - h0);
  match step with
  | Seq.Nil -> Seq.Nil
  | Seq.Cons (x, rest) ->
    entry.e_rows <- entry.e_rows + 1;
    Seq.Cons (x, instrument entry rest)

let rec pull (prof : profiler option) cfg g plan arg =
  match prof with
  | None -> rows_body prof cfg g plan arg
  | Some find -> instrument (find plan) (rows_body prof cfg g plan arg)

and rows_body prof cfg g plan arg =
  match plan with
  | Plan.Argument -> arg
  | Plan.All_nodes_scan { var; input } ->
    (* the node list does not depend on the row: assemble it once per
       execution, not once per input row *)
    let all_nodes = lazy (Graph.nodes g) in
    seq_filter_map_concat
      (fun row ->
        match Record.find row var with
        | Some (Value.Node n) when Graph.mem_node g n -> Seq.return row
        | Some _ -> Seq.empty
        | None ->
          Seq.map
            (fun n -> Record.add row var (Value.Node n))
            (List.to_seq (Lazy.force all_nodes)))
      (pull prof cfg g input arg)
  | Plan.Rel_type_scan { rel; types; from_; to_; dir; input } ->
    (* likewise, orient the relationship set once per execution *)
    let oriented =
      lazy
        (let rels = List.concat_map (Graph.rels_with_type g) types in
         match dir with
         | Plan.Out ->
           List.map (fun r -> (r, Graph.src g r, Graph.tgt g r)) rels
         | Plan.In ->
           List.map (fun r -> (r, Graph.tgt g r, Graph.src g r)) rels
         | Plan.Both ->
           List.concat_map
             (fun r ->
               let s = Graph.src g r and t = Graph.tgt g r in
               if Ids.equal_node s t then [ (r, s, t) ]
               else [ (r, s, t); (r, t, s) ])
             rels)
    in
    seq_filter_map_concat
      (fun row ->
        Seq.filter_map
          (fun (r, a, b) ->
            Option.bind (bind_or_check row rel (Value.Rel r)) (fun row ->
                Option.bind (bind_or_check row from_ (Value.Node a)) (fun row ->
                    bind_or_check row to_ (Value.Node b))))
          (List.to_seq (Lazy.force oriented)))
      (pull prof cfg g input arg)
  | Plan.Node_index_seek { var; label; key; value; input } ->
    seq_filter_map_concat
      (fun row ->
        let v = Eval.eval_expr cfg g row value in
        if Value.is_null v then Seq.empty
        else
          let hits =
            try Graph.index_seek g ~label ~key v
            with Not_found ->
              (* index dropped between planning and execution: recover by
                 scanning the label *)
              List.filter
                (fun n -> Value.equal_total (Graph.node_prop g n key) v)
                (Graph.nodes_with_label g label)
          in
          match Record.find row var with
          | Some (Value.Node n0) ->
            if List.exists (Ids.equal_node n0) hits then Seq.return row
            else Seq.empty
          | Some _ -> Seq.empty
          | None ->
            Seq.map
              (fun n -> Record.add row var (Value.Node n))
              (List.to_seq hits))
      (pull prof cfg g input arg)
  | Plan.Node_by_label_scan { var; label; input } ->
    let labelled = lazy (Graph.nodes_with_label g label) in
    seq_filter_map_concat
      (fun row ->
        match Record.find row var with
        | Some (Value.Node n) when Graph.has_label g n label -> Seq.return row
        | Some _ -> Seq.empty
        | None ->
          Seq.map
            (fun n -> Record.add row var (Value.Node n))
            (List.to_seq (Lazy.force labelled)))
      (pull prof cfg g input arg)
  | Plan.Expand { from_; rel; types; dir; to_; scan_rels; input } ->
    seq_filter_map_concat
      (fun row ->
        match node_of row from_ with
        | None -> Seq.empty
        | Some n ->
          let candidates = expand_candidates g ~scan_rels ~dir n in
          Seq.filter_map
            (fun (d : Graph.rel_data) ->
              if types <> [] && not (List.mem d.rel_type types) then None
              else
                Option.bind (bind_or_check row rel (Value.Rel d.rel_id))
                  (fun row ->
                    bind_or_check row to_ (Value.Node (Graph.far_end d n))))
            (List.to_seq candidates))
      (pull prof cfg g input arg)
  | Plan.Var_expand { from_; rel; types; dir; min_len; max_len; to_; input } ->
    walk_rows cfg g ~from_ ~rel ~dir ~to_
      (Eval.type_filter_hop cfg g ~types ~min_len ~max_len)
      (pull prof cfg g input arg)
  | Plan.Filter { pred; input } ->
    Seq.filter
      (fun row -> Ternary.is_true (Eval.eval_truth cfg g row pred))
      (pull prof cfg g input arg)
  | Plan.Project { items; input } ->
    Seq.map
      (fun row ->
        Record.of_list
          (List.map (fun (name, e) -> (name, Eval.eval_expr cfg g row e)) items))
      (pull prof cfg g input arg)
  | Plan.Aggregate { keys; aggs; input } ->
    delayed
      (fun () ->
        let materialized = List.of_seq (pull prof cfg g input arg) in
        let groups =
          if keys = [] then [ ([], materialized) ]
          else
            group_rows materialized ~key:(fun row ->
                List.map (fun (_, e) -> Eval.eval_expr cfg g row e) keys)
        in
        List.to_seq
          (List.map
             (fun (key_vals, group_rows) ->
               let base =
                 if keys = [] then Record.empty
                 else
                   Record.of_list
                     (List.map2 (fun (name, _) v -> (name, v)) keys key_vals)
               in
               List.fold_left
                 (fun acc (name, spec) ->
                   Record.add acc name (Agg.compute cfg g group_rows spec))
                 base aggs)
             groups))
  | Plan.Distinct { input } ->
    let seen = Hashtbl.create 64 in
    Seq.filter
      (fun row ->
        let h = Record.hash row in
        let bucket = try Hashtbl.find seen h with Not_found -> [] in
        if List.exists (Record.equal row) bucket then false
        else (
          Hashtbl.replace seen h (row :: bucket);
          true))
      (pull prof cfg g input arg)
  | Plan.Sort { by; input } ->
    delayed
      (fun () ->
        let materialized = List.of_seq (pull prof cfg g input arg) in
        let compare_rows r1 r2 =
          let rec go = function
            | [] -> 0
            | (e, d) :: rest ->
              let c =
                Value.compare_total (Eval.eval_expr cfg g r1 e)
                  (Eval.eval_expr cfg g r2 e)
              in
              let c = match d with Plan.Asc -> c | Plan.Desc -> -c in
              if c <> 0 then c else go rest
          in
          go by
        in
        List.to_seq (List.stable_sort compare_rows materialized))
  | Plan.Skip_rows { count; input } ->
    let n = eval_count cfg g "SKIP" count in
    Seq.drop n (pull prof cfg g input arg)
  | Plan.Limit_rows { count; input } ->
    let n = eval_count cfg g "LIMIT" count in
    Seq.take n (pull prof cfg g input arg)
  | Plan.Unwind { expr; var; input } ->
    seq_filter_map_concat
      (fun row ->
        match Eval.eval_expr cfg g row expr with
        | Value.List vs ->
          Seq.map (fun v -> Record.add row var v) (List.to_seq vs)
        | Value.Null -> Seq.empty
        | v -> Seq.return (Record.add row var v))
      (pull prof cfg g input arg)
  | Plan.Optional { inner; introduced; input } ->
    seq_filter_map_concat
      (fun row ->
        (* Only the bindings of the introduced variables are taken from
           the inner rows; inner-internal variables must not leak, so
           that the output rows stay uniform with the null-padded ones. *)
        let produced =
          Seq.map
            (fun inner_row ->
              Record.overlay row (Record.project inner_row introduced))
            (pull prof cfg g inner (Seq.return row))
        in
        match produced () with
        | Seq.Nil ->
          let missing =
            List.filter (fun a -> not (Record.mem row a)) introduced
          in
          Seq.return (Record.with_nulls row missing)
        | Seq.Cons (first, rest) -> Seq.cons first rest)
      (pull prof cfg g input arg)
  | Plan.Rel_uniqueness { vars; input } ->
    Seq.filter
      (fun row ->
        let ids = List.concat_map (rel_ids_of_binding row) vars in
        let set = Ids.Rel_set.of_list ids in
        Ids.Rel_set.cardinal set = List.length ids)
      (pull prof cfg g input arg)
  | Plan.Regex_expand { from_; rel; regex; dir; to_; input } ->
    walk_rows cfg g ~from_ ~rel ~dir ~to_ (Eval.regex_hop cfg g regex)
      (pull prof cfg g input arg)
  | Plan.Shortest_path
      { from_; to_; rel; rel_single; types; dir; props; min_len; max_len; all;
        restr; path; input } ->
    let kmax = Eval.max_hops cfg g max_len in
    seq_filter_map_concat
      (fun row ->
        match node_of row from_, node_of row to_ with
        | Some s, Some e ->
          let fwd, bwd =
            Eval.search_neighbours cfg g row ~types ~props ~cost:ignore (ast_dir dir)
          in
          let found = ref [] in
          Path_search.shortest ~bwd fwd s e ~kmin:min_len ~kmax ~all
            ~accept:(fun steps ->
              match bind_path row ~rel ~rel_single ~path restr s steps with
              | Some row' ->
                found := row' :: !found;
                true
              | None -> false);
          List.to_seq (List.rev !found)
        | _ -> Seq.empty)
      (pull prof cfg g input arg)
  | Plan.Cheapest_path
      { from_; to_; rel; types; dir; props; cost_prop; restr; path; input } ->
    seq_filter_map_concat
      (fun row ->
        match node_of row from_, node_of row to_ with
        | Some s, Some e ->
          let fwd, bwd =
            Eval.search_neighbours cfg g row ~types ~props
              ~cost:(Eval.path_cost cost_prop) (ast_dir dir)
          in
          List.to_seq
            (List.filter_map
               (bind_path row ~rel ~rel_single:false ~path restr s)
               (Eval.cheapest_path cost_prop ~fwd ~bwd s e))
        | _ -> Seq.empty)
      (pull prof cfg g input arg)
  | Plan.Path_restrict { restr; start_var; hops; input } ->
    Seq.filter
      (fun row ->
        match node_of row start_var with
        | None -> false
        | Some start -> Eval.restr_ok restr start (bound_steps g row start hops))
      (pull prof cfg g input arg)
  | Plan.Project_path { var; start_var; hops; input } ->
    Seq.filter_map
      (fun row ->
        match node_of row start_var with
        | None -> None
        | Some start ->
          let steps = bound_steps g row start hops in
          bind_or_check row var (Value.Path { path_start = start; path_steps = steps }))
      (pull prof cfg g input arg)

and eval_count cfg g what e =
  match Eval.eval_expr cfg g Record.empty e with
  | Value.Int n when n >= 0 -> n
  | Value.Int n ->
    eval_error "%s: expected a non-negative integer, got %d" what n
  | v -> eval_error "%s: expected an integer, got %s" what (Value.type_name v)

let rows cfg g plan arg = pull None cfg g plan arg

let run cfg g ~fields plan table =
  Table.of_seq ~fields (rows cfg g plan (Table.to_seq table))

let run_profiled cfg g ~fields plan table =
  let entries : (Plan.t * prof_entry) list ref = ref [] in
  let find node =
    match List.find_opt (fun (p, _) -> p == node) !entries with
    | Some (_, e) -> e
    | None ->
      let e = { e_rows = 0; e_hits = 0; e_ns = 0 } in
      entries := (node, e) :: !entries;
      e
  in
  let result =
    Graph.with_db_hit_counting (fun () ->
        Table.of_seq ~fields (pull (Some find) cfg g plan (Table.to_seq table)))
  in
  let stats node =
    match List.find_opt (fun (p, _) -> p == node) !entries with
    | Some (_, e) -> { prof_rows = e.e_rows; prof_hits = e.e_hits; prof_ns = e.e_ns }
    | None -> { prof_rows = 0; prof_hits = 0; prof_ns = 0 }
  in
  (result, stats)

(* The direct inputs whose inclusive measurements are nested inside a
   node's own: the pipeline input plus, for OptionalApply, the applied
   inner plan. *)
let prof_children node =
  (match node with Plan.Optional { inner; _ } -> [ inner ] | _ -> [])
  @ (match Plan.input_of node with Some i -> [ i ] | None -> [])

let self_profile stats node =
  let incl = stats node in
  let minus f =
    max 0
      (f incl
      - List.fold_left (fun acc k -> acc + f (stats k)) 0 (prof_children node))
  in
  {
    prof_rows = incl.prof_rows;
    prof_hits = minus (fun p -> p.prof_hits);
    prof_ns = minus (fun p -> p.prof_ns);
  }
