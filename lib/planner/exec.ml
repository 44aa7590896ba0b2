open Cypher_values
open Cypher_graph
open Cypher_table
open Cypher_semantics
module Smap = Compile.Smap

type row = Compile.row

let eval_error = Functions.eval_error

(* --- slotted rows ----------------------------------------------------- *)

(* A binding never mutates a row in place: a row may be shared (a
   driving row fans out into many), so it is copied and one slot set.
   Rows are narrow, and an array literal is allocated inline where
   [Array.copy] is a call into the runtime, about three times the cost
   per row at these widths. *)
let copy (row : row) =
  match Array.length row with
  | 1 -> [| row.(0) |]
  | 2 -> [| row.(0); row.(1) |]
  | 3 -> [| row.(0); row.(1); row.(2) |]
  | 4 -> [| row.(0); row.(1); row.(2); row.(3) |]
  | 5 -> [| row.(0); row.(1); row.(2); row.(3); row.(4) |]
  | 6 -> [| row.(0); row.(1); row.(2); row.(3); row.(4); row.(5) |]
  | 7 -> [| row.(0); row.(1); row.(2); row.(3); row.(4); row.(5); row.(6) |]
  | 8 ->
    [| row.(0); row.(1); row.(2); row.(3); row.(4); row.(5); row.(6); row.(7) |]
  | _ -> Array.copy row

let set row i v =
  let r = copy row in
  r.(i) <- v;
  r

(* Reads [var] as a node, as the operators that start from a bound node
   do: absent or null gives no rows. *)
let node_reader scope var =
  match Smap.find_opt var scope with
  | None -> fun _ -> None
  | Some i -> (
    fun (row : row) ->
      match row.(i) with
      | Value.Node n -> Some n
      | Value.Null -> None
      | v ->
        eval_error "expand: %s is bound to %s, not a node" var
          (Value.type_name v))

(* Binds [var] to a value, or keeps the row only when the existing
   binding agrees (Expand-into behaviour).  Which of the two is decided
   here, from the input schema, not per row; the returned scope is the
   output schema. *)
let binder ~slot scope var =
  match Smap.find_opt var scope with
  | Some i ->
    ((fun (row : row) v -> if Value.equal_total row.(i) v then Some row else None), scope)
  | None ->
    let i = slot var in
    ((fun row v -> Some (set row i v)), Smap.add var i scope)

let rel_ids_reader scope binding =
  let read var f =
    match Smap.find_opt var scope with
    | None -> fun _ -> []
    | Some i -> fun (row : row) -> f row.(i)
  in
  match binding with
  | Plan.Single_rel var -> read var (function Value.Rel r -> [ r ] | _ -> [])
  | Plan.Rel_list var ->
    read var (function
      | Value.List vs ->
        List.filter_map (function Value.Rel r -> Some r | _ -> None) vs
      | _ -> [])

let graph_dir = function Plan.Out -> `Out | Plan.In -> `In | Plan.Both -> `Both

(* [f r m] for each relationship [r] of a type in [types] ([filter]
   resolved) that [n] expands along, with [m] its far end. *)
let expand_from g ~scan_rels ~dir ~types filter n f =
  if not scan_rels then
    Graph.iter_adjacent g n (graph_dir dir) filter (fun r m _ -> f r m)
  else
    (* Baseline without adjacency locality: scan every relationship in
       the graph and keep the incident ones. *)
    List.iter
      (fun r ->
        let (d : Graph.rel_data) = Graph.rel_data g r in
        let from_src = Ids.equal_node d.src n
        and to_tgt = Ids.equal_node d.tgt n in
        let incident =
          match dir with
          | Plan.Out -> from_src
          | Plan.In -> to_tgt
          | Plan.Both -> from_src || to_tgt
        in
        if incident && (types = [] || List.mem d.rel_type types) then
          f r (if from_src then d.tgt else d.src))
      (Graph.rels g)

(* [row] bound at slot [i] to each of [xs] in turn, then [rest]: one
   input row's share of a scan, with no intermediate sequences. *)
let rec fan_out row i wrap xs rest () =
  match xs with
  | [] -> rest ()
  | x :: xs -> Seq.Cons (set row i (wrap x), fan_out row i wrap xs rest)

(* A scan binding slot [i] to each element of [elements ()] per input
   row, the list read on the first input row of the pull. *)
let scan_bind i wrap elements rows =
  let xs = lazy (elements ()) in
  let rec go rows () =
    match rows () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (row, rows) -> fan_out row i wrap (Lazy.force xs) (go rows) ()
  in
  go rows

let node v = Value.Node v

(* A sequence whose computation is deferred until first demanded. *)
let delayed (f : unit -> 'a Seq.t) : 'a Seq.t = fun () -> f () ()

module Path_search = Cypher_algos.Path_search

let ast_dir = function
  | Plan.Out -> Cypher_ast.Ast.Left_to_right
  | Plan.In -> Cypher_ast.Ast.Right_to_left
  | Plan.Both -> Cypher_ast.Ast.Undirected

(* The steps of the path a row binds from [start] through [hops]. *)
let bound_steps g row start readers =
  List.concat_map (fun read -> read row) readers
  |> List.fold_left
       (fun (cur, acc) r ->
         let next = Graph.other_end g r cur in
         (next, (r, next) :: acc))
       (start, [])
  |> snd |> List.rev

(* --- PROFILE ------------------------------------------------------------ *)

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

(* One execution: what expressions evaluate under, the row width, and
   the profiler of a PROFILE run. *)
type ctx = { env : Compile.env; width : int; prof : profiler option }

(* --- grouping and ordering --------------------------------------------- *)

(* Hash grouping on key vectors: groups in order of first occurrence. *)
module Groups = struct
  type 'a t = {
    tbl : (int, (Value.t list * 'a) list) Hashtbl.t;
    mutable order : (Value.t list * 'a) list;  (* newest first *)
  }

  let create () = { tbl = Hashtbl.create 16; order = [] }

  let find_or_add t key init =
    let h = Hashtbl.hash (List.map Value.hash key) in
    let bucket = try Hashtbl.find t.tbl h with Not_found -> [] in
    match List.find_opt (fun (k, _) -> List.equal Value.equal_total key k) bucket with
    | Some (_, v) -> v
    | None ->
      let v = init () in
      Hashtbl.replace t.tbl h ((key, v) :: bucket);
      t.order <- (key, v) :: t.order;
      v

  let to_list t = List.rev t.order
end

(* Aggregation folds each row into its group as it arrives: the group's
   first row (a percentile is evaluated against it), its row count, and
   per aggregate the non-null argument values, newest first, or the
   first error its argument raised.  Errors follow the reference order —
   every key first, then group by group, aggregate by aggregate — so a
   key's error raises at once and an argument's waits for its group to
   be finished. *)
type group = {
  mutable first : row option;
  mutable count : int;
  vals : Value.t list array;
  errs : exn option array;
}

type aggregate = {
  keys : (int * Value.t Compile.compiled) list;  (* output slot, key *)
  aggs :
    (int * Agg.spec * Value.t Compile.compiled option * Value.t Compile.compiled option)
    list;
      (* output slot, spec, argument, percentile *)
}

let new_group n () =
  { first = None; count = 0; vals = Array.make n []; errs = Array.make n None }

let fold_groups ctx agg rows =
  let env = ctx.env in
  let keys = List.map (fun (_, c) -> c env) agg.keys in
  let args =
    Array.of_list (List.map (fun (_, _, arg, _) -> Option.map (fun c -> c env) arg) agg.aggs)
  in
  let n = Array.length args in
  let add gr row =
    if Option.is_none gr.first then gr.first <- Some row;
    gr.count <- gr.count + 1;
    Array.iteri
      (fun j arg ->
        match arg with
        | Some f when Option.is_none gr.errs.(j) -> (
          match f row with
          | v -> if not (Value.is_null v) then gr.vals.(j) <- v :: gr.vals.(j)
          | exception e -> gr.errs.(j) <- Some e)
        | _ -> ())
      args
  in
  let groups = Groups.create () in
  (match keys with
  | [] ->
    (* a global aggregate has its one group even over no rows *)
    let gr = Groups.find_or_add groups [] (new_group n) in
    Seq.iter (add gr) rows
  | _ ->
    Seq.iter
      (fun row ->
        add (Groups.find_or_add groups (List.map (fun f -> f row) keys) (new_group n)) row)
      rows);
  groups

let finish_groups ctx agg groups =
  let pcts =
    List.map (fun (_, _, _, pct) -> Option.map (fun c -> c ctx.env) pct) agg.aggs
  in
  List.map
    (fun (key, gr) ->
      let r = Array.make ctx.width Value.Null in
      List.iter2 (fun (i, _) v -> r.(i) <- v) agg.keys key;
      List.iteri
        (fun j ((i, spec, _, _), pct) ->
          Option.iter raise gr.errs.(j);
          let percentile =
            match gr.first, pct with
            | Some first, Some f -> Some (fun () -> f first)
            | _ -> None
          in
          r.(i) <-
            Agg.finalize ~percentile ~row_count:gr.count (List.rev gr.vals.(j)) spec)
        (List.combine agg.aggs pcts);
      r)
    (Groups.to_list groups)

(* ORDER BY decorates each row with its sort keys, evaluated at most
   once per row and only as far as comparisons demand — a key after the
   first differing one is never evaluated, exactly as when the keys were
   evaluated inside the comparator. *)
type order = { by : (Value.t Compile.compiled * Plan.sort_dir) list }

type keyed = {
  row : row;
  keyfns : (row -> Value.t) array;
  desc : bool array;
  keys : Value.t array;
  mutable known : int;  (* keys.(0 .. known-1) are evaluated *)
}

let key k j =
  while k.known <= j do
    k.keys.(k.known) <- k.keyfns.(k.known) k.row;
    k.known <- k.known + 1
  done;
  k.keys.(j)

let compare_keyed a b =
  let n = Array.length a.keyfns in
  let rec go j =
    if j = n then 0
    else
      (* the right operand's key first, as the comparator always did *)
      let kb = key b j in
      let c = Value.compare_total (key a j) kb in
      let c = if a.desc.(j) then -c else c in
      if c <> 0 then c else go (j + 1)
  in
  go 0

let sort_keyed ctx order rows =
  let keyfns = Array.of_list (List.map (fun (c, _) -> c ctx.env) order.by) in
  let desc = Array.of_list (List.map (fun (_, d) -> d = Plan.Desc) order.by) in
  let n = Array.length keyfns in
  List.stable_sort compare_keyed
    (List.of_seq
       (Seq.map
          (fun row -> { row; keyfns; desc; keys = Array.make n Value.Null; known = 0 })
          rows))

let unkey k = k.row

(* --- compiled operators -------------------------------------------------- *)

(* An operator compiled against its input schema.  [stage ctx] binds
   the execution once — parameters, compiled closures; the function it
   returns is one pull of the operator over an input stream, and holds
   that pull's own state (the lazily read node list of a scan, say). *)
type op = { node : Plan.t; stage : ctx -> row Seq.t -> row Seq.t }

type program = {
  plan : Plan.t;
  input : string list;  (* the driving table's fields, sorted *)
  width : int;
  of_record : Record.t -> row;  (* a driving row, slotted *)
  to_record : row -> Record.t;  (* a result row, as a record *)
  chain : op list;  (* bottom-up, starting at Argument *)
}

(* The pipeline of [ops] over [input], instantiated for one execution. *)
let instantiate ctx ops =
  let stages = List.map (fun op -> (op.node, op.stage ctx)) ops in
  fun input ->
    List.fold_left
      (fun rows (node, stage) ->
        let out = stage rows in
        match ctx.prof with None -> out | Some find -> instrument (find node) out)
      input stages

let walk_rows ~bind_rel ~bind_to ~from_ ~dir ~reversed ~hop ctx =
  let cfg = ctx.env.Compile.cfg and g = ctx.env.Compile.g in
  fun input ->
    let (hop : Eval.hop) = hop cfg g in
    let adjacent, _ =
      Eval.search_neighbours cfg g Record.empty ~types:hop.types ~props:[]
        ~payload:(Of_record Fun.id) (ast_dir dir)
    in
    let next (used, q) cur f =
      adjacent cur (fun r n d ->
          if not (Ids.Rel_set.mem r used) then
            match hop.step q d with
            | None -> ()
            | Some q -> f r n (Ids.Rel_set.add r used, q))
    in
    Seq.concat_map
      (fun row ->
        match from_ row with
        | None -> Seq.empty
        | Some n0 ->
          let results = ref [] in
          Path_search.walks next
            ~accept:(fun depth (_, q) -> hop.ends depth q)
            ~kmax:hop.kmax (Ids.Rel_set.empty, hop.start) n0
            (fun last steps _ ->
              let rel (r, _) = Value.Rel r in
              let rels =
                Value.List ((if reversed then List.rev_map else List.map) rel steps)
              in
              Option.iter
                (fun row -> results := row :: !results)
                (Option.bind (bind_rel row rels) (fun row ->
                     bind_to row (Value.Node last))));
          List.to_seq (List.rev !results))
      input

(* A path-search result [steps] from [s] as a row, when it passes the
   restrictor and agrees with the row's bindings. *)
let path_row ~bind_rel ~bind_path ~rel_single restr row s steps =
  if not (Eval.restr_ok restr s steps) then None
  else
    let rel_value =
      match rel_single, steps with
      | true, [ (r, _) ] -> Value.Rel r
      | _ -> Value.List (List.map (fun (r, _) -> Value.Rel r) steps)
    in
    Option.bind (bind_rel row rel_value) (fun row ->
        bind_path row (Value.Path { path_start = s; path_steps = steps }))

let eval_count cfg g what e =
  match Eval.eval_expr cfg g Record.empty e with
  | Value.Int n when n >= 0 -> n
  | Value.Int n ->
    eval_error "%s: expected a non-negative integer, got %d" what n
  | v -> eval_error "%s: expected an integer, got %s" what (Value.type_name v)

(* Compiles [plan] for driving rows over [input]: every variable gets a
   slot, every operator is compiled against its input schema, and every
   expression against the schema it is evaluated under. *)
let compile ~input plan =
  let input = List.sort_uniq String.compare input in
  let slots = Hashtbl.create 16 and width = ref 0 in
  let slot a =
    match Hashtbl.find_opt slots a with
    | Some i -> i
    | None ->
      let i = !width in
      Hashtbl.replace slots a i;
      incr width;
      i
  in
  let in_scope =
    List.fold_left (fun s a -> Smap.add a (slot a) s) Smap.empty input
  in
  let binder = binder ~slot in
  let rec chain scope plan =
    let ops, scope =
      match Plan.input_of plan with
      | None -> ([], scope)
      | Some input -> chain scope input
    in
    let stage, scope = operator scope plan in
    (ops @ [ { node = plan; stage } ], scope)
  (* the stage of one operator over [scope], and its output schema *)
  and operator scope plan =
    match plan with
    | Plan.Argument -> ((fun _ rows -> rows), scope)
    | Plan.All_nodes_scan { var; _ } -> (
      match Smap.find_opt var scope with
      | Some i ->
        ( (fun ctx ->
              let g = ctx.env.g in
              Seq.filter (fun (row : row) ->
                  match row.(i) with
                  | Value.Node n -> Graph.mem_node g n
                  | _ -> false)),
          scope )
      | None ->
        let i = slot var in
        ( (fun ctx ->
              let g = ctx.env.g in
              (* the node list does not depend on the row: assemble it
                 once per pull, not once per input row *)
              scan_bind i node (fun () -> Graph.nodes g)),
          Smap.add var i scope ))
    | Plan.Node_by_label_scan { var; label; _ } -> (
      match Smap.find_opt var scope with
      | Some i ->
        ( (fun ctx ->
              let g = ctx.env.g in
              Seq.filter (fun (row : row) ->
                  match row.(i) with
                  | Value.Node n -> Graph.has_label g n label
                  | _ -> false)),
          scope )
      | None ->
        let i = slot var in
        ( (fun ctx ->
              let g = ctx.env.g in
              scan_bind i node (fun () -> Graph.nodes_with_label g label)),
          Smap.add var i scope ))
    | Plan.Node_index_seek { var; label; key; value; _ } ->
      let value = Compile.expr scope value in
      let bound = Smap.find_opt var scope in
      let i = slot var in
      ( (fun ctx ->
            let g = ctx.env.g and value = value ctx.env in
            Seq.concat_map (fun (row : row) ->
                let v = value row in
                if Value.is_null v then Seq.empty
                else
                  let hits =
                    try Graph.index_seek g ~label ~key v
                    with Not_found ->
                      (* index dropped between planning and execution:
                         recover by scanning the label *)
                      List.filter
                        (fun n -> Value.equal_total (Graph.node_prop g n key) v)
                        (Graph.nodes_with_label g label)
                  in
                  match bound with
                  | Some _ -> (
                    match row.(i) with
                    | Value.Node n0 ->
                      if List.exists (Ids.equal_node n0) hits then Seq.return row
                      else Seq.empty
                    | _ -> Seq.empty)
                  | None -> fan_out row i node hits Seq.empty)),
        Smap.add var i scope )
    | Plan.Rel_type_scan { rel; types; from_; to_; dir; _ } ->
      let bind_rel, scope = binder scope rel in
      let bind_from, scope = binder scope from_ in
      let bind_to, scope = binder scope to_ in
      ( (fun ctx ->
            let g = ctx.env.g in
            fun rows ->
              (* orient the relationship set once per pull *)
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
              Seq.concat_map
                (fun row ->
                  Seq.filter_map
                    (fun (r, a, b) ->
                      Option.bind (bind_rel row (Value.Rel r)) (fun row ->
                          Option.bind (bind_from row (Value.Node a)) (fun row ->
                              bind_to row (Value.Node b))))
                    (List.to_seq (Lazy.force oriented)))
                rows),
        scope )
    | Plan.Expand { from_; rel; types; dir; to_; scan_rels; _ } ->
      let from_ = node_reader scope from_ in
      let bind_rel, scope = binder scope rel in
      let bind_to, scope = binder scope to_ in
      ( (fun ctx ->
            let g = ctx.env.g in
            let filter = Graph.type_filter g types in
            Seq.concat_map (fun row ->
                match from_ row with
                | None -> Seq.empty
                | Some n ->
                  (* one input row's expansions, built as its node's
                     block is read *)
                  let out = ref [] in
                  expand_from g ~scan_rels ~dir ~types filter n (fun r m ->
                      match bind_rel row (Value.Rel r) with
                      | None -> ()
                      | Some row -> (
                        match bind_to row (Value.Node m) with
                        | None -> ()
                        | Some row -> out := row :: !out));
                  List.to_seq (List.rev !out))),
        scope )
    | Plan.Var_expand
        { from_; rel; types; dir; min_len; max_len; to_; reversed; _ } ->
      let from_ = node_reader scope from_ in
      let bind_rel, scope = binder scope rel in
      let bind_to, scope = binder scope to_ in
      ( walk_rows ~bind_rel ~bind_to ~from_ ~dir ~reversed ~hop:(fun cfg g ->
            Eval.type_filter_hop cfg g ~types ~min_len ~max_len),
        scope )
    | Plan.Regex_expand { from_; rel; regex; dir; to_; _ } ->
      let from_ = node_reader scope from_ in
      let bind_rel, scope = binder scope rel in
      let bind_to, scope = binder scope to_ in
      ( walk_rows ~bind_rel ~bind_to ~from_ ~dir ~reversed:false ~hop:(fun cfg g ->
            Eval.regex_hop cfg g regex),
        scope )
    | Plan.Filter { pred; _ } ->
      let pred = Compile.truth scope pred in
      ( (fun ctx ->
            let pred = pred ctx.env in
            Seq.filter (fun row -> Ternary.is_true (pred row))),
        scope )
    | Plan.Project { items; _ } ->
      let out =
        List.fold_left (fun s (name, _) -> Smap.add name (slot name) s) Smap.empty items
      in
      let items = List.map (fun (name, e) -> (slot name, Compile.expr scope e)) items in
      ( (fun ctx ->
            let blank = Array.make ctx.width Value.Null in
            let items = List.map (fun (i, c) -> (i, c ctx.env)) items in
            Seq.map (fun row ->
                let r = copy blank in
                List.iter (fun (i, f) -> r.(i) <- f row) items;
                r)),
        out )
    | Plan.Aggregate { keys; aggs; _ } ->
      let compiled e = Compile.expr scope e in
      let agg =
        {
          keys = List.map (fun (name, e) -> (slot name, compiled e)) keys;
          aggs =
            List.map
              (fun (name, spec) ->
                ( slot name,
                  spec,
                  Option.map compiled (Agg.arg_expr spec),
                  Option.map compiled (Agg.percentile_expr spec) ))
              aggs;
        }
      in
      let out =
        List.fold_left
          (fun s name -> Smap.add name (slot name) s)
          Smap.empty
          (List.map fst keys @ List.map fst aggs)
      in
      ( (fun ctx rows ->
          delayed (fun () ->
              List.to_seq (finish_groups ctx agg (fold_groups ctx agg rows)))),
        out )
    | Plan.Distinct _ ->
      let bound = Array.of_list (List.map snd (Smap.bindings scope)) in
      let hash (row : row) =
        Array.fold_left (fun acc i -> (acc * 31) + Value.hash row.(i)) 17 bound
        land max_int
      in
      let equal (a : row) (b : row) =
        Array.for_all (fun i -> Value.equal_total a.(i) b.(i)) bound
      in
      ( (fun _ rows ->
            let seen = Hashtbl.create 64 in
            Seq.filter
              (fun row ->
                let h = hash row in
                let bucket = try Hashtbl.find seen h with Not_found -> [] in
                if List.exists (equal row) bucket then false
                else (
                  Hashtbl.replace seen h (row :: bucket);
                  true))
              rows),
        scope )
    | Plan.Sort { by; _ } ->
      let order = { by = List.map (fun (e, d) -> (Compile.expr scope e, d)) by } in
      ( (fun ctx rows ->
          delayed (fun () ->
              List.to_seq (List.map unkey (sort_keyed ctx order rows)))),
        scope )
    | Plan.Skip_rows { count; _ } ->
      ( (fun ctx rows ->
            Seq.drop (eval_count ctx.env.cfg ctx.env.g "SKIP" count) rows),
        scope )
    | Plan.Limit_rows { count; _ } ->
      ( (fun ctx rows ->
            Seq.take (eval_count ctx.env.cfg ctx.env.g "LIMIT" count) rows),
        scope )
    | Plan.Unwind { expr; var; _ } ->
      let expr = Compile.expr scope expr in
      let i = slot var in
      ( (fun ctx ->
            let expr = expr ctx.env in
            Seq.concat_map (fun row ->
                match expr row with
                | Value.List vs -> Seq.map (fun v -> set row i v) (List.to_seq vs)
                | Value.Null -> Seq.empty
                | v -> Seq.return (set row i v))),
        Smap.add var i scope )
    | Plan.Optional { inner; introduced; _ } ->
      let inner, inner_scope = chain scope inner in
      (* Only the bindings of the introduced variables are taken from the
         inner rows; inner-internal variables must not leak, so that the
         output rows stay uniform with the null-padded ones. *)
      let taken =
        List.filter_map (fun a -> Smap.find_opt a inner_scope) introduced
      in
      let missing =
        List.filter_map
          (fun a -> if Smap.mem a scope then None else Some (slot a))
          introduced
      in
      let out =
        List.fold_left (fun s a -> Smap.add a (slot a) s) scope introduced
      in
      ( (fun ctx ->
            let inner = instantiate ctx inner in
            Seq.concat_map (fun (row : row) ->
                let produced =
                  Seq.map
                    (fun (inner_row : row) ->
                      let r = copy row in
                      List.iter (fun i -> r.(i) <- inner_row.(i)) taken;
                      r)
                    (inner (Seq.return row))
                in
                match produced () with
                | Seq.Nil ->
                  let r = copy row in
                  List.iter (fun i -> r.(i) <- Value.Null) missing;
                  Seq.return r
                | Seq.Cons (first, rest) -> Seq.cons first rest)),
        out )
    | Plan.Rel_uniqueness { vars; _ } ->
      let readers = List.map (rel_ids_reader scope) vars in
      ( (fun _ ->
            Seq.filter (fun row ->
                let ids = List.concat_map (fun read -> read row) readers in
                let set = Ids.Rel_set.of_list ids in
                Ids.Rel_set.cardinal set = List.length ids)),
        scope )
    | Plan.Path_restrict { restr; start_var; hops; _ } ->
      let start = node_reader scope start_var in
      let readers = List.map (rel_ids_reader scope) hops in
      ( (fun ctx ->
            let g = ctx.env.g in
            Seq.filter (fun row ->
                match start row with
                | None -> false
                | Some s -> Eval.restr_ok restr s (bound_steps g row s readers))),
        scope )
    | Plan.Project_path { var; start_var; hops; _ } ->
      let start = node_reader scope start_var in
      let readers = List.map (rel_ids_reader scope) hops in
      let bind, scope = binder scope var in
      ( (fun ctx ->
            let g = ctx.env.g in
            Seq.filter_map (fun row ->
                match start row with
                | None -> None
                | Some s ->
                  let steps = bound_steps g row s readers in
                  bind row (Value.Path { path_start = s; path_steps = steps }))),
        scope )
    | Plan.Shortest_path
        { from_; to_; rel; rel_single; types; dir; props; min_len; max_len; all;
          restr; path; _ } ->
      (* the search reads its relationship predicates under the row's
         record: one conversion per search *)
      let to_record = Compile.to_record scope in
      let from_ = node_reader scope from_ and to_ = node_reader scope to_ in
      let bind_rel, scope = binder scope rel in
      let bind_path_var, scope = path_binder scope path in
      ( (fun ctx ->
            let cfg = ctx.env.cfg and g = ctx.env.g in
            fun rows ->
              let kmax = Eval.max_hops cfg g max_len in
              Seq.concat_map
                (fun row ->
                  match from_ row, to_ row with
                  | Some s, Some e ->
                    let fwd, bwd =
                      Eval.search_neighbours cfg g (to_record row) ~types ~props
                        ~payload:(Of_record ignore) (ast_dir dir)
                    in
                    let found = ref [] in
                    Path_search.shortest ~bwd fwd s e ~kmin:min_len ~kmax ~all
                      ~accept:(fun steps ->
                        match
                          path_row ~bind_rel ~bind_path:bind_path_var ~rel_single
                            restr row s steps
                        with
                        | Some row' ->
                          found := row' :: !found;
                          true
                        | None -> false);
                    List.to_seq (List.rev !found)
                  | _ -> Seq.empty)
                rows),
        scope )
    | Plan.Cheapest_path
        { from_; to_; rel; types; dir; props; cost_prop; restr; path; _ } ->
      let to_record = Compile.to_record scope in
      let from_ = node_reader scope from_ and to_ = node_reader scope to_ in
      let bind_rel, scope = binder scope rel in
      let bind_path_var, scope = path_binder scope path in
      ( (fun ctx ->
            let cfg = ctx.env.cfg and g = ctx.env.g in
            Seq.concat_map (fun row ->
                match from_ row, to_ row with
                | Some s, Some e ->
                  let fwd, bwd =
                    Eval.search_neighbours cfg g (to_record row) ~types ~props
                      ~payload:(Cost cost_prop) (ast_dir dir)
                  in
                  List.to_seq
                    (List.filter_map
                       (path_row ~bind_rel ~bind_path:bind_path_var
                          ~rel_single:false restr row s)
                       (Eval.cheapest_path cost_prop ~fwd ~bwd s e))
                | _ -> Seq.empty)),
        scope )
  and path_binder scope = function
    | None -> ((fun row _ -> Some row), scope)
    | Some p -> binder scope p
  in
  let chain, out_scope = chain in_scope plan in
  let width = !width and in_bindings = Smap.bindings in_scope in
  let of_record record =
    let r = Array.make width Value.Null in
    List.iter (fun (a, i) -> r.(i) <- Record.find_or_null record a) in_bindings;
    r
  in
  { plan; input; width; of_record; to_record = Compile.to_record out_scope; chain }

let make_ctx cfg g prog =
  { env = { Compile.cfg; g }; width = prog.width; prof = None }

(* One program per prepared plan: a driving table with other fields is a
   caller's mistake, not a reason to compile again. *)
let input_rows prog table =
  let fields = List.sort_uniq String.compare (Table.fields table) in
  if not (List.equal String.equal fields prog.input) then
    invalid_arg "Exec: the driving table's fields are not the program's input";
  Seq.map prog.of_record (Table.to_seq table)

let to_table prog ~fields rows =
  Table.of_seq ~fields (Seq.map prog.to_record rows)

let rows cfg g prog arg =
  Seq.map prog.to_record
    (instantiate (make_ctx cfg g prog) prog.chain (Seq.map prog.of_record arg))

let run cfg g ~fields prog table =
  to_table prog ~fields
    (instantiate (make_ctx cfg g prog) prog.chain (input_rows prog table))

let run_profiled cfg g ~fields prog table =
  let entries : (Plan.t * prof_entry) list ref = ref [] in
  let find node =
    match List.find_opt (fun (p, _) -> p == node) !entries with
    | Some (_, e) -> e
    | None ->
      let e = { e_rows = 0; e_hits = 0; e_ns = 0 } in
      entries := (node, e) :: !entries;
      e
  in
  let ctx = { (make_ctx cfg g prog) with prof = Some find } in
  let result =
    Graph.with_db_hit_counting (fun () ->
        to_table prog ~fields (instantiate ctx prog.chain (input_rows prog table)))
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
