(* Morsel-driven parallel execution of read-only plans.

   The graph handed in is immutable — under the server it is a pinned
   MVCC snapshot — so morsels run concurrently with committing writers
   as a matter of course: parallel reads need no lock and take none.

   The sequential executor ({!Exec}) evaluates a plan as one lazy row
   stream.  This driver splits that stream across worker domains while
   producing the *same table, in the same row order*:

   - The plan chain is decomposed (bottom-up) into a morsel source, a
     streaming pipeline segment, at most one specially-handled pipeline
     breaker, and a sequential remainder.
   - The source rows — the output of the leaf scan (or the driving
     table itself, when a later query part is driven by many rows) —
     are split into contiguous morsels.  Contiguity is the load-bearing
     property: every streaming operator maps each input row to a
     sub-stream independently of its neighbours, so concatenating the
     per-morsel outputs in morsel order reproduces the sequential
     output row-for-row, not merely as a bag.
   - Each morsel runs the pipeline segment through the ordinary
     sequential executor on a worker domain, on the same slotted rows
     (the program, graph and config are immutable and shared; every
     per-execution state in [Exec] — instantiated expressions, a scan's
     node list — is created inside the per-morsel call, so nothing is
     forced across domains).
   - Merges at the first pipeline breaker:
       Aggregate  — per-morsel folding of rows into groups (key and
                    argument-value evaluation, the expensive,
                    parallelisable part), then a combine step that
                    concatenates per-group value lists in morsel order
                    and finalises sequentially.
                    Concatenation order matters: float sums are not
                    associative, and replaying the exact sequential
                    fold order makes results bitwise-identical.
       Sort       — per-morsel stable sort, then a k-way merge that
                    breaks ties toward the lower morsel index; together
                    with per-morsel stability this equals a stable sort
                    of the whole stream.
       Limit      — the limit is pushed into each morsel (no morsel
                    produces more than n rows) and re-applied globally.
       Distinct   — per-morsel dedup (keeps first occurrences, shrinks
                    the merge) followed by the global dedup.
       anything else (Skip, or no breaker) — ordered concatenation.
   - Everything above the handled breaker runs sequentially on the
     merged stream, exactly as before.

   Error semantics match sequential first-error behaviour: each morsel
   captures its exception, and the lowest-index failure is re-raised —
   the same error the sequential executor would have hit first.

   The driver takes a {!runner} rather than touching the domain pool
   directly, so the planner layer stays independent of the engine layer
   that owns the pool. *)

open Cypher_table
module Clock = Cypher_obs.Clock
module Trace = Cypher_obs.Trace

type runner = {
  workers : int;  (** parallelism budget, caller included *)
  run_tasks : int -> (int -> unit) -> unit;
      (** [run_tasks n f] executes [f 0 .. f (n-1)] each exactly once,
          possibly on other domains, returning when all are done.  [f]
          must not raise. *)
}

(* Operators that must see their whole input before emitting: the
   pipeline segment distributed to workers stops below the first of
   these. *)
let is_breaker op =
  match Exec.op_node op with
  | Plan.Aggregate _ | Plan.Distinct _ | Plan.Sort _ | Plan.Skip_rows _
  | Plan.Limit_rows _ ->
    true
  | _ -> false

let split_streaming ops =
  let rec go acc = function
    | op :: rest when not (is_breaker op) -> go (op :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] ops

(* [parallel_map runner n task] with sequential first-error semantics
   and per-task monotonic timing (for the observability report). *)
let parallel_map runner n task =
  let out = Array.make n None in
  runner.run_tasks n (fun i ->
      let t0 = Clock.now_us () in
      let r =
        match task i with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      out.(i) <- Some (r, Clock.now_us () - t0));
  let worker_us = ref 0 in
  let results =
    Array.init n (fun i ->
        match out.(i) with
        | Some (r, dur) ->
          worker_us := !worker_us + dur;
          r
        | None -> assert false)
  in
  (* lowest-index failure first, matching the sequential error order *)
  ( Array.map
      (fun r ->
        match r with
        | Ok v -> v
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      results,
    !worker_us )

(* K-way merge of per-morsel stably-sorted chunks.  Ties prefer the
   lower morsel index, so the result equals a stable sort of the
   morsel-ordered concatenation — i.e. the sequential Sort output. *)
let merge_sorted compare_rows (chunks : 'a list array) =
  let heads = Array.copy chunks in
  let total = Array.fold_left (fun n l -> n + List.length l) 0 heads in
  let out = ref [] in
  for _ = 1 to total do
    let best = ref (-1) in
    Array.iteri
      (fun i l ->
        match l with
        | [] -> ()
        | x :: _ ->
          if
            !best < 0
            || compare_rows x (List.hd heads.(!best)) < 0
          then best := i)
      heads;
    out := List.hd heads.(!best) :: !out;
    heads.(!best) <- List.tl heads.(!best)
  done;
  List.rev !out

let run runner cfg g ~fields prog table =
  let sequential () = Exec.run cfg g ~fields prog table in
  if runner.workers <= 1 then sequential ()
  else
    let ops = Exec.ops prog in
    (* Pick the morsel source.  A driving table with several rows (a
       later part of a multi-part query) is already materialised — its
       rows are the morsels.  Otherwise the bottom operator (typically
       a leaf scan) is run sequentially once and its output split. *)
    let source =
      if Table.row_count table > 1 then Some (`Windows, ops)
      else
        match ops with
        | src :: rest when not (is_breaker src) -> Some (`Op src, rest)
        | _ -> None
    in
    match source with
    | None -> sequential ()
    | Some (src, rest_ops) -> (
      let source_len, slice =
        match src with
        | `Windows ->
          (* the driving table is already materialised: morsels are
             zero-copy windows over its shared row buffer, slotted on
             the worker *)
          ( Table.row_count table,
            fun lo len -> Exec.input_rows prog (Table.sub table ~off:lo ~len) )
        | `Op op ->
          let rows_arr =
            Array.of_seq
              (Exec.instantiate (Exec.make_ctx cfg g prog) [ op ] (Exec.input_rows prog table))
          in
          ( Array.length rows_arr,
            fun lo len -> Seq.init len (fun j -> rows_arr.(lo + j)) )
      in
      if source_len < 2 then sequential ()
      else begin
        let pipeline_ops, above_ops = split_streaming rest_ops in
        (* more morsels than workers, so the pool's work stealing can
           even out skew (a hub node in one morsel, misses in another) *)
        let morsel_count = min source_len (runner.workers * 4) in
        let bounds =
          Array.init morsel_count (fun i ->
              let lo = i * source_len / morsel_count
              and hi = (i + 1) * source_len / morsel_count in
              (lo, hi - lo))
        in
        let morsel i =
          let lo, len = bounds.(i) in
          slice lo len
        in
        (* each morsel instantiates the pipeline for itself, on its own
           domain *)
        let on_morsel ops i f =
          let ctx = Exec.make_ctx cfg g prog in
          f ctx (Exec.instantiate ctx ops (morsel i))
        in
        let note worker_us =
          Trace.note "parallel_workers" worker_us
            ~attrs:
              [
                ("morsels", string_of_int morsel_count);
                ("workers", string_of_int runner.workers);
              ]
        in
        let finish_rows above rows_list =
          Exec.to_table prog ~fields
            (Exec.instantiate (Exec.make_ctx cfg g prog) above (List.to_seq rows_list))
        in
        let concat_morsels ops =
          let chunks, worker_us =
            parallel_map runner morsel_count (fun i ->
                on_morsel ops i (fun _ rows -> List.of_seq rows))
          in
          note worker_us;
          List.concat (Array.to_list chunks)
        in
        match above_ops with
        | [] ->
          (* whole plan is one streaming pipeline: workers materialise
             their morsel outputs straight into tables, and the merge
             is an ordered bag-union blit *)
          let chunks, worker_us =
            parallel_map runner morsel_count (fun i ->
                on_morsel pipeline_ops i (fun _ rows -> Exec.to_table prog ~fields rows))
          in
          note worker_us;
          Table.concat ~fields (Array.to_list chunks)
        | breaker :: rest_above -> (
          match Exec.op_kind breaker, Exec.op_node breaker with
          | Exec.Aggregate agg, _ ->
            let parts, worker_us =
              parallel_map runner morsel_count (fun i ->
                  on_morsel pipeline_ops i (fun ctx rows -> Exec.fold_groups ctx agg rows))
            in
            note worker_us;
            finish_rows rest_above
              (Exec.finish_groups (Exec.make_ctx cfg g prog) agg (Exec.merge_groups parts))
          | Exec.Sort order, _ ->
            let chunks, worker_us =
              parallel_map runner morsel_count (fun i ->
                  on_morsel pipeline_ops i (fun ctx rows -> Exec.sort_keyed ctx order rows))
            in
            note worker_us;
            finish_rows rest_above
              (List.map Exec.unkey (merge_sorted Exec.compare_keyed chunks))
          | _, (Plan.Limit_rows _ | Plan.Distinct _) ->
            (* push the limit into each morsel (bounds per-morsel work),
               or dedup per morsel (keeps each morsel's first
               occurrences — idempotent); [above_ops] still starts with
               the breaker, which re-applies it to the merged stream *)
            finish_rows above_ops (concat_morsels (pipeline_ops @ [ breaker ]))
          | _ ->
            (* remaining breaker is Skip: ordered concatenation of
               per-morsel streams is the sequential stream; the
               remainder runs on it sequentially *)
            finish_rows above_ops (concat_morsels pipeline_ops))
      end)
