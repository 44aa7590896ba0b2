open Cypher_values

(* ------------------------------------------------------------------ *)
(* Low-level line scanning                                             *)
(* ------------------------------------------------------------------ *)

type line =
  | L_feature of string
  | L_scenario of string
  | L_step of string (* trimmed step text, lowercased keyword kept *)
  | L_docstring of string (* the whole triple-quoted block, joined *)
  | L_table_row of string list

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.lowercase_ascii (String.sub s 0 (String.length prefix)))
       (String.lowercase_ascii prefix)

let after prefix s =
  String.trim (String.sub s (String.length prefix) (String.length s - String.length prefix))

let split_cells line =
  (* | a | b | -> ["a"; "b"] *)
  let parts = String.split_on_char '|' line in
  match parts with
  | _ :: rest ->
    let rec strip_last = function
      | [] -> []
      | [ _last ] -> [] (* text after the final bar *)
      | x :: xs -> x :: strip_last xs
    in
    List.map String.trim (strip_last rest)
  | [] -> []

let scan text =
  let lines = String.split_on_char '\n' text in
  let rec go acc = function
    | [] -> List.rev acc
    | raw :: rest ->
      let line = String.trim raw in
      if line = "" || starts_with "#" line then go acc rest
      else if starts_with "Feature:" line then
        go (L_feature (after "Feature:" line) :: acc) rest
      else if starts_with "Scenario:" line then
        go (L_scenario (after "Scenario:" line) :: acc) rest
      else if starts_with "\"\"\"" line then begin
        (* docstring until the closing triple quote *)
        let rec collect body = function
          | [] -> (List.rev body, [])
          | raw :: rest ->
            if starts_with "\"\"\"" (String.trim raw) then (List.rev body, rest)
            else collect (raw :: body) rest
        in
        let body, rest = collect [] rest in
        go (L_docstring (String.concat "\n" body) :: acc) rest
      end
      else if String.length line > 0 && line.[0] = '|' then
        go (L_table_row (split_cells line) :: acc) rest
      else go (L_step line :: acc) rest
  in
  go [] lines

(* ------------------------------------------------------------------ *)
(* Step interpretation                                                 *)
(* ------------------------------------------------------------------ *)

type partial = {
  name : string;
  given : string list;
  params : (string * Value.t) list;
  when_ : string option;
  then_ : Tck.expectation list;
}

let empty_partial name =
  { name; given = []; params = []; when_ = None; then_ = [] }

let finish p =
  match p.when_ with
  | None -> Error (Printf.sprintf "scenario %S has no When step" p.name)
  | Some q ->
    if p.then_ = [] then
      Error (Printf.sprintf "scenario %S has no Then step" p.name)
    else
      Ok
        (Tck.scenario p.name ~given:(List.rev p.given)
           ~params:(List.rev p.params) ~when_:q ~then_:(List.rev p.then_))

let parse_literal cell =
  match Cypher_parser.Parser.parse_expr_exn cell with
  | e ->
    Cypher_semantics.Eval.eval_expr Cypher_semantics.Config.default
      Cypher_graph.Graph.empty Cypher_table.Record.empty e
  | exception _ -> Value.String cell

let side_effects_of_rows rows =
  List.fold_left
    (fun eff row ->
      match row with
      | [ key; count ] -> (
        let n = int_of_string (String.trim count) in
        match String.trim key with
        | "+nodes" -> { eff with Tck.nodes_created = n }
        | "-nodes" -> { eff with Tck.nodes_deleted = n }
        | "+relationships" -> { eff with Tck.rels_created = n }
        | "-relationships" -> { eff with Tck.rels_deleted = n }
        | "+properties" | "properties" -> { eff with Tck.props_set = n }
        | "+labels" -> { eff with Tck.labels_added = n }
        | "-labels" -> { eff with Tck.labels_removed = n }
        | other -> failwith ("unknown side effect: " ^ other))
      | _ -> failwith "side effect rows need two cells")
    Tck.no_effects rows

(* Consumes the table rows immediately following the current position. *)
let take_table lines =
  let rec go rows = function
    | L_table_row cells :: rest -> go (cells :: rows) rest
    | rest -> (List.rev rows, rest)
  in
  go [] lines

let parse text =
  let rec scenarios feature acc current lines =
    let flush acc current =
      match current with
      | None -> Ok acc
      | Some p -> (
        match finish p with Ok s -> Ok (s :: acc) | Error e -> Error e)
    in
    match lines with
    | [] -> (
      match flush acc current with
      | Ok acc -> Ok (List.rev acc)
      | Error e -> Error e)
    | L_feature title :: rest -> scenarios title acc current rest
    | L_scenario name :: rest -> (
      match flush acc current with
      | Error e -> Error e
      | Ok acc ->
        let full_name =
          if feature = "" then name else feature ^ ": " ^ name
        in
        scenarios feature acc (Some (empty_partial full_name)) rest)
    | L_step step :: rest -> (
      match current with
      | None -> Error (Printf.sprintf "step outside a scenario: %s" step)
      | Some p -> (
        let lower = String.lowercase_ascii step in
        let contains needle =
          let nl = String.length needle and hl = String.length lower in
          let rec scan i =
            i + nl <= hl && (String.sub lower i nl = needle || scan (i + 1))
          in
          nl <= hl && scan 0
        in
        if contains "an empty graph" then scenarios feature acc current rest
        else if contains "having executed" then (
          match rest with
          | L_docstring q :: rest ->
            scenarios feature acc (Some { p with given = q :: p.given }) rest
          | _ -> Error "having executed: expected a docstring")
        else if contains "executing query" then (
          match rest with
          | L_docstring q :: rest ->
            scenarios feature acc (Some { p with when_ = Some q }) rest
          | _ -> Error "executing query: expected a docstring")
        else if contains "parameters are" then begin
          let rows, rest = take_table rest in
          let params =
            List.map
              (function
                | [ k; v ] -> (k, parse_literal v)
                | _ -> failwith "parameter rows need two cells")
              rows
          in
          scenarios feature acc (Some { p with params = List.rev_append params p.params }) rest
        end
        else if contains "result should be empty" then
          scenarios feature acc
            (Some { p with then_ = Tck.Empty_result :: p.then_ })
            rest
        else if contains "result should be" then begin
          let ordered = contains "in order" in
          match take_table rest with
          | header :: data, rest ->
            let exp =
              if ordered then Tck.Rows_ordered (header, data)
              else Tck.Rows (header, data)
            in
            scenarios feature acc (Some { p with then_ = exp :: p.then_ }) rest
          | [], _ -> Error "result table missing"
        end
        else if contains "should be raised" then begin
          let expectation =
            if contains "syntaxerror" then Some (Tck.Error_of_class SyntaxError)
            else if contains "typeerror" then Some (Tck.Error_of_class TypeError)
            else if contains "arithmeticerror" then
              Some (Tck.Error_of_class ArithmeticError)
            else if contains "an error" then Some Tck.Error_raised
            else None
          in
          match expectation with
          | Some exp ->
            scenarios feature acc (Some { p with then_ = exp :: p.then_ }) rest
          | None -> Error (Printf.sprintf "unsupported error class: %s" step)
        end
        else if contains "no side effects" then
          scenarios feature acc
            (Some { p with then_ = Tck.Side_effects Tck.no_effects :: p.then_ })
            rest
        else if contains "side effects should be" then begin
          let rows, rest = take_table rest in
          match side_effects_of_rows rows with
          | eff ->
            scenarios feature acc
              (Some { p with then_ = Tck.Side_effects eff :: p.then_ })
              rest
          | exception Failure e -> Error e
        end
        else Error (Printf.sprintf "unsupported step: %s" step)))
    | L_docstring _ :: _ -> Error "unexpected docstring"
    | L_table_row _ :: _ -> Error "unexpected table row"
  in
  match scenarios "" [] None (scan text) with
  | Ok scenarios -> Ok scenarios
  | Error e -> Error e
  | exception Failure e -> Error e

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e

let run_file ?config path =
  match load_file path with
  | Ok scenarios -> Tck.to_alcotest ?config scenarios
  | Error e ->
    [
      ( Printf.sprintf "parse %s" path,
        `Quick,
        fun () -> failwith ("feature file: " ^ e) );
    ]
