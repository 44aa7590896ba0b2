open Cypher_values
open Cypher_graph

type constraint_ =
  | Node_property_exists of { label : string; key : string }
  | Node_property_unique of { label : string; key : string }
  | Node_property_type of { label : string; key : string; type_name : string }
  | Rel_property_exists of { rel_type : string; key : string }

type t = constraint_ list

let empty = []
let add c t = if List.mem c t then t else c :: t
let constraints t = List.rev t

let pp_constraint ppf = function
  | Node_property_exists { label; key } ->
    Format.fprintf ppf "CONSTRAINT ON (n:%s) ASSERT exists(n.%s)" label key
  | Node_property_unique { label; key } ->
    Format.fprintf ppf "CONSTRAINT ON (n:%s) ASSERT n.%s IS UNIQUE" label key
  | Node_property_type { label; key; type_name } ->
    Format.fprintf ppf "CONSTRAINT ON (n:%s) ASSERT n.%s IS %s" label key
      type_name
  | Rel_property_exists { rel_type; key } ->
    Format.fprintf ppf "CONSTRAINT ON ()-[r:%s]-() ASSERT exists(r.%s)"
      rel_type key

(* --- DDL parsing ----------------------------------------------------- *)

(* A deliberately small line format; tokens are split on spaces after
   punctuation is padded. *)
let tokenize_ddl s =
  let buf = Buffer.create (String.length s + 16) in
  String.iter
    (fun c ->
      match c with
      | '(' | ')' | '[' | ']' | ':' | '.' | '-' ->
        Buffer.add_char buf ' ';
        Buffer.add_char buf c;
        Buffer.add_char buf ' '
      | c -> Buffer.add_char buf c)
    s;
  String.split_on_char ' ' (Buffer.contents buf)
  |> List.filter (fun w -> w <> "")

let parse_ddl text =
  let toks = tokenize_ddl text in
  let upper = List.map String.uppercase_ascii toks in
  let err () = Error (Printf.sprintf "cannot parse constraint: %s" text) in
  match toks, upper with
  (* CREATE CONSTRAINT ON ( v : Label ) ASSERT ... *)
  | ( _ :: _ :: _ :: "(" :: v :: ":" :: label :: ")" :: "ASSERT" :: rest,
      "CREATE" :: "CONSTRAINT" :: "ON" :: _ ) -> (
    match rest with
    | [ "exists"; "("; v'; "."; key; ")" ] when v = v' ->
      Ok (Node_property_exists { label; key })
    | [ v'; "."; key; "IS"; "UNIQUE" ] when v = v' ->
      Ok (Node_property_unique { label; key })
    | [ v'; "."; key; "IS"; ty ] when v = v' ->
      Ok
        (Node_property_type
           { label; key; type_name = String.uppercase_ascii ty })
    | _ -> err ())
  (* CREATE CONSTRAINT ON ( ) - [ v : TYPE ] - ( ) ASSERT exists(v.key) *)
  | ( _ :: _ :: _ :: "(" :: ")" :: "-" :: "[" :: v :: ":" :: rel_type :: "]"
      :: "-" :: "(" :: ")" :: "ASSERT" :: rest,
      "CREATE" :: "CONSTRAINT" :: "ON" :: _ ) -> (
    match rest with
    | [ "exists"; "("; v'; "."; key; ")" ] when v = v' ->
      Ok (Rel_property_exists { rel_type; key })
    | _ -> err ())
  | _ -> err ()

let add_ddl text t =
  match parse_ddl text with Ok c -> Ok (add c t) | Error e -> Error e

(* --- validation ------------------------------------------------------- *)

type violation = {
  violated : constraint_;
  culprit : string;
  detail : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "%s violates %a: %s" v.culprit pp_constraint v.violated
    v.detail

let node_name n = Format.asprintf "%a" Ids.pp_node n
let rel_name r = Format.asprintf "%a" Ids.pp_rel r

let check_one g c =
  match c with
  | Node_property_exists { label; key } ->
    List.filter_map
      (fun n ->
        if Value.is_null (Graph.node_prop g n key) then
          Some
            {
              violated = c;
              culprit = node_name n;
              detail = Printf.sprintf "missing property %s" key;
            }
        else None)
      (Graph.nodes_with_label g label)
  | Node_property_unique { label; key } ->
    let tbl = Hashtbl.create 16 in
    List.concat_map
      (fun n ->
        match Graph.node_prop g n key with
        | Value.Null -> []
        | v -> (
          let h = Value.hash v in
          let bucket = try Hashtbl.find tbl h with Not_found -> [] in
          match List.find_opt (fun (v0, _) -> Value.equal_total v0 v) bucket with
          | Some (_, first) ->
            [
              {
                violated = c;
                culprit = node_name n;
                detail =
                  Printf.sprintf "duplicates %s = %s of %s" key
                    (Value.to_string v) (node_name first);
              };
            ]
          | None ->
            Hashtbl.replace tbl h ((v, n) :: bucket);
            []))
      (Graph.nodes_with_label g label)
  | Node_property_type { label; key; type_name } ->
    List.filter_map
      (fun n ->
        match Graph.node_prop g n key with
        | Value.Null -> None
        | v when String.equal (Value.type_name v) type_name -> None
        | v ->
          Some
            {
              violated = c;
              culprit = node_name n;
              detail =
                Printf.sprintf "%s has type %s, expected %s" key
                  (Value.type_name v) type_name;
            })
      (Graph.nodes_with_label g label)
  | Rel_property_exists { rel_type; key } ->
    List.filter_map
      (fun r ->
        if Value.is_null (Graph.rel_prop g r key) then
          Some
            {
              violated = c;
              culprit = rel_name r;
              detail = Printf.sprintf "missing property %s" key;
            }
        else None)
      (Graph.rels_with_type g rel_type)

let check t g = List.concat_map (check_one g) (constraints t)
let conforms t g = check t g = []

let guarded_query ?config ~schema g q =
  match Cypher_engine.Engine.query ?config g q with
  | Error _ as e -> e
  | Ok outcome -> (
    match check schema outcome.Cypher_engine.Engine.graph with
    | [] -> Ok outcome
    | v :: _ ->
      Error
        (Cypher_engine.Engine.Runtime_error
           (Format.asprintf "schema violation (update rolled back): %a"
              pp_violation v)))
