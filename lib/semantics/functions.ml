open Cypher_values
open Cypher_graph

exception Eval_error of string

let eval_error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

let registry : (string, Graph.t -> Value.t list -> Value.t) Hashtbl.t =
  Hashtbl.create 64

let register name f = Hashtbl.replace registry name f
let is_known name = Hashtbl.mem registry (String.lowercase_ascii name)

let names () =
  Hashtbl.fold (fun k _ acc -> k :: acc) registry []
  |> List.sort_uniq String.compare

let apply g name args =
  match Hashtbl.find_opt registry (String.lowercase_ascii name) with
  | Some f -> f g args
  | None -> eval_error "unknown function: %s" name

(* --- helpers ------------------------------------------------------- *)

let arity name n f g args =
  if List.length args <> n then
    eval_error "%s expects %d argument(s), got %d" name n (List.length args)
  else f g args

let null_prop1 f _g args =
  match args with [ Value.Null ] -> Value.Null | [ v ] -> f v | _ -> assert false

let float1 name f =
  null_prop1 (function
    | Value.Int i -> Value.Float (f (float_of_int i))
    | Value.Float x -> Value.Float (f x)
    | v -> Value.type_error "%s: expected a number, got %s" name (Value.type_name v))

let string1 name f =
  null_prop1 (function
    | Value.String s -> f s
    | v -> Value.type_error "%s: expected a string, got %s" name (Value.type_name v))

let as_node name = function
  | Value.Node n -> n
  | v -> Value.type_error "%s: expected a node, got %s" name (Value.type_name v)

let as_rel name = function
  | Value.Rel r -> r
  | v ->
    Value.type_error "%s: expected a relationship, got %s" name (Value.type_name v)

(* --- entity functions ---------------------------------------------- *)

let fn_labels g = function
  | [ Value.Null ] -> Value.Null
  | [ v ] ->
    let n = as_node "labels" v in
    Value.List (List.map (fun l -> Value.String l) (Graph.labels g n))
  | _ -> assert false

let fn_type g = function
  | [ Value.Null ] -> Value.Null
  | [ v ] -> Value.String (Graph.rel_type g (as_rel "type" v))
  | _ -> assert false

let fn_id _g = function
  | [ Value.Null ] -> Value.Null
  | [ Value.Node n ] -> Value.Int (Ids.node_to_int n)
  | [ Value.Rel r ] -> Value.Int (Ids.rel_to_int r)
  | [ v ] ->
    Value.type_error "id: expected a node or relationship, got %s"
      (Value.type_name v)
  | _ -> assert false

let fn_start_node g = function
  | [ Value.Null ] -> Value.Null
  | [ v ] -> Value.Node (Graph.src g (as_rel "startNode" v))
  | _ -> assert false

let fn_end_node g = function
  | [ Value.Null ] -> Value.Null
  | [ v ] -> Value.Node (Graph.tgt g (as_rel "endNode" v))
  | _ -> assert false

let fn_keys g = function
  | [ Value.Null ] -> Value.Null
  | [ Value.Node n ] ->
    Value.List
      (List.map (fun (k, _) -> Value.String k)
         (Value.Smap.bindings (Graph.node_props g n)))
  | [ Value.Rel r ] ->
    Value.List
      (List.map (fun (k, _) -> Value.String k)
         (Value.Smap.bindings (Graph.rel_props g r)))
  | [ Value.Map m ] ->
    Value.List (List.map (fun (k, _) -> Value.String k) (Value.Smap.bindings m))
  | [ v ] -> Value.type_error "keys: cannot apply to %s" (Value.type_name v)
  | _ -> assert false

let fn_properties g = function
  | [ Value.Null ] -> Value.Null
  | [ Value.Node n ] -> Value.Map (Graph.node_props g n)
  | [ Value.Rel r ] -> Value.Map (Graph.rel_props g r)
  | [ (Value.Map _ as m) ] -> m
  | [ v ] -> Value.type_error "properties: cannot apply to %s" (Value.type_name v)
  | _ -> assert false

let fn_degree dir g = function
  | [ Value.Null ] -> Value.Null
  | [ v ] ->
    let n = as_node "degree" v in
    Value.Int (Graph.degree g n dir)
  | _ -> assert false

(* --- path functions ------------------------------------------------- *)

let fn_nodes _g = function
  | [ Value.Null ] -> Value.Null
  | [ Value.Path p ] ->
    Value.List (List.map (fun n -> Value.Node n) (Value.path_nodes p))
  | [ v ] -> Value.type_error "nodes: expected a path, got %s" (Value.type_name v)
  | _ -> assert false

let fn_relationships _g = function
  | [ Value.Null ] -> Value.Null
  | [ Value.Path p ] ->
    Value.List (List.map (fun r -> Value.Rel r) (Value.path_rels p))
  | [ v ] ->
    Value.type_error "relationships: expected a path, got %s" (Value.type_name v)
  | _ -> assert false

let fn_length _g = function
  | [ Value.Null ] -> Value.Null
  | [ Value.Path p ] -> Value.Int (Value.path_length p)
  | [ Value.List l ] -> Value.Int (List.length l)
  | [ Value.String s ] -> Value.Int (String.length s)
  | [ v ] -> Value.type_error "length: cannot apply to %s" (Value.type_name v)
  | _ -> assert false

(* --- list functions -------------------------------------------------- *)

let fn_head _g = function
  | [ Value.Null ] -> Value.Null
  | [ Value.List [] ] -> Value.Null
  | [ Value.List (x :: _) ] -> x
  | [ v ] -> Value.type_error "head: expected a list, got %s" (Value.type_name v)
  | _ -> assert false

let fn_last _g = function
  | [ Value.Null ] -> Value.Null
  | [ Value.List [] ] -> Value.Null
  | [ Value.List l ] -> List.nth l (List.length l - 1)
  | [ v ] -> Value.type_error "last: expected a list, got %s" (Value.type_name v)
  | _ -> assert false

let fn_tail _g = function
  | [ Value.Null ] -> Value.Null
  | [ Value.List [] ] -> Value.List []
  | [ Value.List (_ :: t) ] -> Value.List t
  | [ v ] -> Value.type_error "tail: expected a list, got %s" (Value.type_name v)
  | _ -> assert false

let fn_reverse _g = function
  | [ Value.Null ] -> Value.Null
  | [ Value.List l ] -> Value.List (List.rev l)
  | [ Value.String s ] ->
    Value.String (String.init (String.length s) (fun i ->
        s.[String.length s - 1 - i]))
  | [ v ] -> Value.type_error "reverse: cannot apply to %s" (Value.type_name v)
  | _ -> assert false

let fn_range _g args =
  match args with
  | [ lo; hi ] -> Ops.range lo hi (Value.Int 1)
  | [ lo; hi; step ] -> Ops.range lo hi step
  | _ -> eval_error "range expects 2 or 3 arguments"

let fn_size _g = function [ v ] -> Ops.size v | _ -> assert false

(* --- scalar / conversion functions ----------------------------------- *)

let fn_coalesce _g args =
  match List.find_opt (fun v -> not (Value.is_null v)) args with
  | Some v -> v
  | None -> Value.Null

let fn_to_integer =
  (* [int_of_float] is unspecified for NaN, ±infinity and floats beyond
     the 63-bit native range (toInteger(1e300) would return whatever the
     hardware truncation produced), so those raise a runtime error. *)
  let of_float f =
    if Ops.float_fits_int f then Value.Int (int_of_float f)
    else eval_error "toInteger: cannot represent %g as an integer" f
  in
  null_prop1 (function
    | Value.Int i -> Value.Int i
    | Value.Float f -> of_float f
    | Value.String s -> (
      match int_of_string_opt (String.trim s) with
      | Some i -> Value.Int i
      | None -> (
        match float_of_string_opt (String.trim s) with
        | Some f -> of_float f
        | None -> Value.Null))
    | v -> Value.type_error "toInteger: cannot convert %s" (Value.type_name v))

let fn_to_float =
  null_prop1 (function
    | Value.Int i -> Value.Float (float_of_int i)
    | Value.Float f -> Value.Float f
    | Value.String s -> (
      match float_of_string_opt (String.trim s) with
      | Some f -> Value.Float f
      | None -> Value.Null)
    | v -> Value.type_error "toFloat: cannot convert %s" (Value.type_name v))

let fn_to_boolean =
  null_prop1 (function
    | Value.Bool b -> Value.Bool b
    | Value.String s -> (
      match String.lowercase_ascii (String.trim s) with
      | "true" -> Value.Bool true
      | "false" -> Value.Bool false
      | _ -> Value.Null)
    | v -> Value.type_error "toBoolean: cannot convert %s" (Value.type_name v))

let fn_to_string =
  null_prop1 (function
    | Value.String s -> Value.String s
    | v -> Value.String (Format.asprintf "%a" Value.pp_plain v))

let fn_abs =
  null_prop1 (function
    | Value.Int i -> Value.Int (abs i)
    | Value.Float f -> Value.Float (Float.abs f)
    | v -> Value.type_error "abs: expected a number, got %s" (Value.type_name v))

let fn_sign =
  null_prop1 (function
    | Value.Int i -> Value.Int (compare i 0)
    | Value.Float f -> Value.Int (compare f 0.)
    | v -> Value.type_error "sign: expected a number, got %s" (Value.type_name v))

let fn_round = float1 "round" Float.round
let fn_ceil = float1 "ceil" Float.ceil
let fn_floor = float1 "floor" Float.floor
let fn_sqrt = float1 "sqrt" Float.sqrt
let fn_exp = float1 "exp" Float.exp
let fn_log = float1 "log" Float.log
let fn_log10 = float1 "log10" Float.log10
let fn_sin = float1 "sin" Float.sin
let fn_cos = float1 "cos" Float.cos
let fn_tan = float1 "tan" Float.tan
let fn_asin = float1 "asin" Float.asin
let fn_acos = float1 "acos" Float.acos
let fn_atan = float1 "atan" Float.atan
let fn_degrees = float1 "degrees" (fun x -> x *. 180. /. Float.pi)
let fn_radians = float1 "radians" (fun x -> x *. Float.pi /. 180.)

let fn_atan2 _g = function
  | [ Value.Null; _ ] | [ _; Value.Null ] -> Value.Null
  | [ y; x ] -> Value.Float (Float.atan2 (Ops.to_float y) (Ops.to_float x))
  | _ -> assert false

let fn_haversin =
  float1 "haversin" (fun x ->
      let s = Float.sin (x /. 2.) in
      s *. s)

(* --- string functions ------------------------------------------------ *)

let fn_to_upper = string1 "toUpper" (fun s -> Value.String (String.uppercase_ascii s))
let fn_to_lower = string1 "toLower" (fun s -> Value.String (String.lowercase_ascii s))
let fn_trim = string1 "trim" (fun s -> Value.String (String.trim s))

let fn_ltrim =
  string1 "lTrim" (fun s ->
      let n = String.length s in
      let i = ref 0 in
      while !i < n && s.[!i] = ' ' do incr i done;
      Value.String (String.sub s !i (n - !i)))

let fn_rtrim =
  string1 "rTrim" (fun s ->
      let n = ref (String.length s) in
      while !n > 0 && s.[!n - 1] = ' ' do decr n done;
      Value.String (String.sub s 0 !n))

let fn_split _g = function
  | [ Value.Null; _ ] | [ _; Value.Null ] -> Value.Null
  | [ Value.String s; Value.String sep ] ->
    if sep = "" then Value.type_error "split: empty separator"
    else
      let parts = ref [] and start = ref 0 in
      let slen = String.length sep and n = String.length s in
      let i = ref 0 in
      while !i <= n - slen do
        if String.sub s !i slen = sep then (
          parts := String.sub s !start (!i - !start) :: !parts;
          start := !i + slen;
          i := !i + slen)
        else incr i
      done;
      parts := String.sub s !start (n - !start) :: !parts;
      Value.List (List.rev_map (fun p -> Value.String p) !parts)
  | [ a; b ] ->
    Value.type_error "split: expected strings, got %s, %s" (Value.type_name a)
      (Value.type_name b)
  | _ -> assert false

let fn_substring _g = function
  | Value.Null :: _ -> Value.Null
  | [ Value.String s; Value.Int start ] ->
    let n = String.length s in
    let start = max 0 (min n start) in
    Value.String (String.sub s start (n - start))
  | [ Value.String s; Value.Int start; Value.Int len ] ->
    let n = String.length s in
    let start = max 0 (min n start) in
    let len = max 0 (min (n - start) len) in
    Value.String (String.sub s start len)
  | _ -> Value.type_error "substring: expected (string, int[, int])"

let fn_replace _g = function
  | [ Value.Null; _; _ ] | [ _; Value.Null; _ ] | [ _; _; Value.Null ] -> Value.Null
  | [ Value.String s; Value.String from; Value.String into ] ->
    if from = "" then Value.String s
    else begin
      let buf = Buffer.create (String.length s) in
      let flen = String.length from and n = String.length s in
      let i = ref 0 in
      while !i < n do
        if !i <= n - flen && String.sub s !i flen = from then (
          Buffer.add_string buf into;
          i := !i + flen)
        else (
          Buffer.add_char buf s.[!i];
          incr i)
      done;
      Value.String (Buffer.contents buf)
    end
  | _ -> Value.type_error "replace: expected three strings"

let fn_left _g = function
  | [ Value.Null; _ ] -> Value.Null
  | [ Value.String s; Value.Int n ] ->
    Value.String (String.sub s 0 (max 0 (min n (String.length s))))
  | _ -> Value.type_error "left: expected (string, int)"

let fn_right _g = function
  | [ Value.Null; _ ] -> Value.Null
  | [ Value.String s; Value.Int n ] ->
    let len = String.length s in
    let n = max 0 (min n len) in
    Value.String (String.sub s (len - n) n)
  | _ -> Value.type_error "right: expected (string, int)"

(* --- registration ----------------------------------------------------- *)

let () =
  register "labels" (arity "labels" 1 fn_labels);
  register "type" (arity "type" 1 fn_type);
  register "id" (arity "id" 1 fn_id);
  register "startnode" (arity "startNode" 1 fn_start_node);
  register "endnode" (arity "endNode" 1 fn_end_node);
  register "keys" (arity "keys" 1 fn_keys);
  register "properties" (arity "properties" 1 fn_properties);
  register "outdegree" (arity "outDegree" 1 (fn_degree `Out));
  register "indegree" (arity "inDegree" 1 (fn_degree `In));
  register "degree" (arity "degree" 1 (fn_degree `Both));
  register "nodes" (arity "nodes" 1 fn_nodes);
  register "relationships" (arity "relationships" 1 fn_relationships);
  register "rels" (arity "rels" 1 fn_relationships);
  register "length" (arity "length" 1 fn_length);
  register "size" (arity "size" 1 fn_size);
  register "head" (arity "head" 1 fn_head);
  register "last" (arity "last" 1 fn_last);
  register "tail" (arity "tail" 1 fn_tail);
  register "reverse" (arity "reverse" 1 fn_reverse);
  register "range" fn_range;
  register "coalesce" fn_coalesce;
  register "tointeger" (arity "toInteger" 1 fn_to_integer);
  register "tofloat" (arity "toFloat" 1 fn_to_float);
  register "toboolean" (arity "toBoolean" 1 fn_to_boolean);
  register "tostring" (arity "toString" 1 fn_to_string);
  register "abs" (arity "abs" 1 fn_abs);
  register "sign" (arity "sign" 1 fn_sign);
  register "round" (arity "round" 1 fn_round);
  register "ceil" (arity "ceil" 1 fn_ceil);
  register "floor" (arity "floor" 1 fn_floor);
  register "sqrt" (arity "sqrt" 1 fn_sqrt);
  register "exp" (arity "exp" 1 fn_exp);
  register "log" (arity "log" 1 fn_log);
  register "log10" (arity "log10" 1 fn_log10);
  register "sin" (arity "sin" 1 fn_sin);
  register "cos" (arity "cos" 1 fn_cos);
  register "tan" (arity "tan" 1 fn_tan);
  register "pi" (arity "pi" 0 (fun _ _ -> Value.Float Float.pi));
  register "e" (arity "e" 0 (fun _ _ -> Value.Float (Float.exp 1.)));
  register "asin" (arity "asin" 1 fn_asin);
  register "acos" (arity "acos" 1 fn_acos);
  register "atan" (arity "atan" 1 fn_atan);
  register "atan2" (arity "atan2" 2 fn_atan2);
  register "degrees" (arity "degrees" 1 fn_degrees);
  register "radians" (arity "radians" 1 fn_radians);
  register "haversin" (arity "haversin" 1 fn_haversin);
  register "toupper" (arity "toUpper" 1 fn_to_upper);
  register "tolower" (arity "toLower" 1 fn_to_lower);
  register "upper" (arity "upper" 1 fn_to_upper);
  register "lower" (arity "lower" 1 fn_to_lower);
  register "trim" (arity "trim" 1 fn_trim);
  register "ltrim" (arity "lTrim" 1 fn_ltrim);
  register "rtrim" (arity "rTrim" 1 fn_rtrim);
  register "split" (arity "split" 2 fn_split);
  register "substring" fn_substring;
  register "replace" (arity "replace" 3 fn_replace);
  register "left" (arity "left" 2 fn_left);
  register "right" (arity "right" 2 fn_right)
