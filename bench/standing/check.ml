(* Answer checks.  Every request the benchmark sends is judged here: a
   transport or server error, and an answer that differs from the
   oracle's, both count as a failed attempt — the numerator of
   [error_rate] — so a fast wrong answer can never pass as a gain. *)

module Value = Cypher_values.Value

type verdict = Pass | Fail of string

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failures : string list;  (* at most a few, for the report *)
}

let tally () = { attempted = 0; failed = 0; first_failures = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.first_failures < 5 then
    t.first_failures <- msg :: t.first_failures

(* Counts one attempt and judges it: [Error] is a failed request, an
   answer the check rejects is a wrong one. *)
let judge t ~what result check =
  t.attempted <- t.attempted + 1;
  match result with
  | Error e -> fail t (what ^ ": " ^ e)
  | Ok rows -> (
    match check rows with Pass -> () | Fail m -> fail t (what ^ ": " ^ m))

let add_into t u =
  t.attempted <- t.attempted + u.attempted;
  t.failed <- t.failed + u.failed;
  List.iter
    (fun m -> if List.length t.first_failures < 5 then t.first_failures <- m :: t.first_failures)
    u.first_failures

(* Rows arrive as (column, value) pairs: the server orders a row's
   columns its own way, so checks look values up by column name. *)
let show rows =
  String.concat "; "
    (List.map
       (fun r -> String.concat ", " (List.map (fun (k, v) -> k ^ " " ^ Value.to_string v) r))
       rows)

let expect cond rows = if cond then Pass else Fail ("got " ^ show rows)
let str row k = match List.assoc_opt k row with Some (Value.String s) -> Some s | _ -> None

(* One row of one integer, equal to [n] (or any count when [n] is
   [None]). *)
let count n rows =
  match rows with
  | [ [ (_, Value.Int m) ] ] -> expect (m >= 0 && (n = None || n = Some m)) rows
  | _ -> Fail ("not one count: " ^ show rows)

let point ~name ~city rows =
  match rows with
  | [ row ] when List.length row = 2 ->
    expect (str row "name" = Some name && (city = None || str row "city" = city)) rows
  | _ -> Fail ("not one (name, city) row: " ^ show rows)

(* [degree] incident FRIEND relationships, one (name, city) row each;
   [~at_least] when writes may have added some. *)
let hop1 ?(at_least = false) ~degree rows =
  let n = List.length rows in
  let shaped =
    List.for_all (fun r -> str r "name" <> None && str r "city" <> None) rows
  in
  expect (shaped && if at_least then n >= degree else n = degree) rows

(* The [cities] view: (city, count) rows whose counts total between the
   persons known to exist and those that may exist by now. *)
let view ~min_total ~max_total rows =
  let total =
    List.fold_left
      (fun acc r ->
        match (acc, str r "city", List.assoc_opt "c" r) with
        | Some t, Some _, Some (Value.Int c) -> Some (t + c)
        | _ -> None)
      (Some 0) rows
  in
  match total with
  | Some t -> expect (t >= min_total && t <= max_total) rows
  | None -> Fail ("not (city, count) rows: " ^ show rows)

(* A durable write's acknowledgement: no rows, a commit seq past the
   connection's previous one. *)
let write ~after_seq (rows, seq) =
  if rows <> [] then Fail ("a write returned rows: " ^ show rows)
  else if seq <= after_seq then
    Fail (Printf.sprintf "commit seq %d not past %d" seq after_seq)
  else Pass

(* Two result sets equal as bags of rows. *)
let same_bag a b =
  let sort rows = List.sort compare (List.map (List.sort compare) rows) in
  if sort a = sort b then Pass else Fail ("got " ^ show a ^ " expected " ^ show b)
