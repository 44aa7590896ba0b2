(* The dense-id trie behind the graph store, against [Map.Make (Int)]. *)

open Helpers
open Cypher_graph
module M = Map.Make (Int)

type op = Add of int * int | Remove of int | Update of int * int option

let show_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Update (k, v) ->
    Printf.sprintf "update %d %s" k
      (Option.fold ~none:"none" ~some:string_of_int v)

(* Keys at and beside each level boundary: 32^1, 32^2, 32^3, then far
   up to 2^30, where the trie is six levels deep. *)
let boundaries =
  [
    0; 1; 31; 32; 33; 1023; 1024; 1025; 32767; 32768; 32769; 1 lsl 20;
    (1 lsl 25) - 1; 1 lsl 25; (1 lsl 30) - 1; 1 lsl 30;
  ]

let gen_key =
  let open QCheck.Gen in
  frequency
    [
      (6, oneofl boundaries);
      (3, int_bound 100);
      (1, int_bound (1 lsl 30));
      (1, oneofl [ -1; -32; min_int ]);
    ]

let gen_op =
  let open QCheck.Gen in
  let v = int_bound 1000 in
  frequency
    [
      (5, map2 (fun k v -> Add (k, v)) gen_key v);
      (2, map (fun k -> Remove k) gen_key);
      (2, map2 (fun k v -> Update (k, v)) gen_key (opt v));
    ]

(* Applies [op] to both sides; a negative key must be refused by the
   trie's [add] and leave both maps as they were. *)
let apply (t, m) op =
  match op with
  | Add (k, v) when k < 0 -> (
    match Idmap.add k v t with
    | _ -> failwith "add of a negative key was accepted"
    | exception Invalid_argument _ -> (t, m))
  | Add (k, v) -> (Idmap.add k v t, M.add k v m)
  | Remove k -> (Idmap.remove k t, M.remove k m)
  | Update (k, v) when k < 0 ->
    (match Idmap.update k (fun _ -> v) t with
    | t' -> if v <> None || t' != t then failwith "negative update accepted"
    | exception Invalid_argument _ -> ());
    (t, m)
  | Update (k, v) ->
    let f = function
      | None -> v
      | Some old -> if v = Some 0 then Some old else v
    in
    (Idmap.update k f t, M.update k f m)

let probes = boundaries @ [ -1; 2; 100; 1 lsl 35; max_int; min_int ]

let agrees (t, m) =
  let keys = probes @ List.map fst (M.bindings m) in
  List.for_all
    (fun k ->
      Idmap.find_opt k t = M.find_opt k m
      && Idmap.mem k t = M.mem k m
      && (match Idmap.find k t with
         | v -> M.find_opt k m = Some v
         | exception Not_found -> not (M.mem k m)))
    keys
  && Idmap.bindings t = M.bindings m
  && List.rev (Idmap.fold (fun k v acc -> (k, v) :: acc) t []) = M.bindings m
  && Idmap.fold_right (fun k v acc -> (k, v) :: acc) t [] = M.bindings m
  && (let seen = ref [] in
      Idmap.iter (fun k v -> seen := (k, v) :: !seen) t;
      List.rev !seen = M.bindings m)
  && Idmap.is_empty t = M.is_empty m

let t_model =
  QCheck.Test.make ~count:300 ~name:"idmap answers as Map.Make (Int)"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 80) gen_op))
    (fun ops ->
      (* every earlier version must still answer as it did: an update
         never writes into an array another version holds *)
      let versions =
        List.fold_left
          (fun vs op -> apply (List.hd vs) op :: vs)
          [ (Idmap.empty, M.empty) ]
          ops
      in
      List.for_all agrees versions)

let bounds () =
  let t = Idmap.add 5 "five" Idmap.empty in
  Alcotest.check_raises "add of a negative key"
    (Invalid_argument "Idmap.add: negative key") (fun () ->
      ignore (Idmap.add (-1) "x" t));
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "find %d" k)
        Not_found
        (fun () -> ignore (Idmap.find k t)))
    [ -1; min_int; 32; 1 lsl 40; max_int ];
  let far = Idmap.add max_int "max" t in
  Alcotest.(check (list (pair int string)))
    "max_int is a key like any other"
    [ (5, "five"); (max_int, "max") ]
    (Idmap.bindings far);
  Alcotest.(check bool)
    "removing an absent key returns the map itself" true
    (Idmap.remove 6 t == t && Idmap.remove (-1) t == t
   && Idmap.remove (1 lsl 40) t == t);
  Alcotest.(check bool)
    "emptied map is empty" true
    (Idmap.is_empty (Idmap.remove max_int (Idmap.remove 5 far)))

(* Tracks values the returned map no longer binds: each must be
   collectable while the map lives on. *)
let[@inline never] replaced_and_removed () =
  let t =
    List.fold_left
      (fun t k -> Idmap.add k (ref k) t)
      Idmap.empty
      [ 1; 2; 3; 40; 41; 5000 ]
  in
  let weak = Weak.create 4 in
  List.iteri
    (fun i k -> Weak.set weak i (Some (Idmap.find k t)))
    [ 1; 3; 41; 5000 ];
  (* 1 and 3, the first and the last written in their leaf, are
     replaced; 41 is removed beside a live 40, 5000 removed alone *)
  let t = Idmap.add 3 (ref 0) (Idmap.add 1 (ref 0) t) in
  let t = Idmap.remove 5000 (Idmap.remove 41 t) in
  (t, weak)

let no_retention () =
  let t, weak = replaced_and_removed () in
  Gc.full_major ();
  List.iteri
    (fun i what ->
      Alcotest.(check bool) (what ^ " is collected") false (Weak.check weak i))
    [
      "first replaced value"; "last replaced value"; "removed value";
      "value of an emptied leaf";
    ];
  Alcotest.(check (list int))
    "live bindings" [ 1; 2; 3; 40 ]
    (List.map fst (Idmap.bindings (Sys.opaque_identity t)))

let suite =
  [
    tc "bounds" bounds;
    tc "no retention of replaced or removed values" no_retention;
    QCheck_alcotest.to_alcotest t_model;
  ]
