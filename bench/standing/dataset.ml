(* The benchmark's datasets and their oracle.

   Both datasets have the shape of {!Cypher_gen.Generate.social} —
   Person {name, city}, undirected-by-query FRIEND {since}, an index on
   Person(name) — but are generated here, on the public {!Graph} API and a
   private PRNG, so a change to lib/gen cannot change the benchmark's
   inputs.  The graph itself depends only on a fixed generator seed: it is
   built once, saved as a store snapshot and cached; the run seed draws
   keys and schedules (see Standing).

   The oracle is the same data held as flat arrays (names, cities, a
   compressed adjacency list), from which every expected answer — point
   city, degree, distinct 2-hop count, scan count, BFS length, Dijkstra
   cost — is computed without the engine. *)

module Graph = Cypher_graph.Graph
module Value = Cypher_values.Value
module Snapshot = Cypher_storage.Snapshot

(* A splitmix-style generator over 63-bit native ints: small, fast and
   owned by the bench. *)
type rng = { mutable s : int }

let rng seed = { s = seed * 0x2545F4914F6CDD1D }

let next r =
  r.s <- r.s + 0x2545F4914F6CDD1D;
  let z = r.s in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int

let int r n = next r mod n

type spec = { ds_name : string; people : int; avg_friends : int }

(* The fixed seed of every graph. *)
let graph_seed = 11

let first_names =
  [| "Ada"; "Bob"; "Cyd"; "Dee"; "Eve"; "Fay"; "Gus"; "Hal"; "Ida"; "Jon";
     "Kim"; "Lou"; "Max"; "Ned"; "Oz"; "Pam" |]

let cities =
  [| "Berlin"; "Lisbon"; "Oslo"; "Paris"; "Rome"; "Vienna"; "Madrid";
     "Prague"; "Dublin"; "Athens"; "Warsaw"; "Zurich" |]

type t = {
  spec : spec;
  names : string array;
  city : int array;  (* index into [cities] *)
  (* incident FRIEND relationships of person i (each rel listed at both
     ends): adj_start.(i) .. adj_start.(i+1)-1 index [adj_other],
     [adj_since] and [adj_rel] *)
  adj_start : int array;
  adj_other : int array;
  adj_since : int array;
  adj_rel : int array;
  rels : (int * int * int) array;  (* src, tgt, since *)
  scan_counts : int array array;  (* city -> last digit of name -> count *)
}

let generate spec =
  let r = rng graph_seed in
  let n = spec.people in
  let names =
    Array.init n (fun i -> Printf.sprintf "%s%d" first_names.(int r 16) i)
  in
  let city = Array.init n (fun _ -> int r (Array.length cities)) in
  let rels = ref [] in
  for _ = 1 to n * spec.avg_friends / 2 do
    let a = int r n and b = int r n in
    let since = 1990 + int r 30 in
    if a <> b then rels := (a, b, since) :: !rels
  done;
  let rels = Array.of_list (List.rev !rels) in
  let deg = Array.make (n + 1) 0 in
  Array.iter (fun (a, b, _) -> deg.(a) <- deg.(a) + 1; deg.(b) <- deg.(b) + 1) rels;
  let adj_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do adj_start.(i + 1) <- adj_start.(i) + deg.(i) done;
  let m = adj_start.(n) in
  let adj_other = Array.make m 0
  and adj_since = Array.make m 0
  and adj_rel = Array.make m 0 in
  let fill = Array.sub adj_start 0 n in
  let put i other since rel =
    let k = fill.(i) in
    adj_other.(k) <- other;
    adj_since.(k) <- since;
    adj_rel.(k) <- rel;
    fill.(i) <- k + 1
  in
  Array.iteri (fun k (a, b, s) -> put a b s k; put b a s k) rels;
  let scan_counts = Array.make_matrix (Array.length cities) 10 0 in
  Array.iteri
    (fun i c -> scan_counts.(c).(i mod 10) <- scan_counts.(c).(i mod 10) + 1)
    city;
  { spec; names; city; adj_start; adj_other; adj_since; adj_rel; rels; scan_counts }

let build_graph d =
  let g = ref Graph.empty in
  let ids =
    Array.init d.spec.people (fun i ->
        let g', id =
          Graph.add_node ~labels:[ "Person" ]
            ~props:
              [
                ("name", Value.String d.names.(i));
                ("city", Value.String cities.(d.city.(i)));
              ]
            !g
        in
        g := g';
        id)
  in
  Array.iter
    (fun (a, b, since) ->
      g :=
        fst
          (Graph.add_rel ~src:ids.(a) ~tgt:ids.(b) ~rel_type:"FRIEND"
             ~props:[ ("since", Value.Int since) ]
             !g))
    d.rels;
  Graph.create_index !g ~label:"Person" ~key:"name"

(* The cached snapshot of [d], built on first use.  An entry is named by
   the digest of the running program, which holds both this generator and
   the store's snapshot encoder, so a rebuilt program never loads bytes an
   earlier build wrote; entries of [d] from other builds are removed when
   the new one is written.  [Snapshot.save] is atomic, so a killed prep
   never leaves a torn cache entry. *)
let snapshot ~cache_dir d =
  let prefix = Printf.sprintf "%s-g%d-" d.spec.ds_name graph_seed in
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let file = prefix ^ build ^ ".snap" in
  let path = Filename.concat cache_dir file in
  if not (Sys.file_exists path) then begin
    Array.iter
      (fun f ->
        if String.starts_with ~prefix f && Filename.check_suffix f ".snap" then
          Sys.remove (Filename.concat cache_dir f))
      (Sys.readdir cache_dir);
    Snapshot.save (build_graph d) path
  end;
  path

(* --- oracle -------------------------------------------------------------- *)

let degree d i = d.adj_start.(i + 1) - d.adj_start.(i)

(* count(DISTINCT q) over p-[r1]-x-[r2]-q with r1 <> r2: relationship
   isomorphism lets q be p itself through two parallel relationships. *)
let hop2 d p =
  let seen = Hashtbl.create 64 in
  for k = d.adj_start.(p) to d.adj_start.(p + 1) - 1 do
    let x = d.adj_other.(k) in
    for k2 = d.adj_start.(x) to d.adj_start.(x + 1) - 1 do
      if d.adj_rel.(k2) <> d.adj_rel.(k) then Hashtbl.replace seen d.adj_other.(k2) ()
    done
  done;
  Hashtbl.length seen

(* Persons in the order a search from [src] settles them, with their
   distance: hop count when [weighted] is false (BFS), the least sum of
   [since] otherwise (Dijkstra with a binary heap). *)
let settle_order d ~weighted src =
  let n = d.spec.people in
  let dist = Array.make n max_int in
  let order = ref [] in
  dist.(src) <- 0;
  if not weighted then begin
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      order := u :: !order;
      for k = d.adj_start.(u) to d.adj_start.(u + 1) - 1 do
        let v = d.adj_other.(k) in
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end
      done
    done
  end
  else begin
    let heap = ref (Array.make 1024 (0, 0)) and size = ref 0 in
    let swap i j =
      let t = !heap.(i) in
      !heap.(i) <- !heap.(j);
      !heap.(j) <- t
    in
    let push x =
      if !size = Array.length !heap then
        heap := Array.append !heap (Array.make !size (0, 0));
      !heap.(!size) <- x;
      let i = ref !size in
      incr size;
      while !i > 0 && fst !heap.((!i - 1) / 2) > fst !heap.(!i) do
        swap !i ((!i - 1) / 2);
        i := (!i - 1) / 2
      done
    in
    let pop () =
      let top = !heap.(0) in
      decr size;
      !heap.(0) <- !heap.(!size);
      let i = ref 0 and stop = ref false in
      while not !stop do
        let l = (2 * !i) + 1 in
        let c =
          if l + 1 < !size && fst !heap.(l + 1) < fst !heap.(l) then l + 1 else l
        in
        if c < !size && fst !heap.(c) < fst !heap.(!i) then begin
          swap c !i;
          i := c
        end
        else stop := true
      done;
      top
    in
    let settled = Array.make n false in
    push (0, src);
    while !size > 0 do
      let du, u = pop () in
      if not settled.(u) then begin
        settled.(u) <- true;
        order := u :: !order;
        for k = d.adj_start.(u) to d.adj_start.(u + 1) - 1 do
          let v = d.adj_other.(k) and dv = du + d.adj_since.(k) in
          if dv < dist.(v) then begin
            dist.(v) <- dv;
            push (dv, v)
          end
        done
      end
    done
  end;
  (Array.of_list (List.rev !order), dist)

(* A path query's endpoints and expected answer (length or cost). *)
type pair = { src : int; dst : int; expect : int }

(* Curated endpoint pairs, after LDBC SNB's parameter curation: the
   source is uniform over all persons and the target is the person the
   oracle's search settles at the middle rank.  A uniform target makes
   the engine's work per query uniform between "adjacent" and "whole
   component", so a few dozen pairs per run would spread the run's mean
   by far more than any regression bound; the middle rank keeps the same
   expected work with a small spread. *)
let curated_pairs d ~weighted r count =
  List.init count (fun _ ->
      let rec draw () =
        let src = int r d.spec.people in
        let order, dist = settle_order d ~weighted src in
        (* a source outside the giant component is redrawn *)
        if Array.length order < d.spec.people / 2 then draw ()
        else
          let dst = order.(Array.length order / 2) in
          { src; dst; expect = dist.(dst) }
      in
      draw ())
