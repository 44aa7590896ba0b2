open Cypher_values
open Cypher_graph
module Nmap = Ids.Node_map
module Nset = Ids.Node_set

(* [f m] for the far end [m] of each relationship at [n], in adjacency
   order. *)
let neighbours g dir n f = Graph.iter_adjacent g n dir Graph.any_type (fun _ m _ -> f m)

let pagerank ?(damping = 0.85) ?(iterations = 50) ?(tolerance = 1e-9) g =
  let nodes = Graph.nodes g in
  let n = List.length nodes in
  if n = 0 then []
  else begin
    let base = (1. -. damping) /. float_of_int n in
    let init = 1. /. float_of_int n in
    let scores = ref (List.fold_left (fun m v -> Nmap.add v init m) Nmap.empty nodes) in
    let out_degree v = Graph.degree g v `Out in
    let converged = ref false in
    let iter = ref 0 in
    while (not !converged) && !iter < iterations do
      incr iter;
      (* mass from dangling nodes is spread uniformly *)
      let dangling =
        List.fold_left
          (fun acc v ->
            if out_degree v = 0 then acc +. Nmap.find v !scores else acc)
          0. nodes
      in
      let spread = damping *. dangling /. float_of_int n in
      let next =
        List.fold_left
          (fun m v ->
            let inflow = ref 0. in
            neighbours g `In v (fun u ->
                inflow :=
                  !inflow +. (Nmap.find u !scores /. float_of_int (out_degree u)));
            let inflow = !inflow in
            Nmap.add v (base +. spread +. (damping *. inflow)) m)
          Nmap.empty nodes
      in
      let delta =
        List.fold_left
          (fun acc v ->
            acc +. Float.abs (Nmap.find v next -. Nmap.find v !scores))
          0. nodes
      in
      scores := next;
      if delta < tolerance then converged := true
    done;
    List.map (fun v -> (v, Nmap.find v !scores)) nodes
  end

let weakly_connected_components g =
  let comp = Hashtbl.create 64 in
  let next_id = ref 0 in
  let visit start =
    if not (Hashtbl.mem comp (Ids.node_to_int start)) then begin
      let id = !next_id in
      incr next_id;
      let queue = Queue.create () in
      Queue.add start queue;
      Hashtbl.replace comp (Ids.node_to_int start) id;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        neighbours g `Both v (fun w ->
            if not (Hashtbl.mem comp (Ids.node_to_int w)) then begin
              Hashtbl.replace comp (Ids.node_to_int w) id;
              Queue.add w queue
            end)
      done
    end
  in
  List.iter visit (Graph.nodes g);
  List.map (fun v -> (v, Hashtbl.find comp (Ids.node_to_int v))) (Graph.nodes g)

let strongly_connected_components g =
  (* Tarjan, iterative to survive deep graphs. *)
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let comp = Hashtbl.create 64 in
  let comp_count = ref 0 in
  let key n = Ids.node_to_int n in
  let rec strongconnect v =
    Hashtbl.replace index (key v) !counter;
    Hashtbl.replace lowlink (key v) !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack (key v) true;
    neighbours g `Out v (fun w ->
        if not (Hashtbl.mem index (key w)) then begin
          strongconnect w;
          Hashtbl.replace lowlink (key v)
            (min (Hashtbl.find lowlink (key v)) (Hashtbl.find lowlink (key w)))
        end
        else if Hashtbl.mem on_stack (key w) && Hashtbl.find on_stack (key w)
        then
          Hashtbl.replace lowlink (key v)
            (min (Hashtbl.find lowlink (key v)) (Hashtbl.find index (key w))));
    if Hashtbl.find lowlink (key v) = Hashtbl.find index (key v) then begin
      let id = !comp_count in
      incr comp_count;
      let rec pop () =
        match !stack with
        | [] -> ()
        | w :: rest ->
          stack := rest;
          Hashtbl.replace on_stack (key w) false;
          Hashtbl.replace comp (key w) id;
          if not (Ids.equal_node w v) then pop ()
      in
      pop ()
    end
  in
  List.iter
    (fun v -> if not (Hashtbl.mem index (key v)) then strongconnect v)
    (Graph.nodes g);
  List.map (fun v -> (v, Hashtbl.find comp (key v))) (Graph.nodes g)

let bfs_distances g ~from ?(direction = `Out) () =
  let dist = Hashtbl.create 64 in
  Hashtbl.replace dist (Ids.node_to_int from) 0;
  let queue = Queue.create () in
  Queue.add from queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let d = Hashtbl.find dist (Ids.node_to_int v) in
    neighbours g direction v (fun w ->
        if not (Hashtbl.mem dist (Ids.node_to_int w)) then begin
          Hashtbl.replace dist (Ids.node_to_int w) (d + 1);
          Queue.add w queue
        end)
  done;
  List.filter_map
    (fun v ->
      match Hashtbl.find_opt dist (Ids.node_to_int v) with
      | Some d -> Some (v, d)
      | None -> None)
    (Graph.nodes g)

let undirected_neighbour_set g n =
  let s = ref Nset.empty in
  neighbours g `Both n (fun w -> s := Nset.add w !s);
  Nset.remove n !s

let triangle_count g =
  (* each triangle {a,b,c} is counted once: a < b < c by id *)
  let nodes = Graph.nodes g in
  let nbrs = Hashtbl.create 64 in
  List.iter
    (fun v -> Hashtbl.replace nbrs (Ids.node_to_int v) (undirected_neighbour_set g v))
    nodes;
  let nb v = Hashtbl.find nbrs (Ids.node_to_int v) in
  List.fold_left
    (fun acc a ->
      Nset.fold
        (fun b acc ->
          if Ids.compare_node a b < 0 then
            Nset.fold
              (fun c acc ->
                if Ids.compare_node b c < 0 && Nset.mem c (nb a) then acc + 1
                else acc)
              (nb b) acc
          else acc)
        (nb a) acc)
    0 nodes

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let d = Graph.degree g v `Both in
      Hashtbl.replace tbl d (1 + try Hashtbl.find tbl d with Not_found -> 0))
    (Graph.nodes g);
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let local_clustering g n =
  let nbrs = undirected_neighbour_set g n in
  let k = Nset.cardinal nbrs in
  if k < 2 then 0.
  else begin
    let links =
      Nset.fold
        (fun a acc ->
          Nset.fold
            (fun b acc ->
              if Ids.compare_node a b < 0 && Nset.mem b (undirected_neighbour_set g a)
              then acc + 1
              else acc)
            nbrs acc)
        nbrs 0
    in
    2. *. float_of_int links /. float_of_int (k * (k - 1))
  end
