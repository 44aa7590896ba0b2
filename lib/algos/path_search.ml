open Cypher_values

type step = Ids.rel * Ids.node
type 'w neighbours = Ids.node -> (Ids.rel * Ids.node * 'w) list

exception Invalid_cost of float

let key = Ids.node_to_int

(* Binary min-heap in a growable array, ordered on (cost, insertion
   sequence): equal costs pop first-in first-out, so the search order —
   and with it the tie-break among equal-cost paths — depends only on
   the adjacency order. *)
module Heap = struct
  type 'a t = {
    mutable data : (float * int * 'a) array;
    mutable size : int;
    mutable seq : int;
  }

  let create () = { data = [||]; size = 0; seq = 0 }
  let less (c1, s1, _) (c2, s2, _) = c1 < c2 || (c1 = c2 && s1 < s2)

  let push h c v =
    let x = (c, h.seq, v) in
    h.seq <- h.seq + 1;
    if h.size = Array.length h.data then begin
      let grown = Array.make (max 16 (2 * h.size)) x in
      Array.blit h.data 0 grown 0 h.size;
      h.data <- grown
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && less x h.data.((!i - 1) / 2) do
      h.data.(!i) <- h.data.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.data.(!i) <- x

  let top h = if h.size = 0 then None else Some h.data.(0)

  let drop h =
    h.size <- h.size - 1;
    let n = h.size and x = h.data.(h.size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && less h.data.(l + 1) h.data.(l) then l + 1 else l in
      if c < n && less h.data.(c) x then begin
        h.data.(!i) <- h.data.(c);
        i := c
      end
      else sifting := false
    done;
    if n > 0 then h.data.(!i) <- x
end

let walks next ~accept ~kmax st s emit =
  let rec go st cur depth steps_rev =
    if accept depth st then emit cur (List.rev steps_rev) st;
    if depth < kmax then
      List.iter
        (fun (r, n, st') -> go st' n (depth + 1) ((r, n) :: steps_rev))
        (next st cur)
  in
  go st s 0 []

(* Exhaustive iterative deepening: the relationship-distinct walks of
   the smallest length in [kmin, kmax] that has any. *)
let deepening next s e ~kmin ~kmax ~all =
  let unused used cur =
    List.filter_map
      (fun (r, n, _) ->
        if Ids.Rel_set.mem r used then None else Some (r, n, Ids.Rel_set.add r used))
      (next cur)
  in
  let found = ref [] in
  let l = ref (max 1 kmin) in
  while !found = [] && !l <= kmax do
    let len = !l in
    walks unused ~accept:(fun depth _ -> depth = len) ~kmax:len Ids.Rel_set.empty s
      (fun n steps _ -> if Ids.equal_node n e then found := steps :: !found);
    incr l
  done;
  match !found, all with
  | [], _ -> []
  | paths, true -> List.rev paths
  | p :: _, false -> [ p ]

(* Level-synchronised BFS.  For kmin <= 1 and s <> e minimal walks never
   repeat a node (a repetition could be cut), so marking nodes visited
   level by level is sound; within a level several paths may reach the
   same node, and [all] keeps them all. *)
let level_bfs next s e ~kmax ~all =
  let visited = Hashtbl.create 64 in
  Hashtbl.replace visited (key s) ();
  let rec level depth frontier =
    if depth >= kmax || frontier = [] then []
    else begin
      let expansions =
        List.concat_map
          (fun (cur, steps_rev) ->
            List.filter_map
              (fun (r, n, _) ->
                if Hashtbl.mem visited (key n) then None
                else Some (n, (r, n) :: steps_rev))
              (next cur))
          frontier
      in
      let completions =
        List.filter_map
          (fun (n, steps_rev) ->
            if Ids.equal_node n e then Some (List.rev steps_rev) else None)
          expansions
      in
      if completions <> [] then
        if all then completions else [ List.hd completions ]
      else begin
        let next_frontier =
          List.filter (fun (n, _) -> not (Ids.equal_node n e)) expansions
        in
        List.iter (fun (n, _) -> Hashtbl.replace visited (key n) ()) next_frontier;
        (* for a single path, one way into each node is enough *)
        let next_frontier =
          if all then next_frontier
          else
            let seen = Hashtbl.create 16 in
            List.filter
              (fun (n, _) ->
                (not (Hashtbl.mem seen (key n))) && (Hashtbl.add seen (key n) (); true))
              next_frontier
        in
        level (depth + 1) next_frontier
      end
    end
  in
  level 0 [ (s, []) ]

(* The path s ~> x, then [mid], then y ~> e, read off the parent
   pointers of the forward and the backward search trees. *)
let join fwd_parent bwd_parent s e x mid y =
  let rec back n acc =
    if Ids.equal_node n s then acc
    else
      let r, prev = Hashtbl.find fwd_parent (key n) in
      back prev ((r, n) :: acc)
  in
  let rec forth n acc_rev =
    if Ids.equal_node n e then List.rev acc_rev
    else
      let r, nxt = Hashtbl.find bwd_parent (key n) in
      forth nxt ((r, nxt) :: acc_rev)
  in
  back x [] @ mid @ forth y []

(* Bidirectional BFS for one shortest path between distinct endpoints.
   Minimal walks are node-simple here, so per-side first-discovery
   marking is sound and the two halves of a minimal concatenation never
   share a node.  A meeting is recorded when one side reaches a node the
   other has; the least recorded total is the shortest length, because a
   shorter path would have met earlier.  The side with fewer frontier
   nodes expands next: the count is kept as nodes enter the frontier,
   whereas summing their adjacency-list lengths costs two random map
   lookups per node, as much again as the expansion it is meant to
   save. *)
type 'w bfs_side = {
  next : 'w neighbours;
  dist : (int, int) Hashtbl.t;
  parent : (int, Ids.rel * Ids.node) Hashtbl.t;
  mutable frontier : Ids.node list;
  mutable size : int;
  mutable depth : int;
}

let bidir_bfs ~fwd ~bwd s e ~kmax =
  let side next n =
    let dist = Hashtbl.create 64 in
    Hashtbl.replace dist (key n) 0;
    { next; dist; parent = Hashtbl.create 64; frontier = [ n ]; size = 1; depth = 0 }
  in
  let f = side fwd s and b = side bwd e in
  let best = ref None in
  let expand side other =
    let d = side.depth + 1 in
    let next = ref [] and size = ref 0 in
    List.iter
      (fun cur ->
        List.iter
          (fun (r, n, _) ->
            let k = key n in
            if not (Hashtbl.mem side.dist k) then begin
              Hashtbl.replace side.dist k d;
              Hashtbl.replace side.parent k (r, cur);
              next := n :: !next;
              incr size;
              match Hashtbl.find_opt other.dist k, !best with
              | None, _ -> ()
              | Some od, Some (len, _) when len <= d + od -> ()
              | Some od, _ -> best := Some (d + od, n)
            end)
          (side.next cur))
      side.frontier;
    side.frontier <- List.rev !next;
    side.size <- !size;
    side.depth <- d
  in
  let rec search () =
    match !best with
    | Some (len, meet) ->
      if len > kmax then [] else [ join f.parent b.parent s e meet [] meet ]
    | None ->
      if f.size = 0 || b.size = 0 || f.depth + b.depth >= kmax then []
      else begin
        if f.size <= b.size then expand f b else expand b f;
        search ()
      end
  in
  search ()

let candidates ?bwd fwd s e ~kmin ~kmax ~all =
  if Ids.equal_node s e then
    if kmin = 0 then [ [] ] else deepening fwd s e ~kmin ~kmax ~all
  else if kmin > 1 then deepening fwd s e ~kmin ~kmax ~all
  else
    (* s <> e: a zero-length walk never connects, so kmin = 0 acts as 1 *)
    match bwd with
    | Some bwd when not all -> bidir_bfs ~fwd ~bwd s e ~kmax
    | _ -> level_bfs fwd s e ~kmax ~all

(* The first candidate of the fast search is an arbitrary survivor among
   the minimal walks; when [accept] rejects it (a restrictor, or the
   rest of the pattern), every other minimal walk is offered in turn. *)
let shortest ?bwd fwd s e ~kmin ~kmax ~all ~accept =
  match candidates ?bwd fwd s e ~kmin ~kmax ~all with
  | found when all -> List.iter (fun steps -> ignore (accept steps)) found
  | [] -> ()
  | first :: _ ->
    if not (accept first) then
      let same = List.equal (fun (r1, _) (r2, _) -> Ids.equal_rel r1 r2) first in
      ignore
        (List.exists
           (fun steps -> (not (same steps)) && accept steps)
           (candidates fwd s e ~kmin ~kmax ~all:true))

(* Bidirectional Dijkstra.  Each side settles nodes in cost order from
   its endpoint; every relationship either side relaxes whose far end
   the other side has reached offers a path s ~> x -r-> y ~> e, and [mu]
   keeps the cheapest offer.  Once the two least unsettled costs sum to
   at least [mu], no cheaper path exists.  [mu] starts empty rather than
   at +∞ so that a path of infinite cost is still found.

   The returned path is node-simple, even across zero-cost cycles.  If
   the two halves shared a node z, both labels of z were final before
   the winning offer, and the relaxation that last changed either label
   offered s ~> z ~> e at their sum; that sum is no larger (costs are
   non-negative, and float addition is monotone), and an earlier offer
   of equal cost is never replaced. *)
type dijkstra_side = {
  next : float neighbours;
  cost : (int, float) Hashtbl.t;
  parent : (int, Ids.rel * Ids.node) Hashtbl.t;
  settled : (int, unit) Hashtbl.t;
  heap : Ids.node Heap.t;
}

let cheapest ~fwd ~bwd s e =
  let side next n =
    let t =
      {
        next;
        cost = Hashtbl.create 64;
        parent = Hashtbl.create 64;
        settled = Hashtbl.create 64;
        heap = Heap.create ();
      }
    in
    Hashtbl.replace t.cost (key n) 0.0;
    Heap.push t.heap 0.0 n;
    t
  in
  let f = side fwd s and b = side bwd e in
  let mu = ref None in
  let offer c x r y =
    match !mu with
    | Some (m, _, _, _) when m <= c -> ()
    | _ -> mu := Some (c, x, r, y)
  in
  (* the least-cost unsettled entry; entries of settled nodes are stale *)
  let rec top t =
    match Heap.top t.heap with
    | Some (_, _, n) when Hashtbl.mem t.settled (key n) ->
      Heap.drop t.heap;
      top t
    | entry -> entry
  in
  let settle t other ~forward (c, _, n) =
    Heap.drop t.heap;
    Hashtbl.replace t.settled (key n) ();
    List.iter
      (fun (r, m, w) ->
        if not (w >= 0.0) then raise (Invalid_cost w);
        let c' = c +. w and km = key m in
        (match Hashtbl.find_opt other.cost km with
        | Some oc -> if forward then offer (c' +. oc) n r m else offer (c' +. oc) m r n
        | None -> ());
        if not (Hashtbl.mem t.settled km) then
          match Hashtbl.find_opt t.cost km with
          | Some old when old <= c' -> ()
          | _ ->
            Hashtbl.replace t.cost km c';
            Hashtbl.replace t.parent km (r, n);
            Heap.push t.heap c' m)
      (t.next n)
  in
  let rec search () =
    match top f, top b, !mu with
    | None, _, _ | _, None, _ -> ()
    | Some (cf, _, _), Some (cb, _, _), Some (m, _, _, _) when cf +. cb >= m -> ()
    | Some ((cf, _, _) as ef), Some ((cb, _, _) as eb), _ ->
      if cf <= cb then settle f b ~forward:true ef else settle b f ~forward:false eb;
      search ()
  in
  search ();
  match !mu with
  | None -> None
  | Some (c, x, r, y) -> Some (c, join f.parent b.parent s e x [ (r, y) ] y)
