open Cypher_values

type step = Ids.rel * Ids.node
type 'w neighbours = Ids.node -> (Ids.rel -> Ids.node -> 'w -> unit) -> unit

exception Invalid_cost of float

let key = Ids.node_to_int

(* One side of a search: an open-addressing table from node id to the
   node's label, and the cheapest search's heap.  A slot is live only
   while its stamp equals [epoch], so a new search bumps [epoch] and
   clears nothing.  The table doubles with the nodes a search touches and
   is never indexed by id: ids up to 2^30 are legal. *)
type state = {
  mutable epoch : int;
  mutable mask : int;  (* capacity - 1, the capacity a power of two *)
  mutable filled : int;  (* slots filled in this epoch *)
  mutable keys : int array;
  mutable stamps : int array;
  mutable mark : int array;  (* BFS depth; for the cheapest search, 1 once settled *)
  mutable cost : Float.Array.t;
  mutable via : int array;  (* parent relationship *)
  mutable from : int array;  (* parent node *)
  (* Binary min-heap of (cost, insertion sequence, node) in three arrays.
     Equal costs pop first-in first-out, so the search order — and with
     it the tie-break among equal-cost paths — depends only on the
     adjacency order. *)
  mutable hcost : Float.Array.t;
  mutable hseq : int array;
  mutable hnode : int array;
  mutable hsize : int;
  mutable hnext : int;
}

let initial_capacity = 256

(* A state grown past this many slots or heap entries by one large
   search goes back to the GC, not to the pool, so the pool retains at
   most about 4.5 MB per state. *)
let retained_capacity = 1 lsl 16

let create () =
  let n = initial_capacity in
  {
    epoch = 0;
    mask = n - 1;
    filled = 0;
    keys = Array.make n 0;
    stamps = Array.make n 0;
    mark = Array.make n 0;
    cost = Float.Array.create n;
    via = Array.make n 0;
    from = Array.make n 0;
    hcost = Float.Array.create 0;
    hseq = [||];
    hnode = [||];
    hsize = 0;
    hnext = 0;
  }

(* Multiplicative hashing; the shift folds the high bits into the low
   ones the mask keeps. *)
let hash k =
  let h = k * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

(* The slot holding [k], or the free slot where it would go. *)
let probe st k =
  let i = ref (hash k land st.mask) in
  while st.stamps.(!i) = st.epoch && st.keys.(!i) <> k do
    i := (!i + 1) land st.mask
  done;
  !i

let live st i = st.stamps.(i) = st.epoch

let find st k =
  let i = probe st k in
  if live st i then i else -1

let grow st =
  let { keys; stamps; mark; cost; via; from; _ } = st in
  let n = 2 * (st.mask + 1) in
  st.mask <- n - 1;
  st.keys <- Array.make n 0;
  st.stamps <- Array.make n 0;
  st.mark <- Array.make n 0;
  st.cost <- Float.Array.create n;
  st.via <- Array.make n 0;
  st.from <- Array.make n 0;
  Array.iteri
    (fun j stamp ->
      if stamp = st.epoch then begin
        let i = probe st keys.(j) in
        st.keys.(i) <- keys.(j);
        st.stamps.(i) <- stamp;
        st.mark.(i) <- mark.(j);
        Float.Array.set st.cost i (Float.Array.get cost j);
        st.via.(i) <- via.(j);
        st.from.(i) <- from.(j)
      end)
    stamps

(* Fills the free slot [i] (from {!probe}) with [k] and returns its slot,
   which differs from [i] when the table had to grow first.  The caller
   sets the label. *)
let rec claim st i k =
  if 2 * (st.filled + 1) > st.mask + 1 then begin
    grow st;
    claim st (probe st k) k
  end
  else begin
    st.keys.(i) <- k;
    st.stamps.(i) <- st.epoch;
    st.filled <- st.filled + 1;
    i
  end

let add st k = claim st (probe st k) k

let set_parent st i r n =
  st.via.(i) <- Ids.rel_to_int r;
  st.from.(i) <- key n

let parent st n =
  let i = find st (key n) in
  (Ids.rel_of_int st.via.(i), Ids.node_of_int st.from.(i))

let heap_set st i c s n =
  Float.Array.set st.hcost i c;
  st.hseq.(i) <- s;
  st.hnode.(i) <- n

let heap_move st src dst =
  heap_set st dst (Float.Array.get st.hcost src) st.hseq.(src) st.hnode.(src)

let push st c n =
  if st.hsize = Array.length st.hnode then begin
    let len = max 64 (2 * st.hsize) in
    let hcost = Float.Array.create len in
    Float.Array.blit st.hcost 0 hcost 0 st.hsize;
    st.hcost <- hcost;
    st.hseq <- Array.append st.hseq (Array.make (len - st.hsize) 0);
    st.hnode <- Array.append st.hnode (Array.make (len - st.hsize) 0)
  end;
  let s = st.hnext in
  st.hnext <- s + 1;
  (* [s] is the largest sequence so far, so the new entry precedes its
     parent only on a strictly smaller cost *)
  let i = ref st.hsize in
  st.hsize <- st.hsize + 1;
  while !i > 0 && c < Float.Array.get st.hcost ((!i - 1) / 2) do
    heap_move st ((!i - 1) / 2) !i;
    i := (!i - 1) / 2
  done;
  heap_set st !i c s n

let drop st =
  let n = st.hsize - 1 in
  st.hsize <- n;
  let c = Float.Array.get st.hcost n and s = st.hseq.(n) and v = st.hnode.(n) in
  let less i j =
    let ci = Float.Array.get st.hcost i and cj = Float.Array.get st.hcost j in
    ci < cj || (ci = cj && st.hseq.(i) < st.hseq.(j))
  in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let ch = if l + 1 < n && less (l + 1) l then l + 1 else l in
    if
      ch < n
      &&
      let cc = Float.Array.get st.hcost ch in
      cc < c || (cc = c && st.hseq.(ch) < s)
    then begin
      heap_move st ch !i;
      i := ch
    end
    else sifting := false
  done;
  if n > 0 then heap_set st !i c s v

(* The pool: a lock-free stack of idle states.  Every push conses a new
   cell, so a compare-and-set never mistakes a recycled head for the one
   it read. *)
let pool : state list Atomic.t = Atomic.make []

let rec take () =
  match Atomic.get pool with
  | [] -> create ()
  | st :: rest as idle -> if Atomic.compare_and_set pool idle rest then st else take ()

let rec give st =
  if st.mask < retained_capacity && Array.length st.hnode <= retained_capacity then begin
    let idle = Atomic.get pool in
    if not (Atomic.compare_and_set pool idle (st :: idle)) then give st
  end

(* [f] on a state of its own for one search, returned to the pool however
   [f] ends.  A search started by a neighbour function takes another. *)
let using f =
  let st = take () in
  st.epoch <- st.epoch + 1;
  st.filled <- 0;
  st.hsize <- 0;
  st.hnext <- 0;
  Fun.protect ~finally:(fun () -> give st) (fun () -> f st)

let walks next ~accept ~kmax st s emit =
  let rec go st cur depth steps_rev =
    if accept depth st then emit cur (List.rev steps_rev) st;
    if depth < kmax then
      next st cur (fun r n st' -> go st' n (depth + 1) ((r, n) :: steps_rev))
  in
  go st s 0 []

(* Exhaustive iterative deepening: the relationship-distinct walks of
   the smallest length in [kmin, kmax] that has any. *)
let deepening next s e ~kmin ~kmax ~all =
  let unused used cur f =
    next cur (fun r n _ ->
        if not (Ids.Rel_set.mem r used) then f r n (Ids.Rel_set.add r used))
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
  using @@ fun visited ->
  ignore (add visited (key s));
  let rec level depth frontier =
    if depth >= kmax || frontier = [] then []
    else begin
      let expansions = ref [] in
      List.iter
        (fun (cur, steps_rev) ->
          next cur (fun r n _ ->
              if find visited (key n) < 0 then
                expansions := (n, (r, n) :: steps_rev) :: !expansions))
        frontier;
      let expansions = List.rev !expansions in
      let completions =
        List.filter_map
          (fun (n, steps_rev) ->
            if Ids.equal_node n e then Some (List.rev steps_rev) else None)
          expansions
      in
      if completions <> [] then
        if all then completions else [ List.hd completions ]
      else
        (* none of [expansions] is [e], or visited before this level; a
           node already marked here was reached earlier in this level,
           and for a single path one way into each node is enough *)
        level (depth + 1)
          (List.filter
             (fun (n, _) ->
               let i = probe visited (key n) in
               if live visited i then all
               else begin
                 ignore (claim visited i (key n));
                 true
               end)
             expansions)
    end
  in
  level 0 [ (s, []) ]

(* The path s ~> x, then [mid], then y ~> e, read off the parent
   pointers of the forward and the backward search trees. *)
let join fwd bwd s e x mid y =
  let rec back n acc =
    if Ids.equal_node n s then acc
    else
      let r, prev = parent fwd n in
      back prev ((r, n) :: acc)
  in
  let rec forth n acc_rev =
    if Ids.equal_node n e then List.rev acc_rev
    else
      let r, nxt = parent bwd n in
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
  st : state;  (* depth and parent of every node reached *)
  mutable frontier : Ids.node list;
  mutable size : int;
  mutable depth : int;
}

let bidir_bfs ~fwd ~bwd s e ~kmax =
  using @@ fun fwd_st ->
  using @@ fun bwd_st ->
  let side next st n =
    st.mark.(add st (key n)) <- 0;
    { next; st; frontier = [ n ]; size = 1; depth = 0 }
  in
  let f = side fwd fwd_st s and b = side bwd bwd_st e in
  let best = ref None in
  let expand side other =
    let d = side.depth + 1 in
    let next = ref [] and size = ref 0 in
    List.iter
      (fun cur ->
        side.next cur (fun r n _ ->
            let k = key n in
            let i = probe side.st k in
            if not (live side.st i) then begin
              let i = claim side.st i k in
              side.st.mark.(i) <- d;
              set_parent side.st i r cur;
              next := n :: !next;
              incr size;
              let j = find other.st k in
              if j >= 0 then
                let od = other.st.mark.(j) in
                match !best with
                | Some (len, _) when len <= d + od -> ()
                | _ -> best := Some (d + od, n)
            end))
      side.frontier;
    side.frontier <- List.rev !next;
    side.size <- !size;
    side.depth <- d
  in
  let rec search () =
    match !best with
    | Some (len, meet) ->
      if len > kmax then [] else [ join fwd_st bwd_st s e meet [] meet ]
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
  st : state;  (* cost, parent and settled mark of every node reached *)
}

let cheapest ~fwd ~bwd s e =
  using @@ fun fwd_st ->
  using @@ fun bwd_st ->
  let side next st n =
    let i = add st (key n) in
    Float.Array.set st.cost i 0.0;
    st.mark.(i) <- 0;
    push st 0.0 (key n);
    { next; st }
  in
  let f = side fwd fwd_st s and b = side bwd bwd_st e in
  let mu = ref None in
  let offer c x r y =
    match !mu with
    | Some (m, _, _, _) when m <= c -> ()
    | _ -> mu := Some (c, x, r, y)
  in
  (* whether an unsettled entry is left, once the entries of settled
     nodes are dropped off the top *)
  let rec ready st =
    st.hsize > 0
    && (st.mark.(find st st.hnode.(0)) = 0
       || begin
         drop st;
         ready st
       end)
  in
  let settle t other ~forward =
    let st = t.st in
    let c = Float.Array.get st.hcost 0 and n = Ids.node_of_int st.hnode.(0) in
    drop st;
    st.mark.(find st (key n)) <- 1;
    t.next n (fun r m w ->
        if not (w >= 0.0) then raise (Invalid_cost w);
        let c' = c +. w and km = key m in
        (let j = find other.st km in
         if j >= 0 then
           let oc = Float.Array.get other.st.cost j in
           if forward then offer (c' +. oc) n r m else offer (c' +. oc) m r n);
        let i = probe st km in
        let fresh = not (live st i) in
        if fresh || (st.mark.(i) = 0 && Float.Array.get st.cost i > c') then begin
          let i = if fresh then claim st i km else i in
          if fresh then st.mark.(i) <- 0;
          Float.Array.set st.cost i c';
          set_parent st i r n;
          push st c' km
        end)
  in
  let rec search () =
    if ready f.st && ready b.st then begin
      let cf = Float.Array.get f.st.hcost 0 and cb = Float.Array.get b.st.hcost 0 in
      match !mu with
      | Some (m, _, _, _) when cf +. cb >= m -> ()
      | _ ->
        if cf <= cb then settle f b ~forward:true else settle b f ~forward:false;
        search ()
    end
  in
  search ();
  match !mu with
  | None -> None
  | Some (c, x, r, y) -> Some (c, join fwd_st bwd_st s e x [ (r, y) ] y)
