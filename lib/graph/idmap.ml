let bits = 5
let width = 1 lsl bits
let mask = width - 1

(* A leaf's [vals] always has [width] slots; those whose bit is clear in
   [present] hold a value bound elsewhere in the same leaf, never a
   removed one.  A branch has [width] children.  Leaves sit at shift 0,
   so a branch at shift [s] files key [k] under child
   [(k lsr s) land mask]. *)
type 'a node =
  | Empty
  | Leaf of { present : int; vals : 'a array }
  | Branch of 'a node array

(* The root is at [shift]: the map holds keys below [32 lsl shift]. *)
type 'a t = { shift : int; root : 'a node }

let empty = { shift = 0; root = Empty }
let is_empty t = match t.root with Empty -> true | _ -> false
let in_range k t = k >= 0 && k lsr t.shift <= mask
let[@inline] bound present i = present land (1 lsl i) <> 0

let rec find_in k node shift =
  match node with
  | Branch a ->
    find_in k (Array.unsafe_get a ((k lsr shift) land mask)) (shift - bits)
  | Leaf { present; vals } ->
    let i = k land mask in
    if bound present i then Array.unsafe_get vals i else raise Not_found
  | Empty -> raise Not_found

let find k t =
  if in_range k t then find_in k t.root t.shift else raise Not_found

let rec find_opt_in k node shift =
  match node with
  | Branch a ->
    find_opt_in k (Array.unsafe_get a ((k lsr shift) land mask)) (shift - bits)
  | Leaf { present; vals } ->
    let i = k land mask in
    if bound present i then Some (Array.unsafe_get vals i) else None
  | Empty -> None

let find_opt k t = if in_range k t then find_opt_in k t.root t.shift else None

let rec mem_in k node shift =
  match node with
  | Branch a ->
    mem_in k (Array.unsafe_get a ((k lsr shift) land mask)) (shift - bits)
  | Leaf { present; _ } -> bound present (k land mask)
  | Empty -> false

let mem k t = in_range k t && mem_in k t.root t.shift

(* A fresh value array: the slots bound in [keep] copied from [vals],
   every other slot [fill]. *)
let refill ~keep vals fill =
  let a = Array.make width fill in
  for j = 0 to mask do
    if bound keep j then Array.unsafe_set a j (Array.unsafe_get vals j)
  done;
  a

let rec add_in k v node shift =
  if shift = 0 then
    let bit = 1 lsl (k land mask) in
    match node with
    | Leaf { present; vals } ->
      (* [v] refills the free slots too, so none keeps a replaced value *)
      let keep = present land lnot bit in
      Leaf { present = present lor bit; vals = refill ~keep vals v }
    | _ -> Leaf { present = bit; vals = Array.make width v }
  else
    let i = (k lsr shift) land mask in
    let a =
      match node with Branch a -> Array.copy a | _ -> Array.make width Empty
    in
    a.(i) <- add_in k v a.(i) (shift - bits);
    Branch a

let add k v t =
  if k < 0 then invalid_arg "Idmap.add: negative key";
  let rec grow t =
    if k lsr t.shift <= mask then t
    else
      let root =
        match t.root with
        | Empty -> Empty
        | r ->
          let a = Array.make width Empty in
          a.(0) <- r;
          Branch a
      in
      grow { shift = t.shift + bits; root }
  in
  let t = grow t in
  { t with root = add_in k v t.root t.shift }

let rec lowest_bit present j =
  if bound present j then j else lowest_bit present (j + 1)

let rec remove_in k node shift =
  match node with
  | Empty -> node
  | Leaf { present; vals } ->
    let i = k land mask in
    if not (bound present i) then node
    else
      let present = present land lnot (1 lsl i) in
      if present = 0 then Empty
      else
        let fill = Array.unsafe_get vals (lowest_bit present 0) in
        Leaf { present; vals = refill ~keep:present vals fill }
  | Branch a ->
    let i = (k lsr shift) land mask in
    let child = a.(i) in
    let child' = remove_in k child (shift - bits) in
    if child' == child then node
    else
      let a = Array.copy a in
      a.(i) <- child';
      if Array.for_all (function Empty -> true | _ -> false) a then Empty
      else Branch a

let remove k t =
  if not (in_range k t) then t
  else
    let root = remove_in k t.root t.shift in
    if root == t.root then t
    else match root with Empty -> empty | _ -> { t with root }

let update k f t =
  let old = find_opt k t in
  match (old, f old) with
  | None, None -> t
  | Some _, None -> remove k t
  | Some o, Some v when o == v -> t
  | _, Some v -> add k v t

let rec fold_in f node base shift acc =
  match node with
  | Empty -> acc
  | Leaf { present; vals } ->
    let acc = ref acc in
    for i = 0 to mask do
      if bound present i then
        acc := f (base lor i) (Array.unsafe_get vals i) !acc
    done;
    !acc
  | Branch a ->
    let acc = ref acc in
    for i = 0 to mask do
      acc :=
        fold_in f (Array.unsafe_get a i) (base lor (i lsl shift))
          (shift - bits) !acc
    done;
    !acc

let fold f t acc = fold_in f t.root 0 t.shift acc

let rec fold_right_in f node base shift acc =
  match node with
  | Empty -> acc
  | Leaf { present; vals } ->
    let acc = ref acc in
    for i = mask downto 0 do
      if bound present i then
        acc := f (base lor i) (Array.unsafe_get vals i) !acc
    done;
    !acc
  | Branch a ->
    let acc = ref acc in
    for i = mask downto 0 do
      acc :=
        fold_right_in f (Array.unsafe_get a i) (base lor (i lsl shift))
          (shift - bits) !acc
    done;
    !acc

let fold_right f t acc = fold_right_in f t.root 0 t.shift acc
let iter f t = fold (fun k v () -> f k v) t ()
let bindings t = fold_right (fun k v acc -> (k, v) :: acc) t []
