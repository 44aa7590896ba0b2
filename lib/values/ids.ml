type node = int
type rel = int

let node_of_int i = i
let rel_of_int i = i
let node_to_int i = i
let rel_to_int i = i

let compare_node = Int.compare
let compare_rel = Int.compare
let equal_node = Int.equal
let equal_rel = Int.equal

let pp_node ppf n = Format.fprintf ppf "n%d" n
let pp_rel ppf r = Format.fprintf ppf "r%d" r

module Node_map = Map.Make (Int)
module Node_set = Set.Make (Int)
module Rel_set = Set.Make (Int)
