open Cypher_values

type morphism = Edge_isomorphism | Node_isomorphism | Homomorphism

type t = {
  morphism : morphism;
  var_length_cap : int option;
  params : Value.t Value.Smap.t;
}

let default =
  {
    morphism = Edge_isomorphism;
    var_length_cap = None;
    params = Value.Smap.empty;
  }

let with_params kvs t =
  {
    t with
    params = List.fold_left (fun m (k, v) -> Value.Smap.add k v m) t.params kvs;
  }

let with_morphism m t = { t with morphism = m }

let morphism_name = function
  | Edge_isomorphism -> "edge-isomorphism"
  | Node_isomorphism -> "node-isomorphism"
  | Homomorphism -> "homomorphism"
