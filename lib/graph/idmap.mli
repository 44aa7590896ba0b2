(** Persistent maps keyed by dense non-negative ids.

    A 32-way array trie in the style of Bagwell's array-mapped tries and
    Clojure's persistent vector.  Each level consumes five bits of the
    key, most significant first; a leaf is a 32-slot value array with a
    presence bitmap, a branch an array of 32 children.  The trie grows by
    one level when a key reaches [32^(levels+1)], so a lookup is one
    array read per level — four reads for a million ids — where a
    balanced tree compares its way down some twenty nodes.

    The map is persistent by path copying: an update copies the arrays on
    the key's path and shares everything else.  No array is written after
    the map holding it has been returned, so a map can be read from any
    number of domains with no lock while newer versions are built from
    it.

    A removed or replaced value is not kept reachable: the slots of a
    leaf that hold no binding are filled with a value bound in the same
    leaf, and a leaf or branch left with no binding collapses away. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool

val find : int -> 'a t -> 'a
(** Raises [Not_found] for an unbound key, a negative one included. *)

val find_opt : int -> 'a t -> 'a option
val mem : int -> 'a t -> bool

val add : int -> 'a -> 'a t -> 'a t
(** Raises [Invalid_argument] for a negative key. *)

val remove : int -> 'a t -> 'a t
(** The map itself, physically, when the key is unbound. *)

val update : int -> ('a option -> 'a option) -> 'a t -> 'a t
(** As [Map.S.update]: the map itself, physically, when [f] leaves the
    binding (or its absence) as it was. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Ascending key order. *)

val fold_right : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Descending key order, so consing builds an ascending list. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Ascending key order. *)

val bindings : 'a t -> (int * 'a) list
(** Ascending key order. *)
