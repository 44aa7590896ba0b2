(** A small LRU map from statement texts to cached compilation results.

    The cache is deliberately generic: the engine stores dispatched
    statements and their prepared forms in it, but the structure only
    knows about string keys and recency.  Eviction is
    least-recently-used over 128 entries; at that size the linear
    eviction scan is negligible next to a single parse. *)

type 'a t

val create : unit -> 'a t

val find : 'a t -> string -> 'a option
(** Refreshes the entry's recency on a hit. *)

val add : 'a t -> string -> 'a -> unit
(** Inserts or replaces; evicts the least recently used entry when the
    cache is full. *)

val hits : 'a t -> int
(** Number of {!find} calls that found an entry. *)

val misses : 'a t -> int
val evictions : 'a t -> int
