(** A small LRU map from statement texts to cached compilation results.

    The cache is deliberately generic: the engine stores one entry per
    statement text in it (the dispatched statement, its class, its
    fingerprint and its prepared form), but the structure only knows
    about string keys, recency and lookup counts.  Eviction is
    least-recently-used over 128 entries; at that size the linear
    eviction scan is negligible next to a single parse. *)

type 'a t

val create : unit -> 'a t

val find : 'a t -> string -> ('a * bool) option
(** A counted lookup, refreshing the entry's recency.  [Some (v, hit)]:
    [hit] is false on the first find of an entry {!add}ed with
    [~counted:false], which counts as the miss that entry's parse stood
    for. *)

val peek : 'a t -> string -> 'a option
(** An uncounted lookup, refreshing the entry's recency. *)

val add : ?counted:bool -> 'a t -> string -> 'a -> unit
(** Inserts or replaces; evicts the least recently used entry when the
    cache is full.  [~counted:false] (default [true]) marks an entry
    stored after an uncounted lookup. *)

val hits : 'a t -> int
(** Number of {!find} calls that counted a hit. *)

val misses : 'a t -> int
val evictions : 'a t -> int
