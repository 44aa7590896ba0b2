(** Tables: bags (multisets) of uniform records (paper, Section 4.1).

    "If A is a set of names, then a table with fields A is a bag, or
    multiset, of records u such that dom(u) = A."  [T ⊎ T'] is bag union
    (multiplicities add); [ε(T)] is duplicate elimination.

    Rows are kept in a deterministic order (insertion order) because real
    Cypher implementations are order-preserving and the paper's worked
    examples print rows in a specific order; bag equality is also
    provided for order-insensitive comparison. *)

open Cypher_values

type t

val unit : t
(** [T()]: the table containing the single empty record — the starting
    point of query evaluation (Section 4). *)

val empty : fields:string list -> t
(** No rows at all. *)

val create : fields:string list -> Record.t list -> t
(** Raises [Invalid_argument] if some row's domain differs from
    [fields]. *)

val fields : t -> string list
(** Sorted field names. *)

val rows : t -> Record.t list
val to_seq : t -> Record.t Seq.t
val row_count : t -> int
val is_empty : t -> bool

val iter : (Record.t -> unit) -> t -> unit
val fold_left : ('a -> Record.t -> 'a) -> 'a -> t -> 'a

val add_row : t -> Record.t -> t
(** Appends; the row must be uniform with the table.  A linear chain of
    appends runs in amortised O(1) per row (rows are written into a
    shared pre-sized buffer); appending to an older version of a table
    copies its window first. *)

val of_seq : fields:string list -> Record.t Seq.t -> t
(** Materialises a row stream into a table, checking uniformity row by
    row — the executor's sink, with no intermediate list. *)

val union : t -> t -> t
(** [T ⊎ T']: bag union.  Both tables must have the same fields.
    O(|T| + |T'|). *)

val concat_map : t -> (Record.t -> Record.t list) -> fields:string list -> t
(** The workhorse for clause semantics: maps every row to a bag of rows
    over the new field set and takes the bag union. *)

val dedup : t -> t
(** [ε(T)]: keeps the first occurrence of each distinct row (equality by
    {!Record.equal}, under which null = null). *)

val filter : t -> (Record.t -> bool) -> t

val sort : t -> by:(Record.t -> Record.t -> int) -> t
(** Stable sort — ORDER BY must preserve the relative order of ties. *)

val skip : t -> int -> t
(** Drops the first [n] rows (all of them when [n] exceeds the row
    count, none when [n <= 0]).  O(1): only the window moves. *)

val limit : t -> int -> t
(** Keeps the first [n] rows.  O(1). *)

val group_by : t -> key:(Record.t -> Value.t list) -> (Value.t list * Record.t list) list
(** Groups rows by key (using {!Value.compare_total} on key vectors);
    groups appear in order of first occurrence, rows keep table order. *)

val bag_equal : t -> t -> bool
(** Same fields and same rows with the same multiplicities, order
    ignored. *)

val equal_ordered : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Renders the table the way the paper's figures do: a header row of
    field names and one line per record, strings unquoted. *)

val pp_with : columns:string list -> Format.formatter -> t -> unit
(** Like {!pp} but with an explicit column order (the paper prints fields
    in query order, not alphabetically). *)

val to_string : t -> string
