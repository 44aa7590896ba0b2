(** Incremental view maintenance: materialized results of read-only
    Cypher queries, kept up to date as commits land, and push
    subscriptions to their row deltas.

    A view inside the maintained fragment (one non-optional MATCH of one
    rigid path, an optional WHERE, a RETURN of scalar items and
    count/sum/avg/min/max aggregates) keeps only its result (for an
    aggregate, its groups' counts and value multisets) and is refreshed
    from each commit's graph delta: planned seed programs read the
    assignments that bind a touched entity in the previous and in the
    new published version, and the difference is applied.  Any other
    view, or one whose incremental state fails, is re-executed on the
    committed graph.  Either way a view never serves a wrong answer. *)

module Graph = Cypher_graph.Graph
module Value = Cypher_values.Value
module Engine = Cypher_engine.Engine

module Vlmap : Map.S with type key = Value.t list
(** Rows (values in sorted-column order) to a value, as frames and
    views carry them. *)

type t
(** A view manager: the registered views, their subscribers and the
    refresh thread that brings them to each published graph. *)

val create : ?mode:Engine.mode -> Graph.t -> int -> t
(** [create graph seq]: a manager whose views start from [graph] at
    commit sequence number [seq].  [mode] selects the engine for
    re-executed views (default [Planned]); a subscriber whose queue of
    unread frames reaches 1024 is disconnected. *)

val attach : ?mode:Engine.mode -> Cypher_storage.Store.t -> t
(** A manager fed by the store's publish hook: every published commit
    refreshes the views. *)

val notify : ?trace:int -> t -> Graph.t -> int -> unit
(** Hands the manager a newly committed graph and its sequence number;
    [trace] is the id of the write that published it (0 when untraced).
    Refresh is asynchronous: only the newest pending version is kept. *)

val quiesce : t -> unit
(** Blocks until every notification sent so far is reflected in every
    view. *)

val shutdown : t -> unit
(** Detaches from the store, closes every subscription and joins the
    refresh thread. *)

val materialize :
  t -> name:string -> query:string -> (int, Engine.error) result
(** Registers a view; returns the sequence number its first result
    reflects.  Update queries, invalid names and taken names are
    refused. *)

val unmaterialize : t -> string -> (unit, Engine.error) result
(** Drops a view and closes its subscriptions. *)

type view_info = {
  vi_name : string;
  vi_query : string;
  vi_seq : int;  (** the commit sequence number the result reflects *)
  vi_rows : int;
  vi_incremental : bool;  (** maintained incrementally, not re-executed *)
  vi_refreshes : int;
  vi_incrementals : int;
  vi_fallbacks : int;  (** refreshes that rebuilt or re-executed *)
  vi_subscribers : int;
  vi_error : string option;  (** the last refresh's failure *)
}

val view_infos : t -> view_info list
(** Every registered view, sorted by name. *)

type read_error =
  | Unknown_view
  | Stale of int  (** the view's current seq, below the requested floor *)
  | Failed of string

val read :
  ?min_seq:int ->
  ?wait_ms:int ->
  t ->
  string ->
  (Cypher_table.Table.t * int, read_error) result
(** A view's current result and its seq.  With [min_seq], waits up to
    [wait_ms] for the view to reach that seq (read-your-writes). *)

type frame = {
  f_view : string;
  f_seq : int;
  f_columns : string list;  (** sorted *)
  f_init : bool;  (** the subscription's opening full-state frame *)
  f_added : (Value.t list * int) list;  (** row, multiplicity *)
  f_removed : (Value.t list * int) list;
  f_trace : int;
      (** trace id of the write whose refresh produced the frame; 0 for
          init frames and untraced writes *)
}

type subscription

val subscribe : t -> query:string -> (subscription, Engine.error) result
(** Attaches to the view with this query text, or registers an
    anonymous one that is dropped with its last subscriber.  The first
    frame is the full current result; every later one carries the row
    deltas of one refresh, in seq order. *)

val unsubscribe : t -> subscription -> unit

val next_frame :
  t ->
  subscription ->
  timeout_s:float ->
  [ `Frame of frame | `Closed | `Timeout ]
(** The next frame, waiting up to [timeout_s].  [`Closed]: the
    subscription is over (unsubscribed, view dropped, manager stopping,
    or the subscriber fell too far behind). *)

val subscription_view : subscription -> string
(** The name of the view a subscription follows. *)

val view_count : t -> int

val last_refreshed_seq : t -> int
(** The newest sequence number every view has been brought to. *)
