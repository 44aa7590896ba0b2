(** One value per systhread, on any domain.

    Reading and writing the calling thread's value costs an array access
    for the first 8192 threads a process creates; later threads use a
    mutex-guarded table that keeps an entry only while the thread's value
    differs from the default. *)

type 'a t

val make : 'a -> 'a t
(** [make default]: every thread's value starts as [default].  Use an
    immediate ([0], [None], ...): {!set} recognises the default by
    physical equality. *)

val get : 'a t -> 'a
(** The calling thread's value. *)

val set : 'a t -> 'a -> unit
(** Sets the calling thread's value.  Setting the default is a reset: it
    drops the thread's overflow entry, if it has one. *)
