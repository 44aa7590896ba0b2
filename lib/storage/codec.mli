(** Versioned binary codec for the Cypher value domain [V].

    One encoding serves every durable artefact: snapshot bodies, WAL
    record payloads, and parameter bindings.  The format is
    tag-prefixed and self-delimiting:

    - integers are zig-zag varints (small magnitudes take one byte);
    - floats are the raw IEEE-754 bits, little-endian, so NaN payloads,
      infinities and signed zeros round-trip exactly;
    - strings are a length varint followed by the bytes;
    - lists, maps and paths are a count followed by their elements;
    - temporal values carry their plain integer fields (days, nanos,
      offsets) so no calendar logic is needed to decode them;
    - node and relationship values store the raw identifier, which is
      what lets a reloaded snapshot rebuild paths and indexes against
      the very same ids.

    Readers never trust the input: every decoding error raises
    {!Corrupt}, which the snapshot and WAL layers turn into a clean
    [(_, string) result]. *)

open Cypher_values

exception Corrupt of string
(** Raised by all [read_*] functions on malformed input (truncated
    buffer, unknown tag, overlong varint). *)

type reader
(** A cursor over an immutable byte string. *)

val reader : ?pos:int -> string -> reader
val pos : reader -> int
val remaining : reader -> int

(** {1 Primitives} *)

val write_uvarint : Buffer.t -> int -> unit
(** Unsigned LEB128; the argument must be non-negative. *)

val read_uvarint : reader -> int

val write_string : Buffer.t -> string -> unit
val read_string : reader -> string
val write_bool : Buffer.t -> bool -> unit
val read_bool : reader -> bool

(** {1 Values} *)

val write_value : Buffer.t -> Value.t -> unit
val read_value : reader -> Value.t

val encode_value : Value.t -> string
(** Standalone encoding of one value (no version header). *)

val decode_value : string -> (Value.t, string) result
(** Inverse of {!encode_value}; rejects trailing garbage. *)
