open Cypher_values

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

type reader = { buf : string; mutable pos : int }

let reader ?(pos = 0) buf = { buf; pos }
let pos r = r.pos
let remaining r = String.length r.buf - r.pos

let read_byte r =
  if r.pos >= String.length r.buf then corrupt "unexpected end of input";
  let b = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  b

(* --- primitives ------------------------------------------------------ *)

(* Unsigned LEB128 over the native int's bit pattern.  [lsr] shifts in
   zeros regardless of sign, so the loop terminates for any pattern; a
   63-bit int takes at most 9 bytes. *)
let write_uvarint buf n =
  let rec go n =
    if n land lnot 0x7F = 0 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (n land 0x7F lor 0x80));
      go (n lsr 7)
    end
  in
  go n

let read_uvarint r =
  let rec go shift acc =
    if shift > 63 then corrupt "overlong varint";
    let b = read_byte r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

(* Zig-zag: small magnitudes of either sign encode short. *)
let write_int buf n = write_uvarint buf ((n lsl 1) lxor (n asr 62))

let read_int r =
  let u = read_uvarint r in
  (u lsr 1) lxor (-(u land 1))

let write_int64 buf x =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xFF))
  done

let read_int64 r =
  let x = ref 0L in
  for i = 0 to 7 do
    let b = read_byte r in
    x := Int64.logor !x (Int64.shift_left (Int64.of_int b) (8 * i))
  done;
  !x

let write_float buf f = write_int64 buf (Int64.bits_of_float f)
let read_float r = Int64.float_of_bits (read_int64 r)

let write_string buf s =
  write_uvarint buf (String.length s);
  Buffer.add_string buf s

let read_string r =
  let n = read_uvarint r in
  if n < 0 || n > remaining r then corrupt "string length %d exceeds input" n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let write_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let read_bool r =
  match read_byte r with
  | 0 -> false
  | 1 -> true
  | b -> corrupt "invalid boolean byte 0x%02x" b

(* --- values ---------------------------------------------------------- *)

(* Tags are part of the on-disk format: never renumber, only append. *)
let tag_null = 0
and tag_false = 1
and tag_true = 2
and tag_int = 3
and tag_float = 4
and tag_string = 5
and tag_list = 6
and tag_map = 7
and tag_node = 8
and tag_rel = 9
and tag_path = 10
and tag_date = 11
and tag_local_time = 12
and tag_time = 13
and tag_local_datetime = 14
and tag_datetime = 15
and tag_duration = 16

let rec write_value buf (v : Value.t) =
  let tag t = Buffer.add_char buf (Char.chr t) in
  match v with
  | Null -> tag tag_null
  | Bool false -> tag tag_false
  | Bool true -> tag tag_true
  | Int n ->
    tag tag_int;
    write_int buf n
  | Float f ->
    tag tag_float;
    write_float buf f
  | String s ->
    tag tag_string;
    write_string buf s
  | List vs ->
    tag tag_list;
    write_uvarint buf (List.length vs);
    List.iter (write_value buf) vs
  | Map m ->
    tag tag_map;
    write_uvarint buf (Value.Smap.cardinal m);
    Value.Smap.iter
      (fun k v ->
        write_string buf k;
        write_value buf v)
      m
  | Node n ->
    tag tag_node;
    write_uvarint buf (Ids.node_to_int n)
  | Rel r ->
    tag tag_rel;
    write_uvarint buf (Ids.rel_to_int r)
  | Path p ->
    tag tag_path;
    write_uvarint buf (Ids.node_to_int p.path_start);
    write_uvarint buf (List.length p.path_steps);
    List.iter
      (fun (r, n) ->
        write_uvarint buf (Ids.rel_to_int r);
        write_uvarint buf (Ids.node_to_int n))
      p.path_steps
  | Temporal (Date d) ->
    tag tag_date;
    write_int buf d
  | Temporal (Local_time ns) ->
    tag tag_local_time;
    write_int64 buf ns
  | Temporal (Time (ns, off)) ->
    tag tag_time;
    write_int64 buf ns;
    write_int buf off
  | Temporal (Local_datetime (d, ns)) ->
    tag tag_local_datetime;
    write_int buf d;
    write_int64 buf ns
  | Temporal (Datetime (d, ns, off)) ->
    tag tag_datetime;
    write_int buf d;
    write_int64 buf ns;
    write_int buf off
  | Temporal (Duration { months; days; nanos }) ->
    tag tag_duration;
    write_int buf months;
    write_int buf days;
    write_int64 buf nanos

let rec read_value r : Value.t =
  let t = read_byte r in
  if t = tag_null then Null
  else if t = tag_false then Bool false
  else if t = tag_true then Bool true
  else if t = tag_int then Int (read_int r)
  else if t = tag_float then Float (read_float r)
  else if t = tag_string then String (read_string r)
  else if t = tag_list then begin
    let n = read_uvarint r in
    if n > remaining r then corrupt "list length %d exceeds input" n;
    List (List.init n (fun _ -> read_value r))
  end
  else if t = tag_map then begin
    let n = read_uvarint r in
    if n > remaining r then corrupt "map length %d exceeds input" n;
    let m = ref Value.Smap.empty in
    for _ = 1 to n do
      let k = read_string r in
      m := Value.Smap.add k (read_value r) !m
    done;
    Map !m
  end
  else if t = tag_node then Node (Ids.node_of_int (read_uvarint r))
  else if t = tag_rel then Rel (Ids.rel_of_int (read_uvarint r))
  else if t = tag_path then begin
    let path_start = Ids.node_of_int (read_uvarint r) in
    let n = read_uvarint r in
    if n > remaining r then corrupt "path length %d exceeds input" n;
    let path_steps =
      List.init n (fun _ ->
          let rel = Ids.rel_of_int (read_uvarint r) in
          (rel, Ids.node_of_int (read_uvarint r)))
    in
    Path { path_start; path_steps }
  end
  else if t = tag_date then Temporal (Date (read_int r))
  else if t = tag_local_time then Temporal (Local_time (read_int64 r))
  else if t = tag_time then
    let ns = read_int64 r in
    Temporal (Time (ns, read_int r))
  else if t = tag_local_datetime then
    let d = read_int r in
    Temporal (Local_datetime (d, read_int64 r))
  else if t = tag_datetime then begin
    let d = read_int r in
    let ns = read_int64 r in
    Temporal (Datetime (d, ns, read_int r))
  end
  else if t = tag_duration then begin
    let months = read_int r in
    let days = read_int r in
    Temporal (Duration { months; days; nanos = read_int64 r })
  end
  else corrupt "unknown value tag 0x%02x" t

let encode_value v =
  let buf = Buffer.create 64 in
  write_value buf v;
  Buffer.contents buf

let decode_value s =
  match
    let r = reader s in
    let v = read_value r in
    if remaining r <> 0 then corrupt "%d trailing bytes after value" (remaining r);
    v
  with
  | v -> Ok v
  | exception Corrupt msg -> Error msg
