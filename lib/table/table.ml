open Cypher_values

(* Rows live in a shared growable buffer.  A table is a [off, off+len)
   window over the buffer's array; [frontier] marks how many slots of the
   buffer have been claimed by some table.  [add_row] writes in place at
   the frontier when this table ends exactly there (the common
   row-at-a-time construction chain), so a linear sequence of appends
   costs amortised O(1) per row instead of the O(n²) of list append;
   appending to a table whose frontier was already claimed by a sibling
   copies first, which preserves persistence. *)
type buffer = { mutable data : Record.t array; mutable frontier : int }

type t = {
  table_fields : string list;
  buf : buffer;
  off : int;
  len : int;
}

let normalize_fields fields = List.sort_uniq String.compare fields

let check_uniform fields row =
  if not (List.equal String.equal (Record.dom row) fields) then
    invalid_arg
      (Format.asprintf "Table: row %a does not match fields [%s]" Record.pp row
         (String.concat "; " fields))

let of_array ~fields data =
  { table_fields = fields; buf = { data; frontier = Array.length data }; off = 0;
    len = Array.length data }

let create ~fields rows =
  let fields = normalize_fields fields in
  List.iter (check_uniform fields) rows;
  of_array ~fields (Array.of_list rows)

let unit = of_array ~fields:[] [| Record.empty |]
let empty ~fields = of_array ~fields:(normalize_fields fields) [||]
let fields t = t.table_fields
let row_count t = t.len
let is_empty t = t.len = 0

let get t i = t.buf.data.(t.off + i)

let rows t = List.init t.len (get t)
let to_seq t = Seq.init t.len (get t)

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let fold_left f init t =
  let acc = ref init in
  iter (fun row -> acc := f !acc row) t;
  !acc

let add_row t row =
  check_uniform t.table_fields row;
  let b = t.buf in
  let end_ = t.off + t.len in
  if b.frontier = end_ then begin
    if end_ = Array.length b.data then begin
      let data = Array.make (max 8 (2 * Array.length b.data)) Record.empty in
      Array.blit b.data 0 data 0 end_;
      b.data <- data
    end;
    b.data.(end_) <- row;
    b.frontier <- end_ + 1;
    { t with len = t.len + 1 }
  end
  else begin
    (* a sibling table already claimed the frontier: copy this window *)
    let data = Array.make (max 8 (2 * (t.len + 1))) Record.empty in
    Array.blit b.data t.off data 0 t.len;
    data.(t.len) <- row;
    { t with buf = { data; frontier = t.len + 1 }; off = 0; len = t.len + 1 }
  end

let union t1 t2 =
  if not (List.equal String.equal t1.table_fields t2.table_fields) then
    invalid_arg "Table.union: field mismatch";
  let data = Array.make (t1.len + t2.len) Record.empty in
  Array.blit t1.buf.data t1.off data 0 t1.len;
  Array.blit t2.buf.data t2.off data t1.len t2.len;
  of_array ~fields:t1.table_fields data

(* Growable accumulator for operations whose output size is unknown. *)
module Acc = struct
  type acc = { mutable arr : Record.t array; mutable n : int }

  let make () = { arr = Array.make 16 Record.empty; n = 0 }

  let push a row =
    if a.n = Array.length a.arr then begin
      let arr = Array.make (2 * a.n) Record.empty in
      Array.blit a.arr 0 arr 0 a.n;
      a.arr <- arr
    end;
    a.arr.(a.n) <- row;
    a.n <- a.n + 1

  let contents a = Array.sub a.arr 0 a.n
end

let of_seq ~fields seq =
  let fields = normalize_fields fields in
  let acc = Acc.make () in
  Seq.iter
    (fun row ->
      check_uniform fields row;
      Acc.push acc row)
    seq;
  of_array ~fields (Acc.contents acc)

let concat_map t f ~fields =
  let fields = normalize_fields fields in
  let acc = Acc.make () in
  iter
    (fun row ->
      List.iter
        (fun out ->
          check_uniform fields out;
          Acc.push acc out)
        (f row))
    t;
  of_array ~fields (Acc.contents acc)

let dedup t =
  let seen = Hashtbl.create 64 in
  let keep row =
    let h = Record.hash row in
    let bucket = try Hashtbl.find seen h with Not_found -> [] in
    if List.exists (Record.equal row) bucket then false
    else (
      Hashtbl.replace seen h (row :: bucket);
      true)
  in
  let acc = Acc.make () in
  iter (fun row -> if keep row then Acc.push acc row) t;
  of_array ~fields:t.table_fields (Acc.contents acc)

let filter t p =
  let acc = Acc.make () in
  iter (fun row -> if p row then Acc.push acc row) t;
  of_array ~fields:t.table_fields (Acc.contents acc)

let sort t ~by =
  let data = Array.sub t.buf.data t.off t.len in
  Array.stable_sort by data;
  of_array ~fields:t.table_fields data

(* skip and limit only move the window boundaries: O(1). *)
let skip t n =
  let k = min t.len (max 0 n) in
  { t with off = t.off + k; len = t.len - k }

let limit t n = { t with len = min t.len (max 0 n) }

let group_by t ~key =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  iter
    (fun row ->
      let k = key row in
      let h = Hashtbl.hash (List.map Value.hash k) in
      let bucket = try Hashtbl.find tbl h with Not_found -> [] in
      match
        List.find_opt (fun (k', _) -> List.equal Value.equal_total k k') bucket
      with
      | Some (_, cell) -> cell := row :: !cell
      | None ->
        let cell = ref [ row ] in
        Hashtbl.replace tbl h ((k, cell) :: bucket);
        order := (k, cell) :: !order)
    t;
  List.rev_map (fun (k, cell) -> (k, List.rev !cell)) !order

let bag_equal t1 t2 =
  List.equal String.equal t1.table_fields t2.table_fields
  && t1.len = t2.len
  &&
  let sorted t =
    let data = Array.sub t.buf.data t.off t.len in
    Array.sort Record.compare data;
    data
  in
  let a1 = sorted t1 and a2 = sorted t2 in
  let rec go i = i >= t1.len || (Record.equal a1.(i) a2.(i) && go (i + 1)) in
  go 0

let equal_ordered t1 t2 =
  List.equal String.equal t1.table_fields t2.table_fields
  && t1.len = t2.len
  &&
  let rec go i = i >= t1.len || (Record.equal (get t1 i) (get t2 i) && go (i + 1)) in
  go 0

let render ~columns t =
  let cell row c =
    match Record.find row c with
    | Some v -> Format.asprintf "%a" Value.pp_plain v
    | None -> ""
  in
  let all_rows = List.map (fun r -> List.map (cell r) columns) (rows t) in
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun w cells -> max w (String.length (List.nth cells i)))
          (String.length c) all_rows)
      columns
  in
  let line parts =
    String.concat " | "
      (List.map2 (fun w s -> s ^ String.make (max 0 (w - String.length s)) ' ') widths parts)
  in
  let sep = String.concat "-+-" (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (line columns :: sep :: List.map line all_rows)

let pp_with ~columns ppf t = Format.pp_print_string ppf (render ~columns t)

let pp ppf t =
  if t.table_fields = [] then
    Format.fprintf ppf "(no fields; %d row(s))" (row_count t)
  else pp_with ~columns:t.table_fields ppf t

let to_string t = Format.asprintf "%a" pp t
