(* Table-driven CRC-32.  OCaml's native int is at least 63 bits on every
   platform we target, so the 32-bit arithmetic is done in plain ints
   masked to 32 bits. *)

let poly = 0xEDB88320
let mask = 0xFFFFFFFF

(* Built eagerly: a lazy table forced for the first time by two domains
   at once raises [Lazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := (!c lsr 1) lxor poly else c := !c lsr 1
      done;
      !c)

let digest_sub ?(crc = 0) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.digest_sub";
  let c = ref (crc lxor mask) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor mask land mask

let digest ?crc s = digest_sub ?crc s ~pos:0 ~len:(String.length s)
