(* The bench kit: recorded samples with exact quantiles, /proc readers
   for the server child and the host, and one JSON emitter whose metrics
   always carry their unit.

   Quantiles come from the recorded samples themselves, never from
   {!Cypher_obs.Registry} histograms: those report power-of-two bucket
   bounds, which cannot resolve a 10 % change. *)

let now_ns = Cypher_obs.Clock.now_ns

(* --- samples ------------------------------------------------------------ *)

type samples = { mutable a : int array; mutable n : int }

let samples () = { a = Array.make 256 0; n = 0 }

let add s v =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let count s = s.n

let merge parts =
  let m = samples () in
  List.iter (fun s -> for i = 0 to s.n - 1 do add m s.a.(i) done) parts;
  m

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort compare a;
  a

(* Every sample times [f]. *)
let scale s f = { a = Array.init s.n (fun i -> int_of_float (float s.a.(i) *. f)); n = s.n }

let mean s =
  if s.n = 0 then None
  else Some (float (Array.fold_left ( + ) 0 (Array.sub s.a 0 s.n)) /. float s.n)

(* Nearest-rank quantile of a sorted array.  A quantile is reported only
   when at least ten samples lie beyond it: below that it is an extreme
   value, not a percentile. *)
let quantile sorted q =
  let n = Array.length sorted in
  let k = max 1 (int_of_float (Float.ceil (q *. float n))) in
  if n - k < 10 then None else Some sorted.(k - 1)

(* The median of a few floats: set-up times, the servers' peak RSS. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- /proc -------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* /proc reports CPU time in USER_HZ ticks, which Linux fixes at 100/s
   for user space whatever the kernel's own tick rate. *)
let user_hz = 100.

(* utime + stime of a process, in seconds. *)
let proc_cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may hold spaces: fields are counted after ')' *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* fields 14 and 15 of stat(5); field 3 is f.(0) *)
  float (int_of_string f.(11) + int_of_string f.(12)) /. user_hz

(* Peak resident set (VmHWM) of a process, in MB. *)
let proc_hwm_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  let kb =
    List.find_map int_of_string_opt
      (String.split_on_char ' ' (String.sub line 6 (String.length line - 6)))
  in
  float (Option.get kb) /. 1024.

(* Host-wide (total, steal) CPU ticks from the first line of /proc/stat. *)
let host_ticks () =
  let s = read_file "/proc/stat" in
  let first = List.hd (String.split_on_char '\n' s) in
  let f =
    List.filter_map int_of_string_opt (String.split_on_char ' ' first)
  in
  let steal = match List.nth_opt f 7 with Some v -> v | None -> 0 in
  (List.fold_left ( + ) 0 f, steal)

(* --- host speed --------------------------------------------------------- *)

(* On shared virtual machines the host's own speed drifts: a fixed CPU
   loop ran from 0.76 to 1.42 times its median within five minutes, and
   its 30 s means spread by 0.08.  Every time the benchmark takes moves
   with it, so the end-to-end times are scaled by the host's speed,
   measured as the rate of a fixed piece of allocating, pointer-chasing
   work — an integer map and a hash table built from scratch — timed in
   the client while the server idles.  It runs the same on every
   workload and every commit, and the program under test cannot change
   it.  Over ten runs per workload, the log of throughput and of p50
   latency correlated with the log of this speed by 0.57 to 0.84
   (README.md, Host speed). *)

module Int_map = Map.Make (Int)

let probe_unit () =
  let m = ref Int_map.empty in
  for i = 0 to 199 do
    m := Int_map.add ((i * 7919) land 1023) i !m
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 63 do
    Hashtbl.replace h ((i * 104729) land 4095) i
  done;
  Int_map.cardinal !m + Hashtbl.length h

(* The rate of [probe_unit], in units per second, that counts as speed
   1.  The 2-vCPU Intel Xeon virtual machine the benchmark was built on
   ran at 0.6 to 1.3 of it, median 0.93. *)
let reference_rate = 50_000.

(* The host's speed now, relative to that machine, from [seconds] of
   probe work after a full major collection. *)
let host_speed ~seconds =
  Gc.full_major ();
  let t0 = now_ns () and k = ref 0 in
  let stop = t0 + int_of_float (seconds *. 1e9) in
  while now_ns () < stop do
    ignore (Sys.opaque_identity (probe_unit ()));
    incr k
  done;
  float !k /. (float (now_ns () - t0) /. 1e9) /. reference_rate

(* --- JSON --------------------------------------------------------------- *)

type json =
  | Int of int
  | Num of float
  | Str of string
  | Bool of bool
  | Obj of (string * json) list

(* The shortest decimal that reads back as the same float: every digit
   the measurement has, and none it does not. *)
let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec json_to_string = function
  | Int i -> string_of_int i
  | Num f when Float.is_finite f -> num_to_string f
  | Num _ -> "null"
  | Str s -> "\"" ^ Cypher_obs.Trace.json_escape s ^ "\""
  | Bool b -> string_of_bool b
  | Obj kv ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> json_to_string (Str k) ^ ": " ^ json_to_string v) kv)
    ^ "}"

(* The first value of [key] in one flat JSON line, as raw text (quotes
   stripped).  Enough for the span lines {!Cypher_obs.Trace} emits, whose
   fixed fields all precede the free-form attributes. *)
let json_field line key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length line and m = String.length pat in
  let rec matches i j = j = m || (line.[i + j] = pat.[j] && matches i (j + 1)) in
  let rec find i =
    if i + m > n then None else if matches i 0 then Some (i + m) else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i when i < n && line.[i] = '"' ->
    Some (String.sub line (i + 1) (String.index_from line (i + 1) '"' - i - 1))
  | Some i ->
    let j = ref i in
    while !j < n && line.[!j] <> ',' && line.[!j] <> '}' do incr j done;
    Some (String.sub line i (!j - i))

(* --- metrics ------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float; n : int option }

let metric ?n name unit_ value = { name; unit_; value; n }

(* One human-readable line per metric, with its sample count. *)
let print_metric m =
  Printf.printf "  %-34s %14s %-8s%s\n" m.name (num_to_string m.value) m.unit_
    (match m.n with Some n -> Printf.sprintf " (n=%d)" n | None -> "")

(* The final line of standard output: the machine-readable result. *)
let result_line ~correct ~attempted ~failed metrics =
  json_to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun m -> (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ]))
                metrics) );
       ])
