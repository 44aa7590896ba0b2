(* The standing end-to-end benchmark.

   One run prepares a seeded dataset, starts the real server — Store.open_
   plus Server.start with the default configuration, as `cypher_cli
   --serve` does — as a child process on a fresh copy of the store, drives
   one named workload over TCP (client → wire → session → parse → plan →
   execute → commit → encode → wire), checks every answer against the
   dataset's oracle, and prints every metric with its unit and sample
   count.  The last line of standard output is one JSON object: the
   end-to-end metrics, their times scaled to a reference host speed
   (Kit.host_speed), or with [--trace 1] the per-layer split.

     standing.exe --workload snb-read --seed 1 --seconds 15 --trace 0

   See README.md for the workloads, the metrics and how to compare two
   commits. *)

module Client = Cypher_server.Client
module Server = Cypher_server.Server
module Protocol = Cypher_server.Protocol
module Store = Cypher_storage.Store
module Trace = Cypher_obs.Trace
module Value = Cypher_values.Value
module D = Dataset

(* --- the server child --------------------------------------------------- *)

(* Serves [dir] until SIGTERM or until the parent is gone.  With [spans],
   every completed span is kept in memory and written there on the way
   out, so writing the trace costs nothing while requests are timed. *)
let serve_child dir spans =
  let lines = ref [] and lock = Mutex.create () in
  if spans <> None then
    Trace.set_sink
      (Some
         (fun l ->
           Mutex.lock lock;
           lines := l :: !lines;
           Mutex.unlock lock));
  let die e =
    prerr_endline ("standing server: " ^ e);
    exit 2
  in
  match Store.open_ dir with
  | Error e -> die e
  | Ok store -> (
    match Server.start ~config:{ Server.default_config with Server.port = 0 } store with
    | Error e -> die e
    | Ok server ->
      let stop = ref false in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
      let parent = Unix.getppid () in
      Printf.printf "%d\n%!" (Server.port server);
      while (not !stop) && Unix.getppid () = parent do
        Unix.sleepf 0.2
      done;
      Trace.set_sink None;
      Option.iter
        (fun path ->
          Mutex.lock lock;
          Out_channel.with_open_bin path (fun oc ->
              List.iter
                (fun l ->
                  output_string oc l;
                  output_char oc '\n')
                (List.rev !lines)))
        spans;
      (* the store directory is thrown away: no checkpoint *)
      exit 0)

(* --- children and directories ------------------------------------------- *)

let live = ref []

let stop_child pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let spawn ~dir ~spans =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--serve-child"; dir ]
    @ match spans with Some p -> [ "--spans"; p ] | None -> []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  live := pid :: !live;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  close_in ic;
  match Option.bind line int_of_string_opt with
  | Some port -> (pid, port)
  | None ->
    stop_child pid;
    failwith "the server child exited before it listened"

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let copy_file src dst =
  In_channel.with_open_bin src (fun ic ->
      Out_channel.with_open_bin dst (fun oc ->
          let buf = Bytes.create 65536 in
          let rec go () =
            let n = input ic buf 0 65536 in
            if n > 0 then begin
              output oc buf 0 n;
              go ()
            end
          in
          go ()))

let connect port =
  match Client.connect ~host:"127.0.0.1" ~port ~timeout:30. () with
  | Ok c -> c
  | Error e -> failwith e

(* --- workloads ------------------------------------------------------------ *)

type op = Point | Hop1 | Hop2 | Create | Link | Set_city | View | Shortest | Cheapest | Scan

let class_names =
  [| "point"; "hop1"; "hop2"; "write"; "view"; "shortest"; "cheapest"; "scan" |]

let class_of = function
  | Point -> 0
  | Hop1 -> 1
  | Hop2 -> 2
  | Create | Link | Set_city -> 3
  | View -> 4
  | Shortest -> 5
  | Cheapest -> 6
  | Scan -> 7

type workload = {
  name : string;
  spec : D.spec;
  conns : int;
  mix : (op * int) list;  (* each op's count in a shuffled block (see next_op) *)
  inline : bool;  (* literals inlined into the text instead of parameters *)
  view : bool;  (* the [cities] view is materialized at set-up *)
}

let social_large = { D.ds_name = "social-100k"; people = 100_000; avg_friends = 4 }
let social_small = { D.ds_name = "social-20k"; people = 20_000; avg_friends = 8 }

(* Why each workload exists is in README.md and BENCHMARK.json: in short,
   snb-read is the plan-cache-hitting OLTP read path, snb-mixed adds
   durable writes and a maintained view beside it, paths loads the path
   kernel, and adhoc makes every text new so parse and plan run on every
   request. *)
let workloads =
  [
    { name = "snb-read"; spec = social_large; conns = 2;
      mix = [ (Point, 50); (Hop1, 30); (Hop2, 20) ]; inline = false; view = false };
    { name = "snb-mixed"; spec = social_large; conns = 2;
      mix =
        [ (Point, 38); (Hop1, 23); (Hop2, 15); (View, 4); (Create, 7); (Link, 7);
          (Set_city, 6) ];
      inline = false; view = true };
    { name = "paths"; spec = social_small; conns = 1;
      mix = [ (Shortest, 32); (Cheapest, 3) ]; inline = false; view = false };
    { name = "adhoc"; spec = social_small; conns = 2;
      mix = [ (Point, 35); (Hop1, 30); (Hop2, 30); (Scan, 5) ]; inline = true;
      view = false };
  ]

let q_point = "MATCH (p:Person {name: $name}) RETURN p.name AS name, p.city AS city"
let q_hop1 = "MATCH (p:Person {name: $name})-[:FRIEND]-(f) RETURN f.name AS name, f.city AS city"

let q_hop2 =
  "MATCH (p:Person {name: $name})-[:FRIEND]-()-[:FRIEND]-(q) RETURN count(DISTINCT q) AS n"

let q_create = "CREATE (:Person {name: $n, city: $c})"

let q_link =
  "MATCH (a:Person {name: $a}), (b:Person {name: $b}) CREATE (a)-[:FRIEND {since: $s}]->(b)"

let q_set = "MATCH (p:Person {name: $name}) SET p.city = $c"
let q_view = "MATCH (p:Person) RETURN p.city AS city, count(*) AS c"

let q_shortest =
  "MATCH (a:Person {name:$a}),(b:Person {name:$b}) MATCH p = \
   shortestPath((a)-[:FRIEND*]-(b)) RETURN length(p)"

let q_cheapest =
  "MATCH (a:Person {name:$a}),(b:Person {name:$b}) MATCH p = \
   cheapestPath((a)-[:FRIEND*]-(b), 'since') RETURN reduce(s = 0, r IN \
   relationships(p) | s + r.since)"

let q_scan city digit =
  Printf.sprintf
    "MATCH (p:Person) WHERE p.city = '%s' AND p.name ENDS WITH '%d' RETURN count(*) AS n"
    city digit

(* Whether [text] contains [pat]. *)
let contains text pat =
  let n = String.length text and m = String.length pat in
  let rec at i = i + m <= n && (String.sub text i m = pat || at (i + 1)) in
  at 0

(* Replaces [$name] by the quoted literal: adhoc's texts rarely repeat. *)
let inline_name text name =
  match String.split_on_char '$' text with
  | [ before; after ] ->
    (* [after] starts with "name" *)
    before ^ "'" ^ name ^ "'" ^ String.sub after 4 (String.length after - 4)
  | _ -> invalid_arg "inline_name"

(* --- one run's shared state ---------------------------------------------- *)

(* A run's curated path pairs, walked in order by every connection of
   every server of the run, so a run covers the whole list rather than
   replaying its first pairs once per server. *)
type schedule = { pairs : D.pair array; next : int Atomic.t }

let next_pair s = s.pairs.(Atomic.fetch_and_add s.next 1 mod Array.length s.pairs)

type shared = {
  w : workload;
  d : D.t;
  seed : int;
  (* persons whose answers writes may have changed; marked before the
     write is sent and read after an answer arrives, so an answer that
     reflects a write always sees its mark *)
  set_touched : bool array;
  link_touched : bool array;
  creates_sent : int Atomic.t;
  creates_acked : int Atomic.t;
  max_seq : int Atomic.t;
  shortest : schedule;
  cheapest : schedule;
}

type worker = {
  wid : int;
  client : Client.t;
  rng : D.rng;
  mutable lat : Kit.samples array;  (* per class, ns *)
  mutable busy_ns : int;  (* time in the window's parts, to the last answer *)
  mutable tally : Check.tally;
  mutable last_seq : int;
  mutable k : int;  (* writes sent: names the persons created *)
  mutable block : op array;  (* the current shuffled block of the mix *)
  mutable pos : int;
  mutable traced : (int * int * int) list;  (* trace id, class, ns *)
  (* per class, the last request and its answer: real frames for the
     codec timing *)
  frames : (Protocol.request * ((string * Value.t) list list * int)) option array;
}

(* [phase] numbers the run's servers: each draws its own stream. *)
let new_worker sh client wid phase =
  {
    wid;
    client;
    rng = D.rng ((sh.seed * 7919) + (wid * 104729) + (phase * 1299709));
    lat = Array.init (Array.length class_names) (fun _ -> Kit.samples ());
    busy_ns = 0;
    tally = Check.tally ();
    last_seq = 0;
    k = 0;
    block = [||];
    pos = 0;
    traced = [];
    frames = Array.make (Array.length class_names) None;
  }

(* Clears what a window records; the window then starts a fresh block. *)
let reset w =
  w.lat <- Array.init (Array.length class_names) (fun _ -> Kit.samples ());
  w.busy_ns <- 0;
  w.pos <- Array.length w.block;
  w.tally <- Check.tally ();
  w.traced <- []

(* The next operation.  Draws come in shuffled blocks that hold each
   operation exactly its weight's number of times, so a window's class
   composition does not wander with the draws: a rare expensive class
   (cheapest, scan) would otherwise move throughput by more than the
   bounds allow. *)
let next_op mix w =
  if w.pos = Array.length w.block then begin
    let b = Array.of_list (List.concat_map (fun (op, n) -> List.init n (fun _ -> op)) mix) in
    for i = Array.length b - 1 downto 1 do
      let j = D.int w.rng (i + 1) in
      let t = b.(i) in
      b.(i) <- b.(j);
      b.(j) <- t
    done;
    w.block <- b;
    w.pos <- 0
  end;
  w.pos <- w.pos + 1;
  w.block.(w.pos - 1)

(* A request's answer as column-keyed rows and the commit seq. *)
let answer = function
  | Ok rs -> Ok (List.map (List.combine rs.Client.columns) rs.Client.rows, rs.Client.seq)
  | Error e -> Error (Client.error_message e)

let query client ?(options = []) text params =
  answer (Client.query ~params ~options client text)

let view_read client ~min_seq =
  answer (Client.view_read ~min_seq ~wait_ms:5000 client ~name:"cities")

(* A read request of class [op]: its text, its parameters and the check
   of its rows.  Keys are uniform over every person; path pairs come
   from the run's curated schedule. *)
let read_request sh r op =
  let d = sh.d in
  let person () = D.int r d.D.spec.D.people in
  let by_name text i =
    if sh.w.inline then (inline_name text d.D.names.(i), [])
    else (text, [ ("name", Value.String d.D.names.(i)) ])
  in
  let pair_request text schedule =
    let p = next_pair schedule in
    ( text,
      [ ("a", Value.String d.D.names.(p.D.src)); ("b", Value.String d.D.names.(p.D.dst)) ],
      fun rows -> Check.count (Some p.D.expect) rows )
  in
  match op with
  | Point ->
    let i = person () in
    let text, params = by_name q_point i in
    ( text, params,
      fun rows ->
        Check.point ~name:d.D.names.(i)
          ~city:(if sh.set_touched.(i) then None else Some D.cities.(d.D.city.(i)))
          rows )
  | Hop1 ->
    let i = person () in
    let text, params = by_name q_hop1 i in
    (text, params, fun rows -> Check.hop1 ~at_least:sh.link_touched.(i) ~degree:(D.degree d i) rows)
  | Hop2 ->
    let i = person () in
    let text, params = by_name q_hop2 i in
    ( text, params,
      fun rows ->
        (* a new FRIEND changes p's 2-hop set only through p or one of
           its neighbours *)
        let touched = ref sh.link_touched.(i) in
        for j = d.D.adj_start.(i) to d.D.adj_start.(i + 1) - 1 do
          if sh.link_touched.(d.D.adj_other.(j)) then touched := true
        done;
        Check.count (if !touched then None else Some (D.hop2 d i)) rows )
  | Scan ->
    let c = D.int r (Array.length D.cities) and digit = D.int r 10 in
    (q_scan D.cities.(c) digit, [], fun rows -> Check.count (Some d.D.scan_counts.(c).(digit)) rows)
  | Shortest -> pair_request q_shortest sh.shortest
  | Cheapest -> pair_request q_cheapest sh.cheapest
  | Create | Link | Set_city | View -> invalid_arg "read_request"

(* One closed-loop request: draw, send, time, check, record. *)
let step sh w ~traced =
  let op = next_op sh.w.mix w in
  let cls = class_of op in
  let timed request f =
    let tid = if traced then Trace.new_id () else 0 in
    let t0 = Kit.now_ns () in
    let r =
      if traced then Trace.with_context { Trace.trace_id = tid; parent_span = 0 } f
      else f ()
    in
    let dt = Kit.now_ns () - t0 in
    Kit.add w.lat.(cls) dt;
    if traced then w.traced <- (tid, cls, dt) :: w.traced;
    (match r with Ok answer -> w.frames.(cls) <- Some (request, answer) | Error _ -> ());
    r
  in
  let what = class_names.(cls) in
  let n = sh.d.D.spec.D.people in
  match op with
  | View ->
    let min_seq = w.last_seq in
    let r =
      timed
        (Protocol.View_read { name = "cities"; min_seq; wait_ms = 5000 })
        (fun () -> view_read w.client ~min_seq)
    in
    Check.judge w.tally ~what r (fun (rows, seq) ->
        if seq < min_seq then Check.Fail (Printf.sprintf "view at seq %d < %d" seq min_seq)
        else Check.view ~min_total:n ~max_total:(n + Atomic.get sh.creates_sent) rows)
  | Create | Link | Set_city ->
    w.k <- w.k + 1;
    let r = w.rng in
    let city () = Value.String D.cities.(D.int r (Array.length D.cities)) in
    let text, params, acked =
      match op with
      | Create ->
        Atomic.incr sh.creates_sent;
        ( q_create,
          [ ("n", Value.String (Printf.sprintf "New%d_%d_%d" sh.seed w.wid w.k)); ("c", city ()) ],
          fun () -> Atomic.incr sh.creates_acked )
      | Link ->
        let a = D.int r n in
        let b = (a + 1 + D.int r (n - 1)) mod n in
        sh.link_touched.(a) <- true;
        sh.link_touched.(b) <- true;
        ( q_link,
          [ ("a", Value.String sh.d.D.names.(a)); ("b", Value.String sh.d.D.names.(b));
            ("s", Value.Int (1990 + D.int r 30)) ],
          ignore )
      | _ ->
        let i = D.int r n in
        sh.set_touched.(i) <- true;
        (q_set, [ ("name", Value.String sh.d.D.names.(i)); ("c", city ()) ], ignore)
    in
    let res =
      timed (Protocol.Query { text; params; options = [] }) (fun () -> query w.client text params)
    in
    Check.judge w.tally ~what res (fun ack ->
        match Check.write ~after_seq:w.last_seq ack with
        | Check.Pass ->
          let seq = snd ack in
          w.last_seq <- seq;
          acked ();
          let rec raise_max () =
            let m = Atomic.get sh.max_seq in
            if seq > m && not (Atomic.compare_and_set sh.max_seq m seq) then raise_max ()
          in
          raise_max ();
          Check.Pass
        | f -> f)
  | _ ->
    let text, params, check = read_request sh w.rng op in
    let res =
      timed (Protocol.Query { text; params; options = [] }) (fun () -> query w.client text params)
    in
    Check.judge w.tally ~what res (fun (rows, _) -> check rows)

(* Runs every worker's closed loop for [seconds], adding to what the
   workers have recorded since their [reset]; with [whole], each worker
   runs on until its current block is whole.  Returns the elapsed wall
   time.  A window of whole blocks holds the mix exactly, so a rare
   expensive class (cheapest, scan) cannot move the window's rate by
   where its edge falls: on paths, 3 s windows that stopped at the
   deadline held from 96 to 216 requests.  Each worker is a domain of
   its own: two systhreads would share one runtime lock, and their
   convoys on it put the client's own contention into the measured
   latency (on snb-read, 1 s throughput slices swung by up to 20 % with
   threads, mostly within 5 % with domains). *)
let run_window sh workers ~seconds ~traced ~whole =
  let t0 = Kit.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let loop w =
    while Kit.now_ns () < deadline || (whole && w.pos < Array.length w.block) do
      try step sh w ~traced
      with e ->
        Check.judge w.tally ~what:"request" (Error (Printexc.to_string e)) (fun _ ->
            Check.Pass)
    done;
    w.busy_ns <- w.busy_ns + (Kit.now_ns () - t0)
  in
  List.iter Domain.join (List.map (fun w -> Domain.spawn (fun () -> loop w)) workers);
  float (Kit.now_ns () - t0) /. 1e9

(* --- servers ---------------------------------------------------------------- *)

type server = {
  pid : int;
  port : int;
  ctl : Client.t;
  dir : string;
  spans : string option;
  setup_s : float;
}

let run_dir = ref ""
let stores = ref 0

(* Starts a server child on a fresh directory holding only the snapshot —
   no WAL, so nothing of an earlier run is replayed — and waits for its
   first answered query.  The set-up time covers snapshot load, server
   start and, on snb-mixed, the view's materialization. *)
let start_server sh ~snapshot ~traced tally =
  incr stores;
  let dir = Filename.concat !run_dir (Printf.sprintf "store%d" !stores) in
  Sys.mkdir dir 0o755;
  copy_file snapshot (Store.snapshot_file dir);
  let spans =
    if traced then Some (Filename.concat !run_dir (Printf.sprintf "spans%d.jsonl" !stores))
    else None
  in
  let t0 = Kit.now_ns () in
  let pid, port = spawn ~dir ~spans in
  let ctl = connect port in
  if sh.w.view then
    Check.judge tally ~what:"materialize"
      (Result.map_error Client.error_message
         (Client.materialize ctl ~name:"cities" ~query:q_view))
      (fun _ -> Check.Pass);
  let i = D.int (D.rng sh.seed) sh.d.D.spec.D.people in
  Check.judge tally ~what:"first query"
    (query ctl q_point [ ("name", Value.String sh.d.D.names.(i)) ])
    (fun (rows, _) ->
      Check.point ~name:sh.d.D.names.(i) ~city:(Some D.cities.(sh.d.D.city.(i))) rows);
  let setup_s = float (Kit.now_ns () - t0) /. 1e9 in
  { pid; port; ctl; dir; spans; setup_s }

let stop_server s =
  Client.close s.ctl;
  stop_child s.pid;
  remove_tree s.dir

(* The plan must name the path operators: a path query that silently
   fell back to the reference evaluator would time something else. *)
let explain_guard sh ctl tally =
  List.iter
    (fun (op, operator, text, schedule) ->
      if List.mem_assoc op sh.w.mix then
        let p = schedule.pairs.(0) in
        Check.judge tally ~what:("EXPLAIN " ^ operator)
          (query ctl ~options:[ ("explain", Value.Bool true) ] text
             [ ("a", Value.String sh.d.D.names.(p.D.src));
               ("b", Value.String sh.d.D.names.(p.D.dst)) ])
          (fun (rows, _) ->
            let plan = Check.show rows in
            if contains plan operator then Check.Pass
            else Check.Fail ("plan lacks " ^ operator ^ ": " ^ plan)))
    [ (Shortest, "ShortestPath", q_shortest, sh.shortest);
      (Cheapest, "CheapestPath", q_cheapest, sh.cheapest) ]

(* After snb-mixed: every acknowledged create is visible (and nothing
   else is named New…), and the maintained view equals a fresh
   execution of its query. *)
let final_checks sh ctl tally =
  if sh.w.view then begin
    Check.judge tally ~what:"acknowledged creates"
      (query ctl "MATCH (p:Person) WHERE p.name STARTS WITH 'New' RETURN count(*) AS n" [])
      (fun (rows, _) -> Check.count (Some (Atomic.get sh.creates_acked)) rows);
    let fresh = query ctl q_view [] in
    Check.judge tally ~what:"view equals its query"
      (view_read ctl ~min_seq:(Atomic.get sh.max_seq))
      (fun (rows, _) ->
        match fresh with
        | Ok (f, _) -> Check.same_bag rows f
        | Error e -> Check.Fail e)
  end

(* --- counters ------------------------------------------------------------------ *)

type counters = {
  reg : (string * Value.t) list;  (* the child's whole registry *)
  child_cpu_s : float;
  host : int * int;  (* total, steal ticks *)
  self_cpu_s : float;
  replans : int;  (* summed over the workers' sessions *)
}

let num pairs name =
  match List.assoc_opt name pairs with
  | Some (Value.Int v) -> float v
  | Some (Value.Float f) -> f
  | _ -> 0.

let read_counters srv workers =
  let stats r = match r with Ok p -> p | Error e -> failwith (Client.error_message e) in
  let t = Unix.times () in
  {
    reg = stats (Client.metrics srv.ctl);
    child_cpu_s = Kit.proc_cpu_s srv.pid;
    host = Kit.host_ticks ();
    self_cpu_s = t.Unix.tms_utime +. t.Unix.tms_stime;
    replans =
      List.fold_left
        (fun acc w ->
          acc + int_of_float (num (stats (Client.store_health w.client)) "plan_cache_replans"))
        0 workers;
  }

let delta c0 c1 name = num c1.reg name -. num c0.reg name

(* --- PROFILE samples ------------------------------------------------------------ *)

type profile = {
  mutable samples : int;
  mutable rows : int;
  mutable hits : int;
  op_self_us : (string, float) Hashtbl.t;
}

(* "1.5us" / "2.25ms" as microseconds *)
let prof_us s =
  let n = String.length s in
  if n > 2 && String.sub s (n - 2) 2 = "ms" then float_of_string (String.sub s 0 (n - 2)) *. 1e3
  else if n > 2 && String.sub s (n - 2) 2 = "us" then float_of_string (String.sub s 0 (n - 2))
  else 0.

(* Reads one PROFILE rendering: per-operator self time from lines
   "+ Operator… (est. …, actual N rows, H db-hits, T)" and the totals
   from "total: R rows, H db-hits, T". *)
let read_profile p rows =
  List.iter
    (function
      | [ (_, Value.String line) ] -> (
        let line = String.trim line in
        match Scanf.sscanf_opt line "total: %d rows, %d db-hits" (fun r h -> (r, h)) with
        | Some (r, h) ->
          p.rows <- p.rows + r;
          p.hits <- p.hits + h
        | None ->
          if String.length line > 2 && String.sub line 0 2 = "+ " then begin
            let name =
              String.sub line 2
                (try String.index_from line 2 '(' - 2 with Not_found -> String.length line - 2)
            in
            let name = List.hd (String.split_on_char ' ' name) in
            let last = List.rev (String.split_on_char ' ' line) in
            match last with
            | t :: _ when String.length t > 1 ->
              let us = prof_us (String.sub t 0 (String.length t - 1)) in
              Hashtbl.replace p.op_self_us name
                (us +. Option.value ~default:0. (Hashtbl.find_opt p.op_self_us name))
            | _ -> ()
          end)
      | _ -> ())
    rows

let read_ops = [ Point; Hop1; Hop2; Shortest; Cheapest; Scan ]

(* Up to [per_class] PROFILE runs of every read class in the mix, cut
   short after a second per class. *)
let profile_classes sh ctl tally ~per_class =
  let r = D.rng (sh.seed + 31) in
  List.filter_map
    (fun op ->
      if not (List.mem_assoc op sh.w.mix) then None
      else begin
        let p = { samples = 0; rows = 0; hits = 0; op_self_us = Hashtbl.create 8 } in
        let t0 = Kit.now_ns () in
        while p.samples < per_class && (p.samples < 4 || Kit.now_ns () - t0 < 1_000_000_000) do
          let text, params, _ = read_request sh r op in
          Check.judge tally ~what:"PROFILE"
            (query ctl ~options:[ ("profile", Value.Bool true) ] text params)
            (fun (rows, _) ->
              read_profile p rows;
              Check.Pass);
          p.samples <- p.samples + 1
        done;
        Some (class_of op, p)
      end)
    read_ops

(* --- span join ------------------------------------------------------------------- *)

type span = { sname : string; sid : string; parent : string; dur : int }

(* The server child's spans by trace id.  Spans without a parent are the
   lineage notes (durability marker, view refresh) emitted off the
   request's path; they are not part of its latency. *)
let read_spans path =
  let tbl = Hashtbl.create 65536 in
  In_channel.with_open_bin path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match
             ( Kit.json_field line "trace_id",
               Kit.json_field line "parent_span_id",
               Kit.json_field line "span_id",
               Kit.json_field line "name",
               Kit.json_field line "dur_us" )
           with
          | Some tid, Some parent, Some sid, Some sname, Some dur ->
            Hashtbl.add tbl tid { sname; sid; parent; dur = int_of_string dur }
          | _ -> ());
          go ()
      in
      go ());
  tbl

type split = {
  mutable reqs : int;
  mutable client_us : float;
  mutable unattributed_us : float;
  self_us : (string, float) Hashtbl.t;  (* span name -> Σ self time *)
  incl_us : (string, float) Hashtbl.t;  (* span name -> Σ duration *)
}

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* Joins the client's requests to the server's spans by trace id.  A
   span's self time is its duration minus its children's; the request's
   unattributed time is the client latency minus its top-level spans
   (wire, frame decode, session sync, encode, runtime-lock waits).  By
   construction the self times plus the unattributed time add up to the
   client latency. *)
let split_by_class workers spans =
  let splits =
    Array.init (Array.length class_names) (fun _ ->
        { reqs = 0; client_us = 0.; unattributed_us = 0.;
          self_us = Hashtbl.create 8; incl_us = Hashtbl.create 8 })
  in
  List.iter
    (fun w ->
      List.iter
        (fun (tid, cls, ns) ->
          let s = splits.(cls) in
          let mine = Hashtbl.find_all spans (Trace.id_to_hex tid) in
          let ids = List.map (fun sp -> sp.sid) mine in
          let client_us = float ns /. 1e3 in
          let top = ref 0 in
          List.iter
            (fun sp ->
              let children =
                List.fold_left (fun a c -> if c.parent = sp.sid then a + c.dur else a) 0 mine
              in
              bump s.self_us sp.sname (float (sp.dur - children));
              bump s.incl_us sp.sname (float sp.dur);
              if not (List.mem sp.parent ids) then top := !top + sp.dur)
            mine;
          s.reqs <- s.reqs + 1;
          s.client_us <- s.client_us +. client_us;
          s.unattributed_us <- s.unattributed_us +. client_us -. float !top)
        w.traced)
    workers;
  splits

(* The public codec's cost per request: encode and decode of each
   class's last real request and response frames, weighted by how often
   the class ran. *)
let codec_us workers =
  let reps = 200 in
  let total = ref 0. and n = ref 0 in
  Array.iteri
    (fun cls _ ->
      let count = List.fold_left (fun a w -> a + Kit.count w.lat.(cls)) 0 workers in
      match List.find_map (fun w -> w.frames.(cls)) workers with
      | Some (req, (rows, seq)) when count > 0 ->
        let columns = match rows with r :: _ -> List.map fst r | [] -> [] in
        let resp = Protocol.Result { columns; rows = List.map (List.map snd) rows; seq } in
        let t0 = Kit.now_ns () in
        for _ = 1 to reps do
          ignore (Protocol.decode_request (Protocol.encode_request req));
          ignore (Protocol.decode_response (Protocol.encode_response resp))
        done;
        let per = float (Kit.now_ns () - t0) /. 1e3 /. float reps in
        total := !total +. (per *. float count);
        n := !n + count
      | _ -> ())
    class_names;
  if !n = 0 then 0. else !total /. float !n

(* --- sessions: one server, its workers, a warm-up and a measured window --- *)

type session = {
  srv : server;
  workers : worker list;
  elapsed : float;
  c0 : counters;
  c1 : counters;
  rss_mb : float;
  profiles : (int * profile) list;
  window : Check.tally;  (* the measured window's requests alone *)
  speed : float;  (* the host's speed around the window (Kit.host_speed) *)
}

(* The run's inputs with the write bookkeeping of a fresh store. *)
let shared w d seed ~shortest ~cheapest =
  let n = d.D.spec.D.people in
  {
    w; d; seed;
    set_touched = Array.make n false;
    link_touched = Array.make n false;
    creates_sent = Atomic.make 0;
    creates_acked = Atomic.make 0;
    max_seq = Atomic.make 0;
    shortest;
    cheapest;
  }

(* How long each host-speed probe runs. *)
let probe_s = 0.15

(* One server: set-up, a warm-up, and a measured window of [seconds] in
   [parts] equal parts, with a host-speed probe before each part and
   after the last, while the server idles.  The host's speed swings from
   one second to the next, so probes close to the requests they scale
   follow it better than one probe on either side of the window; the
   mix's blocks run on across parts.  The counters [c0] and [c1] bracket
   the window, and with more than one part the probes between parts. *)
let session sh ~snapshot ~traced ~phase ~warm ~seconds ~parts ~profile tally =
  let sh = shared sh.w sh.d sh.seed ~shortest:sh.shortest ~cheapest:sh.cheapest in
  let srv = start_server sh ~snapshot ~traced tally in
  explain_guard sh srv.ctl tally;
  let workers = List.init sh.w.conns (fun i -> new_worker sh (connect srv.port) i phase) in
  let absorb () = List.iter (fun w -> Check.add_into tally w.tally) workers in
  List.iter reset workers;
  ignore (run_window sh workers ~seconds:warm ~traced:false ~whole:false);
  absorb ();
  List.iter reset workers;
  (* the probe starts with a full major collection, so every part starts
     from the same client heap state and no collection owed by set-up or
     an earlier part is billed to it *)
  let speeds = ref [ Kit.host_speed ~seconds:probe_s ] in
  let c0 = read_counters srv workers in
  let elapsed = ref 0. and part_s = seconds /. float parts in
  for i = 1 to parts do
    elapsed := !elapsed +. run_window sh workers ~seconds:part_s ~traced ~whole:(i = parts);
    if i < parts then speeds := Kit.host_speed ~seconds:probe_s :: !speeds
  done;
  let c1 = read_counters srv workers in
  speeds := Kit.host_speed ~seconds:probe_s :: !speeds;
  let speed = List.fold_left ( +. ) 0. !speeds /. float (List.length !speeds) in
  let elapsed = !elapsed in
  let window = Check.tally () in
  List.iter (fun w -> Check.add_into window w.tally) workers;
  absorb ();
  final_checks sh srv.ctl tally;
  let profiles = if profile > 0 then profile_classes sh srv.ctl tally ~per_class:profile else [] in
  let rss_mb = Kit.proc_hwm_mb srv.pid in
  List.iter (fun w -> Client.close w.client) workers;
  stop_server srv;
  { srv; workers; elapsed; c0; c1; rss_mb; profiles; window; speed }

let us ns = float ns /. 1e3

let print_classes workers =
  Printf.printf "  %-9s %8s %10s %10s %10s\n" "class" "n" "p50_us" "p99_us" "mean_us";
  Array.iteri
    (fun cls name ->
      let all = Kit.merge (List.map (fun w -> w.lat.(cls)) workers) in
      if Kit.count all > 0 then begin
        let sorted = Kit.sorted all in
        let q p = match Kit.quantile sorted p with Some v -> Printf.sprintf "%.1f" (us v) | None -> "-" in
        Printf.printf "  %-9s %8d %10s %10s %10.1f\n" name (Kit.count all) (q 0.5) (q 0.99)
          (Option.get (Kit.mean all) /. 1e3)
      end)
    class_names

let steal_pct s =
  let t0, s0 = s.c0.host and t1, s1 = s.c1.host in
  if t1 = t0 then 0. else 100. *. float (s1 - s0) /. float (t1 - t0)

let print_window s =
  let st = steal_pct s in
  Printf.printf
    "  window %.2f s, %d requests, %d failed (error_rate %g), set-up %.3f s, host steal %.2f%%%s\n"
    s.elapsed s.window.Check.attempted s.window.Check.failed
    (float s.window.Check.failed /. float (max 1 s.window.Check.attempted))
    s.srv.setup_s st
    (if st > 2. then "  [noisy window]" else "")

(* Set-up time, throughput and p50 latency of [ss], every time in it
   multiplied by [speed s] of its session [s]: 1 gives them as
   measured, [s.speed] at the reference host speed.  Throughput and
   latency pool every request of every window: a mean over the run
   follows the host's drift less than a median of shorter slices does.
   Throughput is each connection's requests over its own time, summed
   over the connections. *)
let timings ss ~conns ~speed =
  let per_conn c =
    let n = ref 0 and t = ref 0. in
    List.iter
      (fun s ->
        List.iter
          (fun w ->
            if w.wid = c then begin
              n := !n + Array.fold_left (fun a l -> a + Kit.count l) 0 w.lat;
              t := !t +. (float w.busy_ns /. 1e9 *. speed s)
            end)
          s.workers)
      ss;
    float !n /. !t
  in
  let all =
    Kit.sorted
      (Kit.merge
         (List.concat_map
            (fun s ->
              List.concat_map (fun w -> List.map (fun l -> Kit.scale l (speed s)) (Array.to_list w.lat))
                s.workers)
            ss))
  in
  ( Kit.median (List.map (fun s -> s.srv.setup_s *. speed s) ss),
    List.fold_left (fun a c -> a +. per_conn c) 0. (List.init conns Fun.id),
    (match Kit.quantile all 0.5 with Some v -> us v | None -> nan),
    Array.length all )

(* End-to-end metrics from [servers] fresh servers, each measured for an
   equal share of the window.  The set-ups and the windows then spread
   over the whole run.  Times are reported at the reference host speed
   (see Kit.host_speed); the text output also prints them as measured.
   The pooled p99 is not a metric: on snb-read its spread over ten runs
   reached 0.25 of its median, the widest bound there is, so it is left
   to the per-class table as a diagnostic. *)
let measure_e2e sh ~snapshot ~seconds ~warm ~servers tally =
  let ss =
    List.init servers (fun phase ->
        session sh ~snapshot ~traced:false ~phase ~warm ~seconds:(seconds /. float servers)
          ~parts:4 ~profile:0 tally)
  in
  List.iter print_window ss;
  print_classes (List.concat_map (fun s -> s.workers) ss);
  let conns = sh.w.conns in
  let setup, qps, p50, _ = timings ss ~conns ~speed:(fun _ -> 1.) in
  Printf.printf
    "  as measured: setup_s %.4f, throughput_qps %.2f, latency_p50_us %.1f; host speed %s\n"
    setup qps p50
    (String.concat ", " (List.map (fun s -> Printf.sprintf "%.3f" s.speed) ss));
  let setup, qps, p50, n = timings ss ~conns ~speed:(fun s -> s.speed) in
  [
    Kit.metric "setup_s" "s" setup ~n:servers;
    Kit.metric "throughput_qps" "req/s" qps ~n;
    Kit.metric "latency_p50_us" "us" p50 ~n;
    Kit.metric "server_rss_mb" "MB" (Kit.median (List.map (fun s -> s.rss_mb) ss)) ~n:servers;
  ]

let reads s =
  List.fold_left
    (fun acc w ->
      acc
      + List.fold_left (fun a op -> a + Kit.count w.lat.(class_of op)) 0 read_ops)
    0 s.workers

(* The per-layer split: an untraced window for the counters and the
   untraced throughput, then a traced window on a fresh server for the
   spans and the PROFILE samples. *)
let measure_layers sh ~snapshot ~seconds ~warm ~profile tally =
  let half = seconds /. 2. in
  let u = session sh ~snapshot ~traced:false ~phase:0 ~warm ~seconds:half ~parts:1 ~profile:0 tally in
  let t = session sh ~snapshot ~traced:true ~phase:1 ~warm ~seconds:half ~parts:1 ~profile tally in
  Printf.printf "  untraced window:\n";
  print_window u;
  print_classes u.workers;
  Printf.printf "  traced window:\n";
  print_window t;
  print_classes t.workers;
  let spans_path = Option.get t.srv.spans in
  let spans = read_spans spans_path in
  Sys.remove spans_path;
  let splits = split_by_class t.workers spans in
  let sum f = Array.fold_left (fun a s -> a +. f s) 0. splits in
  let reqs_t = sum (fun s -> float s.reqs) and client = sum (fun s -> s.client_us) in
  let named tbl name s = Option.value ~default:0. (Hashtbl.find_opt (tbl s) name) in
  let share name = sum (named (fun s -> s.self_us) name) /. client in
  (* the split per class, and the identity it must satisfy *)
  Array.iteri
    (fun cls s ->
      if s.reqs > 0 then begin
        let r = float s.reqs in
        let layers = Hashtbl.fold (fun k v acc -> (k, v /. r) :: acc) s.self_us [] in
        let layers = List.sort compare layers in
        let total = List.fold_left (fun a (_, v) -> a +. v) (s.unattributed_us /. r) layers in
        Printf.printf "  split %-9s client %.1f us = %s (sum %.1f)\n" class_names.(cls)
          (s.client_us /. r)
          (String.concat " + "
             (List.map (fun (k, v) -> Printf.sprintf "%s %.1f" k v)
                (layers @ [ ("unattributed", s.unattributed_us /. r) ])))
          total
      end)
    splits;
  let count_of cls = List.fold_left (fun a w -> a + Kit.count w.lat.(cls)) 0 t.workers in
  let hits = ref 0. and rows = ref 0. in
  List.iter
    (fun (cls, p) ->
      let wt = float (count_of cls) /. float p.samples in
      hits := !hits +. (wt *. float p.hits);
      rows := !rows +. (wt *. float p.rows);
      let ops = Hashtbl.fold (fun k v acc -> (v, k) :: acc) p.op_self_us [] in
      let top = List.filteri (fun i _ -> i < 3) (List.rev (List.sort compare ops)) in
      Printf.printf "  profile %-9s %d samples, db_hits/row %.2f, top operators: %s\n"
        class_names.(cls) p.samples
        (float p.hits /. float (max 1 p.rows))
        (String.concat ", "
           (List.map (fun (v, k) -> Printf.sprintf "%s %.1f us" k (v /. float p.samples)) top)))
    t.profiles;
  let d = delta u.c0 u.c1 in
  let ratio a b = if b = 0. then 0. else a /. b in
  let reqs_u = float u.window.Check.attempted in
  let qps s = float s.window.Check.attempted /. s.elapsed in
  [
    Kit.metric "server.residence_us" "us"
      (ratio (d "cypher_server_request_latency_sum_us") (d "cypher_server_request_latency_count"));
    Kit.metric "server.cpu_us_per_req" "us" ((u.c1.child_cpu_s -. u.c0.child_cpu_s) *. 1e6 /. reqs_u);
    Kit.metric "server.bytes_out_per_req" "bytes"
      (ratio (d "cypher_server_bytes_out_total") (d "cypher_server_requests_total"));
    Kit.metric "server.codec_us" "us" (codec_us t.workers);
    Kit.metric "session.replans_per_read" "count"
      (ratio (float (u.c1.replans - u.c0.replans)) (float (reads u)));
    Kit.metric "engine.query_us" "us" (sum (named (fun s -> s.incl_us) "query") /. reqs_t);
    Kit.metric "engine.rows_per_query" "count"
      (ratio (d "cypher_engine_rows_produced_total")
         (d "cypher_engine_queries_planned_total" +. d "cypher_engine_queries_reference_total"));
    Kit.metric "engine.reference_fallbacks" "count" (d "cypher_engine_reference_fallback_total");
    Kit.metric "plan_cache.hit_ratio" "fraction"
      (ratio (d "cypher_plan_cache_hits_total")
         (d "cypher_plan_cache_hits_total" +. d "cypher_plan_cache_misses_total"));
    Kit.metric "plan_cache.evictions" "count" (d "cypher_plan_cache_evictions_total");
    Kit.metric "parser.parse_share" "fraction" (share "parse");
    Kit.metric "planner.plan_share" "fraction" (share "plan");
    Kit.metric "planner.execute_share" "fraction" (share "execute");
    Kit.metric "engine.query_self_share" "fraction" (share "query");
    Kit.metric "graph.db_hits_per_row" "count" (ratio !hits !rows);
    Kit.metric "storage.writer_lock_share" "fraction" (share "writer_lock");
    Kit.metric "storage.group_commit_share" "fraction" (share "group_commit");
    Kit.metric "storage.wal_append_share" "fraction" (share "wal_append");
    Kit.metric "storage.fsync_share" "fraction" (share "fsync");
    Kit.metric "storage.commits_per_fsync" "count"
      (ratio (d "cypher_storage_group_members_total") (d "cypher_storage_group_flushes_total"));
    Kit.metric "storage.snapshot_load_s" "s"
      (ratio
         (num u.c1.reg "cypher_storage_snapshot_load_duration_sum_us")
         (num u.c1.reg "cypher_storage_snapshot_load_duration_count")
      /. 1e6);
    Kit.metric "ivm.refreshes" "count" (d "cypher_view_refresh_total");
    Kit.metric "ivm.fallback_refreshes" "count" (d "cypher_view_refresh_fallback_total");
    Kit.metric "ivm.delta_rows" "count" (d "cypher_view_delta_rows_total");
    Kit.metric "ivm.refresh_busy_fraction" "fraction"
      (d "cypher_view_refresh_us_sum_us" /. (u.elapsed *. 1e6));
    Kit.metric "unattributed_us" "us" (sum (fun s -> s.unattributed_us) /. reqs_t);
    Kit.metric "unattributed_share" "fraction" (sum (fun s -> s.unattributed_us) /. client);
    Kit.metric "obs.trace_overhead_pct" "%" (((qps u /. qps t) -. 1.) *. 100.);
    Kit.metric "host.steal_pct" "%" (steal_pct u);
    Kit.metric "host.speed" "ratio" ((u.speed +. t.speed) /. 2.);
    Kit.metric "host.client_cpu_pct" "%"
      ((u.c1.self_cpu_s -. u.c0.self_cpu_s) *. 100. /. u.elapsed);
  ]

(* --- main ---------------------------------------------------------------------- *)

type opts = {
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
}

(* Prepared snapshots and the servers' store directories, under the
   current directory. *)
let cache_dir = ".bench_standing"

let run_workload o w =
  let spec =
    if o.smoke then { w.spec with D.ds_name = w.spec.D.ds_name ^ "-smoke"; people = 5_000 }
    else w.spec
  in
  let t0 = Kit.now_ns () in
  let d = D.generate spec in
  let snapshot = D.snapshot ~cache_dir d in
  let r = D.rng (o.seed + 17) in
  let pairs op weighted count =
    let pairs =
      if List.mem_assoc op w.mix then Array.of_list (D.curated_pairs d ~weighted r count)
      else [||]
    in
    { pairs; next = Atomic.make 0 }
  in
  let shortest = pairs Shortest false (if o.smoke then 8 else 256) in
  let cheapest = pairs Cheapest true (if o.smoke then 4 else 64) in
  let sh = shared w d o.seed ~shortest ~cheapest in
  Printf.printf "# %s: %s (%d people, %d FRIEND), seed %d, %g s%s; prep %.2f s\n%!" w.name
    spec.D.ds_name spec.D.people (Array.length d.D.rels) o.seed o.seconds
    (if o.traced then ", traced" else "")
    (float (Kit.now_ns () - t0) /. 1e9);
  let tally = Check.tally () in
  let warm = if o.smoke then 0.2 else 0.5 in
  let metrics =
    if o.traced then
      measure_layers sh ~snapshot ~seconds:o.seconds ~warm ~profile:(if o.smoke then 2 else 32)
        tally
    else measure_e2e sh ~snapshot ~seconds:o.seconds ~warm ~servers:(if o.smoke then 1 else 3) tally
  in
  List.iter Kit.print_metric metrics;
  List.iter (fun m -> Printf.eprintf "%s: FAILED %s\n%!" w.name m) (List.rev tally.Check.first_failures);
  Printf.printf "%!";
  (tally, metrics)

let usage () =
  prerr_endline
    "usage: standing.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--smoke]\n\
     workloads: snb-read, snb-mixed, paths, adhoc (default: all four)";
  exit 2

let main args =
  let workload = ref None in
  let o =
    ref { seed = 1; seconds = 15.; traced = false; smoke = false }
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: n :: rest ->
      (match List.find_opt (fun w -> w.name = n) workloads with
      | Some w -> workload := Some w
      | None -> usage ());
      parse rest
    | "--seed" :: s :: rest ->
      o := { !o with seed = (match int_of_string_opt s with Some n -> n | None -> usage ()) };
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some x when x > 0. -> o := { !o with seconds = x }
      | _ -> usage ());
      parse rest
    | "--trace" :: t :: rest ->
      (match t with
      | "0" -> o := { !o with traced = false }
      | "1" -> o := { !o with traced = true }
      | _ -> usage ());
      parse rest
    | "--smoke" :: rest ->
      o := { !o with smoke = true; seconds = 1. };
      parse rest
    | _ -> usage ()
  in
  parse args;
  let o = !o in
  if not (Sys.file_exists cache_dir) then Sys.mkdir cache_dir 0o755;
  run_dir := Filename.concat cache_dir (Printf.sprintf "run-%d" (Unix.getpid ()));
  Sys.mkdir !run_dir 0o755;
  at_exit (fun () ->
      List.iter stop_child !live;
      remove_tree !run_dir);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let selected = match !workload with Some w -> [ w ] | None -> workloads in
  (* the smoke run covers both measurement paths on every workload *)
  let modes = if o.smoke then [ { o with traced = false }; { o with traced = true } ] else [ o ] in
  let results =
    List.concat_map
      (fun w -> List.map (fun o -> (w, run_workload o w)) modes)
      selected
  in
  let total = Check.tally () in
  List.iter (fun (_, (t, _)) -> Check.add_into total t) results;
  let metrics =
    match results with
    | [ (_, (_, m)) ] -> m
    | _ ->
      List.concat_map
        (fun (w, (_, m)) -> List.map (fun x -> { x with Kit.name = w.name ^ "/" ^ x.Kit.name }) m)
        results
  in
  let correct = total.Check.failed = 0 in
  print_endline
    (Kit.result_line ~correct ~attempted:total.Check.attempted ~failed:total.Check.failed metrics);
  exit (if correct then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "--serve-child" :: dir :: rest ->
    serve_child dir (match rest with [ "--spans"; p ] -> Some p | _ -> None)
  | _ :: args -> main args
  | [] -> usage ()
