(* Process-wide series aggregated across every cache instance; the
   per-instance counters below survive for {!Engine.cache_stats}'s
   per-session view. *)
let m_hits =
  Cypher_obs.Registry.counter ~help:"plan cache lookups served from cache"
    "cypher_plan_cache_hits_total"

let m_misses =
  Cypher_obs.Registry.counter ~help:"plan cache lookups that missed"
    "cypher_plan_cache_misses_total"

let m_evictions =
  Cypher_obs.Registry.counter ~help:"plan cache LRU evictions"
    "cypher_plan_cache_evictions_total"

(* [counted] is false for an entry stored by an uncounted lookup until
   its first {!find}, which counts the miss its parse stood for. *)
type 'a entry = {
  mutable value : 'a;
  mutable last_used : int;
  mutable counted : bool;
}

type 'a t = {
  tbl : (string, 'a entry) Hashtbl.t;
  (* The server shares a session between its reader pool and the write
     path, so every Hashtbl mutation and every counter update happens
     under this lock. *)
  lock : Mutex.t;
  mutable tick : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
}

let capacity = 128

let create () =
  {
    tbl = Hashtbl.create capacity;
    lock = Mutex.create ();
    tick = 0;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let touch t e =
  t.tick <- t.tick + 1;
  e.last_used <- t.tick

let count_miss t =
  t.miss_count <- t.miss_count + 1;
  Cypher_obs.Registry.incr m_misses

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some e ->
        let hit = e.counted in
        if hit then begin
          t.hit_count <- t.hit_count + 1;
          Cypher_obs.Registry.incr m_hits
        end
        else begin
          e.counted <- true;
          count_miss t
        end;
        touch t e;
        Some (e.value, hit)
      | None ->
        count_miss t;
        None)

let peek t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some e ->
        touch t e;
        Some e.value
      | None -> None)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, stamp) when stamp <= e.last_used -> acc
        | _ -> Some (k, e.last_used))
      t.tbl None
  in
  match victim with
  | Some (k, _) ->
    Hashtbl.remove t.tbl k;
    t.eviction_count <- t.eviction_count + 1;
    Cypher_obs.Registry.incr m_evictions
  | None -> ()

let add ?(counted = true) t k v =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some e ->
        e.value <- v;
        e.counted <- counted;
        touch t e
      | None ->
        if Hashtbl.length t.tbl >= capacity then evict_lru t;
        let e = { value = v; last_used = 0; counted } in
        touch t e;
        Hashtbl.replace t.tbl k e)

let hits t = locked t (fun () -> t.hit_count)
let misses t = locked t (fun () -> t.miss_count)
let evictions t = locked t (fun () -> t.eviction_count)
