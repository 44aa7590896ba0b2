(* Thread ids are small monotonically increasing ints, unique across
   domains and never reused, so the common store is a plain array
   indexed by id: a slot is only ever touched by its own thread, making
   reads and writes lock-free.  Threads past [cap] (a process that has
   created that many) overflow into a mutex-guarded table that holds
   only values other than the default: setting a thread's value back to
   the default drops its entry, so the table stays as small as the set
   of threads with a value in use. *)

let cap = 8192

type 'a t = {
  default : 'a;
  slots : 'a array;
  overflow : (int, 'a) Hashtbl.t;
  lock : Mutex.t;
}

let make default =
  {
    default;
    slots = Array.make cap default;
    overflow = Hashtbl.create 16;
    lock = Mutex.create ();
  }

let get t =
  let id = Thread.id (Thread.self ()) in
  if id < cap then Array.unsafe_get t.slots id
  else begin
    Mutex.lock t.lock;
    let v = Option.value ~default:t.default (Hashtbl.find_opt t.overflow id) in
    Mutex.unlock t.lock;
    v
  end

let set t v =
  let id = Thread.id (Thread.self ()) in
  if id < cap then Array.unsafe_set t.slots id v
  else begin
    Mutex.lock t.lock;
    if v == t.default then Hashtbl.remove t.overflow id
    else Hashtbl.replace t.overflow id v;
    Mutex.unlock t.lock
  end
