(* LRU via doubly-linked list threaded through a hash table. *)

type node = {
  block : int;
  mutable prev : node option;
  mutable next : node option;
}

type outcome = Hit | Miss | Miss_in_flight

type t = {
  cap : int;
  table : (int, node) Hashtbl.t;
  in_flight : (int, unit) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable size : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable chaos_hook : (unit -> bool) option;
  mutable chaos_invalidations : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Buffer_cache.create: capacity";
  {
    cap = capacity;
    table = Hashtbl.create (max 16 capacity);
    in_flight = Hashtbl.create 16;
    head = None;
    tail = None;
    size = 0;
    hit_count = 0;
    miss_count = 0;
    chaos_hook = None;
    chaos_invalidations = 0;
  }

let capacity t = t.cap

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let set_chaos_hook t hook = t.chaos_hook <- hook
let chaos_invalidations t = t.chaos_invalidations

(* Chaos: drop a resident block at the moment it is accessed, turning a
   would-be hit into a transient miss.  The caller sees an ordinary [Miss]
   and performs the fill I/O it already knows how to do. *)
let chaos_drop t n =
  match t.chaos_hook with
  | Some hook when hook () ->
      unlink t n;
      Hashtbl.remove t.table n.block;
      t.size <- t.size - 1;
      t.chaos_invalidations <- t.chaos_invalidations + 1;
      true
  | _ -> false

let access t block =
  match Hashtbl.find_opt t.table block with
  | Some n when not (chaos_drop t n) ->
      t.hit_count <- t.hit_count + 1;
      unlink t n;
      push_front t n;
      Hit
  | _ ->
      t.miss_count <- t.miss_count + 1;
      if Hashtbl.mem t.in_flight block then Miss_in_flight
      else begin
        Hashtbl.replace t.in_flight block ();
        Miss
      end

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.block;
      t.size <- t.size - 1

let fill t block =
  Hashtbl.remove t.in_flight block;
  if t.cap > 0 && not (Hashtbl.mem t.table block) then begin
    if t.size >= t.cap then evict_lru t;
    let n = { block; prev = None; next = None } in
    Hashtbl.replace t.table block n;
    push_front t n;
    t.size <- t.size + 1
  end

let resident t block = Hashtbl.mem t.table block
let in_flight t block = Hashtbl.mem t.in_flight block
let hits t = t.hit_count
let misses t = t.miss_count

let hit_ratio t =
  let total = t.hit_count + t.miss_count in
  if total = 0 then 1.0 else float_of_int t.hit_count /. float_of_int total

let reset_stats t =
  t.hit_count <- 0;
  t.miss_count <- 0
