type span = Sa_engine.Time.span
type thread_id = int

let next_object_id = ref 0

let fresh_id () =
  incr next_object_id;
  !next_object_id

module Mutex = struct
  type t = { mid : int; mname : string }

  let create ?name () =
    let mid = fresh_id () in
    let mname =
      match name with Some n -> n | None -> Printf.sprintf "mutex#%d" mid
    in
    { mid; mname }

  let id t = t.mid
  let name t = t.mname
end

module Cond = struct
  type t = { cid : int; cname : string }

  let create ?name () =
    let cid = fresh_id () in
    let cname =
      match name with Some n -> n | None -> Printf.sprintf "cond#%d" cid
    in
    { cid; cname }

  let id t = t.cid
  let name t = t.cname
end

module Sem = struct
  type t = { sid : int; sname : string; sinitial : int }

  let create ?name ~initial () =
    if initial < 0 then invalid_arg "Sem.create: negative initial";
    let sid = fresh_id () in
    let sname =
      match name with Some n -> n | None -> Printf.sprintf "sem#%d" sid
    in
    { sid; sname; sinitial = initial }

  let id t = t.sid
  let name t = t.sname
  let initial t = t.sinitial
end

type t =
  | Done
  | Compute of span * (unit -> t)
  | Acquire of Mutex.t * (unit -> t)
  | Release of Mutex.t * (unit -> t)
  | Wait of Cond.t * Mutex.t * (unit -> t)
  | Signal of Cond.t * (unit -> t)
  | Broadcast of Cond.t * (unit -> t)
  | Sem_p of Sem.t * (unit -> t)
  | Sem_v of Sem.t * (unit -> t)
  | Ksem_p of Sem.t * (unit -> t)
  | Ksem_v of Sem.t * (unit -> t)
  | Fork of t * (thread_id -> t)
  | Join of thread_id * (unit -> t)
  | Io of span * (unit -> t)
  | Cache_read of int * (unit -> t)
  | Yield of (unit -> t)
  | Stamp of int * (unit -> t)
  | Set_priority of int * (unit -> t)
  | Dynamic of t
      (* force-dependent marker: the wrapped program's continuations read
         or write host state, so they must be forced at simulated
         execution time; [compile] refuses the whole containing tree (the
         step loop then fetches it lazily) and interpreters unwrap it
         transparently *)

module Build = struct
  type 'a m = ('a -> t) -> t

  let return x k = k x
  let bind m f k = m (fun x -> f x k)
  let ( let* ) = bind
  let to_program m = m (fun () -> Done)
  let compute d k = Compute (d, fun () -> k ())
  let acquire m k = Acquire (m, fun () -> k ())
  let release m k = Release (m, fun () -> k ())

  let critical m body =
    let* () = acquire m in
    let* () = body in
    release m

  let wait c m k = Wait (c, m, fun () -> k ())
  let signal c k = Signal (c, fun () -> k ())
  let broadcast c k = Broadcast (c, fun () -> k ())
  let sem_p s k = Sem_p (s, fun () -> k ())
  let sem_v s k = Sem_v (s, fun () -> k ())
  let ksem_p s k = Ksem_p (s, fun () -> k ())
  let ksem_v s k = Ksem_v (s, fun () -> k ())
  let fork prog k = Fork (prog, k)
  let fork_unit prog k = Fork (prog, fun _tid -> k ())
  let join tid k = Join (tid, fun () -> k ())
  let io d k = Io (d, fun () -> k ())
  let cache_read b k = Cache_read (b, fun () -> k ())
  let yield k = Yield (fun () -> k ())
  let stamp id k = Stamp (id, fun () -> k ())
  let set_priority p k = Set_priority (p, fun () -> k ())
  let dynamic m k = Dynamic (m k)

  let repeat n f =
    let rec go i = if i >= n then return () else bind (f i) (fun () -> go (i + 1)) in
    go 0

  let iter_list xs f =
    let rec go = function
      | [] -> return ()
      | x :: rest -> bind (f x) (fun () -> go rest)
    in
    go xs

  let when_ cond body = if cond then body else return ()
end

let null = Done
let compute_only d = Compute (d, fun () -> Done)

(* ------------------------------------------------------------------ *)
(* Compiled flat representation                                        *)
(* ------------------------------------------------------------------ *)

module Code = struct
  (* Op tags.  Interpreters match on the integer literals directly (an
     int [match] compiles to a jump table); the constants below exist so
     they can sanity-check the numbering at module init.  [op_refill] is
     never emitted by [compile]: it is the step loop's lazy-fetch slot. *)
  let op_done = 0
  let op_compute = 1
  let op_acquire = 2
  let op_release = 3
  let op_wait = 4
  let op_signal = 5
  let op_broadcast = 6
  let op_sem_p = 7
  let op_sem_v = 8
  let op_ksem_p = 9
  let op_ksem_v = 10
  let op_fork = 11
  let op_join = 12
  let op_io = 13
  let op_cache_read = 14
  let op_yield = 15
  let op_stamp = 16
  let op_set_priority = 17
  let op_refill = 18

  type t = {
    op : int array;  (* op tag *)
    a : int array;
        (* first operand: span (compute/io), sync-object index
           (acquire/release/signal/broadcast/sem/ksem), cond index (wait),
           child entry pc (fork), join target (>= 0: literal runtime tid;
           < 0: [-(site+1)], resolved through the thread's fork bindings),
           block (cache_read), marker id (stamp), priority *)
    b : int array;
        (* second operand: mutex index (wait), fork site (fork; -1 when no
           join names the site) *)
    nx : int array;  (* next pc (-1 terminates; only op_done has -1) *)
    mutexes : Mutex.t array;  (* code-local index -> object *)
    conds : Cond.t array;
    sems : Sem.t array;
    ksems : Sem.t array;  (* separate index space: matches backend state *)
  }

  let length c = Array.length c.op
end

(* Fork continuations are forced symbolically: each fork site hands its
   continuation a unique, hugely negative sentinel thread id.  A sentinel
   showing up anywhere except a [Join] target means the program computes
   on thread ids — compilation aborts and the caller runs the program
   through the step loop's lazy fetch instead.  [min_int/4] leaves sentinel +/- small-int
   arithmetic still recognizably suspicious. *)
let sentinel_base = min_int / 2
let sentinel_threshold = min_int / 4
let sentinel_of_site site = sentinel_base - site
let is_sentinel v = v <= sentinel_base

exception Compile_abort

(* Memo key of a fork child: its first operation's constructor and first
   operand, plus the head of a forked grandchild.  Closures are never
   hashed — [Hashtbl.hash] would mix their code pointers, which move from
   run to run — so which children hit the memo, and with it the arena, is
   the same in every process. *)
let rec head_key prog =
  let tagged tag v = (v lsl 5) lor tag in
  match prog with
  | Done -> 0
  | Compute (d, _) -> tagged 1 d
  | Acquire (m, _) -> tagged 2 (Mutex.id m)
  | Release (m, _) -> tagged 3 (Mutex.id m)
  | Wait (c, _, _) -> tagged 4 (Cond.id c)
  | Signal (c, _) -> tagged 5 (Cond.id c)
  | Broadcast (c, _) -> tagged 6 (Cond.id c)
  | Sem_p (s, _) -> tagged 7 (Sem.id s)
  | Sem_v (s, _) -> tagged 8 (Sem.id s)
  | Ksem_p (s, _) -> tagged 9 (Sem.id s)
  | Ksem_v (s, _) -> tagged 10 (Sem.id s)
  | Fork (Fork _, _) -> 11
  | Fork (child, _) -> tagged 11 (head_key child)
  | Join (tid, _) -> tagged 12 tid
  | Io (d, _) -> tagged 13 d
  | Cache_read (blk, _) -> tagged 14 blk
  | Yield _ -> 15
  | Stamp (id, _) -> tagged 16 id
  | Set_priority (p, _) -> tagged 17 p
  | Dynamic _ -> 18

(* The fork-child memo of [compile]: sets of [ways] ways, keyed on
   physical identity.  A child's set comes from the hash of its
   [head_key]; a lookup compares at most [ways] children with [==]; an
   insert into a full set evicts its least recently used way.  An evicted
   child forked again is compiled again — a duplicate body, never a scan.
   Ways rather than one slot per set: two children forked in alternation
   that land in one slot would evict each other at every fork.

   The table starts at [min_sets] sets and doubles, up to [max_sets],
   only when the way to evict holds a child that was hit, i.e. one known
   to be shared.  Programs whose children are all one-shot (a Barnes-Hut
   step's tasks, a server's requests) keep the small table: every child
   it holds survives the minor collections of the compile, so a large
   table of one-shot children would only promote them into the major
   heap. *)
module Memo = struct
  let ways = 4
  let min_sets = 16
  let max_sets = 1024

  type memo = {
    mutable sets : int;
    mutable child : t array;
    mutable entry : int array;  (* the child's entry pc; -1 marks an empty way *)
    mutable used : int array;  (* [clock] at the way's last hit or insert *)
    mutable shared : bool array;  (* hit since it was inserted *)
    mutable clock : int;
  }

  let alloc m sets =
    m.sets <- sets;
    m.child <- Array.make (sets * ways) Done;
    m.entry <- Array.make (sets * ways) (-1);
    m.used <- Array.make (sets * ways) (-1);
    m.shared <- Array.make (sets * ways) false

  let create () =
    let m =
      { sets = 0; child = [||]; entry = [||]; used = [||]; shared = [||]; clock = 0 }
    in
    alloc m min_sets;
    m

  let hash child = Hashtbl.hash (head_key child)

  (* First way of the set of a child hashing to [h]. *)
  let base m h = (h land (m.sets - 1)) * ways

  (* The entry pc of [child] (hashing to [h]), or -1. *)
  let find m h child =
    let i = ref (base m h) and last = base m h + ways in
    while !i < last && not (m.entry.(!i) >= 0 && m.child.(!i) == child) do
      incr i
    done;
    if !i = last then -1
    else begin
      m.clock <- m.clock + 1;
      m.used.(!i) <- m.clock;
      m.shared.(!i) <- true;
      m.entry.(!i)
    end

  let rec add m h child pc =
    let b = base m h in
    let lru = ref b in
    for i = b + 1 to b + ways - 1 do
      if m.used.(i) < m.used.(!lru) then lru := i
    done;
    let i = !lru in
    if m.shared.(i) && m.sets < max_sets then begin
      grow m;
      add m h child pc
    end
    else begin
      m.clock <- m.clock + 1;
      m.child.(i) <- child;
      m.entry.(i) <- pc;
      m.used.(i) <- m.clock;
      m.shared.(i) <- false
    end

  (* Doubling splits each set into two, so every entry finds a free way in
     its new set. *)
  and grow m =
    let child = m.child and entry = m.entry in
    let used = m.used and shared = m.shared in
    alloc m (2 * m.sets);
    Array.iteri
      (fun i pc ->
        if pc >= 0 then begin
          let j = ref (base m (hash child.(i))) in
          while m.entry.(!j) >= 0 do incr j done;
          m.child.(!j) <- child.(i);
          m.entry.(!j) <- pc;
          m.used.(!j) <- used.(i);
          m.shared.(!j) <- shared.(i)
        end)
      entry
end

(* A growable int vector in fixed chunks of [size] ints, for the arena
   and the fork-site table of [compile].  Growing never copies, and each
   chunk is a small block: allocated young and, if it survives, promoted
   into the major heap's size-classed pools.  A doubling array would
   re-allocate and copy large blocks — fresh memory at every step — and a
   final trim would copy the arena once more: on a large program that
   costs more host time than the eager forcing itself, and several times
   the arena in transient heap. *)
module Vec = struct
  let bits = 7
  let size = 1 lsl bits

  type t = { mutable chunks : int array array; mutable len : int }

  let create () = { chunks = [||]; len = 0 }
  let get v i = v.chunks.(i lsr bits).(i land (size - 1))
  let set v i x = v.chunks.(i lsr bits).(i land (size - 1)) <- x

  let push v x =
    let i = v.len in
    let c = i lsr bits in
    if i land (size - 1) = 0 then begin
      if c = Array.length v.chunks then begin
        let n = Array.make (max 8 (2 * c)) [||] in
        Array.blit v.chunks 0 n 0 c;
        v.chunks <- n
      end;
      v.chunks.(c) <- Array.make size 0
    end;
    v.chunks.(c).(i land (size - 1)) <- x;
    v.len <- i + 1

  let to_array v =
    let arr = Array.make v.len 0 in
    for c = 0 to (v.len - 1) asr bits do
      Array.blit v.chunks.(c) 0 arr (c lsl bits) (min size (v.len - (c lsl bits)))
    done;
    arr
end

let compile ?(budget = 1_000_000) prog =
  let op = Vec.create () and a = Vec.create () in
  let b = Vec.create () and nx = Vec.create () in
  let emit o av bv =
    let pc = op.Vec.len in
    if pc >= budget then raise Compile_abort;
    Vec.push op o;
    Vec.push a av;
    Vec.push b bv;
    Vec.push nx (-1);
    pc
  in
  (* Sync objects are interned to dense code-local indices, one space per
     kind (user and kernel semaphore state live in separate tables, so a
     [Sem.t] used both ways gets an index in each). *)
  let intern tbl lst count key obj =
    match Hashtbl.find_opt tbl key with
    | Some i -> i
    | None ->
        let i = !count in
        incr count;
        Hashtbl.add tbl key i;
        lst := obj :: !lst;
        i
  in
  let mtbl = Hashtbl.create 8 and mlst = ref [] and mn = ref 0 in
  let ctbl = Hashtbl.create 8 and clst = ref [] and cn = ref 0 in
  let stbl = Hashtbl.create 8 and slst = ref [] and sn = ref 0 in
  let ktbl = Hashtbl.create 8 and klst = ref [] and kn = ref 0 in
  let midx m = intern mtbl mlst mn (Mutex.id m) m in
  let cidx c = intern ctbl clst cn (Cond.id c) c in
  let sidx s = intern stbl slst sn (Sem.id s) s in
  let kidx s = intern ktbl klst kn (Sem.id s) s in
  let check v = if v < sentinel_threshold then raise Compile_abort; v in
  let check_span v = if v < 0 then raise Compile_abort; v in
  (* Every instruction belongs to exactly one thread-straight-line region:
     the root is region 0, each compiled fork child opens a fresh region
     while the continuation stays in the forker's.  A memoized child's
     entry pc has one predecessor per fork site that reuses it, but all
     its instructions still lie in the one region it was compiled in.  A
     join on a site recorded under a different region would look up a
     fork binding its own thread never established — abort (the program
     captured a thread id across a fork boundary).  [sites] holds, per fork
     site, its region shifted left by one, the low bit set once a join
     names the site: forks at sites no join names get [b = -1], so the
     step loop records no binding for them. *)
  let sites = Vec.create () in
  let next_region = ref 1 in
  (* Physically-shared fork children compile once and every fork site
     points at the same entry pc.  Fan-out programs fork one shared
     subtree thousands of times; duplicating it would make compilation
     O(instances) and blow the arena for no behavioural gain — joins
     resolve fork sites through each running thread's own bindings, so
     instances sharing code (and fork sites) stay independent.  Keyed on
     physical equality: a non-[Dynamic] tree is force-pure by contract,
     so forcing it once stands for every instance ([Memo] above).
     Structurally equal but physically distinct children (a server's
     per-request subtrees) share one set and just miss.  Allocated at the
     first fork. *)
  let memo = lazy (Memo.create ()) in
  let rec go region prog0 =
    let entry = ref (-1) and patch = ref (-1) in
    let link pc =
      if !entry = -1 then entry := pc else Vec.set nx !patch pc;
      patch := pc
    in
    let cur = ref prog0 in
    let running = ref true in
    while !running do
      match !cur with
      | Done ->
          link (emit Code.op_done 0 0);
          running := false
      | Compute (d, k) ->
          link (emit Code.op_compute (check_span d) 0);
          cur := k ()
      | Acquire (m, k) ->
          link (emit Code.op_acquire (midx m) 0);
          cur := k ()
      | Release (m, k) ->
          link (emit Code.op_release (midx m) 0);
          cur := k ()
      | Wait (c, m, k) ->
          link (emit Code.op_wait (cidx c) (midx m));
          cur := k ()
      | Signal (c, k) ->
          link (emit Code.op_signal (cidx c) 0);
          cur := k ()
      | Broadcast (c, k) ->
          link (emit Code.op_broadcast (cidx c) 0);
          cur := k ()
      | Sem_p (s, k) ->
          link (emit Code.op_sem_p (sidx s) 0);
          cur := k ()
      | Sem_v (s, k) ->
          link (emit Code.op_sem_v (sidx s) 0);
          cur := k ()
      | Ksem_p (s, k) ->
          link (emit Code.op_ksem_p (kidx s) 0);
          cur := k ()
      | Ksem_v (s, k) ->
          link (emit Code.op_ksem_v (kidx s) 0);
          cur := k ()
      | Fork (child, k) ->
          let site = sites.Vec.len in
          let pc = emit Code.op_fork 0 site in
          link pc;
          Vec.push sites (region lsl 1);
          let memo = Lazy.force memo in
          let h = Memo.hash child in
          let child_pc =
            match Memo.find memo h child with
            | -1 ->
                let child_region = !next_region in
                incr next_region;
                let cpc = go child_region child in
                Memo.add memo h child cpc;
                cpc
            | cpc -> cpc
          in
          Vec.set a pc child_pc;
          cur := k (sentinel_of_site site)
      | Join (tid, k) ->
          let operand =
            if is_sentinel tid then begin
              let site = sentinel_base - tid in
              if site >= sites.Vec.len || Vec.get sites site lsr 1 <> region
              then raise Compile_abort;
              Vec.set sites site (Vec.get sites site lor 1);
              -(site + 1)
            end
            else if tid < 0 then raise Compile_abort
            else tid
          in
          link (emit Code.op_join operand 0);
          cur := k ()
      | Io (d, k) ->
          link (emit Code.op_io (check_span d) 0);
          cur := k ()
      | Cache_read (blk, k) ->
          link (emit Code.op_cache_read (check blk) 0);
          cur := k ()
      | Yield k ->
          link (emit Code.op_yield 0 0);
          cur := k ()
      | Stamp (id, k) ->
          link (emit Code.op_stamp (check id) 0);
          cur := k ()
      | Set_priority (p, k) ->
          link (emit Code.op_set_priority (check p) 0);
          cur := k ()
      | Dynamic _ ->
          (* Force-dependent program: eager forcing would run its host
             effects at compile time instead of at execution. *)
          raise Compile_abort
    done;
    !entry
  in
  match go 0 prog with
  | exception ((Out_of_memory | Assert_failure _) as e) -> raise e
  | exception _ ->
      (* Any exception during eager forcing (including [Compile_abort] and
         [Stack_overflow] on pathologically deep fork nesting) falls back
         to the step loop's lazy fetch, which forces continuations at the
         original program-order points. *)
      None
  | root_pc ->
      assert (root_pc = 0);
      let op = Vec.to_array op and b = Vec.to_array b in
      Array.iteri
        (fun pc o ->
          if o = Code.op_fork && Vec.get sites b.(pc) land 1 = 0 then
            b.(pc) <- -1)
        op;
      Some
        {
          Code.op;
          a = Vec.to_array a;
          b;
          nx = Vec.to_array nx;
          mutexes = Array.of_list (List.rev !mlst);
          conds = Array.of_list (List.rev !clst);
          sems = Array.of_list (List.rev !slst);
          ksems = Array.of_list (List.rev !klst);
        }

let op_count prog ~max =
  let rec go n prog =
    if n >= max then n
    else
      match prog with
      | Done -> n
      | Compute (_, k)
      | Acquire (_, k)
      | Release (_, k)
      | Wait (_, _, k)
      | Signal (_, k)
      | Broadcast (_, k)
      | Sem_p (_, k)
      | Sem_v (_, k)
      | Ksem_p (_, k)
      | Ksem_v (_, k)
      | Join (_, k)
      | Io (_, k)
      | Cache_read (_, k)
      | Yield k
      | Stamp (_, k)
      | Set_priority (_, k) ->
          go (n + 1) (k ())
      | Fork (child, k) ->
          let n = go (n + 1) child in
          if n >= max then n else go n (k (-1))
      | Dynamic p -> go n p
  in
  go 0 prog

let pp ppf prog =
  let budget = ref 200 in
  let rec go ppf prog depth =
    if !budget <= 0 || depth > 8 then Format.pp_print_string ppf "..."
    else begin
      decr budget;
      match prog with
      | Done -> Format.pp_print_string ppf "done"
      | Compute (d, k) ->
          Format.fprintf ppf "compute(%a); %a" Sa_engine.Time.pp_span d
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Acquire (m, k) ->
          Format.fprintf ppf "acquire(%s); %a" (Mutex.name m)
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Release (m, k) ->
          Format.fprintf ppf "release(%s); %a" (Mutex.name m)
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Wait (c, m, k) ->
          Format.fprintf ppf "wait(%s,%s); %a" (Cond.name c) (Mutex.name m)
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Signal (c, k) ->
          Format.fprintf ppf "signal(%s); %a" (Cond.name c)
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Broadcast (c, k) ->
          Format.fprintf ppf "broadcast(%s); %a" (Cond.name c)
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Sem_p (s, k) ->
          Format.fprintf ppf "P(%s); %a" (Sem.name s)
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Sem_v (s, k) ->
          Format.fprintf ppf "V(%s); %a" (Sem.name s)
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Ksem_p (s, k) ->
          Format.fprintf ppf "kP(%s); %a" (Sem.name s)
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Ksem_v (s, k) ->
          Format.fprintf ppf "kV(%s); %a" (Sem.name s)
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Fork (child, k) ->
          Format.fprintf ppf "fork{%a}; %a"
            (fun ppf () -> go ppf child (depth + 1))
            ()
            (fun ppf () -> go ppf (k (-1)) depth)
            ()
      | Join (tid, k) ->
          Format.fprintf ppf "join(%d); %a" tid
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Io (d, k) ->
          Format.fprintf ppf "io(%a); %a" Sa_engine.Time.pp_span d
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Cache_read (b, k) ->
          Format.fprintf ppf "read(%d); %a" b
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Yield k ->
          Format.fprintf ppf "yield; %a"
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Stamp (id, k) ->
          Format.fprintf ppf "stamp(%d); %a" id
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Set_priority (p, k) ->
          Format.fprintf ppf "prio(%d); %a" p
            (fun ppf () -> go ppf (k ()) depth)
            ()
      | Dynamic _ ->
          (* declared force-dependent: rendering would run host effects *)
          Format.pp_print_string ppf "dynamic(...)"
    end
  in
  go ppf prog 0
