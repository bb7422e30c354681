module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Program = Sa_program.Program
module Pcode = Sa_program.Program.Code
module Cost_model = Sa_hw.Cost_model
module Buffer_cache = Sa_hw.Buffer_cache
module Io_device = Sa_hw.Io_device

(* The step loop dispatches on raw int tags (a jump table); pin the
   numbering it assumes to the constants [Program.Code] exports. *)
let () =
  assert (
    Pcode.op_done = 0 && Pcode.op_compute = 1 && Pcode.op_acquire = 2
    && Pcode.op_release = 3 && Pcode.op_wait = 4 && Pcode.op_signal = 5
    && Pcode.op_broadcast = 6 && Pcode.op_sem_p = 7 && Pcode.op_sem_v = 8
    && Pcode.op_ksem_p = 9 && Pcode.op_ksem_v = 10 && Pcode.op_fork = 11
    && Pcode.op_join = 12 && Pcode.op_io = 13 && Pcode.op_cache_read = 14
    && Pcode.op_yield = 15 && Pcode.op_stamp = 16
    && Pcode.op_set_priority = 17 && Pcode.op_refill = 18)

type strategy = Copy_sections | Explicit_flag
type tstate = Embryo | Ready | Running | Blocked_user | Blocked_kernel | Done

(* [lease_until]/[lease_for] implement time-window ("lease") locks: a
   dispatcher that folds its dispatch charge into the dispatched thread's
   accumulator ({!fold_dispatch}) releases the queue cell under a lease
   covering the window it would otherwise have held the cell across a
   charge event.  Probes from other owners fail through the expiry instant
   inclusive — in the unfolded schedule the unlock and the dispatched
   thread's next cell acquisition run inside the same event callback, so
   the cell never appears free to other events at that instant — which
   makes thieves observe exactly the unfolded schedule's contention
   window.  [lease_for] (the dispatched thread) passes through, since its
   own merged charge covers the same window. *)
type cs_cell = {
  mutable owner : int option;
  mutable lease_until : Time.t;
  mutable lease_for : int;
}

type tcb = {
  tid : int;
  name : string;  (* "" until named: [tcb_name] then formats "t<tid>" *)
  mutable prio : int;  (* higher runs first; children inherit the forker's *)
  mutable tstate : tstate;
  mutable resume : unit -> unit;  (* valid when Ready *)
  mutable binding : int;  (* vessel index the thread last ran on *)
  mutable held_cell : cs_cell option;
  mutable cs_hook : (unit -> unit) option;
      (* set while the thread is being "temporarily continued" through a
         critical section after a preemption (Section 3.3): at section exit
         the thread parks itself on the ready list and control returns to
         the original upcall via this hook *)
  mutable joiners : tcb list;
  (* Step-loop execution context. *)
  mutable pc : int;  (* current instruction in the thread's Code arena *)
  mutable phase : int;
      (* 0 fetch-dispatch at [pc]; 1 wait-wakeup (re-acquire the mutex at
         the wait op); 2 charge done, op transition pending; 3 charge done,
         re-acquire transition pending *)
  mutable acc : int;  (* accumulated not-yet-charged compute (ns) *)
  mutable binds : (int * int) list;  (* fork site -> spawned child tid *)
  mutable k_step : unit -> unit;  (* preallocated: enter step loop at pc *)
  mutable k_commit : unit -> unit;  (* preallocated: post-charge commit *)
  mutable k_run : unit -> unit;  (* preallocated: set Running, then step *)
}

type stats = {
  mutable forks : int;
  mutable completions : int;
  mutable dispatches : int;
  mutable steals : int;
  mutable ublocks : int;
  mutable kblocks : int;
  mutable cs_spin_ns : int;
  mutable cs_recoveries : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable remote_fills : int;
  mutable program_steps : int;
  mutable charge_segments : int;
  mutable charge_batches : int;
}

type mutex_state = {
  m_cell : cs_cell;
  mutable m_holder : int option;  (* tid *)
  m_waiters : tcb Queue.t;
}

type cond_state = { c_cell : cs_cell; c_waiters : tcb Queue.t }

type sem_state = {
  s_cell : cs_cell;
  mutable s_count : int;
  s_waiters : tcb Queue.t;
}

(* Kernel-level semaphore: waiters block in the kernel and come back through
   the substrate's kernel-wakeup path (an upcall under activations). *)
type ksem_state = {
  mutable k_count : int;
  k_waiters : (unit -> unit) Queue.t;  (* kernel wake functions *)
}

type state = {
  queues : tcb Deque.t array;
  q_cells : cs_cell array;
  mutable next_tid : int;
  mutable live : int;
  mutable ready_count : int;
  mutable running_count : int;
  mutable threads : tcb array;
      (* dense thread table: tid [i] (1 .. next_tid) at index [i]; slot 0
         and slots past [next_tid] hold filler *)
  mutexes : (int, mutex_state) Hashtbl.t;
  conds : (int, cond_state) Hashtbl.t;
  sems : (int, sem_state) Hashtbl.t;
  ksems : (int, ksem_state) Hashtbl.t;
  mutable has_priorities : bool;
      (* fast path: ready lists stay plain LIFO deques until some thread
         actually sets a non-zero priority *)
  cache : Buffer_cache.t option;
  io_dev : Io_device.t option;
  cache_waiters : (int, tcb list) Hashtbl.t;
  mutable remote_fill : (int -> ((unit -> unit) -> unit) option) option;
      (* cluster hook: a miss may resolve from a peer machine's cache over
         the network instead of the disk; [Some register] means the fetch
         is in flight and [register wake] will deliver the block *)
  mutable clock : unit -> Time.t;
      (* current simulated time, installed by the substrate at create time;
         consulted by cell probes to decide whether a lease is still live *)
  st : stats;
}

type driver = {
  costs : Cost_model.t;
  strategy : strategy;
  sa_accounting : bool;
  io_latency : Time.span;
  charge : tcb -> Time.span -> (unit -> unit) -> unit;
  block_io : tcb -> Time.span -> (unit -> unit) -> unit;
  block_kernel :
    tcb -> register:((unit -> unit) -> unit) -> (unit -> unit) -> unit;
  thread_stopped : tcb -> unit;
  work_created : state -> tcb -> unit;
  all_done : unit -> unit;
  on_stamp : int -> unit;
}

(* Code linked against one state: code-local sync-object indices resolved
   to this state's mutex/cond/sem/ksem records once, so the step loop's
   per-op cost is a single array read instead of a [Hashtbl] probe.

   A program [Program.compile] refuses runs on a per-thread scratch link
   instead (the lazy fetch): a two-slot code whose slot 0 holds the
   current operation, encoded with literal operands against one-entry
   sync arrays, and whose slot 1 is [op_refill].  Refilling forces
   [lnext], the continuation of the operation in slot 0; a lazy fork
   spawns [lchild] and leaves the child's tid in [ltid] for it. *)
type link = {
  lcode : Program.Code.t;
  lmut : mutex_state array;
  lcond : cond_state array;
  lsem : sem_state array;
  lksem : ksem_state array;
  mutable lnext : unit -> Program.t;
  mutable lchild : Program.t;
  mutable ltid : int;
}

let tcb_id t = t.tid
let tcb_name t = if t.name = "" then "t" ^ string_of_int t.tid else t.name
let tcb_priority t = t.prio
let tcb_state t = t.tstate
let tcb_in_cs t = t.held_cell <> None
let tcb_binding t = t.binding
let cell_owner c = c.owner

let new_cell () = { owner = None; lease_until = Time.zero; lease_for = 0 }

let create_state ~queues ?cache ?io_dev () =
  if queues <= 0 then invalid_arg "Ft_core.create_state: queues";
  {
    queues = Array.init queues (fun _ -> Deque.create ());
    q_cells = Array.init queues (fun _ -> new_cell ());
    next_tid = 0;
    live = 0;
    ready_count = 0;
    running_count = 0;
    threads = [||];
    has_priorities = false;
    mutexes = Hashtbl.create 16;
    conds = Hashtbl.create 16;
    sems = Hashtbl.create 16;
    ksems = Hashtbl.create 16;
    cache;
    io_dev;
    cache_waiters = Hashtbl.create 16;
    remote_fill = None;
    clock = (fun () -> Time.zero);
    st =
      {
        forks = 0;
        completions = 0;
        dispatches = 0;
        steals = 0;
        ublocks = 0;
        kblocks = 0;
        cs_spin_ns = 0;
        cs_recoveries = 0;
        cache_hits = 0;
        cache_misses = 0;
        remote_fills = 0;
        program_steps = 0;
        charge_segments = 0;
        charge_batches = 0;
      };
  }

let stats s = s.st
let live_threads s = s.live
let ready_threads s = s.ready_count
let runnable_threads s = s.ready_count + s.running_count
let finished s = s.live = 0

let find_thread s tid =
  if tid >= 1 && tid <= s.next_tid then s.threads.(tid)
  else invalid_arg "Join: unknown thread id"

let state_counts s =
  let states =
    [ Embryo; Ready; Running; Blocked_user; Blocked_kernel; Done ]
  in
  List.map
    (fun st ->
      let n = ref 0 in
      for tid = 1 to s.next_tid do
        if s.threads.(tid).tstate = st then incr n
      done;
      (st, !n))
    states

let threads_in s st =
  let acc = ref [] in
  for tid = s.next_tid downto 1 do
    let tcb = s.threads.(tid) in
    if tcb.tstate = st then acc := tcb :: !acc
  done;
  !acc

let io_device s = s.io_dev
let set_remote_fill s f = s.remote_fill <- f

let queued_tids s =
  Array.to_list s.queues
  |> List.concat_map (fun dq -> List.map (fun t -> t.tid) (Deque.to_list dq))

(* ------------------------------------------------------------------ *)
(* Sync-object tables                                                  *)
(* ------------------------------------------------------------------ *)

let mutex_state s m =
  let id = Program.Mutex.id m in
  match Hashtbl.find_opt s.mutexes id with
  | Some ms -> ms
  | None ->
      let ms =
        { m_cell = new_cell (); m_holder = None; m_waiters = Queue.create () }
      in
      Hashtbl.replace s.mutexes id ms;
      ms

let cond_state s c =
  let id = Program.Cond.id c in
  match Hashtbl.find_opt s.conds id with
  | Some cs -> cs
  | None ->
      let cs = { c_cell = new_cell (); c_waiters = Queue.create () } in
      Hashtbl.replace s.conds id cs;
      cs

let sem_state s sem =
  let id = Program.Sem.id sem in
  match Hashtbl.find_opt s.sems id with
  | Some ss -> ss
  | None ->
      let ss =
        {
          s_cell = new_cell ();
          s_count = Program.Sem.initial sem;
          s_waiters = Queue.create ();
        }
      in
      Hashtbl.replace s.sems id ss;
      ss

let ksem_state s sem =
  let id = Program.Sem.id sem in
  match Hashtbl.find_opt s.ksems id with
  | Some ks -> ks
  | None ->
      let ks =
        { k_count = Program.Sem.initial sem; k_waiters = Queue.create () }
      in
      Hashtbl.replace s.ksems id ks;
      ks

(* Fillers for a lazy link's one-entry sync arrays: each slot is
   overwritten with the real object before an operation uses it. *)
let no_mutex =
  { m_cell = new_cell (); m_holder = None; m_waiters = Queue.create () }

let no_cond = { c_cell = new_cell (); c_waiters = Queue.create () }
let no_sem = { s_cell = new_cell (); s_count = 0; s_waiters = Queue.create () }
let no_ksem = { k_count = 0; k_waiters = Queue.create () }
let no_next () = Program.Done

(* ------------------------------------------------------------------ *)
(* Ready lists                                                         *)
(* ------------------------------------------------------------------ *)

let queue_cell s i = s.q_cells.(i)

let set_state s tcb next =
  (match tcb.tstate with
  | Ready -> s.ready_count <- s.ready_count - 1
  | Running -> s.running_count <- s.running_count - 1
  | Embryo | Blocked_user | Blocked_kernel | Done -> ());
  (match next with
  | Ready -> s.ready_count <- s.ready_count + 1
  | Running -> s.running_count <- s.running_count + 1
  | Embryo | Blocked_user | Blocked_kernel | Done -> ());
  tcb.tstate <- next

let make_ready s d ~at tcb =
  (match tcb.tstate with
  | Done -> invalid_arg "make_ready: thread is done"
  | Running -> invalid_arg "make_ready: thread is running"
  | Ready -> invalid_arg "make_ready: already ready"
  | Embryo | Blocked_user | Blocked_kernel -> ());
  set_state s tcb Ready;
  Deque.push_front s.queues.(at) tcb;
  d.work_created s tcb

(* The paper's ready-list discipline (Section 4.2): new, woken and
   preempted threads go to the front of a list (LIFO, cache affinity), a
   yielding thread to the back, the owner pops the front and a thief takes
   the oldest from the back.  Once some thread carries a non-zero priority
   the owner scans every list for the global best and a thief takes its
   victim's best, so no high-priority thread waits behind a low-priority
   one (Section 1.2, goal 2); ties prefer the local list. *)
let best_prio dq =
  List.fold_left (fun acc t -> max acc t.prio) min_int (Deque.to_list dq)

let pop_own s index =
  let dq = s.queues.(index) in
  if not s.has_priorities then Deque.pop_front dq
  else begin
    let best_here = if Deque.is_empty dq then min_int else best_prio dq in
    let best = ref best_here and best_idx = ref index in
    Array.iteri
      (fun i q ->
        if i <> index && not (Deque.is_empty q) then begin
          let b = best_prio q in
          if b > !best then begin
            best := b;
            best_idx := i
          end
        end)
      s.queues;
    if !best = min_int then None
    else if !best_idx = index then
      Deque.remove_first dq (fun t -> t.prio = !best)
    else Deque.remove_last s.queues.(!best_idx) (fun t -> t.prio = !best)
  end

let steal_from s ~victim =
  let dq = s.queues.(victim) in
  if not s.has_priorities then Deque.pop_back dq
  else if Deque.is_empty dq then None
  else begin
    let best = best_prio dq in
    Deque.remove_last dq (fun t -> t.prio = best)
  end

let requeue_front s index tcb = Deque.push_front s.queues.(index) tcb

let run_thread s ~index tcb =
  (match tcb.tstate with
  | Ready -> ()
  | Embryo | Running | Blocked_user | Blocked_kernel | Done ->
      invalid_arg "run_thread: thread not ready");
  set_state s tcb Running;
  tcb.binding <- index;
  s.st.dispatches <- s.st.dispatches + 1;
  tcb.resume ()

(* ------------------------------------------------------------------ *)
(* Critical-section cells                                              *)
(* ------------------------------------------------------------------ *)

let try_lock_cell s cell ~owner =
  match cell.owner with
  | None ->
      if
        Time.compare cell.lease_until Time.zero > 0
        && cell.lease_for <> owner
        && Time.compare (s.clock ()) cell.lease_until <= 0
      then false
      else begin
        cell.lease_until <- Time.zero;
        cell.lease_for <- 0;
        cell.owner <- Some owner;
        true
      end
  | Some _ -> false

let unlock_cell cell = cell.owner <- None

(* Release [cell] under a lease: unavailable to everyone but [holder] until
   [span] from now.  Used by {!fold_dispatch} call sites to reproduce the
   contention window a dispatch-cost charge event would have created. *)
let lease_cell s cell ~holder ~span =
  cell.owner <- None;
  cell.lease_until <- Time.add (s.clock ()) span;
  cell.lease_for <- holder

let default_spin_slice = Time.us 10

let spin_lock_cell s cell ~owner ?(slice = default_spin_slice) ~charge k =
  let slice = max slice (Time.ns 50) in
  let slice_max = slice * 100 in
  let rec attempt slice =
    if try_lock_cell s cell ~owner then k ()
    else begin
      s.st.cs_spin_ns <- s.st.cs_spin_ns + slice;
      charge slice (fun () -> attempt (min (slice * 2) slice_max))
    end
  in
  attempt slice

let set_clock s f = s.clock <- f

(* The idle processor's sweep over its peers' ready lists (Section 4.2),
   probing [(thief + k) mod n] on attempt [k].  Nothing is charged
   between probes, so with no chooser installed an empty list can be
   skipped on a plain emptiness read: probing it could only fail a lock
   (no effect) or take and drop the cell, which at most clears an expired
   lease (manager owner ids are negative, never a lease holder's tid) —
   unobservable either way.  Under a chooser every attempt stays a
   "steal-victim" choice point, so recorded schedules replay unchanged.
   Top-level and closure-free: a sweep that finds nothing allocates
   nothing. *)
let rec sweep_from s sim ~thief ~chosen k =
  let n = Array.length s.queues in
  if k >= n then None
  else
    let v = (thief + k) mod n in
    let v =
      if chosen then
        Sim.pick sim ~site:"steal-victim" ~arity:n ~default:v
      else v
    in
    if v = thief || ((not chosen) && Deque.is_empty s.queues.(v)) then
      sweep_from s sim ~thief ~chosen (k + 1)
    else
      let cell = s.q_cells.(v) in
      if not (try_lock_cell s cell ~owner:(-(thief + 1))) then
        sweep_from s sim ~thief ~chosen (k + 1)
      else
        match steal_from s ~victim:v with
        | Some tcb ->
            s.st.steals <- s.st.steals + 1;
            Some (cell, tcb)
        | None ->
            unlock_cell cell;
            sweep_from s sim ~thief ~chosen (k + 1)

let steal_sweep s sim ~thief =
  let chosen =
    match Sim.chooser sim with None -> false | Some _ -> true
  in
  sweep_from s sim ~thief ~chosen 1

(* ------------------------------------------------------------------ *)
(* Charged operations                                                  *)
(* ------------------------------------------------------------------ *)

let flag_cost d crossings =
  match d.strategy with
  | Copy_sections -> 0
  | Explicit_flag -> crossings * d.costs.Cost_model.ut_critical_flag

let spin_slice d = max (5 * d.costs.Cost_model.ut_lock) (Time.ns 50)

(* One logical charge request that also issues one [d.charge] event. *)
let charge_counted s d tcb span k =
  s.st.charge_segments <- s.st.charge_segments + 1;
  s.st.charge_batches <- s.st.charge_batches + 1;
  d.charge tcb span k

(* Shared filler for a fresh TCB's [k_*] slots; every thread package
   entry point overwrites all three before the thread first runs. *)
let nop () = ()

(* Dispatch cost charged by the substrate driver when it takes a thread off
   a ready list (one critical-section crossing). *)
let dispatch_cost d =
  d.costs.Cost_model.ut_schedule + flag_cost d 1

let sa_extra d v = if d.sa_accounting then v else 0

(* ------------------------------------------------------------------ *)
(* Thread transitions                                                  *)
(*                                                                     *)
(* The state changes an operation commits once its charge completes.   *)
(* The step loop is built from these, and so is the reference CPS      *)
(* walker the differential tests keep as an oracle.                    *)
(* ------------------------------------------------------------------ *)

let block_user s d tcb resume_k =
  s.st.ublocks <- s.st.ublocks + 1;
  set_state s tcb Blocked_user;
  tcb.resume <- resume_k;
  d.thread_stopped tcb

let finish_thread s d tcb =
  set_state s tcb Done;
  s.live <- s.live - 1;
  s.st.completions <- s.st.completions + 1;
  let joiners = tcb.joiners in
  tcb.joiners <- [];
  List.iter (fun j -> make_ready s d ~at:tcb.binding j) joiners;
  if s.live = 0 then d.all_done ();
  d.thread_stopped tcb

let join_thread s d tcb ~target k =
  if target.tstate = Done then k ()
  else begin
    target.joiners <- tcb :: target.joiners;
    block_user s d tcb k
  end

let yield_thread s d tcb ~resume =
  tcb.resume <- resume;
  set_state s tcb Ready;
  Deque.push_back s.queues.(tcb.binding) tcb;
  d.work_created s tcb;
  d.thread_stopped tcb

let set_priority s tcb p =
  tcb.prio <- p;
  if p <> 0 then s.has_priorities <- true

let enter_section tcb cell = tcb.held_cell <- Some cell

(* Section exit: release the held cell.  A thread that was being
   temporarily continued through the section after a preemption (Section
   3.3) then parks itself on the ready list with [resume] and control
   returns to the original upcall; [false] tells the caller not to go on. *)
let leave_section s d tcb ~resume =
  (match tcb.held_cell with
  | Some cell ->
      unlock_cell cell;
      tcb.held_cell <- None
  | None -> ());
  match tcb.cs_hook with
  | None -> true
  | Some hook ->
      tcb.cs_hook <- None;
      tcb.resume <- resume;
      set_state s tcb Ready;
      Deque.push_front s.queues.(tcb.binding) tcb;
      d.work_created s tcb;
      hook ();
      false

(* ------------------------------------------------------------------ *)
(* Step loop                                                           *)
(*                                                                     *)
(* Every thread runs a pc-indexed step loop over a code arena instead  *)
(* of rebuilding [(unit -> t)] continuations: the compiled program,    *)
(* or a two-slot scratch arena refilled one operation at a time (the   *)
(* lazy fetch, for programs [Program.compile] refuses).  Consecutive   *)
(* [Compute] spans accumulate in [tcb.acc] with no [Sim] event at all  *)
(* and are merged into the next charging operation's single [d.charge] *)
(* (flushed separately before [Io], [Stamp] and a refill, which need   *)
(* the exact pre-block / pre-marker / pre-force instant).  Every state *)
(* transition happens at the same simulated time as under a            *)
(* one-event-per-charge CPS walk; the one semantic divergence is that  *)
(* the protecting [cs_cell] is taken at the start of a merged segment  *)
(* rather than after the compute part, so spin accounting and the      *)
(* Section 3.3 recovery-vs-ordinary preemption split can differ (see   *)
(* docs/INTERNALS.md s12).                                             *)
(* ------------------------------------------------------------------ *)

let rec step_loop s d tcb lk =
  match tcb.phase with
  | 2 ->
      tcb.phase <- 0;
      commit_op s d tcb lk
  | 3 ->
      tcb.phase <- 0;
      let code = lk.lcode in
      commit_acquire s d tcb lk
        lk.lmut.(Array.unsafe_get code.Pcode.b tcb.pc)
  | 1 ->
      (* Wait wakeup: re-acquire the mutex before leaving the wait op
         (counted as a program step of its own). *)
      tcb.phase <- 0;
      s.st.program_steps <- s.st.program_steps + 1;
      if tcb.acc = 0 then flat_reacquire s d tcb lk
      else flat_flush s d tcb ~phase:5
  | 4 ->
      tcb.phase <- 0;
      flat_cell_op s d tcb lk
  | 5 ->
      tcb.phase <- 0;
      flat_reacquire s d tcb lk
  | _ ->
      let code = lk.lcode in
      let pc = tcb.pc in
      s.st.program_steps <- s.st.program_steps + 1;
      let c = d.costs in
      (match Array.unsafe_get code.Pcode.op pc with
      | 1 (* compute *) ->
          s.st.charge_segments <- s.st.charge_segments + 1;
          tcb.acc <- tcb.acc + Array.unsafe_get code.Pcode.a pc;
          tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
          step_loop s d tcb lk
      | 0 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 11 | 15 ->
          (* Cell-protected ops flush accumulated compute as its own
             event first, so the cell is held for exactly the op-cost
             window.  Merging would serialize
             contended sync objects behind unrelated compute, and would
             starve thieves (whose [try_lock_cell] probes never spin) of
             the forker's/yielder's queue cell. *)
          if tcb.acc = 0 then flat_cell_op s d tcb lk
          else flat_flush s d tcb ~phase:4
      | 9 (* ksem_p *) ->
          flat_charge s d tcb ~cost:c.Cost_model.ut_lock
      | 10 (* ksem_v *) ->
          flat_charge s d tcb
            ~cost:(c.Cost_model.ut_unlock + c.Cost_model.kernel_trap)
      | 12 (* join *) ->
          (* Resolve now so an unknown target errors before any charge;
             the commit re-resolves and re-checks the target's state
             after the charge. *)
          ignore (flat_join_target s tcb (Array.unsafe_get code.Pcode.a pc));
          if tcb.acc = 0 then flat_cell_op s d tcb lk
          else flat_flush s d tcb ~phase:4
      | 13 (* io *) ->
          let span = Array.unsafe_get code.Pcode.a pc in
          if tcb.acc = 0 then flat_io s d tcb lk span
          else begin
            s.st.charge_batches <- s.st.charge_batches + 1;
            let pending = tcb.acc in
            tcb.acc <- 0;
            d.charge tcb pending (fun () -> flat_io s d tcb lk span)
          end
      | 14 (* cache_read *) ->
          flat_charge s d tcb ~cost:c.Cost_model.procedure_call
      | 16 (* stamp *) ->
          if tcb.acc = 0 then begin
            d.on_stamp (Array.unsafe_get code.Pcode.a pc);
            tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
            step_loop s d tcb lk
          end
          else begin
            (* Flush so the marker fires at the exact instant the
               thread reaches it. *)
            s.st.charge_batches <- s.st.charge_batches + 1;
            let pending = tcb.acc in
            tcb.acc <- 0;
            tcb.phase <- 2;
            d.charge tcb pending tcb.k_commit
          end
      | 17 (* set_priority *) ->
          flat_charge s d tcb ~cost:c.Cost_model.procedure_call
      | 18 (* refill: forcing is not a program step *) ->
          s.st.program_steps <- s.st.program_steps - 1;
          (* Flush first, so the continuation is forced at the instant
             the operation before it completed. *)
          if tcb.acc = 0 then lazy_refill s d tcb lk
          else flat_flush s d tcb ~phase:2
      | _ -> assert false)

(* Flush the accumulator as its own (cell-free) [Sim] event; [phase]
   routes [k_commit] back to the pending sync op. *)
and flat_flush s d tcb ~phase =
  s.st.charge_batches <- s.st.charge_batches + 1;
  let pending = tcb.acc in
  tcb.acc <- 0;
  tcb.phase <- phase;
  d.charge tcb pending tcb.k_commit

(* Cell-protected ops: always reached with an empty accumulator, so the
   cell is held for exactly the op cost. *)
and flat_cell_op s d tcb lk =
  let code = lk.lcode in
  let pc = tcb.pc in
  let c = d.costs in
  match Array.unsafe_get code.Pcode.op pc with
  | 0 (* done *) ->
      flat_charge_op s d tcb
        ~cell:(queue_cell s tcb.binding)
        ~cost:c.Cost_model.ut_finish ~crossings:1 ~phase:2
  | 11 (* fork *) ->
      flat_charge_op s d tcb
        ~cell:(queue_cell s tcb.binding)
        ~cost:
          (c.Cost_model.ut_fork + sa_extra d c.Cost_model.ut_sa_busy_accounting)
        ~crossings:2 ~phase:2
  | 12 (* join *) ->
      flat_charge_op s d tcb
        ~cell:(queue_cell s tcb.binding)
        ~cost:c.Cost_model.ut_join ~crossings:1 ~phase:2
  | 15 (* yield *) ->
      flat_charge_op s d tcb
        ~cell:(queue_cell s tcb.binding)
        ~cost:c.Cost_model.ut_yield ~crossings:1 ~phase:2
  | 2 (* acquire *) ->
      let ms = lk.lmut.(Array.unsafe_get code.Pcode.a pc) in
      flat_charge_op s d tcb ~cell:ms.m_cell ~cost:c.Cost_model.ut_lock
        ~crossings:1 ~phase:2
  | 3 (* release *) ->
      let ms = lk.lmut.(Array.unsafe_get code.Pcode.a pc) in
      flat_charge_op s d tcb ~cell:ms.m_cell ~cost:c.Cost_model.ut_unlock
        ~crossings:1 ~phase:2
  | 4 (* wait *) ->
      let cs = lk.lcond.(Array.unsafe_get code.Pcode.a pc) in
      flat_charge_op s d tcb ~cell:cs.c_cell
        ~cost:
          (c.Cost_model.ut_wait + sa_extra d c.Cost_model.ut_sa_busy_accounting)
        ~crossings:1 ~phase:2
  | 5 (* signal *) | 6 (* broadcast *) ->
      let cs = lk.lcond.(Array.unsafe_get code.Pcode.a pc) in
      flat_charge_op s d tcb ~cell:cs.c_cell
        ~cost:
          (c.Cost_model.ut_signal + sa_extra d c.Cost_model.ut_sa_resume_check)
        ~crossings:1 ~phase:2
  | 7 (* sem_p *) ->
      let ss = lk.lsem.(Array.unsafe_get code.Pcode.a pc) in
      flat_charge_op s d tcb ~cell:ss.s_cell
        ~cost:
          (c.Cost_model.ut_wait + sa_extra d c.Cost_model.ut_sa_busy_accounting)
        ~crossings:1 ~phase:2
  | 8 (* sem_v *) ->
      let ss = lk.lsem.(Array.unsafe_get code.Pcode.a pc) in
      flat_charge_op s d tcb ~cell:ss.s_cell
        ~cost:
          (c.Cost_model.ut_signal + sa_extra d c.Cost_model.ut_sa_resume_check)
        ~crossings:1 ~phase:2
  | _ -> assert false

and flat_reacquire s d tcb lk =
  let code = lk.lcode in
  let ms = lk.lmut.(Array.unsafe_get code.Pcode.b tcb.pc) in
  flat_charge_op s d tcb ~cell:ms.m_cell ~cost:d.costs.Cost_model.ut_lock
    ~crossings:1 ~phase:3

(* Charged operation protected by a cell: one [d.charge] event covering
   the accumulated compute plus the op cost, cell taken for the whole
   merged segment.  Only queue-cell ops (done/fork/join/yield) reach here
   with a non-empty accumulator — thieves merely [try_lock_cell] queue
   cells (probe fails, no spinning), so the longer window costs at most a
   missed steal; sync-object ops flush first ([flat_flush]).  Uncontended
   path allocates nothing ([k_commit] is preallocated, as is the kernel's
   per-activation charge closure). *)
and flat_charge_op s d tcb ~cell ~cost ~crossings ~phase =
  s.st.charge_segments <- s.st.charge_segments + 1;
  s.st.charge_batches <- s.st.charge_batches + 1;
  let cost = cost + flag_cost d crossings + tcb.acc in
  tcb.acc <- 0;
  tcb.phase <- phase;
  if try_lock_cell s cell ~owner:tcb.tid then begin
    enter_section tcb cell;
    d.charge tcb cost tcb.k_commit
  end
  else
    spin_lock_cell s cell ~owner:tcb.tid ~slice:(spin_slice d)
      ~charge:(fun slice k -> d.charge tcb slice k)
      (fun () ->
        enter_section tcb cell;
        d.charge tcb cost tcb.k_commit)

(* Charged operation with no protecting cell (kernel-semaphore ops,
   cache probes, priority): merged charge, commit via the phase route. *)
and flat_charge s d tcb ~cost =
  s.st.charge_segments <- s.st.charge_segments + 1;
  s.st.charge_batches <- s.st.charge_batches + 1;
  let cost = cost + tcb.acc in
  tcb.acc <- 0;
  tcb.phase <- 2;
  d.charge tcb cost tcb.k_commit

and flat_io s d tcb lk span =
  s.st.kblocks <- s.st.kblocks + 1;
  set_state s tcb Blocked_kernel;
  tcb.pc <- Array.unsafe_get lk.lcode.Pcode.nx tcb.pc;
  d.block_io tcb span tcb.k_run

and flat_join_target s tcb operand =
  let tid =
    if operand >= 0 then operand
    else
      match List.assoc_opt (-operand - 1) tcb.binds with
      | Some t -> t
      | None -> invalid_arg "Join: unknown thread id"
  in
  find_thread s tid

(* Post-charge state transition for the op at [tcb.pc], dispatched on the
   op tag. *)
and commit_op s d tcb lk =
  let code = lk.lcode in
  let pc = tcb.pc in
  let c = d.costs in
  match Array.unsafe_get code.Pcode.op pc with
  | 0 (* done *) -> finish_thread s d tcb
  | 2 (* acquire *) ->
      commit_acquire s d tcb lk lk.lmut.(Array.unsafe_get code.Pcode.a pc)
  | 3 (* release *) ->
      let ms = lk.lmut.(Array.unsafe_get code.Pcode.a pc) in
      (match ms.m_holder with
      | Some holder when holder = tcb.tid -> ()
      | Some _ | None -> invalid_arg "Release: not the holder");
      (match Queue.take_opt ms.m_waiters with
      | Some w ->
          ms.m_holder <- Some w.tid;
          make_ready s d ~at:tcb.binding w
      | None -> ms.m_holder <- None);
      flat_advance s d tcb lk
  | 4 (* wait *) ->
      let cs = lk.lcond.(Array.unsafe_get code.Pcode.a pc) in
      let mi = Array.unsafe_get code.Pcode.b pc in
      let ms = lk.lmut.(mi) in
      (match ms.m_holder with
      | Some holder when holder = tcb.tid -> ()
      | Some _ | None -> invalid_arg "Wait: caller does not hold mutex");
      (* Atomically release the mutex and sleep. *)
      (match Queue.take_opt ms.m_waiters with
      | Some w ->
          ms.m_holder <- Some w.tid;
          make_ready s d ~at:tcb.binding w
      | None -> ms.m_holder <- None);
      Queue.add tcb cs.c_waiters;
      tcb.phase <- 1;
      block_user s d tcb tcb.k_step
  | 5 (* signal *) ->
      let cs = lk.lcond.(Array.unsafe_get code.Pcode.a pc) in
      (match Queue.take_opt cs.c_waiters with
      | Some w -> make_ready s d ~at:tcb.binding w
      | None -> ());
      flat_advance s d tcb lk
  | 6 (* broadcast *) ->
      let cs = lk.lcond.(Array.unsafe_get code.Pcode.a pc) in
      Queue.iter (fun w -> make_ready s d ~at:tcb.binding w) cs.c_waiters;
      Queue.clear cs.c_waiters;
      flat_advance s d tcb lk
  | 7 (* sem_p *) ->
      let ss = lk.lsem.(Array.unsafe_get code.Pcode.a pc) in
      if ss.s_count > 0 then begin
        ss.s_count <- ss.s_count - 1;
        flat_advance s d tcb lk
      end
      else begin
        Queue.add tcb ss.s_waiters;
        tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
        block_user s d tcb tcb.k_step
      end
  | 8 (* sem_v *) ->
      let ss = lk.lsem.(Array.unsafe_get code.Pcode.a pc) in
      (match Queue.take_opt ss.s_waiters with
      | Some w -> make_ready s d ~at:tcb.binding w
      | None -> ss.s_count <- ss.s_count + 1);
      flat_advance s d tcb lk
  | 9 (* ksem_p *) ->
      let ks = lk.lksem.(Array.unsafe_get code.Pcode.a pc) in
      if ks.k_count > 0 then begin
        ks.k_count <- ks.k_count - 1;
        (* The check-and-decrement still traps into the kernel. *)
        s.st.charge_segments <- s.st.charge_segments + 1;
        s.st.charge_batches <- s.st.charge_batches + 1;
        tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
        d.charge tcb c.Cost_model.kernel_trap tcb.k_step
      end
      else begin
        s.st.kblocks <- s.st.kblocks + 1;
        set_state s tcb Blocked_kernel;
        tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
        d.block_kernel tcb
          ~register:(fun wake -> Queue.add wake ks.k_waiters)
          tcb.k_run
      end
  | 10 (* ksem_v *) ->
      let ks = lk.lksem.(Array.unsafe_get code.Pcode.a pc) in
      (match Queue.take_opt ks.k_waiters with
      | Some wake -> wake ()
      | None -> ks.k_count <- ks.k_count + 1);
      flat_advance s d tcb lk
  | 11 (* fork *) ->
      let child_pc = Array.unsafe_get code.Pcode.a pc in
      let child =
        if child_pc >= 0 then begin
          let child = new_flat_thread s d lk ~pc:child_pc in
          (* [b] is the fork site, or -1 when no join names it *)
          let site = Array.unsafe_get code.Pcode.b pc in
          if site >= 0 then tcb.binds <- (site, child.tid) :: tcb.binds;
          child
        end
        else begin
          (* Lazy fork: the child program compiles or runs lazily itself. *)
          let child = new_thread s d ~name:"" lk.lchild in
          lk.ltid <- child.tid;
          child
        end
      in
      set_priority s child tcb.prio;
      s.st.forks <- s.st.forks + 1;
      make_ready s d ~at:tcb.binding child;
      flat_advance s d tcb lk
  | 12 (* join *) ->
      let target =
        flat_join_target s tcb (Array.unsafe_get code.Pcode.a pc)
      in
      tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
      join_thread s d tcb ~target tcb.k_step
  | 14 (* cache_read *) -> (
      match s.cache with
      | None ->
          (* No cache configured: treat as always-hit. *)
          flat_advance s d tcb lk
      | Some cache -> (
          let block = Array.unsafe_get code.Pcode.a pc in
          match Buffer_cache.access cache block with
          | Buffer_cache.Hit ->
              s.st.cache_hits <- s.st.cache_hits + 1;
              flat_advance s d tcb lk
          | Buffer_cache.Miss ->
              s.st.cache_misses <- s.st.cache_misses + 1;
              s.st.kblocks <- s.st.kblocks + 1;
              set_state s tcb Blocked_kernel;
              tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
              let fill_done () =
                set_state s tcb Running;
                Buffer_cache.fill cache block;
                (* Wake threads that coalesced on this fill. *)
                (match Hashtbl.find_opt s.cache_waiters block with
                | Some waiters ->
                    Hashtbl.remove s.cache_waiters block;
                    List.iter
                      (fun w -> make_ready s d ~at:tcb.binding w)
                      (List.rev waiters)
                | None -> ());
                step_loop s d tcb lk
              in
              (match
                 match s.remote_fill with Some f -> f block | None -> None
               with
              | Some register ->
                  s.st.remote_fills <- s.st.remote_fills + 1;
                  d.block_kernel tcb ~register fill_done
              | None -> (
                  match s.io_dev with
                  | Some dev ->
                      d.block_kernel tcb
                        ~register:(fun wake -> Io_device.submit dev wake)
                        fill_done
                  | None -> d.block_io tcb d.io_latency fill_done))
          | Buffer_cache.Miss_in_flight ->
              s.st.cache_misses <- s.st.cache_misses + 1;
              let old =
                Option.value ~default:[]
                  (Hashtbl.find_opt s.cache_waiters block)
              in
              Hashtbl.replace s.cache_waiters block (tcb :: old);
              tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
              block_user s d tcb tcb.k_step))
  | 15 (* yield *) ->
      tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
      yield_thread s d tcb ~resume:tcb.k_step
  | 16 (* stamp: reached only via the acc flush *) ->
      d.on_stamp (Array.unsafe_get code.Pcode.a pc);
      flat_advance s d tcb lk
  | 17 (* set_priority *) ->
      set_priority s tcb (Array.unsafe_get code.Pcode.a pc);
      flat_advance s d tcb lk
  | 18 (* refill: reached only via the acc flush *) -> lazy_refill s d tcb lk
  | _ (* compute / io never commit here *) -> assert false

and flat_advance s d tcb lk =
  tcb.pc <- Array.unsafe_get lk.lcode.Pcode.nx tcb.pc;
  step_loop s d tcb lk

and commit_acquire s d tcb lk ms =
  match ms.m_holder with
  | None ->
      ms.m_holder <- Some tcb.tid;
      flat_advance s d tcb lk
  | Some _ ->
      (* Contended: block at user level; release re-readies us holding
         the mutex.  The holder may have released while we charged the
         block path, so re-check before sleeping. *)
      let c = d.costs in
      charge_counted s d tcb
        (c.Cost_model.ut_block_on_lock - c.Cost_model.ut_lock)
        (fun () ->
          match ms.m_holder with
          | None ->
              ms.m_holder <- Some tcb.tid;
              flat_advance s d tcb lk
          | Some _ ->
              Queue.add tcb ms.m_waiters;
              tcb.pc <- Array.unsafe_get lk.lcode.Pcode.nx tcb.pc;
              block_user s d tcb tcb.k_step)

(* Lazy fetch: force the continuation of the operation slot 0 just
   completed and encode the next operation in its place. *)
and lazy_refill s d tcb lk =
  lazy_load s lk (lk.lnext ());
  tcb.pc <- 0;
  step_loop s d tcb lk

(* Encode [prog]'s head operation into slot 0 of a lazy link: literal
   operands, sync objects through the one-entry arrays, and child pc -1
   for a fork (its child program waits in [lchild]). *)
and lazy_load s lk prog =
  let set op a k =
    lk.lcode.Pcode.op.(0) <- op;
    lk.lcode.Pcode.a.(0) <- a;
    lk.lnext <- k
  in
  match prog with
  | Program.Dynamic p -> lazy_load s lk p
  | Done -> set Pcode.op_done 0 no_next
  | Compute (span, k) -> set Pcode.op_compute span k
  | Acquire (m, k) ->
      lk.lmut.(0) <- mutex_state s m;
      set Pcode.op_acquire 0 k
  | Release (m, k) ->
      lk.lmut.(0) <- mutex_state s m;
      set Pcode.op_release 0 k
  | Wait (cv, m, k) ->
      lk.lcond.(0) <- cond_state s cv;
      lk.lmut.(0) <- mutex_state s m;
      set Pcode.op_wait 0 k
  | Signal (cv, k) ->
      lk.lcond.(0) <- cond_state s cv;
      set Pcode.op_signal 0 k
  | Broadcast (cv, k) ->
      lk.lcond.(0) <- cond_state s cv;
      set Pcode.op_broadcast 0 k
  | Sem_p (sem, k) ->
      lk.lsem.(0) <- sem_state s sem;
      set Pcode.op_sem_p 0 k
  | Sem_v (sem, k) ->
      lk.lsem.(0) <- sem_state s sem;
      set Pcode.op_sem_v 0 k
  | Ksem_p (sem, k) ->
      lk.lksem.(0) <- ksem_state s sem;
      set Pcode.op_ksem_p 0 k
  | Ksem_v (sem, k) ->
      lk.lksem.(0) <- ksem_state s sem;
      set Pcode.op_ksem_v 0 k
  | Fork (child, k) ->
      lk.lchild <- child;
      set Pcode.op_fork (-1) (fun () -> k lk.ltid)
  | Join (tid, k) ->
      (* A negative literal would read as a fork-site reference; a lazy
         thread records no fork bindings, so it is still rejected as an
         unknown id. *)
      set Pcode.op_join tid k
  | Io (span, k) -> set Pcode.op_io span k
  | Cache_read (block, k) -> set Pcode.op_cache_read block k
  | Yield k -> set Pcode.op_yield 0 k
  | Stamp (id, k) -> set Pcode.op_stamp id k
  | Set_priority (p, k) -> set Pcode.op_set_priority p k

and link_code s code =
  {
    lcode = code;
    lmut = Array.map (fun m -> mutex_state s m) code.Pcode.mutexes;
    lcond = Array.map (fun cv -> cond_state s cv) code.Pcode.conds;
    lsem = Array.map (fun sem -> sem_state s sem) code.Pcode.sems;
    lksem = Array.map (fun sem -> ksem_state s sem) code.Pcode.ksems;
    lnext = no_next;
    lchild = Program.Done;
    ltid = 0;
  }

and lazy_link s prog =
  let lk =
    {
      lcode =
        {
          Pcode.op = [| Pcode.op_done; Pcode.op_refill |];
          a = [| 0; 0 |];
          b = [| 0; 0 |];
          nx = [| 1; -1 |];
          mutexes = [||];
          conds = [||];
          sems = [||];
          ksems = [||];
        };
      lmut = [| no_mutex |];
      lcond = [| no_cond |];
      lsem = [| no_sem |];
      lksem = [| no_ksem |];
      lnext = no_next;
      lchild = Program.Done;
      ltid = 0;
    }
  in
  lazy_load s lk prog;
  lk

and make_tcb s ~name =
  s.next_tid <- s.next_tid + 1;
  let tid = s.next_tid in
  let tcb =
    {
      tid;
      name;
      prio = 0;
      tstate = Embryo;
      resume = (fun () -> ());
      binding = 0;
      held_cell = None;
      cs_hook = None;
      joiners = [];
      pc = 0;
      phase = 0;
      acc = 0;
      binds = [];
      k_step = nop;
      k_commit = nop;
      k_run = nop;
    }
  in
  let cap = Array.length s.threads in
  if tid >= cap then begin
    let grown = Array.make (max 64 (2 * cap)) tcb in
    Array.blit s.threads 0 grown 0 cap;
    s.threads <- grown
  end;
  s.threads.(tid) <- tcb;
  s.live <- s.live + 1;
  tcb

and install_flat s d tcb lk =
  tcb.k_step <- (fun () -> step_loop s d tcb lk);
  tcb.k_run <-
    (fun () ->
      set_state s tcb Running;
      step_loop s d tcb lk);
  tcb.k_commit <-
    (fun () ->
      (* A thread parked at the section exit keeps its pending commit in
         [tcb.phase]; [k_step] routes back to it on the next dispatch. *)
      if leave_section s d tcb ~resume:tcb.k_step then begin
        let ph = tcb.phase in
        tcb.phase <- 0;
        match ph with
        | 3 ->
            commit_acquire s d tcb lk
              lk.lmut.(Array.unsafe_get lk.lcode.Pcode.b tcb.pc)
        | 4 -> flat_cell_op s d tcb lk
        | 5 -> flat_reacquire s d tcb lk
        | _ -> commit_op s d tcb lk
      end);
  tcb.resume <- tcb.k_step

and new_flat_thread s d lk ~pc =
  let tcb = make_tcb s ~name:"" in
  tcb.pc <- pc;
  install_flat s d tcb lk;
  tcb

and new_thread s d ?(name = "") prog =
  let tcb = make_tcb s ~name in
  let lk =
    match Program.compile prog with
    | Some code -> link_code s code
    | None -> lazy_link s prog
  in
  install_flat s d tcb lk;
  tcb

(* Dispatch-cost folding: when a thread is being dispatched at an
   op boundary (resume is the bare step/run entry, not a preemption
   re-charge), the dispatch overhead can ride in its accumulator instead
   of being a [Sim] event of its own — the next charge consumes the
   accumulator before any state transition, so every transition instant is
   unchanged.  Preemption-recharge resumes are excluded: folding there
   would shift the interrupted segment's completion earlier.  So are
   threads parked with a pending commit phase (a Section-3.3 section exit):
   their commit transitions run straight off the dispatch, before any
   charge could consume the accumulator. *)
let fold_dispatch s d tcb =
  if
    (tcb.resume == tcb.k_step || tcb.resume == tcb.k_run)
    && tcb.phase <= 1
  then begin
    s.st.charge_segments <- s.st.charge_segments + 1;
    tcb.acc <- tcb.acc + dispatch_cost d;
    true
  end
  else false

let set_resume tcb k = tcb.resume <- k

let mark_kernel_blocked s tcb =
  match tcb.tstate with
  | Blocked_kernel -> ()
  | Running -> set_state s tcb Blocked_kernel
  | Embryo | Ready | Blocked_user | Done ->
      invalid_arg "mark_kernel_blocked: thread not executing"

let resume_preempted s d ~at tcb ~remaining ~resume k =
  match tcb.tstate with
  | Running when tcb.held_cell <> None ->
      (* Recovery (Section 3.3): continue the thread through the rest of its
         critical section on this vessel; the section exit parks it and
         calls [k]. *)
      s.st.cs_recoveries <- s.st.cs_recoveries + 1;
      tcb.cs_hook <- Some k;
      tcb.binding <- at;
      d.charge tcb remaining resume
  | Running | Blocked_kernel ->
      (* Ordinary preemption: back on the ready list with the unfinished
         segment saved as its resumption.  [Blocked_kernel] is possible
         when the interrupt landed during the thread's kernel-entry path
         (the state is set before the trap cost is charged); re-running the
         remainder completes the trap and blocks properly. *)
      tcb.resume <- (fun () -> d.charge tcb remaining resume);
      set_state s tcb Ready;
      Deque.push_front s.queues.(at) tcb;
      d.work_created s tcb;
      k ()
  | Embryo | Ready | Blocked_user | Done ->
      invalid_arg "resume_preempted: thread was not running"
