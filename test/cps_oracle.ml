(* Reference CPS walker: the differential oracle for the FastThreads step
   loop.

   It executes a [Program.t] the direct way: one [Sim] charge event per
   charge request, each continuation forced when the operation before it
   completes, and the dispatch cost always a manager event of its own
   (a walker thread's resumption is never the bare step-loop entry, so
   [Ft_core.fold_dispatch] declines it).  Every state change goes through
   the thread package's own transitions (the "thread transitions" section
   of ft_core.mli).  The step loop batches compute charges, folds dispatch
   costs and releases queue cells under leases; test_differential runs the
   same programs both ways and requires the same schedule.

   [install job prog] switches a freshly submitted FastThreads job to the
   walker: the root thread's resumption is replaced, and every thread it
   forks runs on the walker too.  Sync-object state lives in the walker's
   own tables, so a job runs entirely on one interpreter.  Cluster remote
   fills are not modelled. *)

module Program = Sa_program.Program
module Cost_model = Sa_hw.Cost_model
module Buffer_cache = Sa_hw.Buffer_cache
module Io_device = Sa_hw.Io_device
module Ft_core = Sa_uthread.Ft_core
module System = Sa.System

type mutex = {
  m_cell : Ft_core.cs_cell;
  mutable m_holder : int option;
  m_waiters : Ft_core.tcb Queue.t;
}

type cond = { c_cell : Ft_core.cs_cell; c_waiters : Ft_core.tcb Queue.t }

type sem = {
  s_cell : Ft_core.cs_cell;
  mutable s_count : int;
  s_waiters : Ft_core.tcb Queue.t;
}

type ksem = { mutable k_count : int; k_waiters : (unit -> unit) Queue.t }

type t = {
  s : Ft_core.state;
  d : Ft_core.driver;
  cache : Buffer_cache.t option;
  mutexes : (int, mutex) Hashtbl.t;
  conds : (int, cond) Hashtbl.t;
  sems : (int, sem) Hashtbl.t;
  ksems : (int, ksem) Hashtbl.t;
  cache_waiters : (int, Ft_core.tcb list) Hashtbl.t;
}

let find_or_add tbl id make =
  match Hashtbl.find_opt tbl id with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace tbl id v;
      v

let mutex o m =
  find_or_add o.mutexes (Program.Mutex.id m) (fun () ->
      { m_cell = Ft_core.new_cell (); m_holder = None; m_waiters = Queue.create () })

let cond o cv =
  find_or_add o.conds (Program.Cond.id cv) (fun () ->
      { c_cell = Ft_core.new_cell (); c_waiters = Queue.create () })

let sem o sm =
  find_or_add o.sems (Program.Sem.id sm) (fun () ->
      {
        s_cell = Ft_core.new_cell ();
        s_count = Program.Sem.initial sm;
        s_waiters = Queue.create ();
      })

let ksem o sm =
  find_or_add o.ksems (Program.Sem.id sm) (fun () ->
      { k_count = Program.Sem.initial sm; k_waiters = Queue.create () })

let flag_cost d crossings =
  match d.Ft_core.strategy with
  | Ft_core.Copy_sections -> 0
  | Ft_core.Explicit_flag -> crossings * d.Ft_core.costs.Cost_model.ut_critical_flag

let sa_extra d v = if d.Ft_core.sa_accounting then v else 0

(* One charge request, one [d.charge] event. *)
let charge_counted o tcb span k =
  let st = Ft_core.stats o.s in
  st.Ft_core.charge_segments <- st.Ft_core.charge_segments + 1;
  st.Ft_core.charge_batches <- st.Ft_core.charge_batches + 1;
  o.d.Ft_core.charge tcb span k

(* A thread-package operation: spin for the protecting cell, charge the
   operation cost as a critical-section segment, then leave the section
   and run [after] (the operation's state transition and continuation). *)
let charge_op o tcb ~cell ~cost ~crossings after =
  let st = Ft_core.stats o.s in
  st.Ft_core.charge_segments <- st.Ft_core.charge_segments + 1;
  st.Ft_core.charge_batches <- st.Ft_core.charge_batches + 1;
  let cost = cost + flag_cost o.d crossings in
  Ft_core.spin_lock_cell o.s cell ~owner:(Ft_core.tcb_id tcb)
    ~slice:(Ft_core.spin_slice o.d)
    ~charge:(fun slice k -> o.d.Ft_core.charge tcb slice k)
    (fun () ->
      Ft_core.enter_section tcb cell;
      o.d.Ft_core.charge tcb cost (fun () ->
          if Ft_core.leave_section o.s o.d tcb ~resume:after then after ()))

let rec exec o tcb prog =
  let s = o.s and d = o.d in
  let c = d.Ft_core.costs in
  let st = Ft_core.stats s in
  let here () = Ft_core.queue_cell s (Ft_core.tcb_binding tcb) in
  let make_ready w = Ft_core.make_ready s d ~at:(Ft_core.tcb_binding tcb) w in
  st.Ft_core.program_steps <- st.Ft_core.program_steps + 1;
  match prog with
  | Program.Dynamic p ->
      (* transparent marker, not a program step *)
      st.Ft_core.program_steps <- st.Ft_core.program_steps - 1;
      exec o tcb p
  | Program.Done ->
      charge_op o tcb ~cell:(here ()) ~cost:c.Cost_model.ut_finish
        ~crossings:1 (fun () -> Ft_core.finish_thread s d tcb)
  | Program.Compute (span, k) ->
      charge_counted o tcb span (fun () -> exec o tcb (k ()))
  | Program.Fork (child_prog, k) ->
      charge_op o tcb ~cell:(here ())
        ~cost:
          (c.Cost_model.ut_fork + sa_extra d c.Cost_model.ut_sa_busy_accounting)
        ~crossings:2
        (fun () ->
          let child = Ft_core.new_thread s d child_prog in
          Ft_core.set_resume child (fun () -> exec o child child_prog);
          Ft_core.set_priority s child (Ft_core.tcb_priority tcb);
          st.Ft_core.forks <- st.Ft_core.forks + 1;
          make_ready child;
          exec o tcb (k (Ft_core.tcb_id child)))
  | Program.Join (tid, k) ->
      let target = Ft_core.find_thread s tid in
      charge_op o tcb ~cell:(here ()) ~cost:c.Cost_model.ut_join ~crossings:1
        (fun () ->
          Ft_core.join_thread s d tcb ~target (fun () -> exec o tcb (k ())))
  | Program.Acquire (m, k) -> acquire o tcb (mutex o m) k
  | Program.Release (m, k) ->
      let ms = mutex o m in
      charge_op o tcb ~cell:ms.m_cell ~cost:c.Cost_model.ut_unlock
        ~crossings:1 (fun () ->
          (match ms.m_holder with
          | Some holder when holder = Ft_core.tcb_id tcb -> ()
          | Some _ | None -> invalid_arg "Release: not the holder");
          hand_over ms make_ready;
          exec o tcb (k ()))
  | Program.Wait (cv, m, k) ->
      let cs = cond o cv and ms = mutex o m in
      charge_op o tcb ~cell:cs.c_cell
        ~cost:(c.Cost_model.ut_wait + sa_extra d c.Cost_model.ut_sa_busy_accounting)
        ~crossings:1
        (fun () ->
          (match ms.m_holder with
          | Some holder when holder = Ft_core.tcb_id tcb -> ()
          | Some _ | None -> invalid_arg "Wait: caller does not hold mutex");
          (* Atomically release the mutex and sleep; re-acquire (a program
             step of its own) before returning from the wait. *)
          hand_over ms make_ready;
          Queue.add tcb cs.c_waiters;
          Ft_core.block_user s d tcb (fun () ->
              st.Ft_core.program_steps <- st.Ft_core.program_steps + 1;
              acquire o tcb ms k))
  | Program.Signal (cv, k) ->
      let cs = cond o cv in
      charge_op o tcb ~cell:cs.c_cell
        ~cost:(c.Cost_model.ut_signal + sa_extra d c.Cost_model.ut_sa_resume_check)
        ~crossings:1
        (fun () ->
          Option.iter make_ready (Queue.take_opt cs.c_waiters);
          exec o tcb (k ()))
  | Program.Broadcast (cv, k) ->
      let cs = cond o cv in
      charge_op o tcb ~cell:cs.c_cell
        ~cost:(c.Cost_model.ut_signal + sa_extra d c.Cost_model.ut_sa_resume_check)
        ~crossings:1
        (fun () ->
          Queue.iter make_ready cs.c_waiters;
          Queue.clear cs.c_waiters;
          exec o tcb (k ()))
  | Program.Sem_p (sm, k) ->
      let ss = sem o sm in
      charge_op o tcb ~cell:ss.s_cell
        ~cost:(c.Cost_model.ut_wait + sa_extra d c.Cost_model.ut_sa_busy_accounting)
        ~crossings:1
        (fun () ->
          if ss.s_count > 0 then begin
            ss.s_count <- ss.s_count - 1;
            exec o tcb (k ())
          end
          else begin
            Queue.add tcb ss.s_waiters;
            Ft_core.block_user s d tcb (fun () -> exec o tcb (k ()))
          end)
  | Program.Sem_v (sm, k) ->
      let ss = sem o sm in
      charge_op o tcb ~cell:ss.s_cell
        ~cost:(c.Cost_model.ut_signal + sa_extra d c.Cost_model.ut_sa_resume_check)
        ~crossings:1
        (fun () ->
          (match Queue.take_opt ss.s_waiters with
          | Some w -> make_ready w
          | None -> ss.s_count <- ss.s_count + 1);
          exec o tcb (k ()))
  | Program.Ksem_p (sm, k) ->
      let ks = ksem o sm in
      charge_counted o tcb c.Cost_model.ut_lock (fun () ->
          if ks.k_count > 0 then begin
            ks.k_count <- ks.k_count - 1;
            (* The check-and-decrement still traps into the kernel. *)
            charge_counted o tcb c.Cost_model.kernel_trap (fun () ->
                exec o tcb (k ()))
          end
          else
            block_kernel o tcb
              ~register:(fun wake -> Queue.add wake ks.k_waiters)
              (fun () -> exec o tcb (k ())))
  | Program.Ksem_v (sm, k) ->
      let ks = ksem o sm in
      charge_counted o tcb
        (c.Cost_model.ut_unlock + c.Cost_model.kernel_trap)
        (fun () ->
          (match Queue.take_opt ks.k_waiters with
          | Some wake -> wake ()
          | None -> ks.k_count <- ks.k_count + 1);
          exec o tcb (k ()))
  | Program.Io (span, k) -> block_io o tcb span (fun () -> exec o tcb (k ()))
  | Program.Cache_read (block, k) ->
      charge_counted o tcb c.Cost_model.procedure_call (fun () ->
          cache_read o tcb block (fun () -> exec o tcb (k ())))
  | Program.Stamp (id, k) ->
      d.Ft_core.on_stamp id;
      exec o tcb (k ())
  | Program.Set_priority (p, k) ->
      charge_counted o tcb c.Cost_model.procedure_call (fun () ->
          Ft_core.set_priority s tcb p;
          exec o tcb (k ()))
  | Program.Yield k ->
      charge_op o tcb ~cell:(here ()) ~cost:c.Cost_model.ut_yield ~crossings:1
        (fun () ->
          Ft_core.yield_thread s d tcb ~resume:(fun () -> exec o tcb (k ())))

and acquire o tcb ms k =
  let c = o.d.Ft_core.costs in
  let take () =
    ms.m_holder <- Some (Ft_core.tcb_id tcb);
    exec o tcb (k ())
  in
  charge_op o tcb ~cell:ms.m_cell ~cost:c.Cost_model.ut_lock ~crossings:1
    (fun () ->
      match ms.m_holder with
      | None -> take ()
      | Some _ ->
          (* Contended: block at user level; release re-readies us holding
             the mutex.  The holder may have released while we charged the
             block path, so re-check before sleeping. *)
          charge_counted o tcb
            (c.Cost_model.ut_block_on_lock - c.Cost_model.ut_lock)
            (fun () ->
              match ms.m_holder with
              | None -> take ()
              | Some _ ->
                  Queue.add tcb ms.m_waiters;
                  Ft_core.block_user o.s o.d tcb (fun () -> exec o tcb (k ()))))

(* Pass a released mutex straight to its first waiter, if any. *)
and hand_over ms make_ready =
  match Queue.take_opt ms.m_waiters with
  | Some w ->
      ms.m_holder <- Some (Ft_core.tcb_id w);
      make_ready w
  | None -> ms.m_holder <- None

(* Kernel blocks: the thread is marked before the substrate charges the
   kernel entry, and running again when it resumes. *)
and kernel_blocked o tcb block k =
  let st = Ft_core.stats o.s in
  st.Ft_core.kblocks <- st.Ft_core.kblocks + 1;
  Ft_core.set_state o.s tcb Ft_core.Blocked_kernel;
  block (fun () ->
      Ft_core.set_state o.s tcb Ft_core.Running;
      k ())

and block_kernel o tcb ~register k =
  kernel_blocked o tcb (o.d.Ft_core.block_kernel tcb ~register) k

and block_io o tcb span k =
  kernel_blocked o tcb (o.d.Ft_core.block_io tcb span) k

and cache_read o tcb block k =
  let st = Ft_core.stats o.s in
  match o.cache with
  | None -> k () (* no cache configured: always a hit *)
  | Some cache -> (
      match Buffer_cache.access cache block with
      | Buffer_cache.Hit ->
          st.Ft_core.cache_hits <- st.Ft_core.cache_hits + 1;
          k ()
      | Buffer_cache.Miss ->
          st.Ft_core.cache_misses <- st.Ft_core.cache_misses + 1;
          let fill_done () =
            Buffer_cache.fill cache block;
            (* Wake threads that coalesced on this fill. *)
            (match Hashtbl.find_opt o.cache_waiters block with
            | Some waiters ->
                Hashtbl.remove o.cache_waiters block;
                List.iter
                  (fun w ->
                    Ft_core.make_ready o.s o.d ~at:(Ft_core.tcb_binding tcb) w)
                  (List.rev waiters)
            | None -> ());
            k ()
          in
          (match Ft_core.io_device o.s with
          | Some dev ->
              block_kernel o tcb
                ~register:(fun wake -> Io_device.submit dev wake)
                fill_done
          | None -> block_io o tcb o.d.Ft_core.io_latency fill_done)
      | Buffer_cache.Miss_in_flight ->
          st.Ft_core.cache_misses <- st.Ft_core.cache_misses + 1;
          let old =
            Option.value ~default:[] (Hashtbl.find_opt o.cache_waiters block)
          in
          Hashtbl.replace o.cache_waiters block (tcb :: old);
          Ft_core.block_user o.s o.d tcb k)

let install job prog =
  match (System.ft_core_state job, System.ft_driver job) with
  | Some s, Some d ->
      if Ft_core.live_threads s <> 1 then
        invalid_arg "Cps_oracle.install: job already forked";
      let o =
        {
          s;
          d;
          cache = System.cache job;
          mutexes = Hashtbl.create 16;
          conds = Hashtbl.create 16;
          sems = Hashtbl.create 16;
          ksems = Hashtbl.create 16;
          cache_waiters = Hashtbl.create 16;
        }
      in
      let root = Ft_core.find_thread s 1 in
      Ft_core.set_resume root (fun () -> exec o root prog)
  | _ -> invalid_arg "Cps_oracle.install: not a FastThreads job"
