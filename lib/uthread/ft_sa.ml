module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Cpu = Sa_hw.Cpu
module Cost_model = Sa_hw.Cost_model
module Kernel = Sa_kernel.Kernel
module Upcall = Sa_kernel.Upcall
module Program = Sa_program.Program

type loaded = L_none | L_thread of Ft_core.tcb | L_manager

type t = {
  mutable kernel : Kernel.t;
      (* the kernel currently hosting our space; cluster migration re-points
         it ([rehome]) before the space is attached to the target *)
  mutable space : Kernel.space option;
  mutable core_state : Ft_core.state;
  mutable driver : Ft_core.driver option;
  (* Direct-mapped tables: ids are dense enough that an array lookup beats
     hashing on the per-dispatch path.  [loaded] and [act_cpu] grow together
     (both indexed by activation id); absent entries are [L_none] / [-1] /
     [None]. *)
  mutable loaded : loaded array;  (* activation id -> contents *)
  mutable bound : Kernel.activation option array;  (* tid -> activation *)
  mutable act_cpu : int array;  (* activation id -> processor *)
  max_procs : int;
  mutable pending_recovery :
    (Ft_core.tcb * Time.span * (unit -> unit)) list;
      (* threads stopped mid-critical-section, awaiting temporary
         continuation (Section 3.3); drained by the next manager step *)
  mutable done_at : Time.t option;
  mutable started : bool;
  on_done : unit -> unit;
}

let core t = t.core_state
let space t = Option.get t.space
let completion_time t = t.done_at
let is_finished t = match t.done_at with None -> false | Some _ -> true
let pending_recoveries t = List.length t.pending_recovery
let driver t = Option.get t.driver

let grow_by_id a id fill =
  let n = Array.length a in
  let n' = max 32 (max (id + 1) (2 * n)) in
  let a' = Array.make n' fill in
  Array.blit a 0 a' 0 n;
  a'

let ensure_aid t aid =
  if aid >= Array.length t.loaded then begin
    t.loaded <- grow_by_id t.loaded aid L_none;
    t.act_cpu <- grow_by_id t.act_cpu aid (-1)
  end

let ensure_tid t tid =
  if tid >= Array.length t.bound then t.bound <- grow_by_id t.bound tid None

let loaded_of t aid = if aid < Array.length t.loaded then t.loaded.(aid) else L_none

let act_of t tcb =
  let tid = Ft_core.tcb_id tcb in
  match if tid < Array.length t.bound then t.bound.(tid) else None with
  | Some act -> act
  | None -> failwith "Ft_sa: thread not bound to an activation"

(* Ready-queue depth counter track; the count read only happens when the
   category is recorded. *)
let trace_ready t =
  let sim = Kernel.sim t.kernel in
  let tr = Sim.trace sim in
  if Trace.enabled tr Trace.Uthread then
    Trace.counter tr ~time:(Sim.now sim) Trace.Uthread
      ("ready:" ^ Kernel.space_name (space t))
      (float_of_int (Ft_core.ready_threads t.core_state))

(* Critical-section recovery (Section 3.3) as a span: opens when a thread
   preempted inside a critical section is queued for temporary continuation,
   closes when the continuation has run it to the section exit. *)
let trace_recovery t edge tcb =
  let sim = Kernel.sim t.kernel in
  let emit = match edge with `B -> Trace.span_begin | `E -> Trace.span_end in
  emit (Sim.trace sim) ~time:(Sim.now sim)
    ~space:(Kernel.space_id (space t))
    ~act:(Ft_core.tcb_id tcb) Trace.Uthread "cs-recovery"

let bind t act tcb =
  let aid = Kernel.activation_id act and tid = Ft_core.tcb_id tcb in
  ensure_aid t aid;
  ensure_tid t tid;
  t.loaded.(aid) <- L_thread tcb;
  t.bound.(tid) <- Some act

let unbind t act tcb =
  ensure_aid t (Kernel.activation_id act);
  t.loaded.(Kernel.activation_id act) <- L_manager;
  if Ft_core.tcb_id tcb < Array.length t.bound then
    t.bound.(Ft_core.tcb_id tcb) <- None

(* ------------------------------------------------------------------ *)
(* The manager: what an activation does when it is not running a thread *)
(* ------------------------------------------------------------------ *)

(* Charge manager work: idempotent scheduling activity whose preemption the
   kernel repairs rather than reports. *)
let charge_manager t act ?(repair = fun () -> ()) span k =
  Kernel.sa_charge ~repair t.kernel act span k

let release_processor t act =
  let aid = Kernel.activation_id act in
  ensure_aid t aid;
  t.loaded.(aid) <- L_none;
  t.act_cpu.(aid) <- -1;
  Kernel.sa_cpu_idle t.kernel act

let rec manager_continue t act =
  let aid = Kernel.activation_id act in
  let idx =
    if aid < Array.length t.act_cpu && t.act_cpu.(aid) >= 0 then
      t.act_cpu.(aid)
    else failwith "Ft_sa: activation has no processor record"
  in
  if Kernel.sa_cpu_warned t.kernel act then begin
    (* Warning-protocol kernels (Kconfig.preempt_warning) only hint that
       they want this processor back; a dispatch boundary is a safe point,
       so cooperate.  Any pending recovery is picked up by our remaining
       processors. *)
    t.loaded.(aid) <- L_none;
    t.act_cpu.(aid) <- -1;
    Kernel.sa_respond_warning t.kernel act
  end
  else
    match t.pending_recovery with
  | (tcb, remaining, resume) :: rest ->
      (* Temporarily continue a thread that was stopped inside a critical
         section; it parks itself at the section exit and control returns
         here (Section 3.3). *)
      t.pending_recovery <- rest;
      bind t act tcb;
      Ft_core.resume_preempted t.core_state (driver t) ~at:idx tcb ~remaining
        ~resume (fun () ->
          trace_recovery t `E tcb;
          if Ft_core.tcb_id tcb < Array.length t.bound then
            t.bound.(Ft_core.tcb_id tcb) <- None;
          t.loaded.(aid) <- L_manager;
          manager_continue t act)
  | [] ->
      if Ft_core.finished t.core_state then release_processor t act
      else dispatch t act idx

and dispatch t act idx =
  let s = t.core_state in
  let cell = Ft_core.queue_cell s idx in
  Ft_core.spin_lock_cell s cell ~owner:(-(idx + 1))
    ~slice:(Ft_core.spin_slice (driver t))
    ~charge:(fun slice k -> charge_manager t act slice k)
    (fun () ->
      match Ft_core.pop_own s idx with
      | Some tcb -> run_picked t act idx cell tcb
      | None -> (
          Ft_core.unlock_cell cell;
          match Ft_core.steal_sweep s (Kernel.sim t.kernel) ~thief:idx with
          | Some (vcell, tcb) -> run_picked t act idx vcell tcb
          | None -> idle_hysteresis t act idx))

and run_picked t act idx cell tcb =
  let s = t.core_state in
  let d = driver t in
  trace_ready t;
  bind t act tcb;
  if Ft_core.fold_dispatch s d tcb then begin
    (* Thread parked at a step-loop op boundary: the dispatch cost rides
       in the thread's charge accumulator — no manager event.  The queue
       cell is released under a lease so thieves see the same contention
       window a dispatch-cost charge event would have produced. *)
    Ft_core.lease_cell s cell ~holder:(Ft_core.tcb_id tcb)
      ~span:(Ft_core.dispatch_cost d);
    Ft_core.run_thread s ~index:idx tcb
  end
  else
    let repair () =
      (* Preempted mid-dispatch: put the half-dispatched thread back. *)
      Ft_core.unlock_cell cell;
      unbind t act tcb;
      Ft_core.requeue_front s idx tcb
    in
    charge_manager t act ~repair (Ft_core.dispatch_cost d) (fun () ->
        Ft_core.unlock_cell cell;
        Ft_core.run_thread s ~index:idx tcb)

and idle_hysteresis t act _idx =
  (* Section 4.2: an idle processor spins for a while before notifying the
     kernel that it is available for reallocation.  The spin re-scans the
     ready lists every slice — an idle virtual processor reacts to new work
     within ~100 us — and only gives the processor back after a full
     hysteresis period without finding any. *)
  let costs = Kernel.costs t.kernel in
  let spin_total = max costs.Cost_model.idle_spin (Time.us 1) in
  let slice_len = max (min spin_total (Time.us 100)) (Time.us 1) in
  let rec spin remaining =
    if Ft_core.finished t.core_state then release_processor t act
    else begin
      let slice = min slice_len remaining in
      charge_manager t act slice (fun () ->
          if
            Ft_core.ready_threads t.core_state > 0
            || t.pending_recovery <> []
            || Ft_core.finished t.core_state
          then manager_continue t act
          else if remaining - slice <= 0 then release_processor t act
          else spin (remaining - slice))
    end
  in
  spin spin_total

(* ------------------------------------------------------------------ *)
(* Upcall handler (Table 2)                                            *)
(* ------------------------------------------------------------------ *)

let handle_event t idx = function
  | Upcall.Add_processor -> ()
  | Upcall.Activation_blocked { act = _ } ->
      (* Informational: the interpreter already marked the thread as blocked
         in the kernel when it issued the request. *)
      ()
  | Upcall.Activation_unblocked { act = aid; ctx } -> (
      match loaded_of t aid with
      | L_thread tcb ->
          (match Ft_core.tcb_state tcb with
          | Ft_core.Blocked_kernel -> ()
          | st ->
              failwith
                (Printf.sprintf
                   "Ft_sa: unblocked act%d carries tid=%d in state %s" aid
                   (Ft_core.tcb_id tcb)
                   (match st with
                   | Ft_core.Embryo -> "embryo"
                   | Ft_core.Ready -> "ready"
                   | Ft_core.Running -> "running"
                   | Ft_core.Blocked_user -> "ublocked"
                   | Ft_core.Blocked_kernel -> "kblocked"
                   | Ft_core.Done -> "done")));
          t.loaded.(aid) <- L_none;
          t.bound.(Ft_core.tcb_id tcb) <- None;
          t.act_cpu.(aid) <- -1;
          Kernel.sa_return_activation t.kernel aid;
          (* The saved context resumes the thread where it left the kernel;
             it runs when some processor dispatches it. *)
          Ft_core.set_resume tcb ctx.Upcall.resume;
          Ft_core.make_ready t.core_state (driver t) ~at:idx tcb
      | L_manager | L_none ->
          failwith "Ft_sa: unblocked activation carried no thread")
  | Upcall.Processor_preempted { act = aid; ctx } -> (
      match loaded_of t aid with
      | L_thread tcb ->
          t.loaded.(aid) <- L_none;
          t.bound.(Ft_core.tcb_id tcb) <- None;
          t.act_cpu.(aid) <- -1;
          Kernel.sa_return_activation t.kernel aid;
          if Ft_core.tcb_in_cs tcb then begin
            (* Cannot touch the ready list with this thread yet: queue it
               for temporary continuation (Section 3.3). *)
            trace_recovery t `B tcb;
            t.pending_recovery <-
              t.pending_recovery
              @ [ (tcb, ctx.Upcall.remaining, ctx.Upcall.resume) ]
          end
          else
            Ft_core.resume_preempted t.core_state (driver t) ~at:idx tcb
              ~remaining:ctx.Upcall.remaining ~resume:ctx.Upcall.resume
              (fun () ->
                if Ft_core.tcb_id tcb < Array.length t.bound then
                  t.bound.(Ft_core.tcb_id tcb) <- None)
      | L_manager | L_none ->
          (* Manager contexts are repaired kernel-side; nothing to do. *)
          ())

let on_upcall t delivery =
  let act = delivery.Kernel.uc_activation in
  let aid = Kernel.activation_id act in
  let idx = Cpu.id delivery.Kernel.uc_cpu in
  ensure_aid t aid;
  t.act_cpu.(aid) <- idx;
  t.loaded.(aid) <- L_manager;
  List.iter (handle_event t idx) delivery.Kernel.uc_events;
  manager_continue t act

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create kernel ~name ?(priority = 0) ?cache ?io_dev
    ?(strategy = Ft_core.Copy_sections) ?max_procs
    ?(observer = fun _ _ -> ()) ?(on_done = fun () -> ()) () =
  let ncpus = Sa_hw.Machine.cpu_count (Kernel.machine kernel) in
  let max_procs =
    match max_procs with
    | None -> ncpus
    | Some m when m >= 1 && m <= ncpus -> m
    | Some _ -> invalid_arg "Ft_sa.create: max_procs out of range"
  in
  let core_state = Ft_core.create_state ~queues:ncpus ?cache ?io_dev () in
  let t =
    {
      kernel;
      space = None;
      core_state;
      driver = None;
      loaded = Array.make 32 L_none;
      bound = Array.make 32 None;
      act_cpu = Array.make 32 (-1);
      max_procs;
      pending_recovery = [];
      done_at = None;
      started = false;
      on_done;
    }
  in
  let costs = Kernel.costs kernel in
  let sim = Kernel.sim kernel in
  Ft_core.set_clock core_state (fun () -> Sim.now sim);
  let sp =
    Kernel.new_sa_space kernel ~name ~priority
      ~client:{ Kernel.on_upcall = (fun delivery -> on_upcall t delivery) }
      ()
  in
  t.space <- Some sp;
  let d =
    {
      Ft_core.costs;
      strategy;
      sa_accounting = true;
      io_latency = costs.Cost_model.io_latency;
      charge = (fun tcb span k -> Kernel.sa_charge t.kernel (act_of t tcb) span k);
      block_io =
        (fun tcb span k ->
          (* Trap into the kernel as part of the thread's own time, then the
             activation blocks and a fresh activation notifies us.  The
             activation is re-resolved at the end of the trap: if the trap
             segment was preempted, the thread re-runs it on a different
             activation. *)
          Kernel.sa_charge t.kernel (act_of t tcb)
            costs.Cost_model.kernel_trap (fun () ->
              let act = act_of t tcb in
              Ft_core.mark_kernel_blocked t.core_state tcb;
              Kernel.sa_block_io t.kernel act ~io:span k));
      block_kernel =
        (fun tcb ~register k ->
          Kernel.sa_charge t.kernel (act_of t tcb)
            costs.Cost_model.kernel_trap (fun () ->
              let act = act_of t tcb in
              Ft_core.mark_kernel_blocked t.core_state tcb;
              Kernel.sa_block_kernel t.kernel act ~register k));
      thread_stopped =
        (fun tcb ->
          let act = act_of t tcb in
          unbind t act tcb;
          manager_continue t act);
      work_created =
        (fun s tcb ->
          trace_ready t;
          (* Table 3: tell the kernel only when runnable threads exceed our
             processors (capped at the application's parallelism limit). *)
          let sp = space t in
          let runnable = Ft_core.runnable_threads s in
          let want = min t.max_procs runnable in
          let n = want - Kernel.space_assigned sp in
          if n > 0 then Kernel.sa_add_more_processors t.kernel sp n;
          (* Section 3.1 priority extension: if the newly ready thread
             outranks something we are running, ask the kernel to interrupt
             that processor — we know exactly which thread runs where. *)
          let prio = Ft_core.tcb_priority tcb in
          if prio > 0 then begin
            (* Lowest-priority running victim; scan ascending activation id
               so ties resolve deterministically. *)
            let victim = ref None in
            Array.iteri
              (fun aid l ->
                match l with
                | L_thread vt
                  when Ft_core.tcb_state vt = Ft_core.Running
                       && Ft_core.tcb_id vt <> Ft_core.tcb_id tcb -> (
                    match !victim with
                    | Some (_, best)
                      when Ft_core.tcb_priority best <= Ft_core.tcb_priority vt
                      ->
                        ()
                    | _ -> victim := Some (aid, vt))
                | _ -> ())
              t.loaded;
            match !victim with
            | Some (aid, vt) when Ft_core.tcb_priority vt < prio ->
                let cpu = t.act_cpu.(aid) in
                if cpu >= 0 then Kernel.sa_request_preempt t.kernel sp ~cpu
            | Some _ | None -> ()
          end);
      all_done =
        (fun () ->
          t.done_at <- Some (Sim.now sim);
          t.on_done ());
      on_stamp = (fun id -> observer id (Sim.now sim));
    }
  in
  t.driver <- Some d;
  t

let start t prog =
  if t.started then invalid_arg "Ft_sa.start: already started";
  t.started <- true;
  let d = driver t in
  let root = Ft_core.new_thread t.core_state d ~name:"main" prog in
  Ft_core.make_ready t.core_state d ~at:0 root

(* ------------------------------------------------------------------ *)
(* Cluster migration                                                   *)
(* ------------------------------------------------------------------ *)

let rehome t kernel = t.kernel <- kernel

let nudge_demand t =
  match t.space with
  | None -> ()
  | Some sp ->
      let runnable = Ft_core.runnable_threads t.core_state in
      let want = min t.max_procs runnable in
      let n = want - Kernel.space_assigned sp in
      if n > 0 then Kernel.sa_add_more_processors t.kernel sp n
