(* The space-sharing processor allocator (Section 4.1).  The policy itself
   is the pure, property-tested Alloc_policy.Waterfill, which this layer
   runs in place over [alloc_order], the kernel's scratch array of its own
   space records, writing each space's share into [sp_target].  Then it
   moves processors: phase 1 reclaims above-target processors (optionally
   via the Psyche/Symunix warning protocol), phase 2 grants free processors
   to below-target spaces.  A pass costs O(spaces + cpus) and allocates
   nothing: the outstanding warnings per space are the [sp_warned] count
   that [Ktypes.set_warned] keeps, not a slot scan (docs/INTERNALS.md §3).
   Passes are coalesced behind the late-bound
   [Ktypes.reevaluate]/[Ktypes.schedule_pass], installed here by
   [install]. *)

open Ktypes
module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Cpu = Sa_hw.Cpu
module Cost_model = Sa_hw.Cost_model

let set_chaos_realloc_drop t armed = t.chaos_realloc_drop <- armed

module Waterfill = Alloc_policy.Waterfill (struct
  type t = space

  let priority sp = sp.sp_prio
  let desired sp = sp.sp_desired
  let id sp = sp.sp_id
  let set_target sp v = sp.sp_target <- v
end)

let compute_targets t =
  (* The remainder rotation is a schedule decision: an installed chooser may
     advance it by up to one full cycle, permuting which equal-desire space
     receives the leftover processor this pass. *)
  let n = t.nspaces in
  let rotation =
    if n >= 2 then
      t.rotation + Sim.pick t.sim ~site:"alloc-rotation" ~arity:n ~default:0
    else t.rotation
  in
  Waterfill.run ~cpus:(ncpus t) ~rotation t.alloc_order n

let preempt_slot_now t sp slot =
  t.st_preemptions <- t.st_preemptions + 1;
  sp.sp_preempted <- sp.sp_preempted + 1;
  tracef t "allocator: preempt cpu%d from %s" (Cpu.id slot.slot_cpu)
    sp.sp_name;
  trace_instant t ~cpu:(Cpu.id slot.slot_cpu) ~space:sp.sp_id Trace.Kernel
    "alloc:preempt";
  match sp.sp_kind with
  | Sa s ->
      let events = Sa_upcall.stop_activation_on t slot in
      s.pending <- List.rev_append events s.pending;
      release_slot t slot sp;
      (* Tell the old space, on another of its processors — or with its
         next grant if it has none left (the paper delays it too).  The
         notification resolves [sp_home] at fire time: a migrating space's
         preemption events must chase it to its new kernel. *)
      defer t (fun () -> Sa_upcall.notify_sa sp.sp_home sp)
  | Kthreads k ->
      (match Cpu.preempt slot.slot_cpu with
      | Some p -> (
          match slot.slot_kt with
          | Some victim ->
              save_kt_context t victim p;
              set_kt_state t victim K_ready;
              Queue.add victim k.local_runq
          | None -> ())
      | None -> ());
      cancel_quantum t slot;
      slot.slot_kt <- None;
      release_slot t slot sp

(* Chaos: forcibly preempt whatever holds [cpu], exactly as the allocator
   or a native wakeup interrupt would, at an adversarial instant.  Explicit
   mode reclaims the processor from its owning space (the allocator then
   re-runs and typically hands it back, exercising the full preempt/upcall/
   regrant path, including mid-critical-section recovery); native mode
   bounces the running kernel thread through the global run queue.
   Returns false if the processor held nothing preemptible. *)
let chaos_preempt t ~cpu =
  if cpu < 0 || cpu >= ncpus t then invalid_arg "chaos_preempt: cpu";
  let slot = slot_of_cpu t cpu in
  match t.cfg.Kconfig.mode with
  | Kconfig.Explicit_allocation -> (
      match slot.slot_owner with
      | Some sp ->
          t.st_chaos_preempts <- t.st_chaos_preempts + 1;
          tracef t "chaos: forced preemption of cpu%d from %s" cpu sp.sp_name;
          preempt_slot_now t sp slot;
          reevaluate t;
          true
      | None -> false)
  | Kconfig.Native_oblivious -> (
      match slot.slot_kt with
      | Some kt ->
          t.st_chaos_preempts <- t.st_chaos_preempts + 1;
          t.st_preemptions <- t.st_preemptions + 1;
          tracef t "chaos: forced preemption of cpu%d from kt%d (%s)" cpu
            kt.kt_id kt.kt_name;
          (match Cpu.preempt slot.slot_cpu with
          | Some p -> save_kt_context t kt p
          | None -> ());
          cancel_quantum t slot;
          slot.slot_kt <- None;
          set_kt_state t kt K_ready;
          Kt_sched.runq_push t kt;
          Kt_sched.native_dispatch t slot;
          true
      | None -> false)

let set_space_priority t sp prio =
  if prio < 0 then invalid_arg "set_space_priority: negative priority";
  if prio <> sp.sp_prio then begin
    sp.sp_prio <- prio;
    tracef t "%s priority set to %d" sp.sp_name prio;
    if t.cfg.Kconfig.mode = Kconfig.Explicit_allocation then reevaluate t
  end

(* The highest-numbered processor [sp] owns without a warning, or -1. *)
let rec last_unwarned t sp i =
  if i < 0 then -1
  else
    let slot = t.slots.(i) in
    if slot_owned_by slot sp && not slot.slot_warned then i
    else last_unwarned t sp (i - 1)

let preempt_cpu_from t sp =
  let i = last_unwarned t sp (Array.length t.slots - 1) in
  if i >= 0 then begin
    let slot = t.slots.(i) in
    match (sp.sp_kind, t.cfg.Kconfig.preempt_warning) with
    | Sa _, Some grace ->
        (* Psyche/Symunix protocol: warn and wait; force at the
           deadline.  The claimant's grant is delayed for the duration —
           the priority violation Section 6 describes. *)
        set_warned slot sp true;
        let gen = slot.slot_warn_gen in
        tracef t "allocator: warn %s on cpu%d (grace %a)" sp.sp_name
          (Cpu.id slot.slot_cpu) Time.pp_span grace;
        ignore
          (Sim.schedule_after t.sim ~delay:grace (fun () ->
               (* Only this warning's deadline: the owner may have let the
                  processor go, got it back and been warned again since. *)
               if
                 slot_owned_by slot sp && slot.slot_warned
                 && slot.slot_warn_gen = gen
               then begin
                 preempt_slot_now t sp slot;
                 reevaluate t
               end))
    | (Sa _ | Kthreads _), _ -> preempt_slot_now t sp slot
  end

let grant_cpu_to t slot sp =
  slot.slot_owner <- Some sp;
  sp.sp_granted <- sp.sp_granted + 1;
  set_assigned t sp (sp.sp_assigned + 1);
  tracef t "allocator: grant cpu%d to %s" (Cpu.id slot.slot_cpu) sp.sp_name;
  trace_instant t ~cpu:(Cpu.id slot.slot_cpu) ~space:sp.sp_id Trace.Kernel
    "alloc:grant";
  match sp.sp_kind with
  | Sa _ ->
      let events = Upcall.Add_processor :: Sa_upcall.drain_pending sp in
      Sa_upcall.deliver_upcall t slot sp ~extra_cost:0 events
  | Kthreads k -> (
      match Queue.take_opt k.local_runq with
      | Some kt -> Kt_sched.dispatch_kt_on t slot kt
      | None -> Cpu.set_occupant slot.slot_cpu Cpu.Kernel_idle)

let do_reallocate t =
  if t.cfg.Kconfig.mode = Kconfig.Explicit_allocation then begin
    compute_targets t;
    let moved = ref 0 in
    (* Phase 1: reclaim above-target processors, newest space first.
       Outstanding warnings count as reclaims in flight. *)
    for i = t.nspaces - 1 downto 0 do
      let sp = t.spaces.(i) in
      let in_flight = ref sp.sp_warned in
      while
        sp.sp_assigned - sp.sp_warned > sp.sp_target
        && !in_flight < sp.sp_assigned
      do
        preempt_cpu_from t sp;
        incr in_flight;
        incr moved
      done
    done;
    (* Phase 2: grant free processors to below-target spaces, oldest space
       first for determinism, from one cursor over the slot table in cpu-id
       order.  Granting only mutates the granted slot synchronously
       (begin_work schedules its completion, it does not run it), so a
       slot the cursor has passed stays unavailable for the rest of the
       pass. *)
    let cursor = ref 0 in
    let nslots = Array.length t.slots in
    for i = 0 to t.nspaces - 1 do
      let sp = t.spaces.(i) in
      while sp.sp_assigned < sp.sp_target && !cursor < nslots do
        let slot = t.slots.(!cursor) in
        incr cursor;
        match slot.slot_owner with
        | None when not (Cpu.is_busy slot.slot_cpu) ->
            grant_cpu_to t slot sp;
            incr moved
        | None | Some _ -> ()
      done
    done;
    if !moved > 0 then t.st_reallocations <- t.st_reallocations + 1;
    (* Rotate an uneven remainder after a quantum (Section 4.1). *)
    if t.cfg.Kconfig.rotate_remainder && t.rotation_timer = None then begin
      let contested = ref false in
      for i = 0 to t.nspaces - 1 do
        let sp = t.spaces.(i) in
        if sp.sp_desired > sp.sp_target then contested := true
      done;
      if !contested then
        t.rotation_timer <-
          Some
            (Sim.schedule_after t.sim ~delay:t.costs.Cost_model.time_slice
               (fun () ->
                 t.rotation_timer <- None;
                 t.rotation <- t.rotation + 1;
                 reevaluate t))
    end
  end

(* Build a kernel's deferred pass closures once, so a coalesced request
   schedules a preallocated closure instead of a fresh one.  Kernel.create
   calls it before any space or kthread exists. *)
let bind t =
  t.realloc_pass <-
    (fun () ->
      t.realloc_pending <- false;
      if t.chaos_realloc_drop then begin
        (* A lost reallocation request: demand raised before this pass
           stays unserved until some later event re-triggers the
           allocator. *)
        t.chaos_realloc_drop <- false;
        tracef t "chaos: reallocation pass dropped"
      end
      else do_reallocate t);
  t.sched_pass <-
    (fun () ->
      t.sched_pass_pending <- false;
      Kt_sched.do_schedule_pass t)

(* Install the coalesced allocator entry points behind the late-bound refs.
   Idempotent; Kernel.create calls it before any space or kthread exists. *)
let install () =
  (reevaluate_ref :=
     fun t ->
       if not t.realloc_pending then begin
         t.realloc_pending <- true;
         defer t t.realloc_pass
       end);
  schedule_pass_ref :=
    fun t ->
      if not t.sched_pass_pending then begin
        t.sched_pass_pending <- true;
        defer t t.sched_pass
      end
