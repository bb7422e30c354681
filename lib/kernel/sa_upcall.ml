(* Scheduler activations (Sections 3.1-3.3): the Table-2 upcall vector
   (Add_processor, Processor_preempted, Activation_blocked,
   Activation_unblocked), the activation recycle pool, delivery-segment
   requeueing, manager-segment repair (the critical-section recovery glue),
   the user-level downcalls of Table 3, and the Section 4.4 debugger
   support.  The Allocator borrows [stop_activation_on], [drain_pending]
   and [deliver_upcall] when it moves processors between spaces. *)

open Ktypes
module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Cpu = Sa_hw.Cpu
module Cost_model = Sa_hw.Cost_model

let sa_fields sp =
  match sp.sp_kind with
  | Sa s -> s
  | Kthreads _ -> invalid_arg "not an SA space"

let alloc_activation t sp =
  let s = sa_fields sp in
  match s.pool with
  | act :: rest when t.cfg.Kconfig.activation_pooling ->
      s.pool <- rest;
      act.act_state <- A_stopped;
      (act, 0)
  | _ :: _ | [] ->
      let act =
        {
          act_id = fresh_id t;
          act_sp = sp;
          act_occ_uthread = make_act_occ sp "uthread";
          act_occ_manager = make_act_occ sp "manager";
          act_occ_upcall = make_act_occ sp "upcall";
          act_state = A_stopped;
          act_charge_k = ignore;
          act_charge_done = ignore;
          act_repair = None;
        }
      in
      act.act_charge_done <-
        (fun () ->
          let k = act.act_charge_k in
          act.act_charge_k <- ignore;
          act.act_repair <- None;
          k ());
      Hashtbl.replace t.acts act.act_id act;
      (act, t.costs.Cost_model.activation_fresh_alloc)

(* Deliver an upcall on [slot] (no in-flight segment) with a fresh or
   recycled activation.  [extra_cost] accounts for the interrupt that freed
   the processor, if any. *)
let deliver_upcall t slot sp ~extra_cost events =
  assert (events <> []);
  let s = sa_fields sp in
  let act, alloc_cost = alloc_activation t sp in
  act.act_state <- A_running (Cpu.id slot.slot_cpu);
  s.running_acts <- s.running_acts + 1;
  slot.slot_act <- Some act;
  slot.slot_kt <- None;
  t.st_upcalls <- t.st_upcalls + 1;
  t.st_upcall_events <- t.st_upcall_events + List.length events;
  sp.sp_upcalls <- sp.sp_upcalls + 1;
  if Trace.enabled (ktrace t) Trace.Upcall then
    upcall_tracef t "upcall to %s on cpu%d act%d: %s" sp.sp_name
      (Cpu.id slot.slot_cpu) act.act_id
      (String.concat ", "
         (List.map (Format.asprintf "%a" Upcall.pp_event) events));
  (* One span per Table-2 event carried by this upcall, open until the user
     level receives the delivery (or it is requeued by a preemption).  Spans
     are keyed by the delivering activation's id, so a preempted delivery
     cannot corrupt the nesting of the per-CPU tracks. *)
  let trace_event_span edge ev =
    if Trace.enabled (ktrace t) Trace.Upcall then begin
      let emit =
        match edge with `B -> Trace.span_begin | `E -> Trace.span_end
      in
      emit (ktrace t) ~time:(Sim.now t.sim) ~space:sp.sp_id ~act:act.act_id
        ~detail:(Format.asprintf "%a" Upcall.pp_event ev)
        Trace.Upcall
        ("upcall:" ^ Upcall.event_name ev)
    end
  in
  List.iter (trace_event_span `B) events;
  (* Section 3.1: if the thread manager's pages are swapped out, the upcall
     would immediately page fault; fault them in first, delaying delivery by
     one I/O. *)
  let fault_cost =
    if sp.sp_manager_swapped then begin
      sp.sp_manager_swapped <- false;
      t.costs.Cost_model.io_latency
    end
    else 0
  in
  let cost = upcall_cost t + alloc_cost + extra_cost + fault_cost in
  slot.slot_delivery <- Some events;
  charge_on_slot slot ~occupant:act.act_occ_upcall ~cost (fun () ->
      slot.slot_delivery <- None;
      List.iter (trace_event_span `E) (List.rev events);
      s.client.on_upcall
        { uc_activation = act; uc_cpu = slot.slot_cpu; uc_events = events })

let drain_pending sp =
  let s = sa_fields sp in
  let events = List.rev s.pending in
  s.pending <- [];
  events

(* Stop the activation running on [slot] (if any).  Three cases:
   - an upcall delivery was in flight: requeue its undelivered events;
   - a manager segment was running: invoke its repair action;
   - a user thread was running: wrap the interrupted computation as a
     Processor_preempted event carrying the saved context. *)
let stop_activation_on t slot =
  let preempted =
    match slot.slot_act with
    | Some victim when Hashtbl.mem t.debug_frozen victim.act_id ->
        (* debugger-frozen: the saved context lives in the freeze table *)
        let ctx = Hashtbl.find t.debug_frozen victim.act_id in
        Hashtbl.remove t.debug_frozen victim.act_id;
        ctx
    | Some _ | None -> Cpu.preempt slot.slot_cpu
  in
  match slot.slot_act with
  | None -> []
  | Some victim -> (
      let s = sa_fields victim.act_sp in
      s.running_acts <- s.running_acts - 1;
      slot.slot_act <- None;
      match slot.slot_delivery with
      | Some events ->
          (* The user level never saw these events; put them back. *)
          slot.slot_delivery <- None;
          List.iter
            (fun ev ->
              Trace.span_end (ktrace t) ~time:(Sim.now t.sim)
                ~space:victim.act_sp.sp_id ~act:victim.act_id
                ~detail:"requeued" Trace.Upcall
                ("upcall:" ^ Upcall.event_name ev))
            (List.rev events);
          s.pending <- List.rev_append events s.pending;
          victim.act_state <- A_free;
          victim.act_charge_k <- ignore;
          victim.act_repair <- None;
          if t.cfg.Kconfig.activation_pooling then s.pool <- victim :: s.pool;
          []
      | None -> (
          match victim.act_repair with
          | Some repair ->
              victim.act_repair <- None;
              victim.act_charge_k <- ignore;
              victim.act_state <- A_free;
              if t.cfg.Kconfig.activation_pooling then
                s.pool <- victim :: s.pool;
              repair ();
              []
          | None ->
              victim.act_state <- A_stopped;
              let ctx =
                match preempted with
                | Some p ->
                    (* If the interrupted segment was charged through
                       [sa_charge], its resume is the victim's shared
                       completion wrapper, whose continuation slot the
                       pooled record may reuse before this context is
                       redispatched.  Detach the real continuation now —
                       preemption is cold, the allocation is fine here. *)
                    let resume =
                      if p.Cpu.resume == victim.act_charge_done then begin
                        let k = victim.act_charge_k in
                        victim.act_charge_k <- ignore;
                        k
                      end
                      else p.Cpu.resume
                    in
                    { Upcall.remaining = p.Cpu.remaining; resume }
                | None -> { Upcall.remaining = 0; resume = (fun () -> ()) }
              in
              [ Upcall.Processor_preempted { act = victim.act_id; ctx } ]))

(* Notify an SA space of pending events by borrowing one of its own
   processors: interrupt it, add the interrupted context as a
   Processor_preempted event (the space keeps the processor), and deliver
   everything in one upcall — the paper's I/O-completion dance. *)
let notify_sa t sp =
  let s = sa_fields sp in
  if s.pending <> [] then begin
    let slot_opt =
      Array.fold_left
        (fun acc slot ->
          match acc with
          | Some _ -> acc
          | None -> if slot_owned_by slot sp then Some slot else None)
        None t.slots
    in
    match slot_opt with
    | Some slot ->
        let extra_events = stop_activation_on t slot in
        let events = drain_pending sp @ extra_events in
        deliver_upcall t slot sp
          ~extra_cost:t.costs.Cost_model.preempt_interrupt events
    | None ->
        (* The space has no processor: it needs one to receive the
           notification ("the kernel must allocate one to do the upcall").
           Raise demand; the allocator will deliver events with the grant. *)
        if sp.sp_desired < 1 then sp.sp_desired <- 1;
        reevaluate t
  end

let sa_charge ?repair t act cost k =
  match act.act_state with
  | A_running cpu_id ->
      let slot = slot_of_cpu t cpu_id in
      act.act_repair <- repair;
      let occupant =
        match repair with
        | Some _ -> act.act_occ_manager
        | None -> act.act_occ_uthread
      in
      act.act_charge_k <- k;
      charge_on_slot slot ~occupant ~cost act.act_charge_done
  | A_blocked | A_stopped | A_free ->
      failwith "sa_charge: activation not running"

(* Block the user-level thread running in [act].  The caller has already
   charged the kernel-trap cost as part of the thread's last segment, so the
   transition itself is instantaneous: the activation blocks and a fresh
   activation immediately notifies the user level on the same processor. *)
let sa_block_common t act ~arrange_wakeup k =
  match act.act_state with
  | A_running cpu_id ->
      let slot = slot_of_cpu t cpu_id in
      let sp = act.act_sp in
      let s = sa_fields sp in
      act.act_state <- A_blocked;
      act.act_repair <- None;
      s.running_acts <- s.running_acts - 1;
      s.blocked_acts <- s.blocked_acts + 1;
      slot.slot_act <- None;
      t.st_io_blocks <- t.st_io_blocks + 1;
      Trace.span_begin (ktrace t) ~time:(Sim.now t.sim) ~space:sp.sp_id
        ~act:act.act_id Trace.Kernel "io-block";
      arrange_wakeup (fun () ->
          (match act.act_state with
          | A_blocked -> ()
          | A_running _ | A_stopped | A_free ->
              failwith "sa wakeup: activation not blocked");
          Trace.span_end (ktrace t) ~time:(Sim.now t.sim) ~space:sp.sp_id
            ~act:act.act_id Trace.Kernel "io-block";
          (* The kernel never resumes the thread directly: it reports
             Activation_unblocked with the saved user context. *)
          act.act_state <- A_stopped;
          s.blocked_acts <- s.blocked_acts - 1;
          s.pending <-
            Upcall.Activation_unblocked
              { act = act.act_id; ctx = { Upcall.remaining = 0; resume = k } }
            :: s.pending;
          (* Deferred: the waker may be user code in the middle of its own
             segment-completion; interrupting processors is only sound from
             the event loop, when every processor's state is quiescent.
             [sp_home] is resolved inside the closure: the space may have
             migrated to another kernel between block and wakeup. *)
          defer t (fun () -> notify_sa sp.sp_home sp));
      deliver_upcall t slot sp ~extra_cost:0
        [ Upcall.Activation_blocked { act = act.act_id } ]
  | A_blocked | A_stopped | A_free ->
      failwith "sa_block: activation not running"

let sa_block_io t act ~io k =
  sa_block_common t act k ~arrange_wakeup:(fun wake ->
      Io_path.schedule_io_completion t ~io wake)

let sa_block_kernel t act ~register k =
  sa_block_common t act k ~arrange_wakeup:register

(* Section 3.1's priority extension: the user level, which knows exactly
   which of its threads runs on each of its processors, may ask the kernel
   to interrupt one of its own processors so a higher-priority thread can
   take it.  The stop is delivered as a Processor_preempted event in an
   upcall on the same processor. *)
let sa_request_preempt t sp ~cpu =
  if cpu < 0 || cpu >= ncpus t then invalid_arg "sa_request_preempt: cpu";
  trace_downcall t ~cpu ~space:sp.sp_id "preempt-processor";
  defer t (fun () ->
      let slot = slot_of_cpu t cpu in
      if slot_owned_by slot sp then begin
        match sp.sp_kind with
        | Sa _ ->
            let extra = stop_activation_on t slot in
            let events = drain_pending sp @ extra in
            let events =
              if events = [] then [ Upcall.Add_processor ] else events
            in
            deliver_upcall t slot sp
              ~extra_cost:t.costs.Cost_model.preempt_interrupt events
        | Kthreads _ -> ()
      end)

let sa_add_more_processors t sp n =
  if n < 0 then invalid_arg "sa_add_more_processors";
  trace_downcall t ~space:sp.sp_id "add-more-processors";
  let want = min (ncpus t) (sp.sp_assigned + n) in
  if want > sp.sp_desired then begin
    sp.sp_desired <- want;
    tracef t "%s requests %d more processors (desired=%d)" sp.sp_name n
      sp.sp_desired;
    reevaluate t
  end

let sa_cpu_idle t act =
  match act.act_state with
  | A_running cpu_id ->
      let slot = slot_of_cpu t cpu_id in
      let sp = act.act_sp in
      let s = sa_fields sp in
      trace_downcall t ~cpu:cpu_id ~space:sp.sp_id ~act:act.act_id
        "this-processor-is-idle";
      act.act_state <- A_free;
      act.act_repair <- None;
      if t.cfg.Kconfig.activation_pooling then s.pool <- act :: s.pool;
      s.running_acts <- s.running_acts - 1;
      slot.slot_act <- None;
      release_slot t slot sp;
      sp.sp_desired <- min sp.sp_desired sp.sp_assigned;
      Cpu.set_occupant slot.slot_cpu Cpu.Kernel_idle;
      tracef t "%s returns cpu%d (idle)" sp.sp_name cpu_id;
      reevaluate t
  | A_blocked | A_stopped | A_free -> failwith "sa_cpu_idle: not running"

(* The warning side of the Psyche/Symunix protocol: the user level polls at
   safe points and relinquishes voluntarily. *)
let sa_cpu_warned t act =
  match act.act_state with
  | A_running cpu_id -> (slot_of_cpu t cpu_id).slot_warned
  | A_blocked | A_stopped | A_free -> false

let sa_respond_warning t act =
  match act.act_state with
  | A_running cpu_id ->
      let slot = slot_of_cpu t cpu_id in
      if not slot.slot_warned then
        invalid_arg "sa_respond_warning: no warning outstanding";
      let sp = act.act_sp in
      let s = sa_fields sp in
      trace_downcall t ~cpu:cpu_id ~space:sp.sp_id ~act:act.act_id
        "respond-warning";
      act.act_state <- A_free;
      act.act_repair <- None;
      if t.cfg.Kconfig.activation_pooling then s.pool <- act :: s.pool;
      s.running_acts <- s.running_acts - 1;
      slot.slot_act <- None;
      release_slot t slot sp;
      Cpu.set_occupant slot.slot_cpu Cpu.Kernel_idle;
      tracef t "%s responds to warning, releases cpu%d" sp.sp_name cpu_id;
      reevaluate t
  | A_blocked | A_stopped | A_free ->
      invalid_arg "sa_respond_warning: activation not running"

let sa_return_activation t act_id =
  match Hashtbl.find_opt t.acts act_id with
  | None -> invalid_arg "sa_return_activation: unknown activation"
  | Some act -> (
      trace_downcall t ~space:act.act_sp.sp_id ~act:act_id
        "return-activation";
      match act.act_state with
      | A_stopped ->
          act.act_state <- A_free;
          if t.cfg.Kconfig.activation_pooling then begin
            let s = sa_fields act.act_sp in
            s.pool <- act :: s.pool
          end
      | A_free -> ()  (* already recycled (bulk returns may repeat) *)
      | A_running _ | A_blocked ->
          failwith "sa_return_activation: activation still in use")

let swap_out_manager _t sp =
  match sp.sp_kind with
  | Sa _ -> sp.sp_manager_swapped <- true
  | Kthreads _ -> invalid_arg "swap_out_manager: not an SA space"

(* ------------------------------------------------------------------ *)
(* Debugger support (Section 4.4)                                      *)
(* ------------------------------------------------------------------ *)

(* A debugged activation is moved to a "logical processor": its execution
   freezes but no upcall is generated — transparency demands the thread
   system not observe the debugger's stops. *)
let debug_stop t act =
  match act.act_state with
  | A_running cpu_id ->
      if Hashtbl.mem t.debug_frozen act.act_id then
        invalid_arg "debug_stop: already stopped";
      let slot = slot_of_cpu t cpu_id in
      let ctx = Cpu.preempt slot.slot_cpu in
      Hashtbl.replace t.debug_frozen act.act_id ctx;
      tracef t "debugger stops act%d (logical processor; no upcall)"
        act.act_id
  | A_blocked | A_stopped | A_free ->
      invalid_arg "debug_stop: activation not running"

let debug_resume t act =
  match Hashtbl.find_opt t.debug_frozen act.act_id with
  | None -> invalid_arg "debug_resume: activation not stopped"
  | Some ctx -> (
      Hashtbl.remove t.debug_frozen act.act_id;
      tracef t "debugger resumes act%d" act.act_id;
      match (act.act_state, ctx) with
      | A_running cpu_id, Some p ->
          let slot = slot_of_cpu t cpu_id in
          charge_on_slot slot ~occupant:act.act_occ_uthread
            ~cost:p.Cpu.remaining p.Cpu.resume
      | A_running _, None -> ()
      | (A_blocked | A_stopped | A_free), _ ->
          invalid_arg "debug_resume: activation no longer running")
