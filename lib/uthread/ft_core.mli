(** FastThreads core: the user-level thread package shared by both
    substrates.

    This module holds everything that is identical whether the package runs
    on Topaz kernel threads (original FastThreads, {!Ft_kt}) or on scheduler
    activations (modified FastThreads, {!Ft_sa}): thread control blocks,
    per-processor LIFO ready lists with stealing, user-level locks /
    condition variables / semaphores, the low-level critical-section
    protocol of Sections 3.3 and 4.3, the buffer cache glue, and the
    interpreter that executes {!Sa_program.Program} values while charging
    the cost model: one pc-indexed step loop, over the compiled program or,
    for a program {!Sa_program.Program.compile} refuses, over a scratch
    arena refilled one operation at a time.  Substrate differences are
    injected through a {!driver} record. *)

module Time = Sa_engine.Time
module Program = Sa_program.Program
module Cost_model = Sa_hw.Cost_model

(** Critical-section marking strategy (Section 4.3).  [Copy_sections] is the
    paper's zero-common-case-overhead technique (post-processed copies of
    each critical section); [Explicit_flag] sets and clears a flag around
    every critical section, adding [ut_critical_flag] per crossing — the
    ablation of Section 5.1 (Null-Fork 34 to 49 us). *)
type strategy = Copy_sections | Explicit_flag

type tcb
(** User-level thread control block. *)

val tcb_id : tcb -> int
val tcb_name : tcb -> string

type tstate = Embryo | Ready | Running | Blocked_user | Blocked_kernel | Done

val tcb_state : tcb -> tstate
val tcb_in_cs : tcb -> bool
val tcb_binding : tcb -> int
(** Index of the virtual processor / processor the thread last ran on. *)

val tcb_priority : tcb -> int
(** User-level priority (0 default; higher runs first).  Set by the
    [Set_priority] operation; children inherit the forker's priority. *)

(** Low-level spin-lock cell protecting one scheduler data structure (a
    ready list or a synchronization object). *)
type cs_cell

val cell_owner : cs_cell -> int option

type stats = {
  mutable forks : int;
  mutable completions : int;
  mutable dispatches : int;
  mutable steals : int;
  mutable ublocks : int;  (** user-level blocks (locks, conditions) *)
  mutable kblocks : int;  (** kernel-level blocks (I/O, cache miss) *)
  mutable cs_spin_ns : int;  (** simulated time burnt spinning on held cells *)
  mutable cs_recoveries : int;
      (** preempted-in-critical-section continuations (Section 3.3) *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable remote_fills : int;
      (** misses serviced from a peer machine's cache over the network
          (cluster runs; see {!set_remote_fill}) *)
  mutable program_steps : int;
      (** program operations executed, including the wait-wakeup
          re-acquire step (a lazy refill is not a step) *)
  mutable charge_segments : int;
      (** logical charge requests issued by the interpreter (compute spans,
          op costs, contended-acquire block paths; spin slices excluded) *)
  mutable charge_batches : int;
      (** [d.charge] events actually issued; the step loop coalesces
          consecutive compute segments into the next op's charge, so
          [charge_segments / charge_batches] is the batching ratio *)
}

type state

val create_state :
  queues:int ->
  ?cache:Sa_hw.Buffer_cache.t ->
  ?io_dev:Sa_hw.Io_device.t ->
  unit ->
  state
(** [queues] is the number of per-processor ready lists (= maximum virtual
    processors for the kernel-thread substrate, = physical processors for
    the activation substrate).  [io_dev],
    when given, services buffer-cache miss fills (so disk contention is
    modelled); otherwise each miss blocks for the cost model's fixed I/O
    latency, the paper's simplification. *)

val stats : state -> stats

val live_threads : state -> int
val ready_threads : state -> int
val runnable_threads : state -> int
(** Ready + running + embryo: the demand figure reported to the processor
    allocator. *)

val finished : state -> bool
(** All threads have completed. *)

val state_counts : state -> (tstate * int) list
(** Thread-count per state (diagnostics). *)

val threads_in : state -> tstate -> tcb list

val io_device : state -> Sa_hw.Io_device.t option
(** The device servicing this state's cache misses, if one was attached. *)

val set_remote_fill :
  state -> (int -> ((unit -> unit) -> unit) option) option -> unit
(** Install (or clear) the cluster's remote-fetch resolver, consulted on
    every cache miss before the disk path.  [resolver block] returns
    [Some register] when a peer machine can serve the block — the thread
    then kernel-blocks and [register wake] delivers the fetched block —
    or [None] to fall through to the disk.  Default: none (standalone
    behaviour, bit-identical). *)

val queued_tids : state -> int list
(** Thread ids currently sitting in the ready deques, in queue order.
    Every entry should be a [Ready] thread and appear at most once — the
    invariant the chaos campaigns audit against {!state_counts}. *)

(** Substrate capabilities injected by {!Ft_kt} / {!Ft_sa}. *)
type driver = {
  costs : Cost_model.t;
  strategy : strategy;
  sa_accounting : bool;
      (** charge the busy-count bookkeeping / resume-check overheads that
          the activation substrate adds (Section 5.1) *)
  io_latency : Time.span;
  charge : tcb -> Time.span -> (unit -> unit) -> unit;
      (** run a thread work segment on the thread's current vessel *)
  block_io : tcb -> Time.span -> (unit -> unit) -> unit;
      (** thread enters the kernel and blocks for the span; continuation
          runs when the thread next executes *)
  block_kernel :
    tcb -> register:((unit -> unit) -> unit) -> (unit -> unit) -> unit;
      (** kernel block with externally driven wakeup *)
  thread_stopped : tcb -> unit;
      (** the thread just stopped (blocked or finished); the vessel it was
          on must find new work *)
  work_created : state -> tcb -> unit;
      (** [tcb] was made ready: substrate may notify the processor
          allocator, and under activations may ask the kernel to interrupt a
          processor running lower-priority work (Section 3.1) *)
  all_done : unit -> unit;  (** the last thread completed *)
  on_stamp : int -> unit;  (** measurement marker callback *)
}

(** {1 Thread lifecycle} *)

val new_thread : state -> driver -> ?name:string -> Program.t -> tcb
(** Allocate a TCB in [Embryo] state (not yet on any ready list), ready to
    run [prog] on the step loop.  The program is compiled
    ({!Program.compile}) when the compiler accepts it; otherwise (a
    [Dynamic] model, a program that computes on thread ids, one over the
    size budget) the thread fetches it lazily: each continuation is forced
    at the simulated instant the operation before it completes, and a
    forked child is handed back to [new_thread]. *)

val set_resume : tcb -> (unit -> unit) -> unit
(** Install the continuation run when the thread is next dispatched (used by
    the activation substrate to wire kernel-saved contexts back in). *)

val mark_kernel_blocked : state -> tcb -> unit
(** Record that the thread is now blocked in the kernel.  The interpreter
    marks this before charging the kernel-entry path; a substrate must
    re-mark at the actual block point because a preemption inside the entry
    path re-dispatches the thread as [Running]. *)

val make_ready : state -> driver -> at:int -> tcb -> unit
(** Push onto the front of ready list [at] and fire [work_created]. *)

val pop_own : state -> int -> tcb option
(** Next thread for vessel [index]: the front of its own ready list, or,
    once some thread carries a non-zero priority, the globally
    highest-priority ready thread (ties prefer the local list). *)

val requeue_front : state -> int -> tcb -> unit
(** Put a thread just taken off ready list [index] back at its front
    (repair of a dispatch preempted before it completed). *)

val dispatch_cost : driver -> Time.span
(** Cost the substrate charges to take a thread off a ready list (includes
    the Explicit_flag crossing when that strategy is active). *)

val fold_dispatch : state -> driver -> tcb -> bool
(** Try to absorb {!dispatch_cost} into the thread's charge accumulator
    instead of a [Sim] event of its own.  Succeeds ([true]) only when the
    thread's resumption is the bare step-loop entry and it sits at an op
    boundary — its next charge then consumes the folded cost before any
    state transition, so all transition instants match the unfolded
    schedule (except at the divergence sites of docs/INTERNALS.md §12).
    On [false] the caller must charge the dispatch cost itself
    (preemption re-charges, Section-3.3 section exits, kernel-saved
    contexts, and threads whose resumption was replaced with
    {!set_resume}). *)

val spin_slice : driver -> Time.span
(** The initial spin-slice used when waiting on a held cell (a few
    uncontended lock costs, floored at 50 ns). *)

val run_thread : state -> index:int -> tcb -> unit
(** Bind the thread to vessel [index] and resume its program.  The caller
    must have charged dispatch overhead already. *)

(** {1 Critical-section cells} *)

val queue_cell : state -> int -> cs_cell
(** The cell protecting ready list [i]. *)

val try_lock_cell : state -> cs_cell -> owner:int -> bool
(** Probe [cell]: fails while it has an owner, or while a live lease by
    someone else covers the current instant ({!lease_cell}). *)

val unlock_cell : cs_cell -> unit

val lease_cell : state -> cs_cell -> holder:int -> span:Time.span -> unit
(** Release [cell] but keep it unavailable to every owner except [holder]
    for [span] from now.  {!fold_dispatch} call sites use this in place of
    the unlock that would have followed a dispatch-cost charge event: other
    processors' probes see the same contention window as if the dispatcher
    had held the cell across that event, while the dispatched thread itself
    passes through (its next merged charge covers the window). *)

val set_clock : state -> (unit -> Time.t) -> unit
(** Install the simulated-time source consulted by cell-lease probes.
    Substrates call this once at create time. *)

val steal_sweep :
  state -> Sa_engine.Sim.t -> thief:int -> (cs_cell * tcb) option
(** One idle processor's sweep over the other ready lists (Section 4.2),
    attempt [k] in [1 .. nqueues-1] probing list [(thief + k) mod nqueues]
    and taking from its back (its highest priority once priorities are
    in play).  Returns the stolen thread with its victim's cell locked (the
    caller leases or unlocks it), counting a steal, or [None] when no list
    yielded work.  Empty lists are skipped without a lock probe (exact: the
    sweep charges nothing, and probing an empty list has no observable
    effect); under a chooser every attempt is still a ["steal-victim"]
    choice point, as recorded schedules expect.  Never spins: a held victim
    cell is skipped. *)

val spin_lock_cell :
  state ->
  cs_cell ->
  owner:int ->
  ?slice:Time.span ->
  charge:(Time.span -> (unit -> unit) -> unit) ->
  (unit -> unit) ->
  unit
(** Acquire [cell], charging spin slices (with exponential backoff from
    [slice], default a few lock costs) through [charge] while it is held —
    the processor burns real simulated time, so a holder descheduled by the
    kernel makes spinners waste their processors exactly as in Section 3.3.
    [owner] identifies the locker for diagnostics. *)

(** {1 Preemption} *)

val resume_preempted :
  state ->
  driver ->
  at:int ->
  tcb ->
  remaining:Time.span ->
  resume:(unit -> unit) ->
  (unit -> unit) ->
  unit
(** [resume_preempted s d ~at tcb ~remaining ~resume k] handles a thread
    context returned by the kernel after a preemption: if the thread was
    inside a critical section, continue it immediately on the current vessel
    until the section exit and only then put it on the ready list (recovery,
    Section 3.3); otherwise make it ready to re-charge its unfinished
    segment later.  [at] is the vessel index handling the event; [k] runs
    once the context has been dealt with (after the recovery continuation,
    if one was needed). *)

(** {1 Thread transitions}

    The state changes an operation commits once its charge completes.  The
    step loop is built from these; they are exported so that the reference
    CPS walker in [test/cps_oracle.ml] (the differential oracle the step
    loop is checked against) runs the same thread package.  Substrates do
    not need them. *)

val find_thread : state -> int -> tcb
(** The thread with this id.  Raises [Invalid_argument "Join: unknown
    thread id"] for an id this state never issued. *)

val set_state : state -> tcb -> tstate -> unit
(** Move a thread to a lifecycle state, keeping the ready/running census
    ({!runnable_threads}) in step. *)

val new_cell : unit -> cs_cell
(** A free critical-section cell (for a synchronization object). *)

val enter_section : tcb -> cs_cell -> unit
(** Record that the thread now holds [cell] across a charged operation
    (what {!tcb_in_cs} reports, and what makes a preemption a Section 3.3
    recovery). *)

val leave_section : state -> driver -> tcb -> resume:(unit -> unit) -> bool
(** Section exit: unlock the held cell, if any.  [true]: carry on.
    [false]: the thread was being temporarily continued after a
    preemption, so it has been parked on the ready list with [resume]
    and control has gone back to the upcall that continued it. *)

val block_user : state -> driver -> tcb -> (unit -> unit) -> unit
(** Block at user level (locks, conditions, joins); the continuation
    runs when the thread is next dispatched. *)

val finish_thread : state -> driver -> tcb -> unit
(** The thread exits: wake its joiners, and report [all_done] after the
    last thread. *)

val join_thread : state -> driver -> tcb -> target:tcb -> (unit -> unit) -> unit
(** Continue at once if [target] is done, else block until it is. *)

val yield_thread : state -> driver -> tcb -> resume:(unit -> unit) -> unit
(** Back onto the thread's ready list (its back), resuming
    with [resume]. *)

val set_priority : state -> tcb -> int -> unit
(** Set the thread's user-level priority. *)
