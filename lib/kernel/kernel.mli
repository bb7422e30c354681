(** The simulated operating-system kernel.

    One [Kernel.t] manages the machine's processors for a set of address
    spaces.  Two personalities (chosen by {!Kconfig.mode}):

    - {b Native_oblivious} — unmodified Topaz.  Kernel threads from every
      address space share one global priority/FIFO run queue; processors
      time-slice among them obliviously; a waking higher-priority thread
      preempts whichever processor its wakeup interrupt happens to hit.

    - {b Explicit_allocation} — the paper's kernel.  A space-sharing
      processor allocator (Section 4.1) divides processors evenly among
      address spaces that want them, respecting priorities, redistributing
      unwanted shares and optionally time-slicing an uneven remainder.
      Scheduler-activation address spaces receive all scheduling events as
      upcalls (Table 2) and notify the kernel through two downcalls
      (Table 3); kernel-thread address spaces are scheduled from per-space
      queues on their granted processors.

    Kernel threads execute bodies written against {!kt_ops}, a small
    capability record (charge work, block, exit...).  Scheduler-activation
    spaces register an {!sa_client} upcall handler and drive their
    activations through the [sa_*] functions. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Cpu = Sa_hw.Cpu

type t
type space
type kthread
type activation

val create :
  ?ids:int ref ->
  Sa_engine.Sim.t ->
  Sa_hw.Machine.t ->
  Sa_hw.Cost_model.t ->
  Kconfig.t ->
  t
(** Build a kernel.  If [config.daemons] is set, the periodic kernel daemon
    address space is created immediately.  [ids] is the space/activation id
    counter; cluster runs share one [ref] across all kernels so ids stay
    globally unique under migration (default: a private counter — identical
    single-machine behavior). *)

val sim : t -> Sa_engine.Sim.t
val machine : t -> Sa_hw.Machine.t
val costs : t -> Sa_hw.Cost_model.t
val config : t -> Kconfig.t

(** {1 Address spaces} *)

val new_kthread_space : t -> name:string -> ?priority:int -> unit -> space
(** An address space whose threads are kernel threads (priority default 0;
    higher runs first). *)

type upcall_delivery = {
  uc_activation : activation;
  uc_cpu : Sa_hw.Cpu.t;
  uc_events : Upcall.event list;  (** oldest first; never empty *)
}

type sa_client = { on_upcall : upcall_delivery -> unit }
(** The user-level thread system's fixed upcall entry point.  When invoked,
    the activation is running on [uc_cpu] and the upcall-delivery cost has
    already been charged; the handler continues execution by charging work
    via {!sa_charge} and must eventually either run forever, block, or
    return the processor with {!sa_cpu_idle}. *)

val new_sa_space :
  t -> name:string -> ?priority:int -> client:sa_client -> unit -> space
(** A scheduler-activation address space.  Raises [Invalid_argument] under
    [Native_oblivious] mode. *)

val space_id : space -> int
val space_name : space -> string
val space_assigned : space -> int
(** Processors currently granted (explicit mode). *)

val space_desired : space -> int

(** {1 Kernel threads} *)

(** Capabilities available to a kernel-thread body.  All continuations run
    when the thread next holds a processor; preemption and rescheduling in
    between are transparent. *)
type kt_ops = {
  kt_charge : Time.span -> (unit -> unit) -> unit;
      (** execute work on the current processor, then continue *)
  kt_block_for : Time.span -> (unit -> unit) -> unit;
      (** block in the kernel (e.g. I/O) for the given span *)
  kt_block_on : register:((unit -> unit) -> unit) -> (unit -> unit) -> unit;
      (** block until woken: [register wake] stores the wake function with
          whoever will call it (lock release, condition signal...) *)
  kt_yield : (unit -> unit) -> unit;
      (** relinquish the processor to the next ready thread *)
  kt_exit : unit -> unit;  (** terminate this kernel thread *)
  kt_now : unit -> Time.t;
  kt_self : unit -> int;  (** this kernel thread's id *)
  kt_cpu : unit -> int;  (** id of the processor currently held *)
}

val spawn_kthread :
  t ->
  space ->
  name:string ->
  ?startup_cost:Time.span ->
  body:(kt_ops -> unit) ->
  unit ->
  kthread
(** Create a kernel thread; it becomes ready immediately and its body runs
    once first dispatched.  [startup_cost] is charged on its first dispatch
    (models fork-path kernel work attributed to the child side). *)

val kthread_id : kthread -> int
val kthread_space : kthread -> space

(** {1 Scheduler-activation services (downcalls and execution)} *)

val activation_id : activation -> int
val activation_space : activation -> space

val sa_charge :
  ?repair:(unit -> unit) ->
  t ->
  activation ->
  Time.span ->
  (unit -> unit) ->
  unit
(** Execute user-level work in the activation's context on its current
    processor.  If the processor is preempted mid-segment, the unfinished
    remainder is wrapped in a {!Upcall.user_ctx} and reported per Table 2;
    the continuation then runs only when the user level re-charges that
    context.

    [repair] marks the segment as {e thread-manager} work (a scheduling
    decision, an idle scan): such work is idempotent, so on preemption the
    kernel calls [repair] — which must restore user-level data structures
    to a re-derivable state, e.g. push a half-dispatched thread back on its
    ready list — and discards the interrupted context instead of reporting
    it.  This mirrors Section 3.1's treatment of preemptions that catch the
    thread manager rather than a user thread. *)

val sa_block_io : t -> activation -> io:Time.span -> (unit -> unit) -> unit
(** The user-level thread running in this activation enters the kernel and
    blocks for [io].  The caller must have charged the kernel-trap cost in
    the thread's preceding segment; the kernel then emits an
    [Activation_blocked] upcall on the same processor (fresh activation) so
    the user level can run another thread, and, when the I/O completes,
    emits [Activation_unblocked] carrying the continuation as a saved
    context.  The continuation runs only when the user level resumes it. *)

val sa_block_kernel :
  t ->
  activation ->
  register:((unit -> unit) -> unit) ->
  (unit -> unit) ->
  unit
(** Like {!sa_block_io} but the wakeup is driven externally: [register wake]
    hands the wake function to whoever will eventually call it (used for
    kernel-level synchronization such as the upcall-performance benchmark of
    Section 5.2, and for coalesced buffer-cache fills). *)

val sa_add_more_processors : t -> space -> int -> unit
(** Downcall (Table 3): the space has more runnable threads than
    processors; request this many additional processors. *)

val sa_request_preempt : t -> space -> cpu:int -> unit
(** Section 3.1's priority extension: ask the kernel to interrupt one of
    this space's own processors (e.g. because it runs a lower-priority
    thread than one that just became ready).  The stopped context comes
    back as a [Processor_preempted] event in an upcall on that processor.
    A no-op if the processor is no longer owned by the space by the time
    the interrupt fires. *)

val sa_cpu_idle : t -> activation -> unit
(** Downcall (Table 3): the user level has no work for this processor.  The
    activation is discarded (to the recycle pool) and the processor returns
    to the allocator. *)

val sa_return_activation : t -> int -> unit
(** Recycle a discarded activation id (after the user level has extracted
    the thread context it carried). *)

(** {1 Introspection & statistics} *)

type stats = {
  upcalls : int;
  upcall_events : int;
  preemptions : int;  (** processor preemptions (explicit mode) *)
  reallocations : int;  (** allocator decisions that moved processors *)
  io_blocks : int;
  kt_dispatches : int;
  kt_timeslices : int;  (** quantum-expiry preemptions (native mode) *)
  daemon_wakeups : int;
  io_faults : int;  (** injected I/O faults (delays + transient errors) *)
  io_retries : int;  (** completions re-attempted after a transient error *)
  spurious_fired : int;  (** spurious completion interrupts injected *)
  spurious_dropped : int;  (** duplicate completions absorbed by the guard *)
  chaos_preempts : int;  (** forced preemptions via {!chaos_preempt} *)
}

val stats : t -> stats
val space_upcalls : space -> int

val space_grants : space -> int
(** Processors the allocator has granted to this space over the run
    (explicit mode; the initial grant counts). *)

val space_preempts : space -> int
(** Processors the allocator has reclaimed from this space over the run
    (explicit mode), warnings included once forced. *)

val check_invariants : t -> unit
(** Raises [Failure] if a kernel invariant is violated, most importantly
    Section 3.1's: for every scheduler-activation address space, the number
    of running activations equals the number of processors assigned to it.
    Also audits the activation table against the per-space running/blocked
    counters, the recycle pool (free and distinct entries only), and the
    slot table (every running activation sits on the slot it claims) — the
    checks the chaos campaigns lean on to catch lost or double-resumed
    contexts. *)

(** {1 Fault injection (chaos testing)}

    These entry points let a deterministic fault injector drive the kernel
    through adversarial schedules.  They are ordinary simulation events:
    calling them from anywhere other than the event loop is unsupported. *)

type io_fault =
  | Io_delay of Time.span  (** the completion interrupt arrives late *)
  | Io_transient_error
      (** the operation fails; the kernel retries with exponential backoff
          (200 us doubling, capped at 10 ms) *)

val set_io_fault_injector : t -> (unit -> io_fault option) option -> unit
(** Install (or clear) a hook consulted at each nominal I/O completion
    instant ({!sa_block_io} and [kt_block_for] wakeups).  Returning
    [Some f] injects fault [f]; [None] lets the completion proceed.  Every
    blocked thread still wakes exactly once. *)

val io_inflight_count : t -> int
(** Timed I/O completions currently outstanding. *)

val set_chaos_realloc_drop : t -> bool -> unit
(** Arm (or disarm) a lost-reallocation-request fault: the next deferred
    reallocation pass is silently discarded instead of running.  Demand
    raised before the dropped pass stays unserved until a later event
    re-triggers the allocator — in a busy system the loss is usually
    absorbed, but near quiescence it starves a space, which the
    work-conservation invariant ([Fault.Invariant]) detects.  Used by the
    fault injector's [demand-drop] kind. *)

val chaos_spurious_completion : t -> pick:int -> bool
(** Fire one outstanding I/O completion early — a spurious completion
    interrupt.  The guarded wakeup absorbs the real completion when it
    later arrives, so the blocked thread wakes exactly once (early).
    [pick] indexes the in-flight requests sorted by id, keeping the choice
    a pure function of the caller's seed.  [false] if nothing in flight. *)

val chaos_preempt : t -> cpu:int -> bool
(** Forcibly preempt whatever holds [cpu] at this instant — mid-upcall,
    mid-critical-section, wherever the event landed.  Explicit mode
    reclaims the processor from its owning space through the standard
    preemption path (upcall events, Section 3.3 recovery) and re-runs the
    allocator; native mode bounces the running kernel thread through the
    global run queue.  [false] if the processor held nothing preemptible. *)

val set_space_priority : t -> space -> int -> unit
(** Change a space's allocation priority (higher wins).  In explicit mode
    the allocator re-runs; used by the chaos injector to flap priorities. *)

val reallocate_now : t -> unit
(** Run one explicit-mode reallocation pass synchronously, bypassing the
    coalescing of requests.  O(spaces + cpus) and allocation-free, plus the
    cost of the processors it moves; the [kernel/realloc pass] micro
    benchmark times it. *)

val free_cpus : t -> int
(** Processors currently owned by no space (explicit mode). *)

val dump : t -> Format.formatter -> unit
(** Human-readable snapshot of processors, run queues and kernel threads
    (diagnostics). *)

val space_cpu_seconds : t -> space -> float
(** Integral of processors owned by this space over simulated time, in
    processor-seconds (explicit-allocation mode; 0.0 otherwise).  The
    fairness measure for allocator experiments. *)

val find_space : t -> int -> space option
(** Look an address space up by id (as reported in {!Sa_hw.Cpu.occupant}). *)

val swap_out_manager : t -> space -> unit
(** Section 3.1: mark the user-level thread manager's pages as paged out.
    The next upcall to this space would itself page fault, so the kernel
    delays it by one page-in before delivering. *)

val debug_stop : t -> activation -> unit
(** Section 4.4: the debugger stops an activation.  Its execution freezes on
    a "logical processor" — crucially {e without} generating any upcall, so
    the user-level thread system cannot observe the debugger's presence.
    Raises [Invalid_argument] if the activation is not currently running. *)

val debug_resume : t -> activation -> unit
(** Resume a debugger-stopped activation exactly where it froze. *)

(** {1 Cluster migration}

    Moving a scheduler-activation address space between two kernels that
    share one simulation (and one id counter — see {!create}).  The source
    drains the space through the standard Table-2 preemption upcalls; the
    package carries the space record and every activation record it owns;
    the target re-registers it and the first grant delivers the backlog. *)

type migration
(** A space in transit: detached from its source kernel, not yet attached
    anywhere.  Wakeups arriving mid-flight queue on the space and are
    delivered after attach. *)

val detach_space : t -> space -> migration
(** Reclaim all of the space's processors (each interrupted context becomes
    a [Processor_preempted] event in its pending queue), unregister it, and
    remove its activation records from this kernel's tables.  Raises
    [Invalid_argument] for kernel-thread spaces or spaces not registered
    here. *)

val attach_space : t -> migration -> unit
(** Register a detached space on this kernel, re-point its home, re-index
    its activation records, and trigger a reallocation pass so the pending
    backlog is delivered with the first grant. *)

val migration_space : migration -> space
val migration_act_count : migration -> int
(** Resident activation records in transit — the size proxy for the modeled
    state-transfer cost. *)

val sa_cpu_warned : t -> activation -> bool
(** Under the warning protocol ({!Kconfig.preempt_warning}): is a
    preemption warning outstanding on this activation's processor? *)

val sa_respond_warning : t -> activation -> unit
(** Voluntarily relinquish a warned processor at a safe point (Section 6's
    Psyche/Symunix cooperation).  Like {!sa_cpu_idle} but the space's demand
    is unchanged — the processor was taken, not returned as unneeded. *)
