(** Modified FastThreads: the user-level thread package on scheduler
    activations (Sections 3–4).

    The kernel vectors every scheduling event to the upcall handler in this
    module (Table 2); the handler updates the ready lists, performs
    critical-section recovery for threads stopped mid-section (Section 3.3),
    and decides what each granted processor runs next.  The package notifies
    the kernel only of the transitions that can change processor-allocation
    decisions (Table 3): when runnable threads exceed processors, and when a
    processor has idled through its hysteresis period. *)

type t

val create :
  Sa_kernel.Kernel.t ->
  name:string ->
  ?priority:int ->
  ?cache:Sa_hw.Buffer_cache.t ->
  ?io_dev:Sa_hw.Io_device.t ->
  ?strategy:Ft_core.strategy ->
  ?max_procs:int ->
  ?observer:(int -> Sa_engine.Time.t -> unit) ->
  ?on_done:(unit -> unit) ->
  unit ->
  t
(** Build a scheduler-activation address space running modified FastThreads.
    [max_procs] caps how many processors the space ever asks the kernel
    for (default: all of them) — the knob behind the speedup-vs-processors
    sweep of Figure 1.  Raises [Invalid_argument] if the kernel is in
    native mode. *)

val start : t -> Sa_program.Program.t -> unit
(** Create the main thread and request a first processor; the initial
    upcall starts execution. *)

val core : t -> Ft_core.state
val driver : t -> Ft_core.driver
val space : t -> Sa_kernel.Kernel.space
val completion_time : t -> Sa_engine.Time.t option
val is_finished : t -> bool

val pending_recoveries : t -> int
(** Threads stopped inside a critical section and awaiting temporary
    continuation (diagnostics). *)

(** {1 Cluster migration} *)

val rehome : t -> Sa_kernel.Kernel.t -> unit
(** Re-point the package at the kernel now hosting its space.  Call after
    [Kernel.detach_space] and before [Kernel.attach_space] on the target,
    so every downcall issued from then on reaches the right kernel. *)

val nudge_demand : t -> unit
(** Re-issue the Table-3 add-more-processors downcall from current runnable
    count (capped at [max_procs]).  Used after a migration lands: the
    detach zeroed the space's desire, and only wakeups — not already-ready
    threads — would otherwise restore it. *)
