(** The space-sharing processor allocator (Section 4.1): runs the pure
    {!Alloc_policy.Waterfill} in place over the kernel's space records,
    reclaims above-target processors (optionally through the Psyche/Symunix
    warning protocol) and grants free ones below-target, with the remainder
    rotation of Section 4.1.  Passes are coalesced behind the late-bound
    {!Ktypes.reevaluate}/{!Ktypes.schedule_pass} entry points, which
    {!install} fills in. *)

open Ktypes

val install : unit -> unit
(** Bind {!Ktypes.reevaluate_ref} and {!Ktypes.schedule_pass_ref} to the
    coalesced reallocation / native dispatch passes.  Idempotent;
    [Kernel.create] calls it before any space exists. *)

val bind : t -> unit
(** Build [t]'s deferred reallocation and native-dispatch pass closures
    ([realloc_pass], [sched_pass]) once, so requesting a pass allocates
    nothing.  [Kernel.create] calls it. *)

val set_chaos_realloc_drop : t -> bool -> unit
(** Arm (or disarm) the injector's lost-reallocation fault: the next
    deferred pass is silently discarded. *)

val set_space_priority : t -> space -> int -> unit
val chaos_preempt : t -> cpu:int -> bool
val grant_cpu_to : t -> slot -> space -> unit
val preempt_cpu_from : t -> space -> unit

val preempt_slot_now : t -> space -> slot -> unit
(** Immediately reclaim [slot] from [sp]: the interrupted context becomes a
    [Processor_preempted] event in the space's pending queue.  Used by the
    reallocation pass and by cluster migration ([Kernel.detach_space]). *)

val do_reallocate : t -> unit
(** One reallocation pass: O(spaces + cpus) with no allocation, plus the
    cost of whatever processors it actually moves. *)
