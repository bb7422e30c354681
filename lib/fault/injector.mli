(** Deterministic adversarial-event injector.

    Attached to a fully-submitted {!Sa.System.t}, the injector schedules
    chaos events through the ordinary simulation queue: forced processor
    preemptions at random instants (including mid-critical-section,
    stressing the Section 3.3 recovery protocol), spurious and delayed I/O
    completions, transient device and buffer-cache errors, bursts of
    high-priority kernel daemons, priority flaps, and transient address
    spaces arriving and departing to churn the allocator.

    Every random choice draws from a dedicated splitmix64 stream derived
    from the attach seed, one independent stream per injector kind — the
    injected schedule is a pure function of [(seed, kinds)], so a
    violating run replays exactly from its printed seed.  Rates and
    magnitudes are fixed constants: several forced preemptions per
    millisecond of simulated time and a fault on a fifth of I/O
    completions.  Injection stops by itself once every job has finished,
    so {!Sa.System.run}'s completion predicate still terminates. *)

module Time = Sa_engine.Time

type kind =
  | Preempt  (** forced processor preemptions + spurious I/O completions *)
  | Io_faults  (** delayed/failed I/O completions, cache invalidations *)
  | Daemon_storm  (** bursts of short-lived high-priority kernel threads *)
  | Priority_flap  (** transient space-priority boosts *)
  | Space_churn  (** transient address spaces arriving and departing *)
  | Demand_drop
      (** lost reallocation requests — a {e seeded bug}, not a survivable
          fault: the kernel discards a deferred allocator pass, and demand
          raised before it stays unserved until some later event
          re-triggers the allocator.  Off by default; enable it to give
          schedule exploration a real, interleaving-sensitive violation to
          find (the work-conservation invariant catches the starvation). *)
  | Machine_crash
      (** fail-stop whole-machine crashes — only acts when [attach] was
          given {!cluster_hooks}; a no-op (never counted) otherwise *)
  | Net_partition
      (** transient cuts of a random inter-machine link — cluster runs
          only, like {!Machine_crash} *)

val survivable_kinds : kind list
(** The five fault kinds the system is expected to absorb — the default
    mix of {!attach}.  {!Demand_drop} is a bug seed and the two cluster
    kinds need a cluster, so all three must be asked for. *)

(** {!survivable_kinds} plus {!Demand_drop}, {!Machine_crash} and
    {!Net_partition}. *)
val all_kinds : kind list
val kind_name : kind -> string
val kind_of_name : string -> kind option

type cluster_hooks = {
  ch_machines : int;  (** machines the crash/partition draws range over *)
  ch_crash : int -> bool;
      (** fail-stop machine [m]; [false] if refused (already dead, last
          one standing) — refused events are not counted *)
  ch_partition : int -> int -> hold:Time.span -> bool;
      (** cut the link between two machines for [hold] *)
  ch_active : unit -> bool;
      (** overrides the single-system job-completion check: cluster jobs
          migrate between systems, so only the cluster knows when the
          whole workload is done *)
}
(** How the cluster-level kinds reach a {!Sa_cluster.Cluster.t} without
    this library depending on it: the caller wraps [crash_machine] and
    [partition] in plain closures. *)

type t

val attach :
  ?kinds:kind list -> ?cluster:cluster_hooks -> seed:int -> Sa.System.t -> t
(** Install one injector per kind in [kinds] (default {!survivable_kinds}).
    Call {b after} submitting every job:
    the injector snapshots the job list to find target spaces and caches.
    Hooks installed on the kernel and on each job's cache/device stay in
    place until {!detach}.  [cluster] arms {!Machine_crash} and
    {!Net_partition}; without it those kinds install nothing. *)

val detach : t -> unit
(** Stop injecting: recurring injector ticks become no-ops, and the
    kernel/cache/device fault hooks installed by {!attach} are restored to
    [None].  Chaos events already scheduled (e.g. a pending priority-flap
    restore) still fire, so transient state is unwound rather than leaked.
    Idempotent.  Exploration harnesses re-run many configurations against
    fresh systems in one process; detach keeps a finished system's hooks
    from outliving its run. *)

val injected : t -> (string * int) list
(** Events injected so far, by kind name (for reports). *)
