(** Run driver and search loop for schedule exploration.

    A {!spec} names a deterministic workload configuration; {!run} executes
    it once under an optional chooser and reduces the run to a
    {!run_result}: the outcome, a digest over stamps + kernel statistics +
    injected-event counts + final clock (two runs with equal digests took
    the same trajectory for every observable we track), and the Table-2
    upcall adjacencies the run exercised (which consecutive upcall-event
    pairs occurred — the interleaving-coverage measure).

    {!explore} drives the search: one recorded probe run under the default
    chooser (the baseline — also how the pick count for PCT change points
    is estimated), then [schedules] recorded runs under the chosen
    strategy, stopping at the first violation so the failing schedule can
    be handed to {!Shrink}. *)

module Time = Sa_engine.Time

type workload = Server | Chaos

type spec = {
  workload : workload;
  seed : int;  (** kernel + workload + injector seed *)
  cpus : int;
  requests : int;  (** server workload size (ignored by chaos) *)
  horizon : Time.span;
  inject : bool;  (** attach the fault injector (server workload) *)
  inject_kinds : Sa_fault.Injector.kind list;
      (** fault mix; add [Demand_drop] to seed a findable violation *)
}

val default_spec : spec
(** Server workload, seed 1, 4 cpus, 40 requests, 10 s horizon, injection
    on with the survivable default mix. *)

val workload_name : workload -> string
val workload_of_name : string -> workload option

type outcome = Completed | Violation of string | No_completion of string

val outcome_name : outcome -> string
(** ["ok"], ["violation"] or ["no-completion"]. *)

type run_result = {
  outcome : outcome;
  digest : string;  (** hex MD5 of the run's observable trajectory *)
  adjacencies : (string * string) list;
      (** distinct ordered pairs of consecutive Table-2 upcall events *)
  injected : (string * int) list;
  summary : Sa_workload.Server.summary option;
      (** partial response-time summary (server workload only) *)
}

val run :
  ?chooser:Sa_engine.Sim.chooser ->
  ?trace_sink:(Sa_engine.Trace.record -> unit) ->
  ?on_job:(Sa.System.job -> Sa_program.Program.t -> unit) ->
  spec ->
  run_result
(** One run.  Catches {!Sa_engine.Sim.Stalled} (→ [Violation]) and
    [Failure] (→ [No_completion]); anything else propagates.

    [on_job] is a test seam: it is called with the server workload's job
    and its program right after submission, before anything runs — the
    differential suite uses it to put the job on its reference CPS
    walker.  Passing it with the chaos workload raises
    [Invalid_argument]. *)

val record :
  ?inner:Sa_engine.Sim.chooser ->
  ?trace_sink:(Sa_engine.Trace.record -> unit) ->
  ?on_job:(Sa.System.job -> Sa_program.Program.t -> unit) ->
  spec ->
  run_result * Schedule.t
(** Run under [inner] (default the identity chooser) wrapped in a recorder;
    returns the result and the decision sequence (no metadata — see
    {!meta_of_spec}).  [on_job] as for {!run}. *)

val replay :
  ?mode:Chooser.replay_mode ->
  ?active:(int -> bool) ->
  ?trace_sink:(Sa_engine.Trace.record -> unit) ->
  spec ->
  Schedule.t ->
  run_result * int
(** Re-drive a run from a schedule; also returns the number of decisions
    consumed.  [Strict] mode (the default) raises {!Chooser.Divergence} on
    any mismatch. *)

(** {1 Schedule metadata} *)

val meta_of_spec : spec -> strategy:string -> (string * string) list
(** Header fields encoding the spec (plus the strategy name), so a saved
    schedule is self-describing. *)

val spec_of_meta : (string * string) list -> spec
(** Reconstruct a spec from a schedule header, falling back to
    {!default_spec} for missing fields.  Unknown keys are ignored, such
    as the [drop_gap_us] that headers written by older builds carry. *)

(** {1 Search} *)

type strategy = Walk | Pct of int  (** depth *)

val strategy_name : strategy -> string

type report = {
  baseline : run_result;
  baseline_sched : Schedule.t;
  runs : int;  (** perturbed runs executed (excluding the baseline) *)
  violations : int;
  no_completions : int;
  distinct_digests : int;  (** including the baseline *)
  coverage : (string * string) list;  (** union of adjacencies over all runs *)
  failing : (int * run_result * Schedule.t) option;
      (** first violation: strategy seed, result, recorded schedule *)
}

val explore :
  ?on_run:(int -> run_result -> unit) ->
  strategy:strategy ->
  schedules:int ->
  spec ->
  report
(** Probe baseline + up to [schedules] perturbed recorded runs (strategy
    seeded from [spec.seed] and the run index), stopping at the first
    violation.  [on_run] observes each perturbed run as it completes. *)

val all_adjacencies : int
(** Size of the full Table-2 adjacency space (4 events × 4 events). *)
