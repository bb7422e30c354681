module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Rng = Sa_engine.Rng
module Kernel = Sa_kernel.Kernel
module Io_device = Sa_hw.Io_device
module Buffer_cache = Sa_hw.Buffer_cache
module System = Sa.System

type kind =
  | Preempt
  | Io_faults
  | Daemon_storm
  | Priority_flap
  | Space_churn
  | Demand_drop
  | Machine_crash
  | Net_partition

(* The five survivable kinds the system is expected to absorb; Demand_drop
   is a genuine bug seed (a lost reallocation request) and is therefore
   opt-in, never part of the default mix.  The two cluster kinds need a
   cluster to act on (see [attach ?cluster]) and are likewise opt-in. *)
let survivable_kinds =
  [ Preempt; Io_faults; Daemon_storm; Priority_flap; Space_churn ]

(* New kinds append at the end: the per-kind stream split below follows
   this order, so appending keeps every existing kind's draws identical. *)
let all_kinds = survivable_kinds @ [ Demand_drop; Machine_crash; Net_partition ]

let kind_name = function
  | Preempt -> "preempt"
  | Io_faults -> "io-faults"
  | Daemon_storm -> "daemon-storm"
  | Priority_flap -> "priority-flap"
  | Space_churn -> "space-churn"
  | Demand_drop -> "demand-drop"
  | Machine_crash -> "machine-crash"
  | Net_partition -> "net-partition"

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds

(* Fixed tuning: aggressive enough to preempt several times per
   millisecond of simulated time and to fault a noticeable fraction of I/O
   completions.  A [*_gap_us] is the mean of an exponentially distributed
   wait between two events of its kind. *)
let preempt_gap_us = 300.0
let spurious_prob = 0.15 (* per preemption tick: a spurious completion *)
let io_fault_prob = 0.2 (* per I/O completion: half errors, half delays *)
let io_delay = Time.us 400
let cache_fault_prob = 0.05 (* per cache hit: an invalidation *)
let storm_gap_us = 3_000.0
let storm_size = 3 (* kernel threads per daemon storm *)
let storm_burst = Time.us 200
let flap_gap_us = 2_000.0
let flap_hold = Time.ms 1
let churn_gap_us = 4_000.0
let drop_gap_us = 2_000.0
let crash_gap_us = 20_000.0
let partition_gap_us = 8_000.0
let partition_hold = Time.ms 2

type cluster_hooks = {
  ch_machines : int;
  ch_crash : int -> bool;
  ch_partition : int -> int -> hold:Time.span -> bool;
  ch_active : unit -> bool;
}

type t = {
  sys : System.t;
  cluster : cluster_hooks option;
  mutable n_preempts : int;
  mutable n_spurious : int;
  mutable n_io_faults : int;
  mutable n_cache_faults : int;
  mutable n_storms : int;
  mutable n_flaps : int;
  mutable n_churns : int;
  mutable n_drops : int;
  mutable n_crashes : int;
  mutable n_partitions : int;
  mutable detached : bool;
  mutable cleanups : (unit -> unit) list;
      (* uninstallers for the kernel/cache/device hooks this injector set *)
}

let injected t =
  [
    ("preempt", t.n_preempts);
    ("spurious", t.n_spurious);
    ("io-fault", t.n_io_faults);
    ("cache-fault", t.n_cache_faults);
    ("daemon-storm", t.n_storms);
    ("priority-flap", t.n_flaps);
    ("space-churn", t.n_churns);
    ("demand-drop", t.n_drops);
    ("machine-crash", t.n_crashes);
    ("net-partition", t.n_partitions);
  ]

let active t =
  (not t.detached)
  &&
  match t.cluster with
  | Some h -> h.ch_active ()
  | None ->
      List.exists (fun j -> not (System.finished j)) (System.jobs t.sys)

(* A recurring injector: exponentially-distributed gaps from a private
   stream, stopping by itself once every job has finished (so the
   completion predicate driving the simulation still terminates). *)
let recurring t rng ~mean_us action =
  let sim = System.sim t.sys in
  let rec tick () =
    let delay = Time.us_f (max 1.0 (Rng.exponential rng ~mean:mean_us)) in
    ignore
      (Sim.schedule_after sim ~delay (fun () ->
           if active t then begin
             action ();
             tick ()
           end))
  in
  tick ()

(* --- Preempt: forced reallocations at adversarial instants ------------ *)

let install_preempt t rng =
  let kern = System.kernel t.sys in
  let cpus = Sa_hw.Machine.cpu_count (System.machine t.sys) in
  recurring t rng ~mean_us:preempt_gap_us (fun () ->
      if Kernel.chaos_preempt kern ~cpu:(Rng.int rng cpus) then
        t.n_preempts <- t.n_preempts + 1;
      if Rng.float rng 1.0 < spurious_prob then
        if Kernel.chaos_spurious_completion kern ~pick:(Rng.int rng 1_000_000)
        then t.n_spurious <- t.n_spurious + 1)

(* --- Io_faults: lying completion interrupts and flaky devices --------- *)

let install_io_faults t rng =
  let kern = System.kernel t.sys in
  t.cleanups <-
    (fun () -> Kernel.set_io_fault_injector kern None) :: t.cleanups;
  Kernel.set_io_fault_injector kern
    (Some
       (fun () ->
         let x = Rng.float rng 1.0 in
         if x < io_fault_prob /. 2.0 then begin
           t.n_io_faults <- t.n_io_faults + 1;
           Some Kernel.Io_transient_error
         end
         else if x < io_fault_prob then begin
           t.n_io_faults <- t.n_io_faults + 1;
           Some (Kernel.Io_delay io_delay)
         end
         else None));
  List.iter
    (fun job ->
      (match System.cache job with
      | Some cache ->
          let crng = Rng.split rng in
          t.cleanups <-
            (fun () -> Buffer_cache.set_chaos_hook cache None) :: t.cleanups;
          Buffer_cache.set_chaos_hook cache
            (Some
               (fun () ->
                 if Rng.float crng 1.0 < cache_fault_prob then begin
                   t.n_cache_faults <- t.n_cache_faults + 1;
                   true
                 end
                 else false))
      | None -> ());
      match Option.bind (System.ft_core_state job) Sa_uthread.Ft_core.io_device
      with
      | Some dev ->
          let drng = Rng.split rng in
          t.cleanups <-
            (fun () -> Io_device.set_fault_hook dev None) :: t.cleanups;
          Io_device.set_fault_hook dev
            (Some
               (fun () ->
                 let x = Rng.float drng 1.0 in
                 if x < io_fault_prob /. 2.0 then begin
                   t.n_io_faults <- t.n_io_faults + 1;
                   Some Io_device.Fault_transient_error
                 end
                 else if x < io_fault_prob then begin
                   t.n_io_faults <- t.n_io_faults + 1;
                   Some (Io_device.Fault_delay io_delay)
                 end
                 else None))
      | None -> ())
    (System.jobs t.sys)

(* --- Daemon_storm: bursts of high-priority kernel threads ------------- *)

let install_daemon_storm t rng =
  let kern = System.kernel t.sys in
  let storm_sp = Kernel.new_kthread_space kern ~name:"chaos-storm" ~priority:5 () in
  recurring t rng ~mean_us:storm_gap_us (fun () ->
      t.n_storms <- t.n_storms + 1;
      for i = 1 to storm_size do
        ignore
          (Kernel.spawn_kthread kern storm_sp
             ~name:(Printf.sprintf "storm-%d" i)
             ~body:(fun ops ->
               ops.Kernel.kt_charge storm_burst (fun () ->
                   ops.Kernel.kt_exit ()))
             ())
      done)

(* --- Priority_flap: transient allocation-priority boosts -------------- *)

let install_priority_flap t rng =
  let kern = System.kernel t.sys in
  let sim = System.sim t.sys in
  let spaces =
    List.map (fun j -> System.space j) (System.jobs t.sys) |> Array.of_list
  in
  if Array.length spaces > 0 then
    recurring t rng ~mean_us:flap_gap_us (fun () ->
        let sp = spaces.(Rng.int rng (Array.length spaces)) in
        t.n_flaps <- t.n_flaps + 1;
        (* Boost then always restore: a flap perturbs the allocator twice
           without permanently starving the other spaces. *)
        Kernel.set_space_priority kern sp (1 + Rng.int rng 2);
        ignore
          (Sim.schedule_after sim ~delay:flap_hold (fun () ->
               Kernel.set_space_priority kern sp 0)))

(* --- Demand_drop: lost reallocation requests (a seeded bug) ----------- *)

let install_demand_drop t rng =
  let kern = System.kernel t.sys in
  t.cleanups <-
    (fun () -> Kernel.set_chaos_realloc_drop kern false) :: t.cleanups;
  recurring t rng ~mean_us:drop_gap_us (fun () ->
      t.n_drops <- t.n_drops + 1;
      Kernel.set_chaos_realloc_drop kern true)

(* --- Machine_crash / Net_partition: cluster-level faults -------------- *)

(* Both act through the [cluster_hooks] the caller supplied: without a
   cluster they install nothing, so a single-machine chaos run accepts the
   kind names harmlessly.  The hook decides legality (e.g. never killing
   the last machine); refused events are not counted. *)

let install_machine_crash t rng =
  match t.cluster with
  | None -> ()
  | Some h ->
      recurring t rng ~mean_us:crash_gap_us (fun () ->
          if h.ch_crash (Rng.int rng h.ch_machines) then
            t.n_crashes <- t.n_crashes + 1)

let install_net_partition t rng =
  match t.cluster with
  | None -> ()
  | Some h ->
      recurring t rng ~mean_us:partition_gap_us (fun () ->
          (* always burn both draws so refused pairs don't shift the
             stream *)
          let a = Rng.int rng h.ch_machines in
          let b = Rng.int rng h.ch_machines in
          if a <> b && h.ch_partition a b ~hold:partition_hold then
            t.n_partitions <- t.n_partitions + 1)

(* --- Space_churn: transient address spaces -------------------------- *)

let install_space_churn t rng =
  let kern = System.kernel t.sys in
  recurring t rng ~mean_us:churn_gap_us (fun () ->
      t.n_churns <- t.n_churns + 1;
      let sp =
        Kernel.new_kthread_space kern
          ~name:(Printf.sprintf "churn-%d" t.n_churns)
          ()
      in
      let threads = 1 + Rng.int rng 2 in
      for i = 1 to threads do
        let work = Time.us (50 + Rng.int rng 250) in
        ignore
          (Kernel.spawn_kthread kern sp
             ~name:(Printf.sprintf "churn-%d.%d" t.n_churns i)
             ~body:(fun ops ->
               ops.Kernel.kt_charge work (fun () -> ops.Kernel.kt_exit ()))
             ())
      done)

let attach ?(kinds = survivable_kinds) ?cluster ~seed sys =
  let t =
    {
      sys;
      cluster;
      n_preempts = 0;
      n_spurious = 0;
      n_io_faults = 0;
      n_cache_faults = 0;
      n_storms = 0;
      n_flaps = 0;
      n_churns = 0;
      n_drops = 0;
      n_crashes = 0;
      n_partitions = 0;
      detached = false;
      cleanups = [];
    }
  in
  (* One independent stream per kind, split in a fixed order so enabling or
     disabling one kind does not shift the draws of another.  Each stream is
     interposed on the simulation's chooser so its draws become recordable
     choice points (the hook is inherited by the cache/device sub-streams
     split from it); with no chooser installed the hook is an identity. *)
  let root = Rng.create seed in
  let sim = System.sim sys in
  let streams = List.map (fun k -> (k, Rng.split root)) all_kinds in
  List.iter
    (fun (k, rng) ->
      if List.mem k kinds then begin
        let site = "inject:" ^ kind_name k in
        Rng.interpose rng
          (Some (fun default -> Sim.draw sim ~site ~default));
        match k with
        | Preempt -> install_preempt t rng
        | Io_faults -> install_io_faults t rng
        | Daemon_storm -> install_daemon_storm t rng
        | Priority_flap -> install_priority_flap t rng
        | Space_churn -> install_space_churn t rng
        | Demand_drop -> install_demand_drop t rng
        | Machine_crash -> install_machine_crash t rng
        | Net_partition -> install_net_partition t rng
      end)
    streams;
  t

let detach t =
  if not t.detached then begin
    t.detached <- true;
    List.iter (fun restore -> restore ()) t.cleanups;
    t.cleanups <- []
  end
