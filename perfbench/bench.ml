(* One benchmark iteration: build one workload, run it once, check its
   outputs, and print every raw measurement as a single JSON line.

     bench.exe --workload <forkjoin|serve|cluster|nbody-io> --seed N
               [--traced] [--floor]

   Every host-side number is taken here, around calls into the public
   functions of the simulator's layers ([System.create]/[submit]/[run],
   [Sim.step], [Program.compile], [Server.tenant_program],
   [Nbody.prepare], [Cluster.create]/[run]); every simulated number is
   read from the layers' public counters.  Nothing inside the simulator
   is instrumented.

   The JSON line has these groups:
   - ["host"]: host-dependent measurements (seconds, MB, ns, words);
   - ["sim"]: simulated outputs, identical for identical seeds; their
     digest (with every per-item latency) is ["digest"];
   - ["checks"]: named output checks; ["attempted"]/["failed"] count the
     items (threads or requests) plus checks, and the misses among them;
   - ["traced"] (with [--traced]): the per-step attribution of host time
     to layers, from a run driven step by step with tracing on.  Its
     wall time is not comparable with an untraced run's, so the driver
     takes end-to-end numbers only from untraced runs. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Log_histogram = Sa_engine.Stats.Log_histogram
module System = Sa.System
module Kernel = Sa_kernel.Kernel
module Kconfig = Sa_kernel.Kconfig
module Program = Sa_program.Program
module Ft_core = Sa_uthread.Ft_core
module Buffer_cache = Sa_hw.Buffer_cache
module Server = Sa_workload.Server
module Nbody = Sa_workload.Nbody
module Cluster = Sa_cluster.Cluster

(* ------------------------------------------------------------------ *)
(* Host clock and measurement sinks                                    *)
(* ------------------------------------------------------------------ *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

type value = Int of int | Float of float

let host_values : (string * float) list ref = ref []
let sim_values : (string * value) list ref = ref []
let checks : (string * bool) list ref = ref []
let items_offered = ref 0
let items_missed = ref 0
let host name v = host_values := (name, v) :: !host_values
let sim_int name v = sim_values := (name, Int v) :: !sim_values
let sim_float name v = sim_values := (name, Float v) :: !sim_values
let check name ok = checks := (name, ok) :: !checks

let items ~offered ~completed =
  items_offered := !items_offered + offered;
  items_missed := !items_missed + (offered - completed)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let invariants_hold name kernel =
  check name
    (match Kernel.check_invariants kernel with
    | () -> true
    | exception Failure msg ->
        prerr_endline (name ^ ": " ^ msg);
        false)

(* A run that passes its horizon is reported by the checks that follow
   it, not by aborting the iteration. *)
let run_to_end run =
  try run () with Failure msg -> prerr_endline ("bench: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Per-item latencies                                                  *)
(* ------------------------------------------------------------------ *)

(* Latencies in simulated ns, in the order the run produced them; they
   feed the percentiles and the simulated-output digest. *)
let latencies : int array ref = ref [||]

let percentile_ms sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    float_of_int sorted.(max 0 (min (n - 1) (rank - 1))) /. 1e6

let report_latencies lat =
  latencies := lat;
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  sim_int "workload.latency_samples" (Array.length lat);
  sim_float "workload.p50_latency_ms" (percentile_ms sorted 0.50);
  sim_float "workload.p99_latency_ms" (percentile_ms sorted 0.99)

(* Workloads without requests: no latencies, no SLO. *)
let report_no_requests () =
  sim_int "workload.latency_samples" 0;
  sim_float "workload.p50_latency_ms" 0.0;
  sim_float "workload.p99_latency_ms" 0.0;
  sim_int "workload.requests" 0;
  sim_int "workload.completed" 0;
  sim_float "workload.slo_violation_frac" 0.0

(* ------------------------------------------------------------------ *)
(* Traced driving: attribute each step's host time to a layer          *)
(* ------------------------------------------------------------------ *)

let category_index = function
  | Trace.Sim -> 0
  | Trace.Cpu -> 1
  | Trace.Kernel -> 2
  | Trace.Upcall -> 3
  | Trace.Uthread -> 4
  | Trace.Workload -> 5

let category_names =
  [| "sim"; "cpu"; "kernel"; "upcall"; "uthread"; "workload" |]

(* A step belongs to the layer of the first record it emits; a step that
   emits nothing is the engine's. *)
let layer_of_category = [| 0; 1; 2; 2; 3; 4 |]
let layer_names = [| "engine"; "hw"; "kernel"; "uthread"; "workload" |]

type tracer = {
  mutable first : int;  (** category of the current step's first record *)
  records : int array;  (** per category *)
  layer_ns : int array;  (** per layer *)
  step_ns : Log_histogram.t;
  mutable pending_max : int;
  mutable wall_ns : int;
}

let new_tracer () =
  {
    first = -1;
    records = Array.make (Array.length category_names) 0;
    layer_ns = Array.make (Array.length layer_names) 0;
    step_ns = Log_histogram.create ~lo:1.0 ~hi:1e10 ~sub_buckets:64;
    pending_max = 0;
    wall_ns = 0;
  }

type mode = Untraced | Traced of tracer

(* Called on every clock right after it is created. *)
let prepare_sim mode sim =
  let tr = Sim.trace sim in
  match mode with
  | Untraced -> Trace.set_recording tr false
  | Traced t ->
      Trace.set_recording tr true;
      Trace.add_sink tr (fun r ->
          let c = category_index r.Trace.category in
          t.records.(c) <- t.records.(c) + 1;
          if t.first < 0 then t.first <- c)

(* Untraced: the layer's own runner.  Traced: [Sim.step] until [active]
   turns false, timing each step, within the runners' 30-minute simulated
   horizon. *)
let horizon = Time.s 1800

let drive mode sim ~active ~run =
  match mode with
  | Untraced -> run ()
  | Traced t ->
      let t_start = now_ns () in
      let deadline = Time.add (Sim.now sim) horizon in
      let fired = ref true in
      while !fired && active () && Time.(Sim.now sim <= deadline) do
        t.first <- -1;
        let t0 = now_ns () in
        fired := Sim.step sim;
        let dt = now_ns () - t0 in
        let layer = if t.first < 0 then 0 else layer_of_category.(t.first) in
        t.layer_ns.(layer) <- t.layer_ns.(layer) + dt;
        Log_histogram.add t.step_ns (float_of_int (max 1 dt));
        let p = Sim.pending sim in
        if p > t.pending_max then t.pending_max <- p
      done;
      t.wall_ns <- t.wall_ns + (now_ns () - t_start)

(* ------------------------------------------------------------------ *)
(* Layer counters read after a run                                     *)
(* ------------------------------------------------------------------ *)

(* [placed] pairs every job with the system it ended on. *)
let report_layers ~kernels ~placed =
  let ks = List.map Kernel.stats kernels in
  let ksum f = List.fold_left (fun a s -> a + f s) 0 ks in
  sim_int "kernel.upcalls" (ksum (fun s -> s.Kernel.upcalls));
  sim_int "kernel.upcall_events" (ksum (fun s -> s.Kernel.upcall_events));
  sim_int "kernel.preemptions" (ksum (fun s -> s.Kernel.preemptions));
  sim_int "kernel.reallocations" (ksum (fun s -> s.Kernel.reallocations));
  sim_int "kernel.io_blocks" (ksum (fun s -> s.Kernel.io_blocks));
  sim_int "kernel.kt_dispatches" (ksum (fun s -> s.Kernel.kt_dispatches));
  sim_int "kernel.kt_timeslices" (ksum (fun s -> s.Kernel.kt_timeslices));
  sim_int "kernel.daemon_wakeups" (ksum (fun s -> s.Kernel.daemon_wakeups));
  let jsum f = List.fold_left (fun a (_, j) -> a + f j) 0 placed in
  let grants = jsum (fun j -> Kernel.space_grants (System.space j)) in
  let preempts = jsum (fun j -> Kernel.space_preempts (System.space j)) in
  sim_float "kernel.preempts_per_grant" (ratio preempts grants);
  let fts = List.filter_map (fun (_, j) -> System.uthread_stats j) placed in
  let usum f = List.fold_left (fun a s -> a + f s) 0 fts in
  sim_int "uthread.forks" (usum (fun s -> s.Ft_core.forks));
  sim_int "uthread.completions" (usum (fun s -> s.Ft_core.completions));
  let dispatches = usum (fun s -> s.Ft_core.dispatches) in
  let steals = usum (fun s -> s.Ft_core.steals) in
  sim_int "uthread.dispatches" dispatches;
  sim_int "uthread.steals" steals;
  sim_float "uthread.steals_per_dispatch" (ratio steals dispatches);
  sim_int "uthread.ublocks" (usum (fun s -> s.Ft_core.ublocks));
  sim_int "uthread.kblocks" (usum (fun s -> s.Ft_core.kblocks));
  sim_int "uthread.cs_spin_ns" (usum (fun s -> s.Ft_core.cs_spin_ns));
  sim_int "uthread.cs_recoveries" (usum (fun s -> s.Ft_core.cs_recoveries));
  let segments = usum (fun s -> s.Ft_core.charge_segments) in
  let batches = usum (fun s -> s.Ft_core.charge_batches) in
  sim_int "program.steps" (usum (fun s -> s.Ft_core.program_steps));
  sim_int "program.charge_segments" segments;
  sim_int "program.charge_batches" batches;
  sim_float "program.batch_ratio" (ratio segments batches);
  let caches = List.filter_map (fun (_, j) -> System.cache j) placed in
  let hits = List.fold_left (fun a c -> a + Buffer_cache.hits c) 0 caches in
  let misses = List.fold_left (fun a c -> a + Buffer_cache.misses c) 0 caches in
  sim_int "hw.cache_hits" hits;
  sim_int "hw.cache_misses" misses;
  sim_float "hw.cache_hit_ratio" (ratio hits (hits + misses))

(* Σ space_cpu_seconds / (cpus × makespan): the share of the machine the
   allocator kept granted (explicit-allocation spaces only). *)
let report_cpu_busy ~placed ~cpus ~makespan_ms =
  let cpu_s =
    List.fold_left
      (fun a (sys, j) ->
        a +. Kernel.space_cpu_seconds (System.kernel sys) (System.space j))
      0.0 placed
  in
  sim_float "hw.cpu_busy_frac"
    (if makespan_ms <= 0.0 then 0.0
     else cpu_s /. (float_of_int cpus *. makespan_ms /. 1e3))

let report_program_ops progs =
  sim_int "program.ops"
    (List.fold_left (fun a p -> a + Program.op_count p ~max:max_int) 0 progs)

let compile_all progs =
  let compiled = List.for_all (fun p -> Program.compile p <> None) progs in
  check "programs_compile" compiled

let elapsed_ms job =
  match System.elapsed job with Some d -> Time.span_to_ms d | None -> 0.0

(* The per-layer rows that only some workloads fill: every workload
   prints the same metric set, so the others report 0. *)
let cluster_metrics =
  [
    "cluster.migrations"; "cluster.remote_hits"; "cluster.remote_fallbacks";
    "cluster.net_messages"; "cluster.net_bytes"; "cluster.net_drops";
    "cluster.alloc_summaries"; "cluster.alloc_rebalances";
  ]

let cluster_ratios =
  [ "cluster.remote_hit_ratio"; "cluster.rebalances_per_summary" ]

let backend_names = [ "origft"; "sa" ]

let report_absent ~cluster ~nbody =
  if not cluster then begin
    List.iter (fun n -> sim_int n 0) cluster_metrics;
    List.iter (fun n -> sim_float n 0.0) cluster_ratios
  end;
  if not nbody then begin
    List.iter (fun b -> host ("uthread.ns_per_event." ^ b) 0.0) backend_names;
    sim_float "uthread.sim_makespan_ms.origft" 0.0;
    sim_int "barneshut.interactions" 0;
    host "barneshut.prepare_s" 0.0
  end

(* Host cost of the set-up phase, shared by every workload. *)
let report_setup ~setup_s ~create_s ~gen_s ~compile_s =
  host "setup_s" setup_s;
  host "core.create_s" create_s;
  host "workload.gen_s" gen_s;
  host "program.compile_s" compile_s

(* Host cost and volume of the run; called right after it, so the heap
   peak is the run's. *)
let report_run ~wall_s ~words ~events =
  host "wall_s" wall_s;
  host "peak_heap_mb" (peak_heap_mb ());
  sim_int "engine.events" events;
  host "engine.ns_per_event" (wall_s *. 1e9 /. float_of_int (max 1 events));
  host "engine.words_per_event" (words /. float_of_int (max 1 events))

(* ------------------------------------------------------------------ *)
(* forkjoin                                                            *)
(* ------------------------------------------------------------------ *)

(* One FastThreads-on-SA space on 64 processors.  The root forks one
   branch per processor; each branch forks its leaves, so forking itself
   runs in parallel.  A leaf computes, yields, computes again and exits.
   There are 64 leaf shapes: shape [j] computes [10 + 20j/63] us before
   the yield and [10 + 20((29j) mod 64)/63] us after it.  Leaf [i] of
   branch [b] has shape [(b + i mod 8) mod 64], so branches are unevenly
   loaded and idle processors must steal.  The workload has no random
   draws and ignores the seed: with 64 processors contending for queue
   locks, any change to the inputs, seeded ones included, moves the
   steal count by up to 2x and the host time by up to 50%.  The 64
   shapes are 64 shared program values, which keeps compilation
   memoized. *)
let forkjoin_cpus = 64
let forkjoin_branches = 64
let forkjoin_leaves_per_branch = 3125
let forkjoin_shapes = 64
let forkjoin_window = 8

let forkjoin mode _seed =
  let leaves = forkjoin_branches * forkjoin_leaves_per_branch in
  let t_setup = now_ns () in
  let sys, create_s = timed (fun () -> System.create ~cpus:forkjoin_cpus ()) in
  prepare_sim mode (System.sim sys);
  let prog, gen_s =
    timed (fun () ->
        let us k = Time.ns (10_000 + (20_000 * k / (forkjoin_shapes - 1))) in
        let shapes =
          Array.init forkjoin_shapes (fun j ->
              Program.Build.(
                to_program
                  (let* () = compute (us j) in
                   let* () = yield in
                   compute (us (29 * j mod forkjoin_shapes)))))
        in
        let branch b =
          Program.Build.(
            to_program
              (repeat forkjoin_leaves_per_branch (fun i ->
                   fork_unit
                     shapes.((b + (i mod forkjoin_window)) mod forkjoin_shapes))))
        in
        let branches = List.init forkjoin_branches branch in
        Program.Build.(to_program (iter_list branches fork_unit)))
  in
  let (), compile_s = timed (fun () -> compile_all [ prog ]) in
  let setup_s = seconds_since t_setup in
  let w0 = allocated_words () in
  let t_run = now_ns () in
  let job =
    System.submit sys ~backend:`Fastthreads_on_sa ~name:"forkjoin" prog
  in
  drive mode (System.sim sys)
    ~active:(fun () -> not (System.finished job))
    ~run:(fun () -> run_to_end (fun () -> System.run sys));
  let wall_s = seconds_since t_run in
  let words = allocated_words () -. w0 in
  let events = Sim.events (System.sim sys) in
  report_run ~wall_s ~words ~events;
  report_setup ~setup_s ~create_s ~gen_s ~compile_s;
  let threads = 1 + forkjoin_branches + leaves in
  let placed = [ (sys, job) ] in
  report_layers ~kernels:[ System.kernel sys ] ~placed;
  let completions =
    match System.uthread_stats job with
    | Some s -> s.Ft_core.completions
    | None -> 0
  in
  items ~offered:threads ~completed:(min threads completions);
  check "all_threads_complete" (System.finished job && completions = threads);
  invariants_hold "kernel_invariants" (System.kernel sys);
  let makespan_ms = elapsed_ms job in
  sim_float "sim_makespan_ms" makespan_ms;
  report_cpu_busy ~placed ~cpus:forkjoin_cpus ~makespan_ms;
  report_no_requests ();
  report_program_ops [ prog ];
  report_absent ~cluster:false ~nbody:false;
  events

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

(* The multi-tenant serving scenario: 24 tenants (8 of each class) x 200
   open-loop requests on 64 processors, every tenant its own
   FastThreads-on-SA space competing through the allocator.  Request [r]
   of a tenant stamps [2r] at arrival and [2r+1] at completion. *)
let serve_cpus = 64

let serve_params seed =
  {
    Server.mt_tenants = 24;
    mt_requests = 200;
    mt_classes = Server.default_classes;
    mt_seed = seed;
    mt_cache_blocks = 0;
  }

let serve mode seed =
  let p = serve_params seed in
  let n = p.Server.mt_tenants and reqs = p.Server.mt_requests in
  let t_setup = now_ns () in
  let sys, create_s = timed (fun () -> System.create ~cpus:serve_cpus ()) in
  prepare_sim mode (System.sim sys);
  let progs, gen_s =
    timed (fun () -> List.init n (fun i -> Server.tenant_program p i))
  in
  let (), compile_s = timed (fun () -> compile_all progs) in
  let setup_s = seconds_since t_setup in
  let arrive = Array.init n (fun _ -> Array.make reqs (-1)) in
  let finish = Array.init n (fun _ -> Array.make reqs (-1)) in
  let observer i m at =
    let r = m / 2 in
    if r < reqs then
      (if m land 1 = 0 then arrive else finish).(i).(r) <- Time.to_ns at
  in
  let w0 = allocated_words () in
  let t_run = now_ns () in
  let jobs =
    List.mapi
      (fun i prog ->
        let cls = Server.tenant_class p i in
        System.submit sys ~backend:`Fastthreads_on_sa
          ~name:(Server.tenant_name p i)
          ~space_priority:cls.Server.tc_priority ~observer:(observer i) prog)
      progs
  in
  drive mode (System.sim sys)
    ~active:(fun () -> List.exists (fun j -> not (System.finished j)) jobs)
    ~run:(fun () -> run_to_end (fun () -> System.run sys));
  let wall_s = seconds_since t_run in
  let words = allocated_words () -. w0 in
  let events = Sim.events (System.sim sys) in
  report_run ~wall_s ~words ~events;
  report_setup ~setup_s ~create_s ~gen_s ~compile_s;
  let placed = List.map (fun j -> (sys, j)) jobs in
  report_layers ~kernels:[ System.kernel sys ] ~placed;
  let lat = ref [] and completed = ref 0 and violations = ref 0 in
  for i = 0 to n - 1 do
    let slo = (Server.tenant_class p i).Server.tc_slo in
    for r = 0 to reqs - 1 do
      let a = arrive.(i).(r) and f = finish.(i).(r) in
      if a >= 0 && f >= a then begin
        incr completed;
        lat := (f - a) :: !lat;
        if f - a > slo then incr violations
      end
    done
  done;
  let offered = n * reqs in
  items ~offered ~completed:!completed;
  check "all_requests_complete" (!completed = offered);
  check "all_tenants_finish" (List.for_all System.finished jobs);
  invariants_hold "kernel_invariants" (System.kernel sys);
  let makespan_ms =
    List.fold_left (fun a j -> Float.max a (elapsed_ms j)) 0.0 jobs
  in
  sim_float "sim_makespan_ms" makespan_ms;
  report_cpu_busy ~placed ~cpus:serve_cpus ~makespan_ms;
  report_latencies (Array.of_list (List.rev !lat));
  sim_int "workload.requests" offered;
  sim_int "workload.completed" !completed;
  sim_float "workload.slo_violation_frac"
    (ratio (!violations + offered - !completed) offered);
  report_program_ops progs;
  report_absent ~cluster:false ~nbody:false;
  events

(* ------------------------------------------------------------------ *)
(* cluster                                                             *)
(* ------------------------------------------------------------------ *)

(* 3 machines x 8 processors, 12 tenants of the serving workload placed
   with skew, so the cluster allocator migrates spaces and out-of-slice
   reads are filled from peers' caches. *)
let cluster_params mode seed =
  {
    Cluster.default_params with
    Cluster.machines = 3;
    cpus = 8;
    tenants = 12;
    requests = 1000;
    seed;
    cache_blocks = 48;
    tracing = mode <> Untraced;
  }

let cluster mode seed =
  let p = cluster_params mode seed in
  let machines = p.Cluster.machines and tenants = p.Cluster.tenants in
  let cl, setup_s = timed (fun () -> Cluster.create p) in
  prepare_sim mode (Cluster.sim cl);
  let w0 = allocated_words () in
  let t_run = now_ns () in
  drive mode (Cluster.sim cl)
    ~active:(fun () -> Cluster.active cl)
    ~run:(fun () -> run_to_end (fun () -> Cluster.run cl));
  let wall_s = seconds_since t_run in
  let words = allocated_words () -. w0 in
  let events = Sim.events (Cluster.sim cl) in
  report_run ~wall_s ~words ~events;
  let systems = Array.to_list (Cluster.systems cl) in
  (* Cluster.create generates and compiles the tenant programs inside
     setup_s; the generation and compilation rows re-time the same work
     after the run, outside every other measurement. *)
  let progs, gen_s =
    timed (fun () ->
        let mtp =
          {
            Server.mt_tenants = tenants;
            mt_requests = p.Cluster.requests;
            mt_classes = p.Cluster.classes;
            mt_seed = seed;
            mt_cache_blocks = p.Cluster.cache_blocks;
          }
        in
        List.init tenants (fun i -> Server.tenant_program mtp i))
  in
  let (), compile_s = timed (fun () -> compile_all progs) in
  report_setup ~setup_s ~create_s:setup_s ~gen_s ~compile_s;
  let placed =
    List.concat_map
      (fun sys -> List.map (fun j -> (sys, j)) (System.jobs sys))
      systems
  in
  report_layers ~kernels:(List.map System.kernel systems) ~placed;
  let s = Cluster.summary cl in
  let offered = tenants * p.Cluster.requests in
  items ~offered ~completed:s.Cluster.cl_requests_total;
  check "completed_all" s.Cluster.cl_completed_all;
  check "all_requests_complete" (s.Cluster.cl_requests_total = offered);
  check "zero_net_drops" (s.Cluster.cl_net.Cluster.Net.drops = 0);
  List.iteri
    (fun m sys ->
      invariants_hold
        (Printf.sprintf "kernel_invariants.m%d" m)
        (System.kernel sys))
    systems;
  let makespan_ms = s.Cluster.cl_elapsed_ms in
  sim_float "sim_makespan_ms" makespan_ms;
  report_cpu_busy ~placed ~cpus:(machines * p.Cluster.cpus) ~makespan_ms;
  (* Cluster keeps its per-request stamps private and reports per-tenant
     percentiles: p50 is the median tenant's p50, p99 the worst tenant's
     p99. *)
  let rows = s.Cluster.cl_tenant_rows in
  let us_to_ns v = int_of_float (Float.round (v *. 1e3)) in
  let p50s =
    Array.of_list (List.map (fun r -> us_to_ns r.Cluster.c_p50_us) rows)
  in
  let p99s = List.map (fun r -> us_to_ns r.Cluster.c_p99_us) rows in
  latencies := Array.append p50s (Array.of_list p99s);
  Array.sort compare p50s;
  sim_int "workload.latency_samples" s.Cluster.cl_requests_total;
  sim_float "workload.p50_latency_ms" (percentile_ms p50s 0.5);
  sim_float "workload.p99_latency_ms"
    (float_of_int (List.fold_left max 0 p99s) /. 1e6);
  let violations =
    List.fold_left (fun a r -> a + r.Cluster.c_violations) 0 rows
  in
  sim_int "workload.requests" offered;
  sim_int "workload.completed" s.Cluster.cl_requests_total;
  sim_float "workload.slo_violation_frac"
    (ratio (violations + offered - s.Cluster.cl_requests_total) offered);
  report_program_ops progs;
  let net = s.Cluster.cl_net and alloc = s.Cluster.cl_alloc in
  sim_int "cluster.migrations" s.Cluster.cl_migrations;
  sim_int "cluster.remote_hits" s.Cluster.cl_remote_hits;
  sim_int "cluster.remote_fallbacks" s.Cluster.cl_remote_fallbacks;
  sim_float "cluster.remote_hit_ratio"
    (ratio s.Cluster.cl_remote_hits
       (s.Cluster.cl_remote_hits + s.Cluster.cl_remote_fallbacks));
  sim_int "cluster.net_messages" net.Cluster.Net.messages;
  sim_int "cluster.net_bytes" net.Cluster.Net.bytes;
  sim_int "cluster.net_drops" net.Cluster.Net.drops;
  sim_int "cluster.alloc_summaries" alloc.Cluster.Cluster_alloc.summaries;
  sim_int "cluster.alloc_rebalances" alloc.Cluster.Cluster_alloc.rebalances;
  sim_float "cluster.rebalances_per_summary"
    (ratio alloc.Cluster.Cluster_alloc.rebalances
       alloc.Cluster.Cluster_alloc.summaries);
  report_absent ~cluster:true ~nbody:false;
  events

(* ------------------------------------------------------------------ *)
(* nbody-io                                                            *)
(* ------------------------------------------------------------------ *)

(* The paper's Figure 2 point: Barnes-Hut N-body with half the data set
   in memory, run in turn on original FastThreads on 6 kernel threads and
   on FastThreads on scheduler activations, 6 processors each.  The Topaz
   kernel-thread run is left out: [Kt_direct] loses a wakeup on the
   cache-miss path on some seeds, so that run never finishes (see
   perfbench/RATIONALE.md). *)
let nbody_cpus = 6
let nbody_memory_percent = 50

let nbody_params seed =
  { Nbody.default_params with Nbody.n_bodies = 2000; steps = 10; seed }

let nbody_io mode seed =
  let t_setup = now_ns () in
  let prep, prepare_s = timed (fun () -> Nbody.prepare (nbody_params seed)) in
  let specs =
    [
      ("origft", Kconfig.native, `Fastthreads_on_kthreads nbody_cpus);
      ("sa", Kconfig.default, `Fastthreads_on_sa);
    ]
  in
  let systems, create_s =
    timed (fun () ->
        List.map
          (fun (name, kconfig, backend) ->
            (name, backend, System.create ~cpus:nbody_cpus ~kconfig ()))
          specs)
  in
  List.iter (fun (_, _, sys) -> prepare_sim mode (System.sim sys)) systems;
  let (), compile_s = timed (fun () -> compile_all [ prep.Nbody.program ]) in
  let setup_s = seconds_since t_setup in
  let cache_capacity =
    Nbody.cache_capacity prep ~percent:nbody_memory_percent
  in
  let w0 = allocated_words () in
  let runs =
    List.map
      (fun (name, backend, sys) ->
        let t_run = now_ns () in
        let job =
          System.submit sys ~backend ~name:"nbody" ~cache_capacity
            prep.Nbody.program
        in
        drive mode (System.sim sys)
          ~active:(fun () -> not (System.finished job))
          ~run:(fun () -> run_to_end (fun () -> System.run sys));
        (name, sys, job, seconds_since t_run))
      systems
  in
  let words = allocated_words () -. w0 in
  let wall_s = List.fold_left (fun a (_, _, _, w) -> a +. w) 0.0 runs in
  let events =
    List.fold_left
      (fun a (_, sys, _, _) -> a + Sim.events (System.sim sys))
      0 runs
  in
  report_run ~wall_s ~words ~events;
  (* Nbody.prepare generates the program along with the Barnes-Hut
     profiles; it is timed as barneshut.prepare_s. *)
  report_setup ~setup_s ~create_s ~gen_s:0.0 ~compile_s;
  host "barneshut.prepare_s" prepare_s;
  sim_int "barneshut.interactions" prep.Nbody.total_interactions;
  let placed = List.map (fun (_, sys, job, _) -> (sys, job)) runs in
  report_layers
    ~kernels:(List.map (fun (_, sys, _, _) -> System.kernel sys) runs)
    ~placed;
  let makespan name =
    List.fold_left
      (fun a (n, _, job, _) -> if n = name then elapsed_ms job else a)
      0.0 runs
  in
  List.iter
    (fun (name, sys, job, w) ->
      host ("uthread.ns_per_event." ^ name)
        (w *. 1e9 /. float_of_int (max 1 (Sim.events (System.sim sys))));
      check ("finishes." ^ name) (System.finished job);
      invariants_hold ("kernel_invariants." ^ name) (System.kernel sys))
    runs;
  let origft = makespan "origft" and sa = makespan "sa" in
  sim_float "uthread.sim_makespan_ms.origft" origft;
  sim_float "sim_makespan_ms" sa;
  (* Figure 2 at 50% memory: scheduler activations beat original
     FastThreads, whose blocked kernel thread idles its processor. *)
  check "figure2_order" (sa < origft);
  report_cpu_busy
    ~placed:
      (List.filter_map
         (fun (n, sys, job, _) -> if n = "sa" then Some (sys, job) else None)
         runs)
    ~cpus:nbody_cpus ~makespan_ms:sa;
  (* The items of this workload are its two runs. *)
  let finished = List.filter (fun (_, job) -> System.finished job) placed in
  items ~offered:(List.length runs) ~completed:(List.length finished);
  report_no_requests ();
  report_program_ops [ prep.Nbody.program ];
  report_absent ~cluster:false ~nbody:true;
  events

(* ------------------------------------------------------------------ *)
(* Engine floor, digest, output                                        *)
(* ------------------------------------------------------------------ *)

(* [bench.exe --calibrate] measures the host's speed instead of running a
   workload: it times [calib_rounds] rounds of a fixed discrete-event loop
   on the standard library only (a binary heap of timed closures; each
   event allocates, updates a hash table and replaces one entry of a large
   live array, so both the cache and the major heap are exercised).  No
   change to the simulator can move it.  The driver runs it in a process
   of its own between workload processes and scales host times by it. *)
let calib_events = 300_000
let calib_live = 1 lsl 18
let calib_rounds = 2

let reference_loop () =
  let cap = 4096 in
  let keys = Array.make cap 0 and acts = Array.make cap (fun () -> ()) in
  let size = ref 0 in
  let push k f =
    let i = ref !size in
    incr size;
    while !i > 0 && keys.((!i - 1) / 2) > k do
      let p = (!i - 1) / 2 in
      keys.(!i) <- keys.(p);
      acts.(!i) <- acts.(p);
      i := p
    done;
    keys.(!i) <- k;
    acts.(!i) <- f
  in
  let pop () =
    let f = acts.(0) in
    decr size;
    let k = keys.(!size) and g = acts.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let c = if l + 1 < !size && keys.(l + 1) < keys.(l) then l + 1 else l in
        if keys.(c) < k then begin
          keys.(!i) <- keys.(c);
          acts.(!i) <- acts.(c);
          i := c
        end
        else sifting := false
      end
    done;
    keys.(!i) <- k;
    acts.(!i) <- g;
    f
  in
  let table = Hashtbl.create 4096 in
  let live = Array.make calib_live [] in
  let fired = ref 0 and now = ref 0 in
  let rec event id () =
    incr fired;
    Hashtbl.replace table (id land 4095) (id, [ !now ]);
    let slot = id * 40503 land (calib_live - 1) in
    live.(slot) <- [ id; !now ];
    if !fired + !size < calib_events then
      push (!now + 1 + ((id * 7919) land 255)) (event (id + 1))
  in
  for id = 0 to 999 do
    push id (event (id * 1000))
  done;
  while !size > 0 do
    now := keys.(0);
    (pop ()) ()
  done

(* A [Sim.schedule_after] cascade of [events] events on a fresh clock:
   the engine's own cost per event on this host, in this process. *)
let engine_floor_ns events =
  let sim = Sim.create () in
  Trace.set_recording (Sim.trace sim) false;
  let left = ref events in
  let rec tick () =
    decr left;
    if !left > 0 then ignore (Sim.schedule_after sim ~delay:(Time.ns 1) tick)
  in
  ignore (Sim.schedule_after sim ~delay:(Time.ns 1) tick);
  let t0 = now_ns () in
  Sim.run sim;
  float_of_int (now_ns () - t0) /. float_of_int (max 1 events)

let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let render_value = function Int n -> string_of_int n | Float f -> json_float f

(* Every simulated output, plus every per-item latency in run order. *)
let sim_digest () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, v) -> Printf.bprintf b "%s=%s\n" k (render_value v))
    (sorted !sim_values);
  Array.iter (fun l -> Printf.bprintf b "%d\n" l) !latencies;
  Digest.to_hex (Digest.string (Buffer.contents b))

let json_object fields =
  let field (k, v) = Printf.sprintf "%S: %s" k v in
  "{" ^ String.concat ", " (List.map field fields) ^ "}"

let calibrate () =
  let rounds = List.init calib_rounds (fun _ -> snd (timed reference_loop)) in
  print_endline
    (Printf.sprintf "{\"calib_s\": [%s]}"
       (String.concat ", " (List.map json_float rounds)))

let workloads =
  [
    ("forkjoin", forkjoin);
    ("serve", serve);
    ("cluster", cluster);
    ("nbody-io", nbody_io);
  ]

let () =
  let workload = ref "" and seed = ref 11 in
  let traced = ref false and floor = ref false and calib = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME forkjoin|serve|cluster|nbody-io" );
      ("--seed", Arg.Set_int seed, "N workload seed (default 11)");
      ("--traced", Arg.Set traced, " drive the run step by step with tracing on");
      ("--floor", Arg.Set floor, " also time the engine-floor cascade");
      ("--calibrate", Arg.Set calib, " time the reference loop instead");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe (--workload NAME [--seed N] [--traced] [--floor] | --calibrate)";
  if !calib then begin
    calibrate ();
    exit 0
  end;
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("bench: unknown workload " ^ !workload);
        exit 2
  in
  let tracer = new_tracer () in
  let mode = if !traced then Traced tracer else Untraced in
  let events =
    match run mode !seed with
    | events -> events
    | exception e ->
        prerr_endline ("bench: run failed: " ^ Printexc.to_string e);
        check "run_completes" false;
        0
  in
  if !floor && events > 0 then begin
    let floor_ns = engine_floor_ns events in
    host "engine.floor_ns_per_event" floor_ns;
    let ns = List.assoc "engine.ns_per_event" !host_values in
    host "engine.overhead_x" (ns /. floor_ns)
  end;
  let failed_checks =
    List.length (List.filter (fun (_, ok) -> not ok) !checks)
  in
  let attempted = !items_offered + List.length !checks in
  let failed = !items_missed + failed_checks in
  sim_float "check.failed_frac" (ratio failed attempted);
  let traced_fields =
    if not !traced then []
    else
      let total = Array.fold_left ( + ) 0 tracer.layer_ns in
      let share i = json_float (ratio tracer.layer_ns.(i) total) in
      let pct p =
        if Log_histogram.count tracer.step_ns = 0 then 0.0
        else Log_histogram.percentile tracer.step_ns p
      in
      let shares =
        List.mapi
          (fun i l -> ("traced." ^ l ^ "_share", share i))
          (Array.to_list layer_names)
      in
      let records =
        List.mapi
          (fun i c -> ("traced.records." ^ c, string_of_int tracer.records.(i)))
          (Array.to_list category_names)
      in
      let wall_s = float_of_int tracer.wall_ns *. 1e-9 in
      [
        ( "traced",
          json_object
            (shares @ records
            @ [
                ("traced.step_p50_ns", json_float (pct 50.0));
                ("traced.step_p99_ns", json_float (pct 99.0));
                ("engine.pending_max", string_of_int tracer.pending_max);
                ("traced.wall_s", json_float wall_s);
              ]) );
      ]
  in
  print_endline
    (json_object
       ([
          ("workload", Printf.sprintf "%S" !workload);
          ("seed", string_of_int !seed);
          ( "host",
            json_object
              (List.map (fun (k, v) -> (k, json_float v)) (sorted !host_values))
          );
          ( "sim",
            json_object
              (List.map (fun (k, v) -> (k, render_value v)) (sorted !sim_values))
          );
          ("digest", Printf.sprintf "%S" (sim_digest ()));
          ( "checks",
            json_object
              (List.map (fun (k, ok) -> (k, string_of_bool ok)) (sorted !checks))
          );
          ("attempted", string_of_int attempted);
          ("failed", string_of_int failed);
        ]
       @ traced_fields))
