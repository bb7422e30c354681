module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Machine = Sa_hw.Machine
module Cost_model = Sa_hw.Cost_model
module Buffer_cache = Sa_hw.Buffer_cache
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module Program = Sa_program.Program
module Ft_core = Sa_uthread.Ft_core
module Ft_kt = Sa_uthread.Ft_kt
module Ft_sa = Sa_uthread.Ft_sa
module Kt_direct = Sa_uthread.Kt_direct

type backend =
  [ `Fastthreads_on_sa
  | `Fastthreads_on_kthreads of int
  | `Topaz_kthreads
  | `Ultrix_processes ]

let backend_name = function
  | `Fastthreads_on_sa -> "FastThreads on Scheduler Activations"
  | `Fastthreads_on_kthreads n ->
      Printf.sprintf "FastThreads on Topaz threads (%d VPs)" n
  | `Topaz_kthreads -> "Topaz threads"
  | `Ultrix_processes -> "Ultrix processes"

type impl =
  | J_ft_kt of Ft_kt.t
  | J_ft_sa of Ft_sa.t
  | J_direct of Kt_direct.t

(* [j_owner] points at the system currently listing the job, so the
   completion callback can decrement that system's live-job count (the
   cluster moves jobs between systems mid-flight). *)
type job = {
  j_name : string;
  j_impl : impl;
  j_started : Time.t;
  j_cache : Buffer_cache.t option;
  j_owner : owner ref;
}

and owner = No_owner | Owner of t

and t = {
  sim : Sim.t;
  machine : Machine.t;
  kernel : Kernel.t;
  costs : Cost_model.t;
  mutable jobs : job list;
  mutable live_jobs : int;
      (* unfinished jobs on [jobs]: maintained by submit/adopt/disown and
         each job's completion callback, so the event loop's stop check is
         two int loads instead of a list walk per event *)
}

let create ?(cpus = 6) ?(costs = Cost_model.firefly_cvax)
    ?(kconfig = Kconfig.default) () =
  let sim = Sim.create () in
  let machine = Machine.create sim ~cpus in
  let kernel = Kernel.create sim machine costs kconfig in
  { sim; machine; kernel; costs; jobs = []; live_jobs = 0 }

(* Cluster construction: one stack among several sharing a single clock
   (and one id counter, so spaces stay globally unique under migration). *)
let create_on ?(machine_id = 0) ?ids ?(cpus = 6)
    ?(costs = Cost_model.firefly_cvax) ?(kconfig = Kconfig.default) sim =
  let machine = Machine.create ~id:machine_id sim ~cpus in
  let kernel = Kernel.create ?ids sim machine costs kconfig in
  { sim; machine; kernel; costs; jobs = []; live_jobs = 0 }

let sim t = t.sim
let kernel t = t.kernel
let machine t = t.machine
let costs t = t.costs

let submit t ~backend ~name ?cache_capacity ?(prewarm_cache = true) ?disk
    ?(strategy = Ft_core.Copy_sections) ?parallelism
    ?(space_priority = 0) ?observer ?trace_sink prog =
  (match trace_sink with
  | Some sink -> Sa_engine.Trace.add_sink (Sim.trace t.sim) sink
  | None -> ());
  let cache =
    Option.map (fun c -> Buffer_cache.create ~capacity:c) cache_capacity
  in
  (match cache with
  | Some c when prewarm_cache ->
      for b = 0 to Buffer_cache.capacity c - 1 do
        Buffer_cache.fill c b
      done
  | Some _ | None -> ());
  let io_dev = Option.map (fun d -> Sa_hw.Io_device.create t.sim d) disk in
  let owner = ref No_owner in
  let on_done () =
    match !owner with
    | Owner s -> s.live_jobs <- s.live_jobs - 1
    | No_owner -> ()
  in
  let impl =
    match backend with
    | `Fastthreads_on_sa ->
        let ft =
          Ft_sa.create t.kernel ~name ~priority:space_priority ?cache ?io_dev
            ~strategy ?max_procs:parallelism ?observer ~on_done ()
        in
        Ft_sa.start ft prog;
        J_ft_sa ft
    | `Fastthreads_on_kthreads vps ->
        let ft =
          Ft_kt.create t.kernel ~name ~vps ~priority:space_priority ?cache
            ?io_dev ~strategy ?observer ~on_done ()
        in
        Ft_kt.start ft prog;
        J_ft_kt ft
    | `Topaz_kthreads ->
        let d =
          Kt_direct.create t.kernel ~name ~flavor:`Topaz
            ~priority:space_priority ?cache ?io_dev ?observer ~on_done ()
        in
        Kt_direct.start d prog;
        J_direct d
    | `Ultrix_processes ->
        let d =
          Kt_direct.create t.kernel ~name ~flavor:`Ultrix
            ~priority:space_priority ?cache ?io_dev ?observer ~on_done ()
        in
        Kt_direct.start d prog;
        J_direct d
  in
  let job =
    {
      j_name = name;
      j_impl = impl;
      j_started = Sim.now t.sim;
      j_cache = cache;
      j_owner = owner;
    }
  in
  owner := Owner t;
  t.jobs <- job :: t.jobs;
  t.live_jobs <- t.live_jobs + 1;
  job

let job_name j = j.j_name
let jobs t = List.rev t.jobs

let completion_time j =
  match j.j_impl with
  | J_ft_kt ft -> Ft_kt.completion_time ft
  | J_ft_sa ft -> Ft_sa.completion_time ft
  | J_direct d -> Kt_direct.completion_time d

(* Evaluated once per simulated event by {!run}: avoid the polymorphic
   [<> None]. *)
let finished j = match completion_time j with None -> false | Some _ -> true
let start_time j = j.j_started

(* Cluster migration bookkeeping: move a job record between systems so
   per-system listings (and the invariant auditors walking them) track
   placement, and the live count follows the job.  While in transit the
   job is on neither list and its completion callback is a no-op. *)
let disown t job =
  t.jobs <- List.filter (fun j -> j != job) t.jobs;
  (match !(job.j_owner) with
  | Owner s when s == t -> if not (finished job) then t.live_jobs <- t.live_jobs - 1
  | Owner _ | No_owner -> ());
  job.j_owner := No_owner

let adopt t job =
  t.jobs <- job :: t.jobs;
  job.j_owner := Owner t;
  if not (finished job) then t.live_jobs <- t.live_jobs + 1

let elapsed j =
  match completion_time j with
  | Some t_end -> Some (Time.diff t_end j.j_started)
  | None -> None

let uthread_stats j =
  match j.j_impl with
  | J_ft_kt ft -> Some (Ft_core.stats (Ft_kt.core ft))
  | J_ft_sa ft -> Some (Ft_core.stats (Ft_sa.core ft))
  | J_direct _ -> None

let cache j = j.j_cache

let ft_core_state j =
  match j.j_impl with
  | J_ft_kt ft -> Some (Ft_kt.core ft)
  | J_ft_sa ft -> Some (Ft_sa.core ft)
  | J_direct _ -> None

let ft_driver j =
  match j.j_impl with
  | J_ft_kt ft -> Some (Ft_kt.driver ft)
  | J_ft_sa ft -> Some (Ft_sa.driver ft)
  | J_direct _ -> None

let ft_sa j = match j.j_impl with J_ft_sa ft -> Some ft | _ -> None

let space j =
  match j.j_impl with
  | J_ft_kt ft -> Ft_kt.space ft
  | J_ft_sa ft -> Ft_sa.space ft
  | J_direct d -> Kt_direct.space d

let run ?(horizon = Time.s 1800) t =
  let deadline = Time.add (Sim.now t.sim) horizon in
  (* The stop check runs once per simulated event: two field loads and two
     int compares.  [live_jobs] stands in for the list walk; the walk is
     only consulted once, for the cold failure report. *)
  Sim.run_while t.sim (fun () ->
      t.live_jobs > 0 && Time.compare (Sim.now t.sim) deadline <= 0);
  let unfinished () = List.exists (fun j -> not (finished j)) t.jobs in
  if unfinished () then
    failwith
      (Printf.sprintf "System.run: horizon exceeded at %s with unfinished jobs"
         (Format.asprintf "%a" Time.pp (Sim.now t.sim)))

let run_span t span = Sim.run_for t.sim span
