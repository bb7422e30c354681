module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Rng = Sa_engine.Rng
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module Program = Sa_program.Program
module System = Sa.System
module B = Program.Build

type config = { cpus : int; horizon : Time.span; kinds : Injector.kind list }

let default =
  { cpus = 4; horizon = Time.s 10; kinds = Injector.survivable_kinds }

type outcome =
  | Completed of Time.span
  | Violation of string
  | No_completion of string

type result = {
  seed : int;
  mode : Kconfig.mode;
  outcome : outcome;
  audits : int;
  injected : (string * int) list;
  kstats : Kernel.stats;
}

let mode_name = function
  | Kconfig.Native_oblivious -> "native"
  | Kconfig.Explicit_allocation -> "explicit"

(* ------------------------------------------------------------------ *)
(* Workload synthesis                                                  *)
(* ------------------------------------------------------------------ *)

(* Each worker is a fixed sequence of operations drawn eagerly from the
   seed stream, mixing pure compute, mutex critical sections (preempting
   inside them exercises Section 3.3 recovery), semaphore and
   kernel-semaphore handoffs, timed I/O, cache reads, yields and priority
   changes.  V always precedes P within a thread, so semaphore use cannot
   deadlock regardless of interleaving. *)
type op =
  | O_compute of Time.span
  | O_critical of Time.span
  | O_io of Time.span
  | O_cache of int
  | O_yield
  | O_sem_pair
  | O_ksem_pair
  | O_prio of int

let draw_op rng ~blocks =
  match Rng.int rng 10 with
  | 0 | 1 | 2 -> O_compute (Time.us (20 + Rng.int rng 180))
  | 3 | 4 -> O_critical (Time.us (10 + Rng.int rng 40))
  | 5 -> O_io (Time.us (500 + Rng.int rng 2500))
  | 6 -> (
      match blocks with
      | Some n -> O_cache (Rng.int rng n)
      | None -> O_compute (Time.us (50 + Rng.int rng 100)))
  | 7 -> O_yield
  | 8 -> if Rng.bool rng then O_sem_pair else O_ksem_pair
  | _ -> O_prio (Rng.int rng 3)

let interp ~mutex ~sem ~ksem = function
  | O_compute d -> B.compute d
  | O_critical d -> B.critical mutex (B.compute d)
  | O_io d -> B.io d
  | O_cache b -> B.cache_read b
  | O_yield -> B.yield
  | O_sem_pair -> B.( let* ) (B.sem_v sem) (fun () -> B.sem_p sem)
  | O_ksem_pair -> B.( let* ) (B.ksem_v ksem) (fun () -> B.ksem_p ksem)
  | O_prio p -> B.set_priority p

let synth_program rng ~blocks =
  let mutex = Program.Mutex.create ~name:"chaos-mutex" () in
  let sem = Program.Sem.create ~name:"chaos-sem" ~initial:0 () in
  let ksem = Program.Sem.create ~name:"chaos-ksem" ~initial:0 () in
  let nworkers = 3 + Rng.int rng 4 in
  let workers =
    List.init nworkers (fun _ ->
        let steps = 6 + Rng.int rng 10 in
        let ops = List.init steps (fun _ -> draw_op rng ~blocks) in
        B.to_program (B.iter_list ops (interp ~mutex ~sem ~ksem)))
  in
  let rec fork_all ws acc =
    match ws with
    | [] -> B.return (List.rev acc)
    | w :: rest -> B.( let* ) (B.fork w) (fun tid -> fork_all rest (tid :: acc))
  in
  B.to_program
    (B.( let* ) (fork_all workers []) (fun tids -> B.iter_list tids B.join))

(* ------------------------------------------------------------------ *)
(* One seed                                                            *)
(* ------------------------------------------------------------------ *)

let cache_capacity = 32
let cache_blocks = 64
let audit_period = Time.ms 1

let run_seed ?(config = default) ?(on_system = fun _ -> ()) ~mode seed =
  let kcfg =
    {
      Kconfig.default with
      Kconfig.mode;
      seed;
      (* alternate pooling so both the pooled and fresh-allocation paths
         of the activation free list face the campaign *)
      activation_pooling = seed land 1 = 0;
    }
  in
  let sys = System.create ~cpus:config.cpus ~kconfig:kcfg () in
  (* Observation hook: runs before any job is submitted or injector
     attached, so exploration can install a chooser/trace sink that sees
     the whole run. *)
  on_system sys;
  let rng = Rng.create (seed lxor 0x5eed) in
  let app_backend =
    match mode with
    | Kconfig.Explicit_allocation -> `Fastthreads_on_sa
    | Kconfig.Native_oblivious -> `Fastthreads_on_kthreads config.cpus
  in
  let app =
    System.submit sys ~backend:app_backend ~name:"chaos-app"
      ~cache_capacity ~prewarm_cache:false
      ~disk:(Sa_hw.Io_device.Fifo_queue { service_time = Time.ms 1 })
      (synth_program rng ~blocks:(Some cache_blocks))
  in
  let side =
    System.submit sys ~backend:`Topaz_kthreads ~name:"chaos-side"
      (synth_program rng ~blocks:None)
  in
  ignore app;
  ignore side;
  let checker =
    Invariant.attach ~period:audit_period ~label:(mode_name mode) ~seed sys
  in
  let injector = Injector.attach ~kinds:config.kinds ~seed sys in
  let outcome =
    match System.run ~horizon:config.horizon sys with
    | () ->
        let makespan =
          List.fold_left
            (fun acc job ->
              match System.elapsed job with
              | Some d -> max acc d
              | None -> acc)
            0 (System.jobs sys)
        in
        Completed makespan
    | exception Sim.Stalled msg -> Violation msg
    | exception Failure msg -> No_completion msg
  in
  {
    seed;
    mode;
    outcome;
    audits = Invariant.audits checker;
    injected = Injector.injected injector;
    kstats = Kernel.stats (System.kernel sys);
  }

let run_sweep ?(config = default) ?(on_result = fun _ -> ()) ~modes ~seeds () =
  List.concat_map
    (fun mode ->
      List.map
        (fun seed ->
          let r = run_seed ~config ~mode seed in
          on_result r;
          r)
        seeds)
    modes

let failures results =
  List.filter
    (fun r -> match r.outcome with Completed _ -> false | _ -> true)
    results

let pp_result ppf r =
  let injected =
    r.injected
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n)
    |> String.concat " "
  in
  match r.outcome with
  | Completed makespan ->
      Format.fprintf ppf "%-8s seed=%-4d ok    makespan=%a audits=%d %s"
        (mode_name r.mode) r.seed Time.pp_span makespan r.audits injected
  | Violation msg ->
      Format.fprintf ppf "%-8s seed=%-4d VIOLATION %s" (mode_name r.mode)
        r.seed
        (match String.index_opt msg '\n' with
        | Some i -> String.sub msg 0 i
        | None -> msg)
  | No_completion msg ->
      Format.fprintf ppf "%-8s seed=%-4d NO-COMPLETION %s" (mode_name r.mode)
        r.seed msg
