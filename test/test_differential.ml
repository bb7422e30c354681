(* Differential testing of the FastThreads step loop against the
   reference CPS walker (test/cps_oracle.ml).

   The thread package runs every program on one pc-indexed step loop: the
   compiled arena ([Program.compile]) or, for programs the compiler
   refuses, the lazy fetch.  The step loop batches consecutive charge
   segments into single events and releases queue cells under
   time-window leases instead of issuing separate dispatch-charge events.
   None of that is allowed to change behaviour: this suite generates
   random correct-by-construction programs and asserts that the step loop
   and the oracle produce the same schedule — same stamp sequence with
   the same simulated timestamps, same final simulated time, same thread
   statistics — on both FastThreads substrates, up to the one documented
   divergence whose agreement was measured ([same_stamps_within]).  The
   [Kt_direct] backends (Topaz threads, Ultrix processes) have an
   interpreter of their own and only get a determinism check here.

   This is the guard rail for the batching semantics: if a lease boundary
   or a flush rule ever lets the folded schedule diverge from the
   one-event-per-charge schedule, a random program will catch it here
   long before the pinned digests in test_policy do. *)

module Time = Sa_engine.Time
module P = Sa_program.Program
module B = P.Build
module Ft_core = Sa_uthread.Ft_core
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module System = Sa.System
module Recorder = Sa_workload.Recorder
module Future = Sa_models.Future
module Workcrew = Sa_models.Workcrew
module Search = Sa_explore.Search
module Schedule = Sa_explore.Schedule
module Chooser = Sa_explore.Chooser

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Program specs: data first, so QCheck can shrink and print           *)
(* ------------------------------------------------------------------ *)

type spec =
  | Compute of int  (* microseconds, 1..500 *)
  | Io of int  (* microseconds, 1..2000 *)
  | Cache of int  (* block 0..7 *)
  | Yield
  | Stamp of int  (* marker 0..99, the observable schedule *)
  | Critical of int * spec list  (* mutex index 0..2 *)
  | Sem_critical of int * spec list  (* semaphore index 0..1, initial 1 *)
  | Fork_join of spec list list  (* children, all joined *)
  | Seq of spec list

let rec pp_spec s =
  match s with
  | Compute n -> Printf.sprintf "C%d" n
  | Io n -> Printf.sprintf "IO%d" n
  | Cache b -> Printf.sprintf "R%d" b
  | Yield -> "Y"
  | Stamp t -> Printf.sprintf "S%d" t
  | Critical (m, body) ->
      Printf.sprintf "L%d{%s}" m (String.concat ";" (List.map pp_spec body))
  | Sem_critical (s, body) ->
      Printf.sprintf "P%d{%s}" s (String.concat ";" (List.map pp_spec body))
  | Fork_join kids ->
      Printf.sprintf "F[%s]"
        (String.concat "|"
           (List.map (fun k -> String.concat ";" (List.map pp_spec k)) kids))
  | Seq body -> String.concat ";" (List.map pp_spec body)

let spec_gen =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (4, map (fun n -> Compute n) (int_range 1 500));
        (2, map (fun n -> Io n) (int_range 1 2000));
        (2, map (fun b -> Cache b) (int_range 0 7));
        (2, map (fun t -> Stamp t) (int_range 0 99));
        (1, return Yield);
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (4, leaf);
          ( 2,
            map2
              (fun m body -> Critical (m, body))
              (int_range 0 2)
              (list_size (int_range 1 3) (node (depth - 1))) );
          ( 1,
            map2
              (fun s body -> Sem_critical (s, body))
              (int_range 0 1)
              (list_size (int_range 1 3) (node (depth - 1))) );
          ( 2,
            map
              (fun kids -> Fork_join kids)
              (list_size (int_range 1 3)
                 (list_size (int_range 1 3) (node (depth - 1)))) );
          ( 1,
            map (fun body -> Seq body) (list_size (int_range 1 3) (node (depth - 1)))
          );
        ]
  in
  list_size (int_range 1 5) (node 2)

let spec_arb =
  QCheck.make spec_gen ~print:(fun specs ->
      String.concat ";" (List.map pp_spec specs))

(* As in test_stress: mutexes and semaphores come from per-run pools, and
   nesting inside a critical section is flattened to non-blocking work, so
   every generated program is balanced and deadlock-free by construction. *)
let compile_spec specs =
  let mutexes =
    Array.init 3 (fun i -> P.Mutex.create ~name:(Printf.sprintf "m%d" i) ())
  in
  let sems =
    Array.init 2 (fun i ->
        P.Sem.create ~name:(Printf.sprintf "s%d" i) ~initial:1 ())
  in
  let rec go ?(in_cs = false) s =
    let open B in
    match s with
    | Compute n -> compute (Time.us n)
    | Io n -> if in_cs then compute (Time.us n) else io (Time.us n)
    | Cache b -> if in_cs then compute (Time.us 7) else cache_read b
    | Yield -> yield
    | Stamp t -> stamp t
    | Critical (m, body) ->
        if in_cs then seq ~in_cs:true body
        else critical mutexes.(m) (seq ~in_cs:true body)
    | Sem_critical (i, body) ->
        if in_cs then seq ~in_cs:true body
        else
          let* () = sem_p sems.(i) in
          let* () = seq ~in_cs:true body in
          sem_v sems.(i)
    | Fork_join kids ->
        if in_cs then seq ~in_cs:true (List.concat kids)
        else
          let* tids =
            let rec forks acc = function
              | [] -> return (List.rev acc)
              | k :: rest ->
                  let* tid = fork (B.to_program (seq ~in_cs:false k)) in
                  forks (tid :: acc) rest
            in
            forks [] kids
          in
          iter_list tids (fun tid -> join tid)
    | Seq body -> seq ~in_cs body
  and seq ?(in_cs = false) body =
    let open B in
    let rec go_list = function
      | [] -> return ()
      | s :: rest ->
          let* () = go ~in_cs s in
          go_list rest
    in
    go_list body
  in
  B.to_program (seq specs)

(* ------------------------------------------------------------------ *)
(* Running one program under one interpreter                           *)
(* ------------------------------------------------------------------ *)

(* The two FastThreads substrates, where the step loop runs. *)
let backends =
  [
    ("ft-sa", Kconfig.default, `Fastthreads_on_sa);
    ("ft-kt", Kconfig.native, `Fastthreads_on_kthreads 3);
  ]

let direct_backends =
  [
    ("topaz", Kconfig.native, `Topaz_kthreads);
    ("ultrix", Kconfig.native, `Ultrix_processes);
  ]

type observation = {
  o_finished : bool;
  o_elapsed : Time.span;  (* zero when unfinished; [o_finished] disambiguates *)
  o_stamps : (int * Time.t) list;  (* emission order, with timestamps *)
  o_sched : int list;  (* forks;completions;dispatches;steals;ublocks;kblocks *)
}

(* [~oracle:true] puts the job on the reference CPS walker. *)
let observe ~oracle kconfig backend prog =
  let rec_ = Recorder.create () in
  let sys = System.create ~cpus:3 ~kconfig () in
  let job =
    System.submit sys ~backend ~name:"diff" ~cache_capacity:4
      ~prewarm_cache:false ~observer:(Recorder.observer rec_) prog
  in
  if oracle then Cps_oracle.install job prog;
  System.run ~horizon:(Time.s 120) sys;
  Kernel.check_invariants (System.kernel sys);
  let finished = System.finished job in
  let sched =
    match System.uthread_stats job with
    | None -> []
    | Some s ->
        [
          s.Ft_core.forks;
          s.Ft_core.completions;
          s.Ft_core.dispatches;
          s.Ft_core.steals;
          s.Ft_core.ublocks;
          s.Ft_core.kblocks;
        ]
  in
  {
    o_finished = finished;
    o_elapsed = (if finished then Option.get (System.elapsed job) else 0);
    o_stamps = Recorder.stamps rec_;
    o_sched = sched;
  }

let pp_obs o =
  Printf.sprintf "finished=%b elapsed=%dns stamps=[%s] sched=[%s]"
    o.o_finished o.o_elapsed
    (String.concat ","
       (List.map
          (fun (t, at) -> Printf.sprintf "%d@%d" t (Time.to_ns at))
          o.o_stamps))
    (String.concat "," (List.map string_of_int o.o_sched))

(* What the in-flight-dispatch divergence site (docs/INTERNALS.md §12,
   site 2; see [inflight_divergence_bounded]) still guarantees: both runs
   finish, emit the same markers at the same simulated instants, fork and
   complete the same threads, and end within [band] of each other.  Only
   the scheduling counters (dispatches, steals, blocks) may differ. *)
let same_stamps_within ~band a b =
  let totals o = match o.o_sched with f :: c :: _ -> [ f; c ] | l -> l in
  let ratio =
    float_of_int (max a.o_elapsed b.o_elapsed)
    /. float_of_int (max 1 (min a.o_elapsed b.o_elapsed))
  in
  a.o_finished && b.o_finished
  && a.o_stamps = b.o_stamps
  && totals a = totals b
  && ratio < 1. +. band

(* ------------------------------------------------------------------ *)
(* The differential properties                                         *)
(* ------------------------------------------------------------------ *)

let differential_fuzz (bname, kconfig, backend) =
  QCheck.Test.make
    ~name:(Printf.sprintf "CPS oracle and step loop agree [%s]" bname)
    ~count:30 spec_arb
    (fun specs ->
      let prog = compile_spec specs in
      (* Generated programs are pure structure: they must take the
         compiled path, not the lazy fetch. *)
      if P.compile prog = None then
        QCheck.Test.fail_reportf "generated program does not compile"
      else
        let reference = observe ~oracle:true kconfig backend prog in
        let flat = observe ~oracle:false kconfig backend prog in
        if not reference.o_finished then
          QCheck.Test.fail_reportf "oracle run did not finish: %s"
            (pp_obs reference)
        else if
          reference = flat || same_stamps_within ~band:0.02 reference flat
        then true
        else
          QCheck.Test.fail_reportf
            "interpreters diverged\n  oracle:    %s\n  step loop: %s"
            (pp_obs reference) (pp_obs flat))

(* Kt_direct runs its own CPS interpreter; all this suite can ask of it is
   that the same program yields the same schedule twice. *)
let direct_deterministic (bname, kconfig, backend) =
  QCheck.Test.make
    ~name:(Printf.sprintf "Kt_direct runs are deterministic [%s]" bname)
    ~count:15 spec_arb
    (fun specs ->
      let first = observe ~oracle:false kconfig backend (compile_spec specs) in
      let again = observe ~oracle:false kconfig backend (compile_spec specs) in
      if not first.o_finished then
        QCheck.Test.fail_reportf "run did not finish: %s" (pp_obs first)
      else if first <> again then
        QCheck.Test.fail_reportf "runs differ\n  first: %s\n  again: %s"
          (pp_obs first) (pp_obs again)
      else true)

(* Batching may only merge charge segments, never invent or drop them
   relative to the count of logical charge requests. *)
let compiled_batches_soundly =
  QCheck.Test.make
    ~name:"step loop steps flat code and batches are <= segments [ft-sa]"
    ~count:30 spec_arb
    (fun specs ->
      let prog = compile_spec specs in
      let sys = System.create ~cpus:3 ~kconfig:Kconfig.default () in
      let job =
        System.submit sys ~backend:`Fastthreads_on_sa ~name:"diff"
          ~cache_capacity:4 ~prewarm_cache:false prog
      in
      System.run ~horizon:(Time.s 120) sys;
      let s = Option.get (System.uthread_stats job) in
      if s.Ft_core.program_steps <= 0 then
        QCheck.Test.fail_reportf "no program steps recorded"
      else if s.Ft_core.charge_batches > s.Ft_core.charge_segments then
        QCheck.Test.fail_reportf "more batches (%d) than segments (%d)"
          s.Ft_core.charge_batches s.Ft_core.charge_segments
      else true)

(* ------------------------------------------------------------------ *)
(* Targeted programs for ops the generator avoids                      *)
(* ------------------------------------------------------------------ *)

(* Condition variables need a handshake to be deterministic (see
   test_uthread), so they get a fixed program rather than a random one:
   waiter parks on the condvar, signaller stamps, signals, both finish.
   ksem exercises the kernel-semaphore ops.  Each runs under both
   interpreters on both substrates and must observe the same schedule. *)
let cond_prog () =
  let m = P.Mutex.create () in
  let cv = P.Cond.create () in
  let ready = P.Sem.create ~initial:0 () in
  let waiter =
    B.to_program
      (let open B in
       let* () = acquire m in
       let* () = sem_v ready in
       let* () = wait cv m in
       let* () = stamp 2 in
       release m)
  in
  B.to_program
    (let open B in
     let* tid = fork waiter in
     let* () = sem_p ready in
     let* () = acquire m in
     let* () = stamp 1 in
     let* () = broadcast cv in
     let* () = release m in
     let* () = join tid in
     stamp 3)

let ksem_prog () =
  let s = P.Sem.create ~initial:0 () in
  let waiter =
    B.to_program
      (let open B in
       let* () = ksem_p s in
       stamp 2)
  in
  B.to_program
    (let open B in
     let* tid = fork waiter in
     let* () = compute (Time.ms 1) in
     let* () = stamp 1 in
     let* () = ksem_v s in
     join tid)

(* Models whose continuations read host state at force time: the compiler
   refuses them, so the step loop runs them through its lazy fetch.  The
   host state is rebuilt for each run ([mk] is called once per
   interpreter). *)
let future_prog () =
  B.to_program
    (let open B in
     let* a = Future.spawn ~work:(Time.us 300) (fun () -> 20) in
     let* b = Future.spawn ~work:(Time.us 500) (fun () -> 22) in
     let* sum = Future.map2 ~work:(Time.us 100) ( + ) a b in
     let* () = compute (Time.us 50) in
     let* v = Future.get sum in
     let* () = stamp v in
     let* w = Future.get a in
     stamp w)

let workcrew_prog () =
  let t = Workcrew.task in
  Workcrew.run ~workers:3
    [
      t
        ~children:
          [ t (Time.us 150); t ~children:[ t (Time.us 100) ] (Time.us 250) ]
        (Time.us 200);
      t (Time.us 400);
      t ~children:[ t (Time.us 90); t (Time.us 60) ] (Time.us 120);
    ]

let targeted_case ?(lazy_ = false) name mk =
  List.map
    (fun (bname, kconfig, backend) ->
      Alcotest.test_case
        (Printf.sprintf "%s agrees [%s]" name bname)
        `Quick
        (fun () ->
          check Alcotest.bool "takes the lazy fetch" lazy_
            (P.compile (mk ()) = None);
          let reference = observe ~oracle:true kconfig backend (mk ()) in
          let flat = observe ~oracle:false kconfig backend (mk ()) in
          check Alcotest.bool "oracle finished" true reference.o_finished;
          check Alcotest.string name (pp_obs reference) (pp_obs flat)))
    backends

(* The second documented divergence site (docs/INTERNALS.md §12).  When a
   dispatch cost is charged as a manager event of its own (always under
   the oracle; on the step loop only for re-dispatches after a preemption
   or a section exit), the thread is off its ready list but still counted
   as ready until the charge completes.  An idle processor whose
   hysteresis check (Section 4.2) lands in that window sees work, restarts
   its full spin and keeps the processor; a folded dispatch runs the thread
   at once, so the step loop's processor gives up on time.  In this
   program (found by the fuzz above) cpu2's check at 64.605 ms falls in
   the oracle's [64.603, 64.607] ms dispatch window: the first diverging
   event is cpu2's this-processor-is-idle downcall at 67.305 ms under the
   step loop, which the oracle only issues later.  Stamps, forks and
   completions still agree; only the tail of the schedule moves. *)
let inflight_divergence_bounded =
  Alcotest.test_case "divergence at an in-flight dispatch is bounded" `Quick
    (fun () ->
      let prog () =
        compile_spec
          [
            Fork_join
              [
                [ Critical (0, [ Stamp 7; Stamp 73 ]) ];
                [
                  Fork_join
                    [
                      [ Stamp 83; Io 193; Compute 245 ];
                      [ Compute 442; Io 391 ];
                      [ Compute 352; Io 1731; Compute 301 ];
                    ];
                  Compute 224;
                ];
              ];
            Critical (0, [ Stamp 98 ]);
            Cache 2;
            Stamp 17;
            Io 1988;
            Fork_join [ [ Io 1094 ]; [ Compute 408; Compute 437 ]; [ Compute 370 ] ];
            Io 693;
            Io 962;
            Compute 402;
            Fork_join [ [ Compute 459 ]; [ Compute 450 ]; [ Compute 481; Stamp 59 ] ];
            Critical (2, [ Compute 225 ]);
          ]
      in
      let oracle = observe ~oracle:true Kconfig.default `Fastthreads_on_sa (prog ()) in
      let flat = observe ~oracle:false Kconfig.default `Fastthreads_on_sa (prog ()) in
      check Alcotest.bool "the scheduling counters differ" true
        (oracle.o_sched <> flat.o_sched);
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
        "stamps and their instants"
        (List.map (fun (i, t) -> (i, Time.to_ns t)) oracle.o_stamps)
        (List.map (fun (i, t) -> (i, Time.to_ns t)) flat.o_stamps);
      check Alcotest.bool
        (Printf.sprintf "bounded\n  oracle:    %s\n  step loop: %s"
           (pp_obs oracle) (pp_obs flat))
        true
        (same_stamps_within ~band:0.02 oracle flat))

(* The one documented coalescing divergence site (docs/INTERNALS.md §12):
   under multiprogramming, a processor preemption can land inside a folded
   dispatch window.  The oracle charges dispatch to the manager, so the
   kernel repairs the preemption (requeue-front, the full dispatch is
   re-charged later); the step loop folds the dispatch cost into the
   thread's first charge, so the same preemption is reported and the
   thread resumes its remaining span.  The schedules then
   legitimately differ — but only boundedly: both runs must finish, agree
   on every thread-package total that counts work (forks, completions),
   keep kernel invariants, and land within a modest elapsed-time band. *)
let preemption_divergence_bounded =
  Alcotest.test_case "divergence under preemption is bounded" `Quick (fun () ->
      let mk_prog () =
        compile_spec
          [
            Fork_join
              [
                [ Compute 400; Yield; Compute 400 ];
                [ Compute 300; Critical (0, [ Compute 50 ]); Compute 300 ];
                [ Io 200; Compute 400 ];
              ];
            Fork_join [ [ Compute 500 ]; [ Compute 500; Yield ] ];
            Compute 200;
          ]
      in
      let run ~oracle =
        let sys = System.create ~cpus:2 ~kconfig:Kconfig.default () in
        let submit name =
          let prog = mk_prog () in
          let j =
            System.submit sys ~backend:`Fastthreads_on_sa ~name
              ~cache_capacity:4 ~prewarm_cache:false prog
          in
          if oracle then Cps_oracle.install j prog;
          j
        in
        let j1 = submit "a" in
        let j2 = submit "b" in
        System.run ~horizon:(Time.s 120) sys;
        Kernel.check_invariants (System.kernel sys);
        List.iter
          (fun j ->
            check Alcotest.bool (System.job_name j) true (System.finished j))
          [ j1; j2 ];
        let totals j =
          let s = Option.get (System.uthread_stats j) in
          (s.Ft_core.forks, s.Ft_core.completions)
        in
        ( totals j1,
          totals j2,
          Time.to_ns (Option.get (System.completion_time j2)) )
      in
      let t1, t2, end_ref = run ~oracle:true in
      let t1', t2', end_flat = run ~oracle:false in
      check
        (Alcotest.pair Alcotest.int Alcotest.int)
        "job a forks/completions" t1 t1';
      check
        (Alcotest.pair Alcotest.int Alcotest.int)
        "job b forks/completions" t2 t2';
      let ratio =
        float_of_int (max end_ref end_flat)
        /. float_of_int (max 1 (min end_ref end_flat))
      in
      check Alcotest.bool
        (Printf.sprintf "elapsed within 10%% (ratio %.3f)" ratio)
        true (ratio < 1.10))

(* The record->replay interpreter cross-check on the exploration workload
   (walk strategy, seed 3, 15 requests): record the baseline schedule with
   the job on the oracle, then strictly replay it on the step loop.  Every
   recorded decision must be consumed at the same choice point, and the
   run digest (stamps, kernel statistics, injections, final clock) must
   match — charge batching and the lease protocol drive the bit-identical
   schedule under fault injection too. *)
let record_oracle_replay_step_loop =
  Alcotest.test_case "oracle-recorded schedule replays strictly on the step loop"
    `Quick (fun () ->
      let spec = { Search.default_spec with Search.seed = 3; requests = 15 } in
      let recorded, sched = Search.record ~on_job:Cps_oracle.install spec in
      check Alcotest.string "oracle run completes" "ok"
        (Search.outcome_name recorded.Search.outcome);
      check Alcotest.bool "decisions were recorded" true
        (Schedule.length sched > 0);
      let replayed, consumed = Search.replay ~mode:Chooser.Strict spec sched in
      check Alcotest.int "every decision consumed" (Schedule.length sched)
        consumed;
      check Alcotest.string "digest" recorded.Search.digest
        replayed.Search.digest)

let () =
  Alcotest.run "differential"
    [
      ("fuzz", List.map qtest (List.map differential_fuzz backends));
      ("kt-direct", List.map qtest (List.map direct_deterministic direct_backends));
      ("batching", [ qtest compiled_batches_soundly ]);
      ( "targeted",
        targeted_case "condvar handshake" cond_prog
        @ targeted_case "kernel semaphore" ksem_prog
        @ targeted_case ~lazy_:true "future" future_prog
        @ targeted_case ~lazy_:true "workcrew" workcrew_prog );
      ( "coalescing-site",
        [ preemption_divergence_bounded; inflight_divergence_bounded ] );
      ("replay", [ record_oracle_replay_step_loop ]);
    ]
