(* User-level thread package tests, run through the System facade on all
   backends where meaningful. *)

module Time = Sa_engine.Time
module P = Sa_program.Program
module B = P.Build
module Deque = Sa_uthread.Deque
module Ft_core = Sa_uthread.Ft_core
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module System = Sa.System

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Deque                                                               *)
(* ------------------------------------------------------------------ *)

let deque_model =
  QCheck.Test.make ~name:"deque behaves like a list at both ends" ~count:300
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      List.iter
        (fun (front, v) ->
          if front then begin
            Deque.push_front d v;
            model := v :: !model
          end
          else begin
            Deque.push_back d v;
            model := !model @ [ v ]
          end)
        ops;
      Deque.to_list d = !model && Deque.length d = List.length !model)

let deque_pop_prop =
  QCheck.Test.make ~name:"pops agree with model" ~count:300
    QCheck.(list (int_range 0 3))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      let ok = ref true in
      List.iteri
        (fun i op ->
          match op with
          | 0 ->
              Deque.push_front d i;
              model := i :: !model
          | 1 ->
              Deque.push_back d i;
              model := !model @ [ i ]
          | 2 -> (
              let got = Deque.pop_front d in
              match !model with
              | [] -> if got <> None then ok := false
              | x :: rest ->
                  model := rest;
                  if got <> Some x then ok := false)
          | _ -> (
              let got = Deque.pop_back d in
              match List.rev !model with
              | [] -> if got <> None then ok := false
              | x :: rest ->
                  model := List.rev rest;
                  if got <> Some x then ok := false))
        ops;
      !ok)

let deque_remove_first_model =
  QCheck.Test.make ~name:"remove_first matches list semantics" ~count:300
    QCheck.(pair (list (int_range 0 5)) (int_range 0 5))
    (fun (items, target) ->
      let d = Deque.create () in
      List.iter (Deque.push_back d) items;
      let got = Deque.remove_first d (fun x -> x = target) in
      let rec model acc = function
        | [] -> (None, List.rev acc)
        | x :: rest when x = target -> (Some x, List.rev_append acc rest)
        | x :: rest -> model (x :: acc) rest
      in
      let expect, remaining = model [] items in
      got = expect && Deque.to_list d = remaining)

let deque_remove_last_model =
  QCheck.Test.make ~name:"remove_last matches reversed-list semantics"
    ~count:300
    QCheck.(pair (list (int_range 0 5)) (int_range 0 5))
    (fun (items, target) ->
      let d = Deque.create () in
      List.iter (Deque.push_back d) items;
      let got = Deque.remove_last d (fun x -> x = target) in
      let rec model acc = function
        | [] -> (None, List.rev acc)
        | x :: rest when x = target -> (Some x, List.rev_append acc rest)
        | x :: rest -> model (x :: acc) rest
      in
      let expect, remaining_rev = model [] (List.rev items) in
      got = expect && Deque.to_list d = List.rev remaining_rev)

let deque_tests =
  [
    Alcotest.test_case "front is LIFO, back steals oldest" `Quick (fun () ->
        let d = Deque.create () in
        Deque.push_front d 1;
        Deque.push_front d 2;
        Deque.push_front d 3;
        check (Alcotest.option Alcotest.int) "newest first" (Some 3)
          (Deque.pop_front d);
        check (Alcotest.option Alcotest.int) "oldest from back" (Some 1)
          (Deque.pop_back d);
        check Alcotest.int "one left" 1 (Deque.length d));
    Alcotest.test_case "empty pops" `Quick (fun () ->
        let d = Deque.create () in
        check Alcotest.bool "front" true (Deque.pop_front d = None);
        check Alcotest.bool "back" true (Deque.pop_back d = None);
        check Alcotest.bool "empty" true (Deque.is_empty d));
    qtest deque_model;
    qtest deque_pop_prop;
    qtest deque_remove_first_model;
    qtest deque_remove_last_model;
  ]

(* ------------------------------------------------------------------ *)
(* Program execution through each backend                              *)
(* ------------------------------------------------------------------ *)

let backends =
  [
    ("ft-sa", Kconfig.default, `Fastthreads_on_sa);
    ("ft-kt", Kconfig.native, `Fastthreads_on_kthreads 2);
    ("topaz", Kconfig.native, `Topaz_kthreads);
    ("ultrix", Kconfig.native, `Ultrix_processes);
  ]

(* Run one program on a backend with a stamp recorder; returns stamps in
   order. *)
let run_collect ?(cpus = 2) kconfig backend prog =
  let sys = System.create ~cpus ~kconfig () in
  let log = ref [] in
  let job =
    System.submit sys ~backend ~name:"t"
      ~observer:(fun id time -> log := (id, time) :: !log)
      prog
  in
  System.run sys;
  Sa_kernel.Kernel.check_invariants (System.kernel sys);
  (List.rev !log, job)

let on_all_backends name f =
  List.map
    (fun (bname, kconfig, backend) ->
      Alcotest.test_case (Printf.sprintf "%s [%s]" name bname) `Quick
        (fun () -> f kconfig backend))
    backends

let fork_join_order =
  on_all_backends "join waits for the child" (fun kconfig backend ->
      let prog =
        B.to_program
          (let open B in
           let* tid =
             fork
               (B.to_program
                  (let* () = compute (Time.ms 1) in
                   stamp 1))
           in
           let* () = join tid in
           stamp 2)
      in
      let stamps, _ = run_collect kconfig backend prog in
      check (Alcotest.list Alcotest.int) "child completes before join returns"
        [ 1; 2 ] (List.map fst stamps))

let mutex_excludes =
  on_all_backends "mutex serializes critical sections" (fun kconfig backend ->
      (* Two children each stamp inside the same critical section; with
         mutual exclusion the (enter, exit) stamps cannot interleave. *)
      let m = P.Mutex.create () in
      let child enter exit_ =
        B.to_program
          (let open B in
           let* () = acquire m in
           let* () = stamp enter in
           let* () = compute (Time.ms 2) in
           let* () = stamp exit_ in
           release m)
      in
      let prog =
        B.to_program
          (let open B in
           let* t1 = fork (child 1 2) in
           let* t2 = fork (child 3 4) in
           let* () = join t1 in
           join t2)
      in
      let stamps, _ = run_collect kconfig backend prog in
      let seq = List.map fst stamps in
      check Alcotest.bool "no interleaving" true
        (seq = [ 1; 2; 3; 4 ] || seq = [ 3; 4; 1; 2 ]))

let semaphores_order =
  on_all_backends "semaphore enforces ordering" (fun kconfig backend ->
      let s = P.Sem.create ~initial:0 () in
      let waiter =
        B.to_program
          (let open B in
           let* () = sem_p s in
           stamp 2)
      in
      let prog =
        B.to_program
          (let open B in
           let* tid = fork waiter in
           let* () = compute (Time.ms 1) in
           let* () = stamp 1 in
           let* () = sem_v s in
           join tid)
      in
      let stamps, _ = run_collect kconfig backend prog in
      check (Alcotest.list Alcotest.int) "v before wakeup" [ 1; 2 ]
        (List.map fst stamps))

(* Condition-variable tests handshake through a semaphore: the waiter V's
   [ready] while still holding the mutex, so by the time the signaller has
   P'd [ready] and re-acquired the mutex, the waiter is guaranteed to be on
   the condition queue (wait releases the mutex atomically). *)
let condvar_wakeup =
  on_all_backends "condition variable signal wakes waiter" (fun kconfig backend ->
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
      let prog =
        B.to_program
          (let open B in
           let* tid = fork waiter in
           let* () = sem_p ready in
           let* () = acquire m in
           let* () = stamp 1 in
           let* () = signal cv in
           let* () = release m in
           join tid)
      in
      let stamps, _ = run_collect kconfig backend prog in
      check (Alcotest.list Alcotest.int) "signal then wake" [ 1; 2 ]
        (List.map fst stamps))

let broadcast_wakes_all =
  on_all_backends "broadcast wakes every waiter" (fun kconfig backend ->
      let m = P.Mutex.create () in
      let cv = P.Cond.create () in
      let ready = P.Sem.create ~initial:0 () in
      let waiter id =
        B.to_program
          (let open B in
           let* () = acquire m in
           let* () = sem_v ready in
           let* () = wait cv m in
           let* () = stamp id in
           release m)
      in
      let prog =
        B.to_program
          (let open B in
           let* t1 = fork (waiter 1) in
           let* t2 = fork (waiter 2) in
           let* t3 = fork (waiter 3) in
           let* () = sem_p ready in
           let* () = sem_p ready in
           let* () = sem_p ready in
           let* () = acquire m in
           let* () = broadcast cv in
           let* () = release m in
           let* () = join t1 in
           let* () = join t2 in
           join t3)
      in
      let stamps, _ = run_collect kconfig backend prog in
      check Alcotest.int "all three woke" 3 (List.length stamps))

let io_blocks_thread =
  on_all_backends "io takes at least its latency" (fun kconfig backend ->
      let prog =
        B.to_program
          (let open B in
           let* () = io (Time.ms 10) in
           stamp 1)
      in
      let stamps, job = run_collect kconfig backend prog in
      (match stamps with
      | [ (1, t) ] ->
          check Alcotest.bool "after 10ms" true (Time.to_ms t >= 10.0)
      | _ -> Alcotest.fail "expected one stamp");
      check Alcotest.bool "finished" true (System.finished job))

let cache_miss_then_hit =
  on_all_backends "cache: second read of a block hits" (fun kconfig backend ->
      let prog =
        B.to_program
          (let open B in
           let* () = cache_read 0 in
           let* () = stamp 1 in
           let* () = cache_read 0 in
           stamp 2)
      in
      let sys = System.create ~cpus:2 ~kconfig () in
      let log = ref [] in
      let job =
        System.submit sys ~backend ~name:"t" ~cache_capacity:4
          ~prewarm_cache:false
          ~observer:(fun id time -> log := (id, time) :: !log)
          prog
      in
      System.run sys;
      match List.rev !log with
      | [ (1, t1); (2, t2) ] ->
          check Alcotest.bool "first read slow (miss)" true
            (Time.to_ms t1 >= 50.0);
          check Alcotest.bool "second read fast (hit)" true
            (Time.span_to_ms (Time.diff t2 t1) < 1.0);
          ignore job
      | _ -> Alcotest.fail "expected two stamps")

let yield_runs_peer =
  on_all_backends "yield lets a peer run" (fun kconfig backend ->
      let prog =
        B.to_program
          (let open B in
           let* _tid =
             fork
               (B.to_program
                  (let* () = stamp 2 in
                   compute (Time.us 10)))
           in
           let* () = stamp 1 in
           let* () = yield in
           stamp 3)
      in
      (* one processor so yield matters *)
      let stamps, _ = run_collect ~cpus:1 kconfig backend prog in
      check (Alcotest.list Alcotest.int) "peer ran at yield" [ 1; 2; 3 ]
        (List.map fst stamps))

(* ------------------------------------------------------------------ *)
(* FastThreads-specific behaviour                                      *)
(* ------------------------------------------------------------------ *)

let ft_specific_tests =
  [
    Alcotest.test_case "many fine-grained threads complete (ft-sa)" `Quick
      (fun () ->
        let prog =
          B.to_program
            (let open B in
             let* tids =
               let rec go acc i =
                 if i = 0 then return acc
                 else
                   let* tid = fork (P.compute_only (Time.us 100)) in
                   go (tid :: acc) (i - 1)
               in
               go [] 200
             in
             iter_list tids (fun t -> join t))
        in
        let sys = System.create ~cpus:4 ~kconfig:Kconfig.default () in
        let job = System.submit sys ~backend:`Fastthreads_on_sa ~name:"many" prog in
        System.run sys;
        let st = Option.get (System.uthread_stats job) in
        check Alcotest.int "200 forks" 200 st.Ft_core.forks;
        check Alcotest.int "201 completions" 201 st.Ft_core.completions;
        Sa_kernel.Kernel.check_invariants (System.kernel sys));
    Alcotest.test_case "work stealing spreads load (ft-kt)" `Quick (fun () ->
        let prog =
          B.to_program
            (let open B in
             let* tids =
               let rec go acc i =
                 if i = 0 then return acc
                 else
                   let* tid = fork (P.compute_only (Time.ms 5)) in
                   go (tid :: acc) (i - 1)
               in
               go [] 16
             in
             iter_list tids (fun t -> join t))
        in
        let sys = System.create ~cpus:4 ~kconfig:Kconfig.native () in
        let job =
          System.submit sys ~backend:(`Fastthreads_on_kthreads 4) ~name:"steal"
            prog
        in
        System.run sys;
        let st = Option.get (System.uthread_stats job) in
        (* all forks land on the parent's queue; other VPs must steal *)
        check Alcotest.bool "steals happened" true (st.Ft_core.steals > 0);
        (* 16 x 5ms on 4 VPs must take well under the 80ms serial time *)
        match System.elapsed job with
        | Some d -> check Alcotest.bool "parallel" true (Time.span_to_ms d < 60.0)
        | None -> Alcotest.fail "not finished");
    Alcotest.test_case "SA preemption recovers critical sections" `Quick
      (fun () ->
        (* Two SA jobs fight over 2 processors; reallocation preempts the
           loser mid-run.  All threads must still finish and any preempted
           critical sections must be recovered, never lost. *)
        let mk_prog () =
          B.to_program
            (let open B in
             let* tids =
               let rec go acc i =
                 if i = 0 then return acc
                 else
                   let* tid = fork (P.compute_only (Time.ms 2)) in
                   go (tid :: acc) (i - 1)
               in
               go [] 60
             in
             iter_list tids (fun t -> join t))
        in
        let sys = System.create ~cpus:2 ~kconfig:Kconfig.default () in
        let j1 =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"j1" (mk_prog ())
        in
        let j2 =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"j2" (mk_prog ())
        in
        System.run sys;
        check Alcotest.bool "j1 done" true (System.finished j1);
        check Alcotest.bool "j2 done" true (System.finished j2);
        let st = Kernel.stats (System.kernel sys) in
        check Alcotest.bool "preemptions occurred" true (st.Kernel.preemptions > 0);
        Sa_kernel.Kernel.check_invariants (System.kernel sys));
  ]

(* ------------------------------------------------------------------ *)
(* Priorities (Section 3.1 extension)                                  *)
(* ------------------------------------------------------------------ *)

(* A bare FastThreads core with [queues] ready lists and a driver that
   does nothing: threads are placed on lists and taken off them directly,
   so a test sees exactly which thread each dequeue returns. *)
let bare_core ~queues =
  let s = Ft_core.create_state ~queues () in
  let d =
    {
      Ft_core.costs = Sa_hw.Cost_model.firefly_cvax;
      strategy = Ft_core.Copy_sections;
      sa_accounting = false;
      io_latency = Time.ns 0;
      charge = (fun _ _ k -> k ());
      block_io = (fun _ _ k -> k ());
      block_kernel = (fun _ ~register:_ k -> k ());
      thread_stopped = ignore;
      work_created = (fun _ _ -> ());
      all_done = ignore;
      on_stamp = ignore;
    }
  in
  (s, d)

(* Ready a thread of priority [prio] on list [at] (at its front). *)
let ready_on (s, d) ~at prio =
  let t = Ft_core.new_thread s d (P.compute_only (Time.us 1)) in
  Ft_core.set_priority s t prio;
  Ft_core.make_ready s d ~at t;
  t

let tid_opt = Option.map Ft_core.tcb_id

let priority_tests =
  [
    Alcotest.test_case "higher priority dispatched first (ft-sa)" `Quick
      (fun () ->
        (* One processor: queue a low- and a high-priority thread while the
           main thread holds the CPU; the high one must run first. *)
        let prog =
          B.to_program
            (let open B in
             let* () = set_priority 0 in
             let* _low = fork (B.to_program (B.stamp 10)) in
             let* () = set_priority 5 in
             let* _high = fork (B.to_program (B.stamp 20)) in
             let* () = set_priority 0 in
             compute (Time.ms 1))
        in
        let stamps, _ = run_collect ~cpus:1 Kconfig.default `Fastthreads_on_sa prog in
        check (Alcotest.list Alcotest.int) "high first" [ 20; 10 ]
          (List.map fst stamps));
    Alcotest.test_case "children inherit the forker's priority" `Quick
      (fun () ->
        let prog =
          B.to_program
            (let open B in
             let* () = set_priority 3 in
             let* _a = fork (B.to_program (B.stamp 1)) in
             (* the child forked at priority 3 must beat a later prio-0 one *)
             let* () = set_priority 0 in
             let* _b = fork (B.to_program (B.stamp 2)) in
             compute (Time.ms 1))
        in
        let stamps, _ = run_collect ~cpus:1 Kconfig.default `Fastthreads_on_sa prog in
        check (Alcotest.list Alcotest.int) "inherited priority wins" [ 1; 2 ]
          (List.map fst stamps));
    Alcotest.test_case
      "SA asks the kernel to preempt a low-priority processor" `Quick
      (fun () ->
        (* Two processors.  A long low-priority thread occupies the second;
           when a high-priority thread becomes ready, the user level must
           request a preemption rather than wait for the long thread
           (Section 3.1's extra preemption). *)
        let prog =
          B.to_program
            (let open B in
             let* _low = fork (P.compute_only (Time.ms 80)) in
             (* give the low-priority thread time to get the other CPU *)
             let* () = compute (Time.ms 8) in
             let* () = set_priority 5 in
             let* high =
               fork
                 (B.to_program
                    (let* () = B.stamp 1 in
                     B.compute (Time.ms 1)))
             in
             let* () = set_priority 0 in
             (* keep this processor busy so the high-priority thread cannot
                simply use it *)
             let* () = compute (Time.ms 40) in
             join high)
        in
        let sys = System.create ~cpus:2 ~kconfig:Kconfig.default () in
        let log = ref [] in
        let job =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"prio"
            ~observer:(fun id time -> log := (id, time) :: !log)
            prog
        in
        System.run sys;
        Kernel.check_invariants (System.kernel sys);
        (match List.rev !log with
        | [ (1, t) ] ->
            (* without the priority preemption the high thread would wait
               ~72 more ms for the low thread to finish *)
            check Alcotest.bool "ran promptly via requested preemption" true
              (Time.to_ms t < 30.0)
        | _ -> Alcotest.fail "expected one stamp");
        ignore job);
    Alcotest.test_case "kernel-thread backends ignore priorities" `Quick
      (fun () ->
        let prog =
          B.to_program
            (let open B in
             let* () = set_priority 9 in
             let* tid = fork (P.compute_only (Time.us 50)) in
             join tid)
        in
        let sys = System.create ~cpus:1 ~kconfig:Kconfig.native () in
        let job = System.submit sys ~backend:`Topaz_kthreads ~name:"p" prog in
        System.run sys;
        check Alcotest.bool "still completes" true (System.finished job));
    Alcotest.test_case "priorities span ready lists (scan and steal)" `Quick
      (fun () ->
        let sim = Sa_engine.Sim.create () in
        (* List 0 reads, front to back, [lo; hi; lo]; list 1 is empty. *)
        let lists () =
          let c = bare_core ~queues:2 in
          ignore (ready_on c ~at:0 0);
          let hi = ready_on c ~at:0 5 in
          ignore (ready_on c ~at:0 0);
          (c, Some (Ft_core.tcb_id hi))
        in
        let (s, _), hi = lists () in
        check (Alcotest.option Alcotest.int)
          "an idle list's owner takes the best thread of another list" hi
          (tid_opt (Ft_core.pop_own s 1));
        let (s, _), hi = lists () in
        check (Alcotest.option Alcotest.int)
          "a thief takes its victim's best, not its back" hi
          (tid_opt (Option.map snd (Ft_core.steal_sweep s sim ~thief:1)));
        (* Equal best priorities on both lists: the owner keeps to its own. *)
        let c, hi = lists () in
        ignore (ready_on c ~at:1 5);
        check (Alcotest.option Alcotest.int) "ties prefer the local list" hi
          (tid_opt (Ft_core.pop_own (fst c) 0)));
    Alcotest.test_case "without priorities: LIFO owner, FIFO thief, rotation"
      `Quick (fun () ->
        let sim = Sa_engine.Sim.create () in
        let ((s, _) as c) = bare_core ~queues:3 in
        let a = ready_on c ~at:0 0 in
        let b = ready_on c ~at:0 0 in
        let x = ready_on c ~at:2 0 in
        let steal () =
          let cell, t = Option.get (Ft_core.steal_sweep s sim ~thief:1) in
          Ft_core.unlock_cell cell;
          Ft_core.tcb_id t
        in
        (* thief 1 probes list (1 + 1) mod 3 = 2 before list 0 *)
        check Alcotest.int "victims in (thief + k) mod n" (Ft_core.tcb_id x)
          (steal ());
        check Alcotest.int "a thief takes the oldest" (Ft_core.tcb_id a)
          (steal ());
        check (Alcotest.option Alcotest.int) "the owner pops the newest"
          (Some (Ft_core.tcb_id b))
          (tid_opt (Ft_core.pop_own s 0)));
  ]

(* ------------------------------------------------------------------ *)
(* Misuse and failure injection                                        *)
(* ------------------------------------------------------------------ *)

let expect_program_error name kconfig backend prog expected_msg =
  let sys = System.create ~cpus:1 ~kconfig () in
  let _job = System.submit sys ~backend ~name prog in
  try
    System.run sys;
    Alcotest.fail "expected the interpreter to reject the program"
  with Invalid_argument m ->
    check Alcotest.string "error message" expected_msg m

let misuse_tests =
  [
    Alcotest.test_case "release without holding is rejected (ft)" `Quick
      (fun () ->
        let m = P.Mutex.create () in
        expect_program_error "bad-release" Kconfig.default `Fastthreads_on_sa
          (B.to_program (B.release m))
          "Release: not the holder");
    Alcotest.test_case "wait without the mutex is rejected (ft)" `Quick
      (fun () ->
        let m = P.Mutex.create () in
        let cv = P.Cond.create () in
        expect_program_error "bad-wait" Kconfig.default `Fastthreads_on_sa
          (B.to_program (B.wait cv m))
          "Wait: caller does not hold mutex");
    Alcotest.test_case "join on an unknown id is rejected" `Quick (fun () ->
        (* Tids run 1 .. next_tid and the main thread is tid 1, so 2 is the
           first id past the table.  A negative literal defeats the
           compiler, so that case runs the reference interpreter. *)
        List.iter
          (fun tid ->
            expect_program_error
              (Printf.sprintf "bad-join-%d" tid)
              Kconfig.default `Fastthreads_on_sa
              (B.to_program (B.join tid))
              "Join: unknown thread id")
          [ 424242; 0; -1; 2 ]);
    Alcotest.test_case "release by a non-holder thread is rejected (kt)"
      `Quick (fun () ->
        let m = P.Mutex.create () in
        expect_program_error "bad-release-kt" Kconfig.native `Topaz_kthreads
          (B.to_program (B.release m))
          "Kt_direct: release by non-holder");
    Alcotest.test_case "double start is rejected" `Quick (fun () ->
        let sys = System.create ~cpus:1 ~kconfig:Kconfig.default () in
        let kernel = System.kernel sys in
        let f = Sa_uthread.Ft_sa.create kernel ~name:"once" () in
        Sa_uthread.Ft_sa.start f P.null;
        Alcotest.check_raises "restart"
          (Invalid_argument "Ft_sa.start: already started") (fun () ->
            Sa_uthread.Ft_sa.start f P.null));
    Alcotest.test_case "zero VPs rejected" `Quick (fun () ->
        let sys = System.create ~cpus:1 ~kconfig:Kconfig.native () in
        Alcotest.check_raises "vps" (Invalid_argument "Ft_kt.create: vps")
          (fun () ->
            ignore
              (Sa_uthread.Ft_kt.create (System.kernel sys) ~name:"x" ~vps:0 ())));
    Alcotest.test_case "horizon failure reports unfinished jobs" `Quick
      (fun () ->
        (* a thread that waits forever on a semaphore nobody Vs *)
        let s = P.Sem.create ~initial:0 () in
        let sys = System.create ~cpus:1 ~kconfig:Kconfig.default () in
        let _job =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"stuck"
            (B.to_program (B.sem_p s))
        in
        match System.run ~horizon:(Time.ms 50) sys with
        | () -> Alcotest.fail "expected horizon failure"
        | exception Failure m ->
            check Alcotest.bool "mentions the horizon" true
              (String.length m > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Thread table                                                        *)
(* ------------------------------------------------------------------ *)

let thread_table_tests =
  [
    Alcotest.test_case "10k forks: census, default names" `Quick (fun () ->
        let forks = 10_000 in
        let sys = System.create ~cpus:4 ~kconfig:Kconfig.default () in
        let job =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"table"
            (B.to_program
               (B.repeat forks (fun _ ->
                    B.fork_unit (B.to_program (B.compute (Time.us 1))))))
        in
        System.run sys;
        let s = Option.get (System.ft_core_state job) in
        check Alcotest.int "census counts every thread" (forks + 1)
          (List.fold_left (fun acc (_, n) -> acc + n) 0 (Ft_core.state_counts s));
        let done_ = Ft_core.threads_in s Ft_core.Done in
        check Alcotest.int "all done" (forks + 1) (List.length done_);
        List.iter
          (fun t ->
            let id = Ft_core.tcb_id t in
            let expected = if id = 1 then "main" else Printf.sprintf "t%d" id in
            check Alcotest.string "name" expected (Ft_core.tcb_name t))
          done_);
  ]

let () =
  Alcotest.run "uthread"
    [
      ("deque", deque_tests);
      ("fork_join", fork_join_order);
      ("mutex", mutex_excludes);
      ("semaphores", semaphores_order);
      ("condvars", condvar_wakeup);
      ("broadcast", broadcast_wakes_all);
      ("io", io_blocks_thread);
      ("cache", cache_miss_then_hit);
      ("yield", yield_runs_peer);
      ("fastthreads", ft_specific_tests);
      ("priorities", priority_tests);
      ("misuse", misuse_tests);
      ("thread-table", thread_table_tests);
    ]
