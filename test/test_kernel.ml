(* Kernel tests: native oblivious scheduling, the explicit processor
   allocator, scheduler activations, daemons, and the Section 3.1
   invariants. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Machine = Sa_hw.Machine
module Cost_model = Sa_hw.Cost_model
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module Upcall = Sa_kernel.Upcall

let check = Alcotest.check

let make ?(cpus = 2) ?(kconfig = Kconfig.native) ?(daemons = false) () =
  let sim = Sim.create () in
  let machine = Machine.create sim ~cpus in
  let kconfig = { kconfig with Kconfig.daemons } in
  let kernel = Kernel.create sim machine Cost_model.firefly_cvax kconfig in
  (sim, machine, kernel)

(* ------------------------------------------------------------------ *)
(* Kernel threads under native scheduling                              *)
(* ------------------------------------------------------------------ *)

let native_tests =
  [
    Alcotest.test_case "a kthread body runs and exits" `Quick (fun () ->
        let sim, _m, k = make () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let ran = ref false in
        ignore
          (Kernel.spawn_kthread k sp ~name:"t"
             ~body:(fun ops ->
               ops.Kernel.kt_charge (Time.us 10) (fun () ->
                   ran := true;
                   ops.Kernel.kt_exit ()))
             ());
        Sim.run sim;
        check Alcotest.bool "ran" true !ran;
        Kernel.check_invariants k);
    Alcotest.test_case "two kthreads share one processor" `Quick (fun () ->
        let sim, _m, k = make ~cpus:1 () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let order = ref [] in
        let spawn name =
          ignore
            (Kernel.spawn_kthread k sp ~name
               ~body:(fun ops ->
                 ops.Kernel.kt_charge (Time.us 5) (fun () ->
                     order := name :: !order;
                     ops.Kernel.kt_exit ()))
               ())
        in
        spawn "a";
        spawn "b";
        Sim.run sim;
        check
          (Alcotest.list Alcotest.string)
          "both ran, fifo" [ "a"; "b" ] (List.rev !order));
    Alcotest.test_case "blocking frees the processor for others" `Quick
      (fun () ->
        let sim, _m, k = make ~cpus:1 () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let events = ref [] in
        ignore
          (Kernel.spawn_kthread k sp ~name:"sleeper"
             ~body:(fun ops ->
               ops.Kernel.kt_block_for (Time.ms 10) (fun () ->
                   events := "woke" :: !events;
                   ops.Kernel.kt_exit ()))
             ());
        ignore
          (Kernel.spawn_kthread k sp ~name:"worker"
             ~body:(fun ops ->
               ops.Kernel.kt_charge (Time.us 100) (fun () ->
                   events := "worked" :: !events;
                   ops.Kernel.kt_exit ()))
             ());
        Sim.run sim;
        check
          (Alcotest.list Alcotest.string)
          "worker ran during sleep" [ "worked"; "woke" ] (List.rev !events));
    Alcotest.test_case "kt_block_on wakes via registered function" `Quick
      (fun () ->
        let sim, _m, k = make ~cpus:1 () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let wake_fn = ref (fun () -> ()) in
        let woke = ref false in
        ignore
          (Kernel.spawn_kthread k sp ~name:"waiter"
             ~body:(fun ops ->
               ops.Kernel.kt_block_on
                 ~register:(fun wake -> wake_fn := wake)
                 (fun () ->
                   woke := true;
                   ops.Kernel.kt_exit ()))
             ());
        ignore
          (Kernel.spawn_kthread k sp ~name:"waker"
             ~body:(fun ops ->
               ops.Kernel.kt_charge (Time.us 50) (fun () ->
                   !wake_fn ();
                   ops.Kernel.kt_exit ()))
             ());
        Sim.run sim;
        check Alcotest.bool "woke" true !woke);
    Alcotest.test_case "time-slicing preempts long-running threads" `Quick
      (fun () ->
        let sim, _m, k = make ~cpus:1 () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let first_done = ref Time.zero and second_done = ref Time.zero in
        ignore
          (Kernel.spawn_kthread k sp ~name:"hog"
             ~body:(fun ops ->
               ops.Kernel.kt_charge (Time.ms 300) (fun () ->
                   first_done := Sim.now sim;
                   ops.Kernel.kt_exit ()))
             ());
        ignore
          (Kernel.spawn_kthread k sp ~name:"short"
             ~body:(fun ops ->
               ops.Kernel.kt_charge (Time.ms 10) (fun () ->
                   second_done := Sim.now sim;
                   ops.Kernel.kt_exit ()))
             ());
        Sim.run sim;
        (* With a 100 ms quantum, the short thread must finish long before
           the 300 ms hog. *)
        check Alcotest.bool "short finishes first" true
          Time.(!second_done < !first_done);
        check Alcotest.bool "short done before 300ms" true
          (Time.to_ms !second_done < 150.0);
        check Alcotest.bool "timeslices happened" true
          ((Kernel.stats k).Kernel.kt_timeslices >= 1));
    Alcotest.test_case "yield hands over the processor" `Quick (fun () ->
        let sim, _m, k = make ~cpus:1 () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let order = ref [] in
        ignore
          (Kernel.spawn_kthread k sp ~name:"a"
             ~body:(fun ops ->
               ops.Kernel.kt_charge (Time.us 1) (fun () ->
                   order := "a1" :: !order;
                   ops.Kernel.kt_yield (fun () ->
                       order := "a2" :: !order;
                       ops.Kernel.kt_exit ())))
             ());
        ignore
          (Kernel.spawn_kthread k sp ~name:"b"
             ~body:(fun ops ->
               ops.Kernel.kt_charge (Time.us 1) (fun () ->
                   order := "b" :: !order;
                   ops.Kernel.kt_exit ()))
             ());
        Sim.run sim;
        check (Alcotest.list Alcotest.string) "interleaved" [ "a1"; "b"; "a2" ]
          (List.rev !order));
    Alcotest.test_case "daemons wake periodically under native mode" `Quick
      (fun () ->
        let sim, _m, k = make ~cpus:2 ~daemons:true () in
        Sim.run ~until:(Time.of_ns (Time.ms 500)) sim;
        let st = Kernel.stats k in
        (* 500 ms / ~51 ms period: expect roughly 9-10 wakeups. *)
        check Alcotest.bool "several wakeups" true (st.Kernel.daemon_wakeups >= 8);
        Kernel.check_invariants k);
  ]

(* ------------------------------------------------------------------ *)
(* Explicit allocation & scheduler activations                         *)
(* ------------------------------------------------------------------ *)

(* A minimal hand-rolled SA client that counts upcalls and runs a fixed
   amount of work per Add_processor. *)
type mini_client = {
  mutable add_processor : int;
  mutable preempted : int;
  mutable blocked : int;
  mutable unblocked : int;
  mutable work_done : int;
}

let mini_space ?(work = Time.ms 1) k name =
  let c =
    { add_processor = 0; preempted = 0; blocked = 0; unblocked = 0; work_done = 0 }
  in
  let handler delivery =
    let act = delivery.Kernel.uc_activation in
    List.iter
      (fun ev ->
        match ev with
        | Upcall.Add_processor -> c.add_processor <- c.add_processor + 1
        | Upcall.Processor_preempted _ -> c.preempted <- c.preempted + 1
        | Upcall.Activation_blocked _ -> c.blocked <- c.blocked + 1
        | Upcall.Activation_unblocked _ -> c.unblocked <- c.unblocked + 1)
      delivery.Kernel.uc_events;
    (* Run one work quantum, then return the processor. *)
    Kernel.sa_charge k act work (fun () ->
        c.work_done <- c.work_done + 1;
        Kernel.sa_cpu_idle k act)
  in
  let sp = Kernel.new_sa_space k ~name ~client:{ Kernel.on_upcall = handler } () in
  (sp, c)

let explicit_tests =
  [
    Alcotest.test_case "sa space rejected in native mode" `Quick (fun () ->
        let _sim, _m, k = make ~kconfig:Kconfig.native () in
        Alcotest.check_raises "native"
          (Invalid_argument "new_sa_space: kernel is in Native_oblivious mode")
          (fun () ->
            ignore
              (Kernel.new_sa_space k ~name:"x"
                 ~client:{ Kernel.on_upcall = (fun _ -> ()) }
                 ())));
    Alcotest.test_case "add_more_processors triggers an Add_processor upcall"
      `Quick (fun () ->
        let sim, _m, k = make ~kconfig:Kconfig.default () in
        let sp, c = mini_space k "app" in
        Kernel.sa_add_more_processors k sp 1;
        Sim.run sim;
        check Alcotest.bool "got a processor" true (c.add_processor >= 1);
        check Alcotest.bool "did work" true (c.work_done >= 1);
        Kernel.check_invariants k);
    Alcotest.test_case "allocator divides processors evenly" `Quick (fun () ->
        let sim, _m, k = make ~cpus:4 ~kconfig:Kconfig.default () in
        (* Two spaces that want everything: each should get 2. *)
        let grabby name =
          let got = ref 0 in
          let handler delivery =
            got := max !got (Kernel.space_assigned (Kernel.activation_space delivery.Kernel.uc_activation));
            (* hold the processor forever *)
            let rec spin () =
              Kernel.sa_charge k delivery.Kernel.uc_activation (Time.ms 1) spin
            in
            spin ()
          in
          let sp =
            Kernel.new_sa_space k ~name ~client:{ Kernel.on_upcall = handler } ()
          in
          (sp, got)
        in
        let sp1, _g1 = grabby "one" in
        let sp2, _g2 = grabby "two" in
        Kernel.sa_add_more_processors k sp1 4;
        Kernel.sa_add_more_processors k sp2 4;
        Sim.run ~until:(Time.of_ns (Time.ms 50)) sim;
        check Alcotest.int "even split 1" 2 (Kernel.space_assigned sp1);
        check Alcotest.int "even split 2" 2 (Kernel.space_assigned sp2);
        Kernel.check_invariants k);
    Alcotest.test_case "unused share is redistributed" `Quick (fun () ->
        let sim, _m, k = make ~cpus:4 ~kconfig:Kconfig.default () in
        let hold name =
          let handler delivery =
            let rec spin () =
              Kernel.sa_charge k delivery.Kernel.uc_activation (Time.ms 1) spin
            in
            spin ()
          in
          Kernel.new_sa_space k ~name ~client:{ Kernel.on_upcall = handler } ()
        in
        let sp1 = hold "small" and sp2 = hold "big" in
        Kernel.sa_add_more_processors k sp1 1;
        (* sp1 only wants one *)
        Kernel.sa_add_more_processors k sp2 4;
        Sim.run ~until:(Time.of_ns (Time.ms 50)) sim;
        check Alcotest.int "small got 1" 1 (Kernel.space_assigned sp1);
        check Alcotest.int "big got the rest" 3 (Kernel.space_assigned sp2);
        Kernel.check_invariants k);
    Alcotest.test_case "idle processors return to the allocator" `Quick
      (fun () ->
        let sim, _m, k = make ~cpus:2 ~kconfig:Kconfig.default () in
        let sp, c = mini_space k "app" in
        Kernel.sa_add_more_processors k sp 2;
        Sim.run sim;
        (* after the work quanta the client returned every processor *)
        check Alcotest.int "no processors held" 0 (Kernel.space_assigned sp);
        check Alcotest.int "all free" 2 (Kernel.free_cpus k);
        check Alcotest.bool "work happened" true (c.work_done >= 1);
        Kernel.check_invariants k);
    Alcotest.test_case "blocking produces blocked then unblocked upcalls"
      `Quick (fun () ->
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let c =
          {
            add_processor = 0;
            preempted = 0;
            blocked = 0;
            unblocked = 0;
            work_done = 0;
          }
        in
        let resumed = ref false in
        let handler delivery =
          let act = delivery.Kernel.uc_activation in
          let events = delivery.Kernel.uc_events in
          let saved_ctx = ref None in
          List.iter
            (fun ev ->
              match ev with
              | Upcall.Add_processor -> c.add_processor <- c.add_processor + 1
              | Upcall.Processor_preempted _ -> c.preempted <- c.preempted + 1
              | Upcall.Activation_blocked _ -> c.blocked <- c.blocked + 1
              | Upcall.Activation_unblocked { ctx; _ } ->
                  c.unblocked <- c.unblocked + 1;
                  saved_ctx := Some ctx)
            events;
          match !saved_ctx with
          | Some ctx ->
              (* resume the saved context in this activation; it marks
                 [resumed] and control returns here via the continuation *)
              Kernel.sa_charge k act ctx.Upcall.remaining (fun () ->
                  ctx.Upcall.resume ();
                  Kernel.sa_cpu_idle k act)
          | None -> (
              match events with
              | Upcall.Add_processor :: _ when c.blocked = 0 ->
                  (* first grant: block in the kernel for 5 ms *)
                  Kernel.sa_block_io k act ~io:(Time.ms 5) (fun () ->
                      resumed := true)
              | _ -> Kernel.sa_cpu_idle k act)
        in
        let sp =
          Kernel.new_sa_space k ~name:"io" ~client:{ Kernel.on_upcall = handler } ()
        in
        Kernel.sa_add_more_processors k sp 1;
        Sim.run sim;
        check Alcotest.int "one blocked upcall" 1 c.blocked;
        check Alcotest.int "one unblocked upcall" 1 c.unblocked;
        check Alcotest.bool "context resumed by user level" true !resumed);
    Alcotest.test_case "daemon preempts only when no processor is free"
      `Quick (fun () ->
        (* Explicit mode, 2 CPUs, app wants only 1: the daemon must take the
           free processor, never the app's. *)
        let sim, _m, k = make ~cpus:2 ~kconfig:Kconfig.default ~daemons:true () in
        let preempts = ref 0 in
        let handler delivery =
          List.iter
            (fun ev ->
              match ev with
              | Upcall.Processor_preempted _ -> incr preempts
              | Upcall.Add_processor | Upcall.Activation_blocked _
              | Upcall.Activation_unblocked _ -> ())
            delivery.Kernel.uc_events;
          let rec spin () =
            Kernel.sa_charge k delivery.Kernel.uc_activation (Time.ms 1) spin
          in
          spin ()
        in
        let sp =
          Kernel.new_sa_space k ~name:"app" ~client:{ Kernel.on_upcall = handler } ()
        in
        Kernel.sa_add_more_processors k sp 1;
        Sim.run ~until:(Time.of_ns (Time.ms 500)) sim;
        check Alcotest.int "app never preempted" 0 !preempts;
        check Alcotest.bool "daemons did wake" true
          ((Kernel.stats k).Kernel.daemon_wakeups > 5);
        Kernel.check_invariants k);
    Alcotest.test_case
      "explicit-mode kthread spaces time-slice within their processors"
      `Quick (fun () ->
        (* one granted CPU, one long and one short thread: the short one
           must not wait 300 ms behind the long one *)
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let sp = Kernel.new_kthread_space k ~name:"legacy" () in
        let short_done = ref Time.zero in
        ignore
          (Kernel.spawn_kthread k sp ~name:"hog"
             ~body:(fun ops ->
               ops.Kernel.kt_charge (Time.ms 300) (fun () ->
                   ops.Kernel.kt_exit ()))
             ());
        ignore
          (Kernel.spawn_kthread k sp ~name:"short"
             ~body:(fun ops ->
               ops.Kernel.kt_charge (Time.ms 10) (fun () ->
                   short_done := Sim.now sim;
                   ops.Kernel.kt_exit ()))
             ());
        Sim.run sim;
        check Alcotest.bool "short thread ran within two quanta" true
          (Time.to_ms !short_done < 250.0);
        Kernel.check_invariants k);
    Alcotest.test_case "kthread spaces compete under explicit allocation"
      `Quick (fun () ->
        let sim, _m, k = make ~cpus:2 ~kconfig:Kconfig.default () in
        let sp = Kernel.new_kthread_space k ~name:"legacy" () in
        let done_count = ref 0 in
        for i = 1 to 4 do
          ignore
            (Kernel.spawn_kthread k sp
               ~name:(Printf.sprintf "w%d" i)
               ~body:(fun ops ->
                 ops.Kernel.kt_charge (Time.ms 2) (fun () ->
                     incr done_count;
                     ops.Kernel.kt_exit ()))
               ())
        done;
        Sim.run sim;
        check Alcotest.int "all four ran" 4 !done_count;
        check Alcotest.int "processors returned" 2 (Kernel.free_cpus k);
        Kernel.check_invariants k);
    Alcotest.test_case "a preemption warning does not outlive its owner"
      `Quick (fun () ->
        (* The incumbent holds both processors; a priority-5 claimant makes
           the allocator warn one of them.  The incumbent idles the warned
           processor (its 500 us thread is done) instead of responding, and
           the processor goes to the claimant.  The claimant was never
           warned, so it must never answer a warning. *)
        let module System = Sa.System in
        let module B = Sa_program.Program.Build in
        let kconfig =
          {
            Kconfig.default with
            Kconfig.preempt_warning = Some (Time.ms 20);
            daemons = false;
          }
        in
        let sys = System.create ~cpus:2 ~kconfig () in
        let k = System.kernel sys in
        (* ids of the spaces that answered a warning; the allocator's
           "warn" messages *)
        let responders = ref [] and warned = ref [] in
        Sa_engine.Trace.add_sink (Sim.trace (System.sim sys)) (fun r ->
            let msg = Sa_engine.Trace.render_message r in
            if r.Sa_engine.Trace.name = "downcall:respond-warning" then
              responders := r.Sa_engine.Trace.space :: !responders
            else if String.starts_with ~prefix:"allocator: warn " msg then
              warned := msg :: !warned);
        let incumbent =
          B.to_program
            B.(
              let* t1 = fork (B.to_program (compute (Time.us 500))) in
              let* t2 = fork (B.to_program (compute (Time.ms 30))) in
              let* () = join t1 in
              join t2)
        in
        let claimant =
          B.to_program
            B.(
              repeat 30 (fun _ ->
                  let* () = compute (Time.ms 1) in
                  yield))
        in
        let _inc =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"incumbent"
            incumbent
        in
        System.run_span sys (Time.ms 4);
        let cl =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"claimant"
            ~space_priority:5 claimant
        in
        System.run sys;
        check Alcotest.bool "claimant finished" true (System.finished cl);
        check Alcotest.bool "the incumbent was warned" true
          (List.exists
             (String.starts_with ~prefix:"allocator: warn incumbent")
             !warned);
        check Alcotest.bool "only the incumbent was warned" true
          (List.for_all
             (String.starts_with ~prefix:"allocator: warn incumbent")
             !warned);
        check Alcotest.bool "the claimant never answers a warning" false
          (List.mem (Kernel.space_id (System.space cl)) !responders);
        Kernel.check_invariants k);
    Alcotest.test_case "a stale warning timer cannot cut a later grace period"
      `Quick (fun () ->
        (* One processor.  [a] holds it and never answers warnings; the
           priority-5 claimant [b] makes the allocator warn [a] at 5 ms.
           [a] idles the warned processor instead, [b] runs 1 ms and idles
           it, [a] asks again and gets it back, and at 14 ms [b]'s second
           claim warns [a] a second time.  The first warning's timer
           (due at 25 ms) belongs to a warning that is gone: the processor
           may only be forced away when the second grace period ends. *)
        let grace = Time.ms 20 in
        let sim, _m, k =
          make ~cpus:1
            ~kconfig:{ Kconfig.default with Kconfig.preempt_warning = Some grace }
            ()
        in
        let warnings = ref [] in
        Sa_engine.Trace.add_sink (Sim.trace sim) (fun r ->
            if
              String.starts_with ~prefix:"allocator: warn a "
                (Sa_engine.Trace.render_message r)
            then warnings := r.Sa_engine.Trace.time :: !warnings);
        let return_stopped delivery =
          List.iter
            (function
              | Upcall.Processor_preempted { act; _ } ->
                  Kernel.sa_return_activation k act
              | _ -> ())
            delivery.Kernel.uc_events
        in
        let a_idle = ref false in
        let rec a_work act =
          Kernel.sa_charge k act (Time.ms 1) (fun () ->
              if !a_idle then begin
                a_idle := false;
                Kernel.sa_cpu_idle k act
              end
              else a_work act)
        in
        let a =
          Kernel.new_sa_space k ~name:"a"
            ~client:
              {
                Kernel.on_upcall =
                  (fun delivery ->
                    return_stopped delivery;
                    a_work delivery.Kernel.uc_activation);
              }
            ()
        in
        let b_upcalls = ref [] in
        let b =
          Kernel.new_sa_space k ~name:"b" ~priority:5
            ~client:
              {
                Kernel.on_upcall =
                  (fun delivery ->
                    b_upcalls := Sim.now sim :: !b_upcalls;
                    let act = delivery.Kernel.uc_activation in
                    Kernel.sa_charge k act (Time.ms 1) (fun () ->
                        Kernel.sa_cpu_idle k act));
              }
            ()
        in
        let at ms f = ignore (Sim.schedule sim ~at:(Time.of_ns (Time.ms ms)) f) in
        Kernel.sa_add_more_processors k a 1;
        at 5 (fun () -> Kernel.sa_add_more_processors k b 1);
        at 6 (fun () -> a_idle := true);
        at 8 (fun () -> Kernel.sa_add_more_processors k a 1);
        at 14 (fun () -> Kernel.sa_add_more_processors k b 1);
        Sim.run ~until:(Time.of_ns (Time.ms 60)) sim;
        match (List.rev !warnings, List.rev !b_upcalls) with
        | [ _; second ], [ _; regained ] ->
            check Alcotest.bool
              (Printf.sprintf "b regains the processor at %.3f ms, not before %.3f ms"
                 (Time.to_ms regained)
                 (Time.to_ms (Time.add second grace)))
              true
              (Time.compare regained (Time.add second grace) >= 0)
        | w, u ->
            Alcotest.failf "expected two warnings and two b upcalls, got %d and %d"
              (List.length w) (List.length u));
  ]

(* ------------------------------------------------------------------ *)
(* Paging and debugger extensions (Sections 3.1, 4.4)                  *)
(* ------------------------------------------------------------------ *)

let extension_tests =
  [
    Alcotest.test_case "swapped-out manager delays the next upcall" `Quick
      (fun () ->
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let first_work = ref None in
        let handler delivery =
          let act = delivery.Kernel.uc_activation in
          Kernel.sa_charge k act (Time.ms 1) (fun () ->
              if !first_work = None then first_work := Some (Sim.now sim);
              Kernel.sa_cpu_idle k act)
        in
        let sp =
          Kernel.new_sa_space k ~name:"paged"
            ~client:{ Kernel.on_upcall = handler } ()
        in
        Kernel.swap_out_manager k sp;
        Kernel.sa_add_more_processors k sp 1;
        Sim.run sim;
        (match !first_work with
        | Some t ->
            (* upcall (1.16 ms untuned) + 50 ms page-in + 1 ms work *)
            check Alcotest.bool "delayed by the page-in" true
              (Time.to_ms t > 50.0)
        | None -> Alcotest.fail "no work happened");
        Kernel.check_invariants k);
    Alcotest.test_case "second upcall is not delayed again" `Quick (fun () ->
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let works = ref [] in
        let handler delivery =
          let act = delivery.Kernel.uc_activation in
          Kernel.sa_charge k act (Time.ms 1) (fun () ->
              works := Sim.now sim :: !works;
              Kernel.sa_cpu_idle k act)
        in
        let sp =
          Kernel.new_sa_space k ~name:"paged"
            ~client:{ Kernel.on_upcall = handler } ()
        in
        Kernel.swap_out_manager k sp;
        Kernel.sa_add_more_processors k sp 1;
        Sim.run sim;
        Kernel.sa_add_more_processors k sp 1;
        Sim.run sim;
        match List.rev !works with
        | [ t1; t2 ] ->
            check Alcotest.bool "first delayed" true (Time.to_ms t1 > 50.0);
            check Alcotest.bool "second prompt" true
              (Time.span_to_ms (Time.diff t2 t1) < 10.0)
        | _ -> Alcotest.fail "expected two work completions");
    Alcotest.test_case "debugger stop/resume is invisible to the space"
      `Quick (fun () ->
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let the_act = ref None in
        let done_at = ref None in
        let handler delivery =
          let act = delivery.Kernel.uc_activation in
          the_act := Some act;
          Kernel.sa_charge k act (Time.ms 10) (fun () ->
              done_at := Some (Sim.now sim);
              Kernel.sa_cpu_idle k act)
        in
        let sp =
          Kernel.new_sa_space k ~name:"dbg"
            ~client:{ Kernel.on_upcall = handler } ()
        in
        Kernel.sa_add_more_processors k sp 1;
        (* let the activation start its 10 ms of work, then freeze it for
           20 ms *)
        Sim.run ~until:(Time.of_ns (Time.ms 5)) sim;
        let act = Option.get !the_act in
        let upcalls_before = Kernel.space_upcalls sp in
        Kernel.debug_stop k act;
        ignore
          (Sim.schedule sim
             ~at:(Time.of_ns (Time.ms 25))
             (fun () -> Kernel.debug_resume k act));
        Sim.run sim;
        (match !done_at with
        | Some t ->
            (* 10 ms of work stretched by the 20 ms freeze *)
            check Alcotest.bool "finished after the freeze" true
              (Time.to_ms t >= 25.0)
        | None -> Alcotest.fail "work never finished");
        check Alcotest.int "no upcalls caused by the debugger" upcalls_before
          (Kernel.space_upcalls sp);
        Kernel.check_invariants k);
    Alcotest.test_case "debug_stop of a non-running activation rejected"
      `Quick (fun () ->
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let the_act = ref None in
        let handler delivery =
          let act = delivery.Kernel.uc_activation in
          the_act := Some act;
          Kernel.sa_charge k act (Time.ms 1) (fun () ->
              Kernel.sa_cpu_idle k act)
        in
        let sp =
          Kernel.new_sa_space k ~name:"dbg"
            ~client:{ Kernel.on_upcall = handler } ()
        in
        Kernel.sa_add_more_processors k sp 1;
        Sim.run sim;
        (* activation has been recycled by now *)
        Alcotest.check_raises "not running"
          (Invalid_argument "debug_stop: activation not running") (fun () ->
            Kernel.debug_stop k (Option.get !the_act)));
  ]

(* ------------------------------------------------------------------ *)
(* The allocation policy as pure properties (Section 4.1)              *)
(* ------------------------------------------------------------------ *)

module Alloc_policy = Sa_kernel.Alloc_policy

let qtest = QCheck_alcotest.to_alcotest

let claims_gen =
  QCheck.Gen.(
    let claim i =
      map2
        (fun prio desired -> { Alloc_policy.space = i; priority = prio; desired })
        (int_range 0 2) (int_range 0 8)
    in
    sized_size (int_range 1 6) (fun n ->
        flatten_l (List.init n claim)))

let print_claims cs =
  String.concat ";"
    (List.map
       (fun c ->
         Printf.sprintf "(id=%d,p=%d,d=%d)" c.Alloc_policy.space
           c.Alloc_policy.priority c.Alloc_policy.desired)
       cs)

let claims_arb = QCheck.make claims_gen ~print:print_claims

let with_targets cpus rotation claims f =
  let tg = Alloc_policy.targets ~cpus ~rotation claims in
  let lookup id = List.assoc id tg in
  f tg lookup

let prop_bounded =
  QCheck.Test.make ~name:"targets within [0, desired]" ~count:500
    QCheck.(pair (int_range 0 8) claims_arb)
    (fun (cpus, claims) ->
      with_targets cpus 0 claims (fun tg _ ->
          List.for_all
            (fun (id, v) ->
              let c = List.find (fun c -> c.Alloc_policy.space = id) claims in
              v >= 0 && v <= c.Alloc_policy.desired)
            tg))

let prop_work_conserving =
  QCheck.Test.make ~name:"work conserving: leftovers only when all sated"
    ~count:500
    QCheck.(pair (int_range 0 8) claims_arb)
    (fun (cpus, claims) ->
      with_targets cpus 0 claims (fun tg lookup ->
          let given = List.fold_left (fun a (_, v) -> a + v) 0 tg in
          let total_desired =
            List.fold_left (fun a c -> a + c.Alloc_policy.desired) 0 claims
          in
          ignore lookup;
          given = min cpus total_desired))

let prop_every_space_listed =
  QCheck.Test.make ~name:"every claim appears exactly once" ~count:500
    QCheck.(pair (int_range 0 8) claims_arb)
    (fun (cpus, claims) ->
      with_targets cpus 0 claims (fun tg _ ->
          List.sort compare (List.map fst tg)
          = List.sort compare (List.map (fun c -> c.Alloc_policy.space) claims)))

let prop_priority_dominance =
  QCheck.Test.make ~name:"lower priority gets nothing while higher starves"
    ~count:500
    QCheck.(pair (int_range 0 6) claims_arb)
    (fun (cpus, claims) ->
      with_targets cpus 0 claims (fun tg _ ->
          (* if any high-priority space is unsatisfied, every strictly
             lower-priority space must have 0 *)
          List.for_all
            (fun (id_hi, v_hi) ->
              let hi = List.find (fun c -> c.Alloc_policy.space = id_hi) claims in
              if v_hi >= hi.Alloc_policy.desired then true
              else
                List.for_all
                  (fun (id_lo, v_lo) ->
                    let lo =
                      List.find (fun c -> c.Alloc_policy.space = id_lo) claims
                    in
                    lo.Alloc_policy.priority >= hi.Alloc_policy.priority
                    || v_lo = 0)
                  tg)
            tg))

let prop_even_division =
  QCheck.Test.make ~name:"equal claimants differ by at most one" ~count:500
    QCheck.(pair (int_range 0 8) claims_arb)
    (fun (cpus, claims) ->
      with_targets cpus 0 claims (fun tg lookup ->
          ignore tg;
          List.for_all
            (fun a ->
              List.for_all
                (fun b ->
                  if
                    a.Alloc_policy.space <> b.Alloc_policy.space
                    && a.Alloc_policy.priority = b.Alloc_policy.priority
                    && a.Alloc_policy.desired = b.Alloc_policy.desired
                  then
                    abs (lookup a.Alloc_policy.space - lookup b.Alloc_policy.space)
                    <= 1
                  else true)
                claims)
            claims))

let prop_rotation_is_fair =
  QCheck.Test.make ~name:"rotation cycles the remainder across periods"
    ~count:200
    QCheck.(int_range 1 5)
    (fun n ->
      (* n equal claimants, n+1 processors: one extra rotates *)
      let claims =
        List.init n (fun i ->
            { Alloc_policy.space = i; priority = 0; desired = 2 })
      in
      let cpus = min (2 * n) (n + 1) in
      let totals = Array.make n 0 in
      for r = 0 to (4 * n) - 1 do
        List.iter
          (fun (id, v) -> totals.(id) <- totals.(id) + v)
          (Alloc_policy.targets ~cpus ~rotation:r claims)
      done;
      let mn = Array.fold_left min max_int totals in
      let mx = Array.fold_left max min_int totals in
      mx - mn <= 4 (* each space gets the remainder equally often *))

(* The in-place waterfill against the list-based reference oracle
   (test/alloc_oracle.ml): runs of repeated desires, several priority
   groups, zero desires, distinct ids out of input order, every rotation
   phase up to 3n, and machines both smaller and larger than the total
   desire. *)
let oracle_case_gen =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    let desired =
      frequency [ (1, return 0); (3, int_range 1 4); (1, int_range 5 12) ]
    in
    list_repeat n (pair (int_range 0 3) desired) >>= fun pds ->
    shuffle_l (List.init n (fun i -> (i * 7) + 3)) >>= fun ids ->
    let claims =
      List.map2
        (fun id (priority, desired) ->
          { Alloc_policy.space = id; priority; desired })
        ids pds
    in
    let total =
      List.fold_left (fun a c -> a + c.Alloc_policy.desired) 0 claims
    in
    oneof [ int_range 0 total; int_range total (total + 8) ] >>= fun cpus ->
    int_range 0 (3 * n) >|= fun rotation -> (cpus, rotation, claims))

let prop_matches_oracle =
  QCheck.Test.make ~name:"in-place waterfill matches the list oracle"
    ~count:2000
    (QCheck.make oracle_case_gen ~print:(fun (cpus, rotation, claims) ->
         Printf.sprintf "cpus=%d rotation=%d %s" cpus rotation
           (print_claims claims)))
    (fun (cpus, rotation, claims) ->
      List.sort compare (Alloc_policy.targets ~cpus ~rotation claims)
      = List.sort compare (Alloc_oracle.targets ~cpus ~rotation claims))

let policy_unit_tests =
  [
    Alcotest.test_case "even split of 6 between two hungry spaces" `Quick
      (fun () ->
        let claims =
          [
            { Alloc_policy.space = 1; priority = 0; desired = 6 };
            { Alloc_policy.space = 2; priority = 0; desired = 6 };
          ]
        in
        let tg = Alloc_policy.targets ~cpus:6 ~rotation:0 claims in
        check Alcotest.int "three each (1)" 3 (List.assoc 1 tg);
        check Alcotest.int "three each (2)" 3 (List.assoc 2 tg));
    Alcotest.test_case "unused share redistributes" `Quick (fun () ->
        let claims =
          [
            { Alloc_policy.space = 1; priority = 0; desired = 1 };
            { Alloc_policy.space = 2; priority = 0; desired = 6 };
          ]
        in
        let tg = Alloc_policy.targets ~cpus:6 ~rotation:0 claims in
        check Alcotest.int "small keeps 1" 1 (List.assoc 1 tg);
        check Alcotest.int "big gets 5" 5 (List.assoc 2 tg));
    Alcotest.test_case "priority group served first" `Quick (fun () ->
        let claims =
          [
            { Alloc_policy.space = 1; priority = 10; desired = 4 };
            { Alloc_policy.space = 2; priority = 0; desired = 6 };
          ]
        in
        let tg = Alloc_policy.targets ~cpus:6 ~rotation:0 claims in
        check Alcotest.int "high gets its 4" 4 (List.assoc 1 tg);
        check Alcotest.int "low gets leftovers" 2 (List.assoc 2 tg));
    Alcotest.test_case "duplicate ids rejected" `Quick (fun () ->
        Alcotest.check_raises "dup"
          (Invalid_argument "Alloc_policy.targets: duplicate space ids")
          (fun () ->
            ignore
              (Alloc_policy.targets ~cpus:2 ~rotation:0
                 [
                   { Alloc_policy.space = 1; priority = 0; desired = 1 };
                   { Alloc_policy.space = 1; priority = 0; desired = 1 };
                 ])));
    qtest prop_bounded;
    qtest prop_work_conserving;
    qtest prop_every_space_listed;
    qtest prop_priority_dominance;
    qtest prop_even_division;
    qtest prop_rotation_is_fair;
    qtest prop_matches_oracle;
  ]

let () =
  Alcotest.run "kernel"
    [
      ("native", native_tests);
      ("explicit", explicit_tests);
      ("extensions", extension_tests);
      ("alloc_policy", policy_unit_tests);
    ]
