(* Workload-layer tests: the latency microbenchmarks hit the cost model's
   closed forms exactly, and the N-body preparation is deterministic. *)

module Time = Sa_engine.Time
module Cost_model = Sa_hw.Cost_model
module Kconfig = Sa_kernel.Kconfig
module System = Sa.System
module Latency = Sa_workload.Latency
module Recorder = Sa_workload.Recorder
module Nbody = Sa_workload.Nbody

let check = Alcotest.check
let costs = Cost_model.firefly_cvax

let run_bench ?(kconfig = Kconfig.native) backend bench read =
  let sys =
    System.create ~cpus:1 ~kconfig:{ kconfig with Kconfig.daemons = false } ()
  in
  let r = Recorder.create () in
  let _job =
    System.submit sys ~backend ~name:"bench" ~observer:(Recorder.observer r)
      (bench ~iters:100)
  in
  System.run sys;
  read r

let expect_us name expected measured =
  check (Alcotest.float 0.51) name (Time.span_to_us expected) measured

let recorder_tests =
  [
    Alcotest.test_case "stamps and deltas" `Quick (fun () ->
        let r = Recorder.create () in
        Recorder.observer r 0 (Time.of_ns (Time.us 10));
        Recorder.observer r 0 (Time.of_ns (Time.us 30));
        Recorder.observer r 0 (Time.of_ns (Time.us 60));
        check Alcotest.int "count" 3 (Recorder.count r);
        check (Alcotest.array (Alcotest.float 1e-9)) "deltas" [| 20.0; 30.0 |]
          (Recorder.deltas r);
        check (Alcotest.array (Alcotest.float 1e-9)) "skip" [| 30.0 |]
          (Recorder.deltas ~skip:1 r);
        check (Alcotest.float 1e-9) "mean" 25.0 (Recorder.mean_delta r));
    Alcotest.test_case "mean of no deltas fails" `Quick (fun () ->
        let r = Recorder.create () in
        Recorder.observer r 0 Time.zero;
        Alcotest.check_raises "empty"
          (Failure "Recorder.mean_delta: not enough stamps") (fun () ->
            ignore (Recorder.mean_delta r)));
  ]

let latency_tests =
  [
    Alcotest.test_case "Null Fork matches Table 1 exactly (FT)" `Quick
      (fun () ->
        let v =
          run_bench (`Fastthreads_on_kthreads 1)
            (fun ~iters -> Latency.null_fork ~iters ())
            Latency.null_fork_latency
        in
        expect_us "34 us" (Cost_model.null_fork_expected costs `Fastthreads) v);
    Alcotest.test_case "Null Fork matches Table 4 exactly (SA)" `Quick
      (fun () ->
        let v =
          run_bench ~kconfig:Kconfig.default `Fastthreads_on_sa
            (fun ~iters -> Latency.null_fork ~iters ())
            Latency.null_fork_latency
        in
        expect_us "37 us" (Cost_model.null_fork_expected costs `Sa) v);
    Alcotest.test_case "Null Fork matches Table 1 exactly (Topaz)" `Quick
      (fun () ->
        let v =
          run_bench `Topaz_kthreads
            (fun ~iters -> Latency.null_fork ~iters ())
            Latency.null_fork_latency
        in
        expect_us "948 us" (Cost_model.null_fork_expected costs `Topaz) v);
    Alcotest.test_case "Null Fork matches Table 1 exactly (Ultrix)" `Quick
      (fun () ->
        let v =
          run_bench `Ultrix_processes
            (fun ~iters -> Latency.null_fork ~iters ())
            Latency.null_fork_latency
        in
        expect_us "11300 us" (Cost_model.null_fork_expected costs `Ultrix) v);
    Alcotest.test_case "Signal-Wait matches tables on all systems" `Quick
      (fun () ->
        let ft =
          run_bench (`Fastthreads_on_kthreads 1) Latency.signal_wait
            Latency.signal_wait_latency
        in
        expect_us "FT 37" (Cost_model.signal_wait_expected costs `Fastthreads) ft;
        let sa =
          run_bench ~kconfig:Kconfig.default `Fastthreads_on_sa
            Latency.signal_wait Latency.signal_wait_latency
        in
        expect_us "SA 42" (Cost_model.signal_wait_expected costs `Sa) sa;
        let topaz =
          run_bench `Topaz_kthreads Latency.signal_wait
            Latency.signal_wait_latency
        in
        expect_us "Topaz 441" (Cost_model.signal_wait_expected costs `Topaz)
          topaz;
        let ultrix =
          run_bench `Ultrix_processes Latency.signal_wait
            Latency.signal_wait_latency
        in
        expect_us "Ultrix 1840" (Cost_model.signal_wait_expected costs `Ultrix)
          ultrix);
    Alcotest.test_case "upcall Signal-Wait ~2.4ms untuned, ~Topaz tuned"
      `Quick (fun () ->
        let untuned =
          run_bench ~kconfig:Kconfig.default `Fastthreads_on_sa
            Latency.upcall_signal_wait Latency.upcall_signal_wait_latency
        in
        check Alcotest.bool "2.2ms..2.6ms" true
          (untuned > 2200.0 && untuned < 2600.0);
        let tuned =
          run_bench
            ~kconfig:{ Kconfig.default with Kconfig.tuned_upcalls = true }
            `Fastthreads_on_sa Latency.upcall_signal_wait
            Latency.upcall_signal_wait_latency
        in
        check Alcotest.bool "tuned within 30% of Topaz" true
          (tuned > 441.0 *. 0.7 && tuned < 441.0 *. 1.3));
  ]

let nbody_tests =
  [
    Alcotest.test_case "prepare is deterministic" `Quick (fun () ->
        let p = { Nbody.default_params with n_bodies = 60; steps = 2 } in
        let a = Nbody.prepare p and b = Nbody.prepare p in
        check Alcotest.int "same interactions" a.Nbody.total_interactions
          b.Nbody.total_interactions;
        check Alcotest.int "same seq time" a.Nbody.seq_time b.Nbody.seq_time);
    Alcotest.test_case "task and block accounting" `Quick (fun () ->
        let p =
          { Nbody.default_params with n_bodies = 100; steps = 3; chunk = 4 }
        in
        let prep = Nbody.prepare p in
        check Alcotest.int "tasks" (25 * 3) prep.Nbody.tasks;
        check Alcotest.int "blocks" 20 prep.Nbody.blocks;
        check Alcotest.int "cap 50%" 10 (Nbody.cache_capacity prep ~percent:50);
        check Alcotest.int "cap 0%" 0 (Nbody.cache_capacity prep ~percent:0));
    Alcotest.test_case "seq_time dominated by interactions" `Quick (fun () ->
        let prep = Nbody.prepare { Nbody.default_params with steps = 2 } in
        let interact_time =
          prep.Nbody.total_interactions
          * Nbody.default_params.Nbody.per_interaction
        in
        check Alcotest.bool "interactions are most of it" true
          (float_of_int interact_time
          > 0.5 *. float_of_int prep.Nbody.seq_time));
    Alcotest.test_case "program runs and matches seq time on 1 cpu (FT)"
      `Quick (fun () ->
        let p = { Nbody.default_params with n_bodies = 40; steps = 2 } in
        let prep = Nbody.prepare p in
        let sys = System.create ~cpus:1 ~kconfig:Kconfig.native () in
        let job =
          System.submit sys ~backend:(`Fastthreads_on_kthreads 1) ~name:"nb"
            prep.Nbody.program
        in
        System.run sys;
        match System.elapsed job with
        | Some d ->
            let ratio =
              float_of_int d /. float_of_int prep.Nbody.seq_time
            in
            (* thread overhead adds a few percent on one processor *)
            check Alcotest.bool "within 15% of sequential" true
              (ratio > 1.0 && ratio < 1.15)
        | None -> Alcotest.fail "did not finish");
    Alcotest.test_case "prewarm makes a 100%-memory run hit" `Quick (fun () ->
        let p = { Nbody.default_params with n_bodies = 60; steps = 2 } in
        let prep = Nbody.prepare p in
        let sys = System.create ~cpus:2 ~kconfig:Kconfig.default () in
        let job =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"nb"
            ~cache_capacity:(Nbody.cache_capacity prep ~percent:100)
            prep.Nbody.program
        in
        System.run sys;
        match System.cache job with
        | Some cache ->
            check Alcotest.int "no misses at 100%" 0
              (Sa_hw.Buffer_cache.misses cache)
        | None -> Alcotest.fail "cache expected");
    Alcotest.test_case "Topaz threads finish under coalesced cache misses"
      `Quick (fun () ->
        (* A thread that sees [Miss_in_flight] charges the kernel block
           path before it registers as a waiter; on these seeds the fill
           lands inside that charge, so without a re-check the waiter (and
           the main thread's join) sleeps forever. *)
        List.iter
          (fun seed ->
            let prep =
              Nbody.prepare
                { Nbody.default_params with n_bodies = 1000; steps = 4; seed }
            in
            let sys = System.create ~cpus:6 ~kconfig:Kconfig.native () in
            let job =
              System.submit sys ~backend:`Topaz_kthreads ~name:"nb"
                ~cache_capacity:(Nbody.cache_capacity prep ~percent:50)
                prep.Nbody.program
            in
            System.run sys;
            check Alcotest.bool
              (Printf.sprintf "seed %d finishes" seed)
              true (System.finished job))
          [ 4; 14; 17 ]);
  ]

module Server = Sa_workload.Server

let server_tests =
  [
    Alcotest.test_case "all requests complete with correct stats" `Quick
      (fun () ->
        let params =
          { Server.default_params with Server.requests = 40 }
        in
        let prog = Server.program params in
        let sys =
          System.create ~cpus:4 ~kconfig:Kconfig.default ()
        in
        let r = Sa_workload.Recorder.create () in
        let _job =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"srv"
            ~observer:(Sa_workload.Recorder.observer r) prog
        in
        System.run sys;
        let s = Server.summarize r params in
        check Alcotest.int "completed" 40 s.Server.completed;
        check Alcotest.bool "percentiles ordered" true
          (s.Server.p50_us <= s.Server.p95_us
          && s.Server.p95_us <= s.Server.p99_us
          && s.Server.p99_us <= s.Server.max_us);
        check Alcotest.bool "latency at least the io floor" true
          (s.Server.max_us >= 20_000.0));
    Alcotest.test_case "program is deterministic in its seed" `Quick
      (fun () ->
        let params = { Server.default_params with Server.requests = 30 } in
        let run () =
          let prog = Server.program params in
          let sys = System.create ~cpus:2 ~kconfig:Kconfig.default () in
          let r = Sa_workload.Recorder.create () in
          let _job =
            System.submit sys ~backend:`Fastthreads_on_sa ~name:"srv"
              ~observer:(Sa_workload.Recorder.observer r) prog
          in
          System.run sys;
          (Server.summarize r params).Server.mean_us
        in
        check (Alcotest.float 1e-9) "same mean" (run ()) (run ()));
    Alcotest.test_case "orig FT tail collapses under I/O load" `Slow
      (fun () ->
        let params = Server.default_params in
        let prog = Server.program params in
        let run kconfig backend =
          let sys = System.create ~cpus:4 ~kconfig () in
          let r = Sa_workload.Recorder.create () in
          let _job =
            System.submit sys ~backend ~name:"srv"
              ~observer:(Sa_workload.Recorder.observer r) prog
          in
          System.run sys;
          (Server.summarize r params).Server.p99_us
        in
        let orig = run Kconfig.native (`Fastthreads_on_kthreads 4) in
        let sa = run Kconfig.default `Fastthreads_on_sa in
        check Alcotest.bool "orig p99 at least 5x worse" true
          (orig > 5.0 *. sa));
    Alcotest.test_case "makespan ends at the last completion" `Quick
      (fun () ->
        (* A run cut short may record a trailing arrival with no matching
           completion; the makespan used to stretch to that arrival. *)
        let r = Recorder.create () in
        let at us = Time.of_ns (Time.us us) in
        Recorder.observer r 0 (at 10);
        Recorder.observer r 1 (at 20);
        Recorder.observer r 2 (at 1000);
        let params = { Server.default_params with Server.requests = 2 } in
        let s = Server.summarize ~allow_incomplete:true r params in
        check Alcotest.int "completed" 1 s.Server.completed;
        check (Alcotest.float 1e-9) "makespan_ms" 0.01 s.Server.makespan_ms;
        let ts =
          Server.summarize_tenant ~allow_incomplete:true r ~requests:2
            ~slo:(Time.ms 1)
        in
        check (Alcotest.float 1e-9) "tenant makespan_ms" 0.01
          ts.Server.ts_makespan_ms;
        check Alcotest.int "tenant completed" 1 ts.Server.ts_completed);
  ]

(* ------------------------------------------------------------------ *)
(* Multi-tenant serving                                                *)
(* ------------------------------------------------------------------ *)

let run_tenants params ~cpus =
  let sys = System.create ~cpus () in
  let tenants =
    List.init params.Server.mt_tenants (fun i ->
        let r = Recorder.create () in
        let cls = Server.tenant_class params i in
        let _job =
          System.submit sys ~backend:`Fastthreads_on_sa
            ~name:(Server.tenant_name params i)
            ~space_priority:cls.Server.tc_priority
            ~observer:(Recorder.observer r)
            (Server.tenant_program params i)
        in
        (i, cls, r))
  in
  System.run sys;
  List.map
    (fun (i, cls, r) ->
      ( i,
        Server.summarize_tenant r ~requests:params.Server.mt_requests
          ~slo:cls.Server.tc_slo ))
    tenants

let serve_tests =
  [
    Alcotest.test_case "every tenant's requests complete with sane stats"
      `Quick (fun () ->
        let params =
          { Server.default_mt_params with Server.mt_tenants = 3; mt_requests = 25 }
        in
        let summaries = run_tenants params ~cpus:8 in
        check Alcotest.int "tenants" 3 (List.length summaries);
        List.iter
          (fun (i, s) ->
            let name = Server.tenant_name params i in
            check Alcotest.int (name ^ " completed") 25 s.Server.ts_completed;
            check Alcotest.bool (name ^ " percentiles ordered") true
              (s.Server.ts_p50_us <= s.Server.ts_p99_us
              && s.Server.ts_p99_us <= s.Server.ts_p999_us
              && s.Server.ts_p999_us <= s.Server.ts_max_us);
            check Alcotest.bool (name ^ " violation_frac in range") true
              (s.Server.ts_violation_frac >= 0.0
              && s.Server.ts_violation_frac <= 1.0);
            check Alcotest.bool (name ^ " violations consistent") true
              (s.Server.ts_violations <= s.Server.ts_completed);
            check Alcotest.bool (name ^ " makespan positive") true
              (s.Server.ts_makespan_ms > 0.0))
          summaries);
    Alcotest.test_case "a tenant's arrivals ignore other tenants" `Quick
      (fun () ->
        (* Tenant 1's program depends only on (seed, index): running it
           alone or alongside five others must observe identical arrival
           stamps (completions may differ under contention). *)
        let arrivals params =
          let sys = System.create ~cpus:16 () in
          let r = Recorder.create () in
          let _job =
            System.submit sys ~backend:`Fastthreads_on_sa ~name:"t1"
              ~observer:(Recorder.observer r)
              (Server.tenant_program params 1)
          in
          System.run sys;
          List.filter (fun (id, _) -> id mod 2 = 0) (Recorder.stamps r)
        in
        let small =
          { Server.default_mt_params with Server.mt_tenants = 2; mt_requests = 15 }
        in
        let large = { small with Server.mt_tenants = 6 } in
        check Alcotest.bool "same arrivals" true
          (arrivals small = arrivals large));
    Alcotest.test_case "serving run is deterministic in its seed" `Quick
      (fun () ->
        let params =
          { Server.default_mt_params with Server.mt_tenants = 3; mt_requests = 20 }
        in
        let fingerprint () =
          List.map
            (fun (_, s) ->
              (s.Server.ts_p99_us, s.Server.ts_makespan_ms))
            (run_tenants params ~cpus:8)
        in
        check Alcotest.bool "same stats" true (fingerprint () = fingerprint ()));
    Alcotest.test_case "latency histogram percentiles are accurate" `Quick
      (fun () ->
        (* The accumulator summarize_tenant uses: feed 1..1000 us and
           expect every percentile within the documented 0.8% bound. *)
        let h = Server.latency_histogram () in
        for i = 1 to 1000 do
          Sa_engine.Stats.Log_histogram.add h (float_of_int i)
        done;
        List.iter
          (fun p ->
            let exact = ceil (p /. 100.0 *. 1000.0) in
            let approx = Sa_engine.Stats.Log_histogram.percentile h p in
            check Alcotest.bool
              (Printf.sprintf "p%g within bound" p)
              true
              (Float.abs (approx -. exact) <= 0.008 *. exact))
          [ 50.0; 90.0; 99.0; 99.9 ]);
  ]

let () =
  Alcotest.run "workload"
    [
      ("recorder", recorder_tests);
      ("latency", latency_tests);
      ("nbody", nbody_tests);
      ("server", server_tests);
      ("serve", serve_tests);
    ]
