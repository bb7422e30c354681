(* Chaos subsystem: deterministic fault injection + invariant checking.

   The unit tests pin down the fault-absorption machinery (guarded wakeups,
   retry-with-backoff, cache invalidation); the campaign tests run short
   seeded sweeps in both kernel personalities and require zero invariant
   violations, plus bit-identical statistics when a seed is replayed. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module Io_device = Sa_hw.Io_device
module Buffer_cache = Sa_hw.Buffer_cache
module Campaign = Sa_fault.Campaign
module Injector = Sa_fault.Injector

let span = Alcotest.testable Time.pp_span ( = )

(* --- hardware-level fault hooks ------------------------------------- *)

let test_io_device_retry () =
  let sim = Sim.create () in
  let dev = Io_device.create sim (Io_device.Fixed_latency (Time.ms 1)) in
  (* Fail the first two completion attempts, then let it through. *)
  let remaining = ref 2 in
  Io_device.set_fault_hook dev
    (Some
       (fun () ->
         if !remaining > 0 then begin
           decr remaining;
           Some Io_device.Fault_transient_error
         end
         else None));
  let done_at = ref None in
  Io_device.submit dev (fun () -> done_at := Some (Sim.now sim));
  Sim.run sim;
  (* 1 ms nominal + 100 us + 200 us of backoff. *)
  Alcotest.(check span)
    "retries add backoff"
    (Time.ms 1 + Time.us 100 + Time.us 200)
    (match !done_at with
    | Some t -> Time.diff t Time.zero
    | None -> Alcotest.fail "request never completed");
  Alcotest.(check int) "two retries counted" 2 (Io_device.retries dev);
  Alcotest.(check int) "one completion" 1 (Io_device.completed dev)

let test_io_device_delay () =
  let sim = Sim.create () in
  let dev = Io_device.create sim (Io_device.Fixed_latency (Time.ms 1)) in
  let first = ref true in
  Io_device.set_fault_hook dev
    (Some
       (fun () ->
         if !first then begin
           first := false;
           Some (Io_device.Fault_delay (Time.us 500))
         end
         else None));
  let done_at = ref None in
  Io_device.submit dev (fun () -> done_at := Some (Sim.now sim));
  Sim.run sim;
  Alcotest.(check span)
    "delay postpones the interrupt"
    (Time.ms 1 + Time.us 500)
    (match !done_at with
    | Some t -> Time.diff t Time.zero
    | None -> Alcotest.fail "request never completed");
  Alcotest.(check int) "no retries for a delay" 0 (Io_device.retries dev);
  Alcotest.(check int) "fault counted" 1 (Io_device.faults dev)

let test_cache_chaos_invalidation () =
  let c = Buffer_cache.create ~capacity:4 in
  (match Buffer_cache.access c 7 with
  | Buffer_cache.Miss -> Buffer_cache.fill c 7
  | _ -> Alcotest.fail "expected a cold miss");
  Alcotest.(check bool) "resident" true (Buffer_cache.resident c 7);
  Buffer_cache.set_chaos_hook c (Some (fun () -> true));
  (match Buffer_cache.access c 7 with
  | Buffer_cache.Miss -> ()
  | Buffer_cache.Hit -> Alcotest.fail "chaos hook should force a miss"
  | Buffer_cache.Miss_in_flight -> Alcotest.fail "not in flight yet");
  Alcotest.(check bool) "invalidated" false (Buffer_cache.resident c 7);
  Alcotest.(check int) "counted" 1 (Buffer_cache.chaos_invalidations c);
  (* The forced miss reserved the in-flight slot like any other miss. *)
  (match Buffer_cache.access c 7 with
  | Buffer_cache.Miss_in_flight -> ()
  | _ -> Alcotest.fail "fill should be in flight");
  Buffer_cache.set_chaos_hook c None;
  Buffer_cache.fill c 7;
  match Buffer_cache.access c 7 with
  | Buffer_cache.Hit -> ()
  | _ -> Alcotest.fail "hook cleared, hit again"

(* --- kernel-level guarded completions -------------------------------- *)

(* A spurious completion wakes the blocked thread early, exactly once; the
   real completion is absorbed and counted as dropped. *)
let test_spurious_absorbed () =
  let kcfg = { Kconfig.native with Kconfig.daemons = false } in
  let sys = Sa.System.create ~cpus:1 ~kconfig:kcfg () in
  let kern = Sa.System.kernel sys in
  let sim = Sa.System.sim sys in
  let prog =
    Sa_program.Program.Build.(to_program (io (Time.ms 5)))
  in
  let job = Sa.System.submit sys ~backend:`Topaz_kthreads ~name:"io" prog in
  (* Let the thread reach its I/O block, then fire the completion early. *)
  Sim.run_for sim (Time.ms 1);
  Alcotest.(check int) "one I/O in flight" 1 (Kernel.io_inflight_count kern);
  Alcotest.(check bool)
    "spurious fired" true
    (Kernel.chaos_spurious_completion kern ~pick:0);
  Sa.System.run sys;
  Alcotest.(check bool) "job finished" true (Sa.System.finished job);
  (match Sa.System.elapsed job with
  | Some d ->
      Alcotest.(check bool)
        "finished before the nominal 5 ms I/O" true (d < Time.ms 5)
  | None -> Alcotest.fail "no elapsed time");
  (* Drain the queue so the real (absorbed) completion event fires. *)
  Sim.run sim;
  let st = Kernel.stats kern in
  Alcotest.(check int) "spurious counted" 1 st.Kernel.spurious_fired;
  Alcotest.(check int) "real completion dropped" 1 st.Kernel.spurious_dropped

let test_kernel_io_fault_retry () =
  let kcfg = { Kconfig.native with Kconfig.daemons = false } in
  let sys = Sa.System.create ~cpus:1 ~kconfig:kcfg () in
  let kern = Sa.System.kernel sys in
  let remaining = ref 3 in
  Kernel.set_io_fault_injector kern
    (Some
       (fun () ->
         if !remaining > 0 then begin
           decr remaining;
           Some Kernel.Io_transient_error
         end
         else None));
  let prog = Sa_program.Program.Build.(to_program (io (Time.ms 2))) in
  let job = Sa.System.submit sys ~backend:`Topaz_kthreads ~name:"io" prog in
  Sa.System.run sys;
  Alcotest.(check bool) "job finished" true (Sa.System.finished job);
  let st = Kernel.stats kern in
  Alcotest.(check int) "faults counted" 3 st.Kernel.io_faults;
  Alcotest.(check int) "retries counted" 3 st.Kernel.io_retries;
  match Sa.System.elapsed job with
  | Some d ->
      (* 200 + 400 + 800 us of backoff on top of the nominal latency. *)
      Alcotest.(check bool)
        "backoff delayed completion" true
        (d >= Time.ms 2 + Time.us 1400)
  | None -> Alcotest.fail "no elapsed time"

(* --- campaigns -------------------------------------------------------- *)

let quick_config =
  {
    Campaign.default with
    Campaign.horizon = Time.s 5;
    cpus = 3;
  }

let check_clean r =
  match r.Campaign.outcome with
  | Campaign.Completed _ -> ()
  | Campaign.Violation msg | Campaign.No_completion msg ->
      Alcotest.fail
        (Format.asprintf "%a:\n%s" Campaign.pp_result r msg)

let test_campaign_explicit () =
  List.iter
    (fun seed ->
      check_clean
        (Campaign.run_seed ~config:quick_config
           ~mode:Kconfig.Explicit_allocation seed))
    [ 11; 12; 13; 14 ]

let test_campaign_native () =
  List.iter
    (fun seed ->
      check_clean
        (Campaign.run_seed ~config:quick_config ~mode:Kconfig.Native_oblivious
           seed))
    [ 11; 12; 13; 14 ]

let test_campaign_deterministic () =
  let run () =
    Campaign.run_seed ~config:quick_config ~mode:Kconfig.Explicit_allocation 99
  in
  let a = run () and b = run () in
  check_clean a;
  Alcotest.(check bool)
    "same seed, identical kernel statistics" true
    (a.Campaign.kstats = b.Campaign.kstats);
  Alcotest.(check bool)
    "same seed, identical injection counts" true
    (a.Campaign.injected = b.Campaign.injected);
  Alcotest.(check bool)
    "same seed, identical outcome" true
    (a.Campaign.outcome = b.Campaign.outcome)

let test_audits_ran () =
  let r =
    Campaign.run_seed ~config:quick_config ~mode:Kconfig.Explicit_allocation 7
  in
  check_clean r;
  Alcotest.(check bool) "auditor ran" true (r.Campaign.audits > 0);
  let injected k = List.assoc k r.Campaign.injected in
  Alcotest.(check bool) "preemptions injected" true (injected "preempt" > 0)

(* The campaign machinery under the Psyche/Symunix warning protocol: the
   periodic audit re-derives every space's [sp_warned] count from the slot
   table while forced preemptions, priority flaps and daemon storms move
   processors between two SA spaces of different priority. *)
let test_campaign_warning () =
  let module System = Sa.System in
  let module Program = Sa_program.Program in
  let module B = Program.Build in
  let job ~threads =
    let m = Program.Mutex.create ~name:"warn-mutex" () in
    let worker =
      B.to_program
        B.(
          repeat 20 (fun _ ->
              let* () = compute (Time.us 150) in
              let* () = critical m (compute (Time.us 30)) in
              yield))
    in
    let rec fork_all n acc =
      if n = 0 then B.return acc
      else B.( let* ) (B.fork worker) (fun tid -> fork_all (n - 1) (tid :: acc))
    in
    B.to_program B.(let* tids = fork_all threads [] in iter_list tids join)
  in
  List.iter
    (fun seed ->
      let kconfig =
        {
          Kconfig.default with
          Kconfig.seed;
          preempt_warning = Some (Time.us 300);
        }
      in
      let sys = System.create ~cpus:3 ~kconfig () in
      let warnings = ref 0 in
      Sa_engine.Trace.add_sink (Sim.trace (System.sim sys)) (fun r ->
          if
            String.starts_with ~prefix:"allocator: warn "
              (Sa_engine.Trace.render_message r)
          then incr warnings);
      let low =
        System.submit sys ~backend:`Fastthreads_on_sa ~name:"low"
          (job ~threads:4)
      in
      let checker =
        Sa_fault.Invariant.attach ~label:"warning" ~seed sys
      in
      let injector = Injector.attach ~seed sys in
      System.run_span sys (Time.ms 2);
      let high =
        System.submit sys ~backend:`Fastthreads_on_sa ~name:"high"
          ~space_priority:1 (job ~threads:2)
      in
      System.run ~horizon:(Time.s 5) sys;
      Alcotest.(check bool) "both jobs finish" true
        (System.finished low && System.finished high);
      Alcotest.(check bool) "auditor ran" true
        (Sa_fault.Invariant.audits checker > 0);
      Alcotest.(check bool) "preemptions injected" true
        (List.assoc "preempt" (Injector.injected injector) > 0);
      Alcotest.(check bool) "warnings issued" true (!warnings > 0))
    [ 11; 12; 13 ]

let () =
  Alcotest.run "fault"
    [
      ( "hw-hooks",
        [
          Alcotest.test_case "io device retries transient errors" `Quick
            test_io_device_retry;
          Alcotest.test_case "io device honours injected delays" `Quick
            test_io_device_delay;
          Alcotest.test_case "cache chaos invalidation forces a miss" `Quick
            test_cache_chaos_invalidation;
        ] );
      ( "kernel-hooks",
        [
          Alcotest.test_case "spurious completion absorbed by the guard"
            `Quick test_spurious_absorbed;
          Alcotest.test_case "kernel retries faulted completions with backoff"
            `Quick test_kernel_io_fault_retry;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "explicit-mode seeds run clean" `Quick
            test_campaign_explicit;
          Alcotest.test_case "native-mode seeds run clean" `Quick
            test_campaign_native;
          Alcotest.test_case "same seed, same trajectory" `Quick
            test_campaign_deterministic;
          Alcotest.test_case "audits and injections actually happen" `Quick
            test_audits_ran;
          Alcotest.test_case "warned-slot counts hold under injection" `Quick
            test_campaign_warning;
        ] );
    ]
