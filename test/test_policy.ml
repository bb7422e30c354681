(* Backend-parity and schedule-identity tests.

   1. Backend parity: one deterministic mixed workload (forks, yields,
      I/O, locks) run on all three backends must complete everywhere,
      with identical completion totals and full conservation (every
      thread Done, ready queues empty) in the FastThreads cores.

   2. Victim parity: the same workload with the idle processors' steal
      victims drawn at random instead of in [(thief + k) mod n] order
      completes identically — the victim order changes the schedule,
      never the work.

   3. Run-digest identity: the default-seed exploration digest is pinned
      byte-for-byte, so any accidental change to the default schedule
      (e.g. a refactor that reorders queue operations) fails loudly. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module P = Sa_program.Program
module B = P.Build
module Ft_core = Sa_uthread.Ft_core
module System = Sa.System
module Search = Sa_explore.Search

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let n_workers = 40

(* Mixed fork/compute/yield/io/lock program; fully deterministic given a
   backend. *)
let parity_prog () =
  let m = P.Mutex.create ~name:"tally" () in
  let worker i =
    B.(
      to_program
        (let* () = compute (Time.us (30 + (i mod 7) * 10)) in
         let* () = yield in
         let* () = when_ (i mod 3 = 0) (io (Time.us 200)) in
         let* () = critical m (compute (Time.us 5)) in
         compute (Time.us 20)))
  in
  B.(to_program (repeat n_workers (fun i -> fork_unit (worker i))))

let run_once ~backend ?chooser () =
  let sys = System.create ~cpus:4 () in
  Option.iter (fun c -> Sim.set_chooser (System.sim sys) (Some c)) chooser;
  let job = System.submit sys ~backend ~name:"parity" (parity_prog ()) in
  System.run sys;
  job

(* Completion total + conservation audit for a finished job. *)
let audit_ft name job =
  match System.ft_core_state job with
  | None -> Alcotest.failf "%s: expected a FastThreads core" name
  | Some core ->
      let st = Ft_core.stats core in
      check Alcotest.int
        (name ^ ": completions")
        (n_workers + 1) st.Ft_core.completions;
      check Alcotest.int (name ^ ": live") 0 (Ft_core.live_threads core);
      check
        Alcotest.(list int)
        (name ^ ": ready queues drained")
        [] (Ft_core.queued_tids core);
      List.iter
        (fun (state, n) ->
          match state with
          | Ft_core.Done ->
              check Alcotest.int (name ^ ": all done") (n_workers + 1) n
          | _ -> check Alcotest.int (name ^ ": no stragglers") 0 n)
        (Ft_core.state_counts core)

(* ------------------------------------------------------------------ *)
(* 1. Backend parity                                                   *)
(* ------------------------------------------------------------------ *)

let test_backend_parity () =
  let kt = run_once ~backend:(`Fastthreads_on_kthreads 4) () in
  let sa = run_once ~backend:`Fastthreads_on_sa () in
  let direct = run_once ~backend:`Topaz_kthreads () in
  Alcotest.(check bool) "ft_kt finished" true (System.finished kt);
  Alcotest.(check bool) "ft_sa finished" true (System.finished sa);
  Alcotest.(check bool) "kt_direct finished" true (System.finished direct);
  audit_ft "ft_kt" kt;
  audit_ft "ft_sa" sa;
  (* The direct backend has no user-level core or ready lists: the kernel
     schedules its threads, and completion is the kernel's to report. *)
  check Alcotest.bool "kt_direct has no ft core" true
    (System.ft_core_state direct = None)

(* ------------------------------------------------------------------ *)
(* 2. Victim parity                                                    *)
(* ------------------------------------------------------------------ *)

(* A chooser that answers every "steal-victim" pick from a seeded
   generator and leaves every other choice point at its default.  It
   counts the picks it answered, so a run that never swept a peer's list
   cannot pass vacuously. *)
let random_victims seed =
  let rng = Random.State.make [| seed |] in
  let picks = ref 0 in
  let chooser =
    {
      Sim.ch_pick =
        (fun ~site ~arity ~default ->
          if site = "steal-victim" then (
            incr picks;
            Random.State.int rng arity)
          else default);
      ch_draw = (fun ~site:_ ~default -> default);
    }
  in
  (chooser, picks)

let victim_parity name backend () =
  List.iter
    (fun seed ->
      let chooser, picks = random_victims seed in
      let job = run_once ~backend ~chooser () in
      let name = Printf.sprintf "%s/seed %d" name seed in
      Alcotest.(check bool) (name ^ ": finished") true (System.finished job);
      Alcotest.(check bool) (name ^ ": victims were picked") true (!picks > 0);
      audit_ft name job)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* 3. Run-digest identity                                              *)
(* ------------------------------------------------------------------ *)

(* The digest of the default exploration spec under the default chooser.
   This pins the entire default schedule: if ANY refactor perturbs event
   order, queue discipline, or choice-point consumption on the default
   path, this hex changes and the test names the drift.  Recompute with
   [Search.run Search.default_spec] ONLY when a schedule change is
   intended and understood.

   History: was d93bf0b9fb4774aa949c47d8dfe283e1 before the cluster fault
   kinds; the digest input gained the machine-crash / net-partition
   injected counters (both 0 on this single-machine path).  The schedule
   itself — stamps, kernel stats, final time — was verified byte-identical
   across the change. *)
let pinned_digest = "1d2bb9b2de8c3c57dcb4ba74a826a40f"

let test_digest_identity () =
  let r = Search.run Search.default_spec in
  check Alcotest.string "default-seed run digest" pinned_digest
    r.Search.digest

let test_digest_reproducible () =
  let a = Search.run Search.default_spec in
  let b = Search.run Search.default_spec in
  check Alcotest.string "two runs, one digest" a.Search.digest b.Search.digest

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "policy"
    [
      ( "backend-parity",
        [ Alcotest.test_case "all backends, one workload" `Quick
            test_backend_parity ] );
      ( "victim-parity",
        [
          Alcotest.test_case "ft_sa under random steal victims" `Quick
            (victim_parity "ft_sa" `Fastthreads_on_sa);
          Alcotest.test_case "ft_kt under random steal victims" `Quick
            (victim_parity "ft_kt" (`Fastthreads_on_kthreads 4));
        ] );
      ( "schedule-identity",
        [
          Alcotest.test_case "pinned default digest" `Quick
            test_digest_identity;
          Alcotest.test_case "back-to-back determinism" `Quick
            test_digest_reproducible;
        ] );
    ]
