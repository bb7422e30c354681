(* Smoke tests for the experiment runners and report formatting: every
   runner executes on reduced workloads and produces structurally sound
   results; printing never raises. *)

module Nbody = Sa_workload.Nbody
module E = Sa_metrics.Experiments
module R = Sa_metrics.Report

let check = Alcotest.check
let tiny = { Nbody.default_params with Nbody.n_bodies = 60; steps = 2 }

let runner_tests =
  [
    Alcotest.test_case "table1 has three systems" `Quick (fun () ->
        let rows = E.table1 ~iters:20 () in
        check Alcotest.int "rows" 3 (List.length rows);
        List.iter
          (fun r ->
            check Alcotest.bool "positive latencies" true
              (r.E.null_fork_us > 0.0 && r.E.signal_wait_us > 0.0))
          rows);
    Alcotest.test_case "table4 adds the SA row" `Quick (fun () ->
        let rows = E.table4 ~iters:20 () in
        check Alcotest.int "rows" 4 (List.length rows);
        check Alcotest.bool "SA row present" true
          (List.exists
             (fun r -> r.E.system = "FastThreads on Scheduler Activations")
             rows));
    Alcotest.test_case "figure1 covers 1..6 processors x 3 systems" `Quick
      (fun () ->
        let series = E.figure1 ~params:tiny () in
        check Alcotest.int "series" 3 (List.length series);
        List.iter
          (fun s ->
            check Alcotest.int (s.E.series ^ " points") 6
              (List.length s.E.points);
            List.iter
              (fun p ->
                check Alcotest.bool "positive speedup" true (p.E.speedup > 0.0))
              s.E.points)
          series);
    Alcotest.test_case "figure2 covers the memory sweep" `Quick (fun () ->
        let series = E.figure2 ~params:tiny () in
        check Alcotest.int "series" 3 (List.length series);
        List.iter
          (fun s ->
            check Alcotest.int "seven points" 7 (List.length s.E.io_points))
          series);
    Alcotest.test_case "table5 runs two jobs per system" `Quick (fun () ->
        let rows = E.table5 ~params:tiny () in
        check Alcotest.int "rows" 3 (List.length rows);
        List.iter
          (fun r ->
            check Alcotest.bool "speedup within bounds" true
              (r.E.mp_speedup > 0.0 && r.E.mp_speedup <= 3.5))
          rows);
    Alcotest.test_case "hysteresis ablation returns paired rows" `Quick
      (fun () ->
        let rows = E.ablation_hysteresis ~params:tiny ~spins_ms:[ 1; 5 ] () in
        check Alcotest.int "two rows per setting" 4 (List.length rows));
    Alcotest.test_case "rotation ablation improves fairness" `Quick (fun () ->
        let rows = E.ablation_remainder_rotation ~params:tiny () in
        check Alcotest.int "six rows" 6 (List.length rows);
        let unfair label =
          (List.find (fun r -> r.E.a_label = label) rows).E.a_value
        in
        (* with rotation on, the two equal jobs should end closer together *)
        check Alcotest.bool "rotation reduces or matches unfairness" true
          (unfair "rotation on:  unfairness |j1-j2|/avg"
          <= unfair "rotation off: unfairness |j1-j2|/avg" +. 0.05));
  ]

let report_tests =
  [
    Alcotest.test_case "all printers run without raising" `Quick (fun () ->
        (* Redirect is unnecessary: printers write to stdout, and alcotest
           captures test output. *)
        List.iter
          (R.print ~title:"t")
          [
            E.Latency (E.table1 ~iters:10 ());
            E.Speedup (E.figure1 ~params:tiny ());
            E.Exec_time (E.figure2 ~params:tiny ());
            E.Multiprog (E.table5 ~params:tiny ());
            E.Upcalls (E.upcall_performance ~iters:10 ());
            E.Ablation (E.ablation_activation_pooling ~iters:10 ());
            E.Server
              [
                {
                  E.s_system = "s";
                  s_mean_us = 1.0;
                  s_p95_us = 2.0;
                  s_p99_us = Float.nan;
                };
              ];
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* The JSON results path                                               *)
(* ------------------------------------------------------------------ *)

module Json = Sa_engine.Json
module J = Json_check

let member_exn key v =
  match J.member key v with
  | Some x -> x
  | None -> Alcotest.failf "missing key %S" key

let keys = function
  | J.Obj kvs -> List.map fst kvs
  | _ -> Alcotest.fail "expected an object"

(* Json_check's tree for a value [Json.add] writes. *)
let rec expected = function
  | Json.Null -> J.Null
  | Json.Bool b -> J.Bool b
  | Json.Int n -> J.Num (float_of_int n)
  | Json.Float v -> J.Num v
  | Json.String s -> J.Str s
  | Json.List l -> J.Arr (List.map expected l)
  | Json.Obj kvs -> J.Obj (List.map (fun (k, v) -> (k, expected v)) kvs)

let known_kinds =
  [ "latency"; "speedup"; "exec-time"; "multiprog"; "upcalls"; "ablation"; "server" ]

let json_tests =
  [
    Alcotest.test_case "strings escape and round-trip" `Quick (fun () ->
        let s = "q\"b\\n\nt\tr\rc\001." in
        check Alcotest.string "escaped" {|"q\"b\\n\nt\tr\rc\u0001."|}
          (Json.to_string (Json.String s));
        check Alcotest.string "round-trip" s
          (J.str (J.parse (Json.to_string (Json.String s)))));
    Alcotest.test_case "NaN and infinities encode as null" `Quick (fun () ->
        List.iter
          (fun v ->
            check Alcotest.string (string_of_float v) "null"
              (Json.to_string (Json.Float v)))
          [ Float.nan; Float.infinity; Float.neg_infinity ]);
    Alcotest.test_case "numbers: integers exact, floats %.6g" `Quick (fun () ->
        List.iter
          (fun (v, want) -> check Alcotest.string want want (Json.to_string v))
          [
            (Json.Int 0, "0");
            (Json.Int (-42), "-42");
            (Json.Int 1_059_374, "1059374");
            (Json.Float 2.0, "2");
            (Json.Float 0.1, "0.1");
            (Json.Float 1234567.0, "1.23457e+06");
            (Json.Float (-3.25e-7), "-3.25e-07");
          ]);
    Alcotest.test_case "objects and lists nest" `Quick (fun () ->
        let v =
          Json.Obj
            [
              ("a", Json.List [ Json.Int 1; Json.Obj [ ("b", Json.Null) ] ]);
              ("c", Json.Bool true);
              ("d", Json.List []);
              ("e", Json.Obj [ ("f", Json.String "g"); ("h", Json.Bool false) ]);
            ]
        in
        let text = Json.to_string v in
        check Alcotest.string "compact"
          {|{"a":[1,{"b":null}],"c":true,"d":[],"e":{"f":"g","h":false}}|} text;
        check Alcotest.bool "parses back to the same tree" true
          (J.parse text = expected v));
    Alcotest.test_case "table names are distinct and resolve" `Quick
      (fun () ->
        check Alcotest.int "16 entries" 16 (List.length E.table);
        check Alcotest.int "distinct" (List.length E.names)
          (List.length (List.sort_uniq compare E.names));
        List.iter
          (fun n ->
            check Alcotest.bool n true
              (Option.map (fun (e : E.entry) -> e.name) (E.find n) = Some n))
          E.names;
        check Alcotest.bool "unknown" true (E.find "nosuch" = None));
    Alcotest.test_case "the full document has every entry, each of a known kind"
      `Slow (fun () ->
        let doc =
          J.parse (R.document (List.map R.experiment_section E.table))
        in
        check (Alcotest.list Alcotest.string) "members in table order" E.names
          (keys doc);
        List.iter
          (fun (e : E.entry) ->
            let sec = member_exn e.name doc in
            let k = J.str (member_exn "kind" sec) in
            check Alcotest.bool (e.name ^ " kind " ^ k) true
              (List.mem k known_kinds);
            check Alcotest.string "title" e.title
              (J.str (member_exn "title" sec)))
          E.table);
    Alcotest.test_case "an experiment document parses with its keys" `Quick
      (fun () ->
        let e = Option.get (E.find "table1") in
        let doc = J.parse (R.document [ R.experiment_section e ]) in
        check (Alcotest.list Alcotest.string) "one section" [ "table1" ]
          (keys doc);
        let sec = member_exn "table1" doc in
        check (Alcotest.list Alcotest.string) "envelope"
          [ "kind"; "title"; "data" ] (keys sec);
        check Alcotest.string "kind" "latency" (J.str (member_exn "kind" sec));
        check Alcotest.string "title" e.title (J.str (member_exn "title" sec));
        let rows = J.arr (member_exn "data" sec) in
        check Alcotest.int "three systems" 3 (List.length rows);
        List.iter
          (fun r ->
            check (Alcotest.list Alcotest.string) "row keys"
              [
                "system";
                "null_fork_us";
                "signal_wait_us";
                "paper_null_fork";
                "paper_signal_wait";
              ]
              (keys r))
          rows);
    Alcotest.test_case "serve and cluster summaries encode" `Quick (fun () ->
        let serve =
          E.serve
            ~params:
              {
                Sa_workload.Server.default_mt_params with
                Sa_workload.Server.mt_tenants = 3;
                mt_requests = 10;
              }
            ~cpus:8 ~tracing:false ()
        in
        let module C = Sa_cluster.Cluster in
        let cl =
          C.create
            {
              C.default_params with
              C.machines = 2;
              cpus = 4;
              tenants = 3;
              requests = 10;
            }
        in
        C.run cl;
        let doc =
          J.parse
            (R.document
               [
                 R.section ~name:"serve" ~kind:"serve" ~title:"s"
                   (R.serve_json serve);
                 R.section ~name:"cluster" ~kind:"cluster" ~title:"c"
                   (R.cluster_json (C.summary cl));
               ])
        in
        check (Alcotest.list Alcotest.string) "sections" [ "serve"; "cluster" ]
          (keys doc);
        let data name = member_exn "data" (member_exn name doc) in
        let s = data "serve" in
        check Alcotest.int "serve tenants" 3
          (int_of_float (J.num (member_exn "tenants" s)));
        let tenants = J.arr (member_exn "per_tenant" s) in
        check Alcotest.int "serve rows" 3 (List.length tenants);
        List.iter
          (fun r ->
            List.iter
              (fun k -> ignore (member_exn k r))
              [ "tenant"; "class"; "completed"; "p99_us"; "slo_ms"; "violations" ])
          tenants;
        let c = data "cluster" in
        check Alcotest.int "machines" 2
          (int_of_float (J.num (member_exn "machines" c)));
        check Alcotest.bool "completed_all" true
          (member_exn "completed_all" c = J.Bool true);
        check Alcotest.int "machine rows" 2
          (List.length (J.arr (member_exn "per_machine" c)));
        check Alcotest.int "tenant rows" 3
          (List.length (J.arr (member_exn "per_tenant" c))));
  ]

let protocol_tests =
  [
    Alcotest.test_case "warning protocol delays high-priority grants" `Slow
      (fun () ->
        let rows = E.preemption_protocol () in
        let v prefix =
          (List.find
             (fun r ->
               String.length r.E.a_label >= String.length prefix
               && String.sub r.E.a_label 0 (String.length prefix) = prefix)
             rows)
            .E.a_value
        in
        let immediate = v "immediate" in
        let uncoop = v "warning protocol, unc" in
        let coop = v "warning protocol, coop" in
        check Alcotest.bool "uncooperative pays the grace" true
          (uncoop > immediate +. 15.0);
        check Alcotest.bool "cooperation helps but immediate still wins" true
          (coop < uncoop /. 3.0 && immediate <= coop));
  ]

let retrospective_tests =
  [
    Alcotest.test_case "2020s ratios favour user-level threads even more"
      `Slow (fun () ->
        let rows = E.modern_retrospective () in
        let v prefix =
          (List.find
             (fun r ->
               String.length r.E.a_label >= String.length prefix
               && String.sub r.E.a_label 0 (String.length prefix) = prefix)
             rows)
            .E.a_value
        in
        check Alcotest.bool "ratio larger than the paper's 28x" true
          (v "kernel/user latency ratio" > 28.0);
        check Alcotest.bool "kernel threads lose at fine grain" true
          (v "N-body 6P speedup (2us tasks): kernel" < 1.0);
        check Alcotest.bool "activations still deliver parallelism" true
          (v "N-body 6P speedup (2us tasks): scheduler" > 2.0));
  ]

let timeline_tests =
  [
    Alcotest.test_case "timeline samples and renders" `Quick (fun () ->
        let module System = Sa.System in
        let module Time = Sa_engine.Time in
        let prep = Nbody.prepare tiny in
        let sys = System.create ~cpus:3 () in
        let tl = Sa_metrics.Timeline.attach sys ~resolution:(Time.ms 2) in
        let _job =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"zjob"
            prep.Nbody.program
        in
        System.run sys;
        check Alcotest.bool "sampled" true (Sa_metrics.Timeline.samples tl > 3);
        let out = Format.asprintf "%a" (fun ppf t -> Sa_metrics.Timeline.render t ppf) tl in
        check Alcotest.bool "has cpu rows" true
          (String.length out > 0
          && String.split_on_char '\n' out
             |> List.exists (fun l -> String.length l > 4 && String.sub l 0 3 = "cpu"));
        (* the job's initial must appear somewhere *)
        check Alcotest.bool "job letter present" true
          (String.contains out 'z'));
  ]

(* The extension experiments. *)
let extension_tests =
  [
    Alcotest.test_case "disk contention preserves the Figure-2 ordering"
      `Slow (fun () ->
        let series = E.figure2_disk_contention ~params:Nbody.default_params () in
        let at name pct =
          let s = List.find (fun s -> s.E.io_series = name) series in
          (List.find (fun p -> p.E.memory_percent = pct) s.E.io_points)
            .E.exec_time_s
        in
        check Alcotest.bool "orig FT worst under contention too" true
          (at "orig FastThreads" 40 > at "new FastThreads" 40);
        check Alcotest.bool "everyone degrades under contention" true
          (at "new FastThreads" 40 > at "new FastThreads" 100));
    Alcotest.test_case "allocator splits processor-seconds evenly" `Slow
      (fun () ->
        let rows = E.allocator_fairness ~params:tiny () in
        let v label =
          (List.find (fun r -> r.E.a_label = label) rows).E.a_value
        in
        check Alcotest.bool "even split on 6" true
          (v "6 CPUs: share imbalance |1-2|/avg" < 0.15);
        check Alcotest.bool "rotation keeps 5 CPUs fair" true
          (v "5 CPUs: share imbalance |1-2|/avg (rotation)" < 0.15));
    Alcotest.test_case "high-priority space gets its full demand" `Slow
      (fun () ->
        let rows = E.space_priority ~params:tiny () in
        let v label =
          (List.find (fun r -> r.E.a_label = label) rows).E.a_value
        in
        check Alcotest.bool "high beats low clearly" true
          (v "high-priority job: speedup" > v "low-priority  job: speedup" +. 0.5));
  ]

let () =
  Alcotest.run "metrics"
    [
      ("runners", runner_tests);
      ("report", report_tests);
      ("results", json_tests);
      ("extensions", extension_tests);
      ("protocol", protocol_tests);
      ("retrospective", retrospective_tests);
      ("timeline", timeline_tests);
    ]
