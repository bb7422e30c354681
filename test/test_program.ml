(* Tests for the thread-program DSL. *)

module Time = Sa_engine.Time
module P = Sa_program.Program
module B = P.Build

let check = Alcotest.check

let build_tests =
  [
    Alcotest.test_case "compute then done" `Quick (fun () ->
        let p = B.to_program (B.compute (Time.us 5)) in
        match p with
        | P.Compute (d, k) ->
            check Alcotest.int "span" (Time.us 5) d;
            check Alcotest.bool "then done" true (k () = P.Done)
        | _ -> Alcotest.fail "expected Compute");
    Alcotest.test_case "bind sequences" `Quick (fun () ->
        let p =
          B.to_program
            (let open B in
             let* () = compute 1 in
             compute 2)
        in
        match p with
        | P.Compute (1, k) -> (
            match k () with
            | P.Compute (2, k2) -> check Alcotest.bool "done" true (k2 () = P.Done)
            | _ -> Alcotest.fail "expected second Compute")
        | _ -> Alcotest.fail "expected first Compute");
    Alcotest.test_case "repeat runs n times in order" `Quick (fun () ->
        let p = B.to_program (B.repeat 4 (fun i -> B.compute (i + 1))) in
        let rec spans acc = function
          | P.Compute (d, k) -> spans (d :: acc) (k ())
          | P.Done -> List.rev acc
          | _ -> Alcotest.fail "unexpected op"
        in
        check (Alcotest.list Alcotest.int) "spans" [ 1; 2; 3; 4 ] (spans [] p));
    Alcotest.test_case "repeat zero is empty" `Quick (fun () ->
        check Alcotest.bool "done" true
          (B.to_program (B.repeat 0 (fun _ -> B.compute 1)) = P.Done));
    Alcotest.test_case "iter_list covers all elements" `Quick (fun () ->
        let p =
          B.to_program (B.iter_list [ 10; 20 ] (fun x -> B.compute x))
        in
        match p with
        | P.Compute (10, k) -> (
            match k () with
            | P.Compute (20, _) -> ()
            | _ -> Alcotest.fail "expected 20")
        | _ -> Alcotest.fail "expected 10");
    Alcotest.test_case "when_ true and false" `Quick (fun () ->
        check Alcotest.bool "false skips" true
          (B.to_program (B.when_ false (B.compute 1)) = P.Done);
        match B.to_program (B.when_ true (B.compute 1)) with
        | P.Compute (1, _) -> ()
        | _ -> Alcotest.fail "expected compute");
    Alcotest.test_case "critical wraps acquire/release" `Quick (fun () ->
        let m = P.Mutex.create () in
        let p = B.to_program (B.critical m (B.compute 3)) in
        match p with
        | P.Acquire (m1, k) when P.Mutex.id m1 = P.Mutex.id m -> (
            match k () with
            | P.Compute (3, k2) -> (
                match k2 () with
                | P.Release (m2, _) ->
                    check Alcotest.int "same mutex" (P.Mutex.id m)
                      (P.Mutex.id m2)
                | _ -> Alcotest.fail "expected Release")
            | _ -> Alcotest.fail "expected Compute")
        | _ -> Alcotest.fail "expected Acquire");
    Alcotest.test_case "fork passes the child id" `Quick (fun () ->
        let p =
          B.to_program
            (let open B in
             let* tid = fork (P.compute_only 1) in
             compute tid)
        in
        match p with
        | P.Fork (_, k) -> (
            match k 42 with
            | P.Compute (42, _) -> ()
            | _ -> Alcotest.fail "tid not threaded through")
        | _ -> Alcotest.fail "expected Fork");
  ]

let object_tests =
  [
    Alcotest.test_case "sync objects have unique ids" `Quick (fun () ->
        let m1 = P.Mutex.create () and m2 = P.Mutex.create () in
        let c1 = P.Cond.create () in
        let s1 = P.Sem.create ~initial:0 () in
        let ids = [ P.Mutex.id m1; P.Mutex.id m2; P.Cond.id c1; P.Sem.id s1 ] in
        check Alcotest.int "all distinct" 4
          (List.length (List.sort_uniq compare ids)));
    Alcotest.test_case "names default and explicit" `Quick (fun () ->
        let m = P.Mutex.create ~name:"work-queue" () in
        check Alcotest.string "explicit" "work-queue" (P.Mutex.name m);
        let m2 = P.Mutex.create () in
        check Alcotest.bool "default nonempty" true (P.Mutex.name m2 <> ""));
    Alcotest.test_case "sem initial recorded, negative rejected" `Quick
      (fun () ->
        let s = P.Sem.create ~initial:3 () in
        check Alcotest.int "initial" 3 (P.Sem.initial s);
        Alcotest.check_raises "negative"
          (Invalid_argument "Sem.create: negative initial") (fun () ->
            ignore (P.Sem.create ~initial:(-1) ())));
  ]

let walk_tests =
  [
    Alcotest.test_case "op_count counts all ops" `Quick (fun () ->
        let p =
          B.to_program
            (let open B in
             let* () = compute 1 in
             let* _ = fork (P.compute_only 2) in
             let* () = yield in
             compute 3)
        in
        (* compute + fork + (child compute) + yield + compute = 5 *)
        check Alcotest.int "count" 5 (P.op_count p ~max:100));
    Alcotest.test_case "op_count bounded on deep programs" `Quick (fun () ->
        let p = B.to_program (B.repeat 1_000_000 (fun _ -> B.compute 1)) in
        check Alcotest.int "capped" 10 (P.op_count p ~max:10));
    Alcotest.test_case "null and compute_only" `Quick (fun () ->
        check Alcotest.bool "null" true (P.null = P.Done);
        check Alcotest.int "compute_only" 1 (P.op_count (P.compute_only 5) ~max:10));
  ]

let pp_tests =
  [
    Alcotest.test_case "pp renders a simple program" `Quick (fun () ->
        let m = P.Mutex.create ~name:"mtx" () in
        let p =
          B.to_program
            (let open B in
             let* () = compute (Sa_engine.Time.us 5) in
             critical m (compute (Sa_engine.Time.us 1)))
        in
        let out = Format.asprintf "%a" P.pp p in
        check Alcotest.bool "mentions compute" true
          (String.length out > 0
          &&
          let has sub =
            let n = String.length out and m = String.length sub in
            let rec go i = i + m <= n && (String.sub out i m = sub || go (i + 1)) in
            go 0
          in
          has "compute" && has "acquire(mtx)" && has "release(mtx)" && has "done"));
    Alcotest.test_case "pp elides unbounded programs" `Quick (fun () ->
        let p = B.to_program (B.repeat 100000 (fun _ -> B.compute 1)) in
        let out = Format.asprintf "%a" P.pp p in
        check Alcotest.bool "bounded output" true (String.length out < 10_000));
    Alcotest.test_case "pp recurses into forks" `Quick (fun () ->
        let p =
          B.to_program
            (let open B in
             let* _ = fork (P.compute_only 3) in
             return ())
        in
        let out = Format.asprintf "%a" P.pp p in
        check Alcotest.bool "has fork braces" true (String.contains out '{'));
  ]

(* [Program.compile]: fork-child memoization, fork-site resolution and the
   fork operand of unjoined sites. *)
let arena prog =
  match P.compile prog with
  | Some code -> P.Code.length code
  | None -> Alcotest.fail "program did not compile"

let fork_operands code =
  List.filter_map
    (fun pc ->
      if code.P.Code.op.(pc) = P.Code.op_fork then Some code.P.Code.b.(pc)
      else None)
    (List.init (P.Code.length code) Fun.id)

let compile_tests =
  [
    Alcotest.test_case "a sliding fan-out compiles each shared leaf once"
      `Quick (fun () ->
        (* 128 branches of 40 forks; branch [b] forks from a window of 8 of
           96 shared leaves that slides from leaf 0 to leaf 88, so more
           distinct shared children are live over the run than any
           64-entry memo holds. *)
        let leaves = 96 and window = 8 and branches = 128 and forks = 40 in
        let leaf =
          Array.init leaves (fun j ->
              B.to_program
                (let open B in
                 let* () = compute (Time.us (j + 1)) in
                 yield))
        in
        let branch b =
          let first = b * (leaves - window) / (branches - 1) in
          B.to_program
            (B.repeat forks (fun i -> B.fork_unit leaf.(first + (i mod window))))
        in
        let prog =
          B.to_program (B.iter_list (List.init branches branch) B.fork_unit)
        in
        (* root: a fork per branch + done; branch: its forks + done; leaf:
           compute, yield, done *)
        let expected =
          (branches + 1) + (branches * (forks + 1)) + (leaves * 3)
        in
        check Alcotest.int "arena" expected (arena prog));
    Alcotest.test_case "structurally equal distinct children each compile"
      `Quick (fun () ->
        (* A server handler's subrequests: 2000 children built one by one,
           equal in structure but not physically shared. *)
        let subrequest () =
          B.to_program
            (let open B in
             let* () = when_ false (cache_read 0) in
             let* () = io (Time.us 50) in
             compute (Time.us 20))
        in
        let prog =
          B.to_program (B.repeat 2000 (fun _ -> B.fork_unit (subrequest ())))
        in
        check Alcotest.int "arena" ((2000 * 3) + 2001) (arena prog));
    Alcotest.test_case "a child capturing mutated state still hits the memo"
      `Quick (fun () ->
        (* The parent's continuation mutates a ref the shared child's
           closure captures: the memo key never looks into closures. *)
        let r = ref 0 in
        let child = P.Compute (Time.us 1, fun () -> ignore r; P.Done) in
        let rec loop i =
          if i = 100 then P.Done
          else
            P.Fork
              ( child,
                fun _ ->
                  r := i;
                  loop (i + 1) )
        in
        check Alcotest.int "100 forks, done, the child once" 103
          (arena (loop 0)));
    Alcotest.test_case "a join on another region's fork site is refused"
      `Quick (fun () ->
        let prog =
          B.to_program
            (let open B in
             let* tid = fork (P.compute_only 1) in
             fork_unit (B.to_program (join tid)))
        in
        check Alcotest.bool "none" true (P.compile prog = None));
    Alcotest.test_case "a join on a site past the last fork is refused"
      `Quick (fun () ->
        (* The only fork is site 0; [tid - 1] is the sentinel of site 1. *)
        let prog =
          P.Fork (P.compute_only 1, fun tid -> P.Join (tid - 1, fun () -> P.Done))
        in
        check Alcotest.bool "none" true (P.compile prog = None));
    Alcotest.test_case "only joined fork sites carry their site operand"
      `Quick (fun () ->
        let prog =
          B.to_program
            (let open B in
             let* joined = fork (P.compute_only 1) in
             let* _ = fork (P.compute_only 2) in
             join joined)
        in
        match P.compile prog with
        | None -> Alcotest.fail "program did not compile"
        | Some code ->
            check
              (Alcotest.list Alcotest.int)
              "site 0 joined, site 1 not" [ 0; -1 ] (fork_operands code));
  ]

let () =
  Alcotest.run "program"
    [
      ("build", build_tests);
      ("objects", object_tests);
      ("walk", walk_tests);
      ("pp", pp_tests);
      ("compile", compile_tests);
    ]
