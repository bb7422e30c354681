module Time = Sa_engine.Time
module P = Sa_program.Program
module B = P.Build

type task = { work : Time.span; label : int; children : task list }

let task ?(label = 0) ?(children = []) work = { work; label; children }

let rec count acc t = List.fold_left count (acc + 1) t.children
let total_tasks ts = List.fold_left count 0 ts

let rec work_of acc t = List.fold_left work_of (acc + t.work) t.children
let total_work ts = List.fold_left work_of 0 ts

(* The bag is host-level mutable state captured by the program's
   continuations.  Continuations are forced at simulation time (each [let*]
   body runs when the preceding operation completes), so pops and pushes
   happen at the correct simulated instants; the DSL mutex serializes them
   so contention costs simulated time.  [outstanding] counts tasks popped
   but not yet finished: the crew only stops when the bag is empty AND
   nothing is in flight, since a finishing task may still add children. *)
let run ~workers ?(on_task = fun _ -> ()) tasks =
  if workers <= 0 then invalid_arg "Workcrew.run: workers";
  let bag = Queue.create () in
  List.iter (fun t -> Queue.add t bag) tasks;
  let outstanding = ref 0 in
  let lock = P.Mutex.create ~name:"crew-bag" () in
  let open B in
  let finish_task t =
    let* () =
      when_ (t.children <> [])
        (critical lock
           (let* () = compute (Time.us 2 * List.length t.children) in
            return (List.iter (fun c -> Queue.add c bag) t.children)))
    in
    decr outstanding;
    on_task t.label;
    return ()
  in
  let rec worker_loop () =
    let* () = acquire lock in
    match Queue.take_opt bag with
    | None ->
        if !outstanding = 0 then release lock (* quiescent: exit *)
        else
          (* in-flight tasks may spawn children: back off and re-check *)
          let* () = release lock in
          let* () = yield in
          worker_loop ()
    | Some t ->
        incr outstanding;
        let* () = release lock in
        let* () = compute t.work in
        let* () = finish_task t in
        worker_loop ()
  in
  (* The loop branches on the host-level bag and [outstanding] counter at
     force time, so the worker program is force-dependent: the [Dynamic]
     marker keeps it (and any tree that forks it) off the eager compiler,
     and the step loop fetches it lazily. *)
  let worker = P.Dynamic (B.to_program (worker_loop ())) in
  B.to_program
    (let* tids =
       let rec go acc i =
         if i = 0 then return acc
         else
           let* tid = fork worker in
           go (tid :: acc) (i - 1)
       in
       go [] workers
     in
     iter_list tids (fun tid -> join tid))
