module P = Sa_program.Program
module B = P.Build

type 'msg t = {
  box : 'msg Queue.t;
  lock : P.Mutex.t;
  arrivals : P.Sem.t;  (* one V per message *)
}

let create ?(name = "actor") () =
  {
    box = Queue.create ();
    lock = P.Mutex.create ~name:(name ^ "-mailbox") ();
    arrivals = P.Sem.create ~name:(name ^ "-arrivals") ~initial:0 ();
  }

let pending t = Queue.length t.box

(* [send] and [receive] touch the host-level mailbox queue from their
   continuations, so both are force-dependent ([B.dynamic]): eager
   compilation would move messages at compile time, so the step loop
   fetches such programs lazily instead. *)
let send t msg =
  let open B in
  dynamic
    (let* () = acquire t.lock in
     let* () = compute (Sa_engine.Time.us 2) in
     Queue.add msg t.box;
     let* () = release t.lock in
     sem_v t.arrivals)

let receive t =
  let open B in
  dynamic
    (let* () = sem_p t.arrivals in
     let* () = acquire t.lock in
     let* () = compute (Sa_engine.Time.us 2) in
     match Queue.take_opt t.box with
     | Some msg ->
         let* () = release t.lock in
         return msg
     | None ->
         (* impossible: the semaphore counts exactly the enqueued messages *)
         invalid_arg "Actor.receive: semaphore/mailbox mismatch")

let spawn_handler t ~work_per_message ?(handle = fun _ -> ()) ~stop () =
  let open B in
  let rec behave () =
    let* msg = receive t in
    let* () = compute work_per_message in
    handle msg;
    if stop msg then return () else behave ()
  in
  fork (B.to_program (behave ()))
