module P = Sa_program.Program
module B = P.Build

type 'a t = {
  cell : 'a option ref;
  done_sem : P.Sem.t;  (* V'd once at resolution *)
}

let create () =
  { cell = ref None; done_sem = P.Sem.create ~name:"future" ~initial:0 () }

let is_resolved f = !(f.cell) <> None

(* Resolution V's the semaphore once; each toucher that finds the future
   unresolved P's it and immediately V's it again, so every waiter gets
   through — a broadcast built from a counting semaphore. *)
(* Both [resolve] and [get] consult or mutate the host-level cell from
   their continuations, so they are force-dependent: the [B.dynamic]
   marker keeps any containing program off the eager compiler (which would
   run these effects at compile time); the step loop fetches it lazily,
   forcing each continuation when the operation before it completes. *)
let resolve fut value =
  let open B in
  dynamic
    (let* () = return (fut.cell := Some value) in
     sem_v fut.done_sem)

let value_of fut =
  match !(fut.cell) with
  | Some v -> v
  | None -> invalid_arg "Future: touched an unresolved future"

let get fut =
  (* [get fut] itself evaluates when the enclosing chain is forced, so
     the resolution check happens at the right simulated instant. *)
  let open B in
  dynamic
    (if is_resolved fut then return (value_of fut)
     else
       let* () = sem_p fut.done_sem in
       (* pass the token on to the next waiter *)
       let* () = sem_v fut.done_sem in
       return (value_of fut))

let spawn ~work f =
  let open B in
  let fut = create () in
  (* head marker: keeps the compiler from evaluating [f ()] eagerly while
     forcing its way to the [resolve] marker *)
  let producer =
    P.Dynamic
      (B.to_program
         (let* () = compute work in
          resolve fut (f ())))
  in
  let* _tid = fork producer in
  return fut

let map2 ~work f a b =
  let open B in
  let fut = create () in
  let producer =
    P.Dynamic
      (B.to_program
         (let* va = get a in
          let* vb = get b in
          let* () = compute work in
          resolve fut (f va vb)))
  in
  let* _tid = fork producer in
  return fut
