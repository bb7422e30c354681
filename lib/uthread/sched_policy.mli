(** Pluggable ready-list discipline for the user-level thread substrates.

    A policy decides where readied work enters the per-processor deques
    and which end the owner and thieves dequeue from.  The record is
    polymorphic in the queued element: policies manipulate {!Deque}s and a
    priority projection only, so they sit below {!Ft_core} and are shared
    by every substrate ({!Ft_kt}, {!Ft_sa}; {!Kt_direct} accepts a policy
    for interface uniformity but the kernel schedules its threads
    directly).

    Only {!work_steal} — the paper's discipline and the default — honours
    user-level priorities (Section 1.2 goal 2: once a thread carries a
    non-zero priority, dispatch scans every queue for the global best).
    {!lifo} and {!fifo} ignore priorities by design. *)

type 'a t = {
  sp_name : string;
  sp_push_new : 'a Deque.t -> 'a -> unit;
      (** enqueue freshly created or woken work *)
  sp_push_yield : 'a Deque.t -> 'a -> unit;
      (** enqueue a voluntarily yielding thread (must let peers run) *)
  sp_push_preempted : 'a Deque.t -> 'a -> unit;
      (** enqueue a thread the kernel preempted mid-segment *)
  sp_pop_own :
    prio:('a -> int) -> use_prio:bool -> 'a Deque.t array -> int -> 'a option;
      (** [sp_pop_own ~prio ~use_prio queues index] takes the next thread
          for the owner of queue [index]; [use_prio] is the substrate's
          "some thread has a non-zero priority" fast-path flag *)
  sp_steal :
    prio:('a -> int) ->
    use_prio:bool ->
    'a Deque.t array ->
    victim:int ->
    'a option;
      (** take one thread from [victim]'s queue; [None] when that queue
          is empty ({!Ft_core.steal_sweep} skips empty queues on this
          promise) *)
  sp_victim : nqueues:int -> thief:int -> attempt:int -> int;
      (** victim probed on the [attempt]-th step of a steal scan
          (attempts run 1 .. nqueues-1); substrates route the result
          through a [Sim.pick] choice point *)
}

val name : 'a t -> string

val work_steal : 'a t
(** The paper's discipline (default): new and preempted work pushes to
    the front of the owner's list (LIFO, cache affinity), yields to the
    back, thieves steal the oldest from the back, and a cross-queue scan
    dispatches the globally best priority once priorities are in play. *)

val lifo : 'a t
(** Greedy LIFO: thieves also take the newest (front) — locality over
    fairness.  Yields still go to the back.  Ignores priorities. *)

val fifo : 'a t
(** Per-queue FIFO: everything enqueues at the back, everyone dequeues
    the oldest.  Ignores priorities. *)

val rotation : nqueues:int -> thief:int -> attempt:int -> int
(** The shared probe sequence [(thief + attempt) mod nqueues]. *)

val of_name : string -> 'a t option
(** ["work-steal"], ["lifo"] or ["fifo"]. *)
