(** Thread programs.

    A workload is expressed as a value of type {!t}: a continuation-passing
    description of what a thread does — compute for a while, take locks,
    wait on conditions, fork children, read cached blocks, block on I/O.
    Every threading backend (Topaz kernel threads, FastThreads on kernel
    threads, FastThreads on scheduler activations, Ultrix processes)
    interprets the same program type, charging its own costs for each
    operation; this is what makes the paper's cross-system comparisons
    apples-to-apples.

    Synchronization objects ({!Mutex.t}, {!Cond.t}, {!Sem.t}) are pure
    identities: backends attach their own state to them.  A program value is
    reusable across runs and backends. *)

type span = Sa_engine.Time.span

type thread_id = int
(** Runtime identity of a spawned thread, scoped to one run. *)

module Mutex : sig
  type t

  val create : ?name:string -> unit -> t
  val id : t -> int
  val name : t -> string
end

module Cond : sig
  type t

  val create : ?name:string -> unit -> t
  val id : t -> int
  val name : t -> string
end

(** Counting semaphore (Birrell-style binary/counting event). *)
module Sem : sig
  type t

  val create : ?name:string -> initial:int -> unit -> t
  val id : t -> int
  val name : t -> string
  val initial : t -> int
end

type t =
  | Done
      (** thread exits *)
  | Compute of span * (unit -> t)
      (** execute [span] of pure application compute *)
  | Acquire of Mutex.t * (unit -> t)
  | Release of Mutex.t * (unit -> t)
  | Wait of Cond.t * Mutex.t * (unit -> t)
      (** atomically release the mutex and block; re-acquires on wakeup *)
  | Signal of Cond.t * (unit -> t)
  | Broadcast of Cond.t * (unit -> t)
  | Sem_p of Sem.t * (unit -> t)
  | Sem_v of Sem.t * (unit -> t)
  | Ksem_p of Sem.t * (unit -> t)
      (** P on a {e kernel-level} semaphore: synchronization is forced
          through the kernel even on user-level thread systems (the upcall
          performance benchmark of Section 5.2) *)
  | Ksem_v of Sem.t * (unit -> t)
  | Fork of t * (thread_id -> t)
      (** spawn a child running the given program *)
  | Join of thread_id * (unit -> t)
  | Io of span * (unit -> t)
      (** block in the kernel for [span] (device I/O) *)
  | Cache_read of int * (unit -> t)
      (** read a block through the address space's buffer cache; a miss
          blocks in the kernel for the configured I/O latency *)
  | Yield of (unit -> t)
  | Stamp of int * (unit -> t)
      (** zero-cost timestamp marker: the executing backend reports
          (marker, current simulated time) to its observer — the measurement
          hook for the latency benchmarks *)
  | Set_priority of int * (unit -> t)
      (** set the calling thread's priority (higher runs first).  A
          user-level scheduling feature: the FastThreads backends honour it
          in their ready lists and, under scheduler activations, ask the
          kernel to interrupt a processor running lower-priority work
          (Section 3.1); the kernel-thread backends ignore it — kernel
          threads are scheduled obliviously, which is the paper's point *)
  | Dynamic of t
      (** marks the wrapped program as {e force-dependent}: its
          continuations read or write host state (a future's cell, a work
          bag, a mailbox), so they must be forced at simulated execution
          time, never eagerly.  {!compile} refuses any tree containing the
          marker; the FastThreads step loop then runs the thread through
          its lazy fetch, which forces each continuation at the simulated
          instant the operation before it completes.  Interpreters unwrap
          it transparently at zero simulated cost.  Pure-structure
          programs (spans and sync objects only in continuations) never
          need it. *)

(** Monadic builder for writing programs in direct style:
    {[
      let prog =
        Program.Build.(
          to_program
            (let* child = fork (compute (Time.us 100)) in
             let* () = join child in
             return ()))
    ]} *)
module Build : sig
  type 'a m

  val return : 'a -> 'a m
  val ( let* ) : 'a m -> ('a -> 'b m) -> 'b m
  val bind : 'a m -> ('a -> 'b m) -> 'b m
  val to_program : unit m -> t

  val compute : span -> unit m
  val acquire : Mutex.t -> unit m
  val release : Mutex.t -> unit m

  val critical : Mutex.t -> unit m -> unit m
  (** [critical m body] is acquire; body; release. *)

  val wait : Cond.t -> Mutex.t -> unit m
  val signal : Cond.t -> unit m
  val broadcast : Cond.t -> unit m
  val sem_p : Sem.t -> unit m
  val sem_v : Sem.t -> unit m
  val ksem_p : Sem.t -> unit m
  val ksem_v : Sem.t -> unit m
  val fork : t -> thread_id m
  val fork_unit : t -> unit m
  val join : thread_id -> unit m
  val io : span -> unit m
  val cache_read : int -> unit m
  val yield : unit m
  val stamp : int -> unit m
  val set_priority : int -> unit m

  val dynamic : 'a m -> 'a m
  (** Wrap the rest of the chain in a {!Dynamic} marker (see the
      constructor's doc): use at the head of any builder whose
      continuations consult or mutate host state. *)

  val repeat : int -> (int -> unit m) -> unit m
  (** [repeat n f] runs [f 0; f 1; ...; f (n-1)] in sequence. *)

  val iter_list : 'a list -> ('a -> unit m) -> unit m
  val when_ : bool -> unit m -> unit m
end

(** Compiled, arena-allocated flat representation: the whole program tree
    forced once into parallel int arrays (op tag + operands + next-pc), so
    interpreters run a pc-indexed step loop instead of rebuilding
    [(unit -> t)] continuations per operation.  Sync objects are interned
    to dense code-local indices resolved against backend state once at
    link time.  Built by {!compile}; the constructor API above stays the
    frontend, so workloads never see this type. *)
module Code : sig
  type t = {
    op : int array;  (** op tag, one of the [op_*] constants below *)
    a : int array;
        (** first operand: span (compute/io), sync-object index, cond index
            (wait), child entry pc (fork), join target ([>= 0] literal
            runtime tid, [< 0] is [-(site+1)] resolved through the joining
            thread's own fork bindings), block (cache_read), marker id
            (stamp), priority *)
    b : int array;
        (** second operand: mutex index (wait), fork site (fork; [-1] when
            no join names the site, so the fork records no binding) *)
    nx : int array;  (** next pc ([-1] terminates; only [op_done] has [-1]) *)
    mutexes : Mutex.t array;  (** code-local mutex index -> object *)
    conds : Cond.t array;
    sems : Sem.t array;
    ksems : Sem.t array;
        (** kernel-semaphore index space, separate from [sems]: user and
            kernel semaphore state live in separate backend tables *)
  }

  (** Interpreters dispatch with a [match] on the raw tag (a jump table);
      these constants exist so they can assert the numbering at init. *)

  val op_done : int  (** = 0 *)

  val op_compute : int  (** = 1 *)

  val op_acquire : int  (** = 2 *)

  val op_release : int  (** = 3 *)

  val op_wait : int  (** = 4 *)

  val op_signal : int  (** = 5 *)

  val op_broadcast : int  (** = 6 *)

  val op_sem_p : int  (** = 7 *)

  val op_sem_v : int  (** = 8 *)

  val op_ksem_p : int  (** = 9 *)

  val op_ksem_v : int  (** = 10 *)

  val op_fork : int  (** = 11 *)

  val op_join : int  (** = 12 *)

  val op_io : int  (** = 13 *)

  val op_cache_read : int  (** = 14 *)

  val op_yield : int  (** = 15 *)

  val op_stamp : int  (** = 16 *)

  val op_set_priority : int  (** = 17 *)

  val op_refill : int
  (** = 18.  Never emitted by {!compile}: the slot the step loop's lazy
      fetch uses to force a refused program's next continuation. *)

  val length : t -> int
end

val compile : ?budget:int -> t -> Code.t option
(** Force the program tree eagerly into a {!Code.t} arena (root entry at
    pc 0), in O(1) host work per operation.  Fork continuations are forced
    symbolically with a per-site sentinel thread id; [Join] on a sentinel
    compiles to a fork-site reference resolved at run time through the
    joining thread's own fork bindings, and only forks whose site some
    join names record a binding.  A fork child physically shared by
    several fork sites is memoized: it compiles once and every site points
    at its entry (a bounded memo; a child evicted from it is compiled
    again).  Returns [None] — the step loop then fetches the program
    lazily, one operation at a time — when the program computes on thread
    ids (a sentinel escapes into any non-join operand, or joins a fork
    another thread performed), exceeds [budget] instructions (default 1M;
    catches unbounded recursion), or any exception escapes the eager
    forcing. *)

val null : t
(** The empty program (exits immediately). *)

val compute_only : span -> t
(** A thread that computes for [span] then exits. *)

val op_count : t -> max:int -> int
(** Statically walk the program, counting operations up to [max] (programs
    can be infinite through recursion; [max] bounds the walk).  For tests. *)

val pp : Format.formatter -> t -> unit
(** Render the program's structure (operations and spans; continuations are
    followed, forks recurse).  Deep or recursive programs are elided with
    ["..."] past a depth/length budget.  For debugging and tests. *)
