(** Programming directly with kernel-level execution contexts: every thread
    of the program is a Topaz kernel thread ([`Topaz]) or an Ultrix-like
    process ([`Ultrix]).  These are the two baseline columns of Tables 1
    and 4.

    Synchronization goes through the kernel: an uncontended application
    lock is a user-level test-and-set, but a contended one blocks the kernel
    thread (Section 5.3's discussion of Figure 1); condition variables and
    semaphores always trap. *)

type flavor = [ `Topaz | `Ultrix ]

type t

val create :
  Sa_kernel.Kernel.t ->
  name:string ->
  flavor:flavor ->
  ?priority:int ->
  ?cache:Sa_hw.Buffer_cache.t ->
  ?io_dev:Sa_hw.Io_device.t ->
  ?observer:(int -> Sa_engine.Time.t -> unit) ->
  ?on_done:(unit -> unit) ->
  unit ->
  t
(** These threads have no user-level ready lists: the kernel schedules
    every one of them directly. *)

val start : t -> Sa_program.Program.t -> unit
val space : t -> Sa_kernel.Kernel.space
val completion_time : t -> Sa_engine.Time.t option
val is_finished : t -> bool
val live_threads : t -> int
