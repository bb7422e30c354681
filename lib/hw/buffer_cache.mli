(** Application-managed buffer cache (Section 5.3 of the paper).

    The N-body application manages part of its memory as a block cache over
    its data set; the cache size, expressed as a percentage of the data set,
    is the x-axis of Figure 2.  A miss costs a 50 ms block in the kernel
    (the paper's deliberate simplification of a disk access).

    Replacement is LRU.  The cache is shared by all threads of an address
    space; concurrent misses on the same block coalesce (the second thread
    waits for the first fill rather than issuing a duplicate I/O — callers
    handle the waiting, the cache reports {!Miss_in_flight}). *)

type t

type outcome =
  | Hit
  | Miss  (** caller must perform the fill I/O, then call {!fill} *)
  | Miss_in_flight
      (** another thread is already filling this block; caller should wait
          for that fill's completion *)

val create : capacity:int -> t
(** [capacity] in blocks; zero capacity means every access misses. *)

val capacity : t -> int

val access : t -> int -> outcome
(** [access t block] looks up [block], promoting it to most-recently-used on
    a hit, and reserving an in-flight slot on a miss. *)

val fill : t -> int -> unit
(** Complete the fill of a previously missed block: inserts it, evicting the
    least-recently-used resident block if at capacity. *)

val resident : t -> int -> bool

val in_flight : t -> int -> bool
(** A fill of [block] is outstanding: it was missed and not yet {!fill}ed.
    A {!Miss_in_flight} waiter that registers late checks this first — the
    fill may have landed (and woken the waiters so far) in the meantime. *)

val hits : t -> int
val misses : t -> int

val hit_ratio : t -> float
(** Hits over total accesses; 1.0 when no accesses yet. *)

val reset_stats : t -> unit

val set_chaos_hook : t -> (unit -> bool) option -> unit
(** Install (or clear) a chaos hook, consulted on each access that would
    hit.  When the hook returns [true] the resident block is invalidated on
    the spot and the access reports an ordinary {!Miss}, forcing the caller
    down its existing fill path.  Used by the fault injector to model
    transient cache corruption. *)

val chaos_invalidations : t -> int
(** Hits converted to misses by the chaos hook. *)
