(** Calendar event queue: the simulator's hot-path priority queue.

    Elements carry integer-pair priorities [(key, seq)] compared
    lexicographically — the discrete-event core uses [key] for the ns
    firing time and [seq] for FIFO order among simultaneous events.  The
    pop sequence is the strict ascending [(key, seq)] order, byte-identical
    to the binary-heap reference kept as a test oracle (test/pqueue.ml);
    a qcheck differential suite holds the two to it.

    Layout: one bucket per distinct pending ns key holds its events as a
    FIFO in ascending [seq]; a small index heap orders the buckets.  Adding
    to an instant that is already pending and popping from the current
    instant are O(1); only the first event of a new instant pays O(log k)
    in the number of distinct pending instants.  The steady-state add/pop
    path allocates nothing: entries live in a recycled slab and handles are
    generation-tagged immediate ints, so a stale handle held across its
    entry's death (and the slot's reuse) can never cancel the wrong event.

    Cancellation is lazy and O(1); dead entries are reclaimed when a pop
    reaches them or by an amortized sweep once they outnumber live ones, so
    cancel-heavy workloads cannot grow the slab without bound. *)

type 'a t

type handle = int
(** A cancellation handle for an inserted element.  Immediate (never
    allocated) and generation-tagged: using it after the element has been
    popped or cancelled is a harmless no-op. *)

val nil_handle : handle
(** A handle that names no entry, ever: {!cancel} on it is a no-op and
    {!handle_live} is [false].  Lets callers keep a [handle] field without
    an option box. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool
(** [true] iff no live (non-cancelled) entries remain.  O(1). *)

val length : 'a t -> int
(** Number of live entries.  O(1). *)

val add : 'a t -> key:int -> seq:int -> 'a -> handle
(** [add q ~key ~seq v] inserts [v] with priority [(key, seq)].  O(1) when
    [key] is already pending or [seq] is the largest in its bucket (always
    true for the simulator's globally monotone seqs); a smaller [seq] for
    an existing key falls back to a sorted insert within the bucket. *)

val pop : 'a t -> (int * int * 'a) option
(** Removes and returns the live entry with the smallest priority, as
    [(key, seq, value)]. *)

val pop_exn : 'a t -> 'a
(** Allocation-free [pop]: returns the value alone; read the priority via
    {!last_key}/{!last_seq}.  Raises [Invalid_argument] if empty. *)

val last_key : 'a t -> int
(** Key of the most recently popped entry (any pop variant). *)

val last_seq : 'a t -> int
(** Seq of the most recently popped entry (any pop variant). *)

val next_key : 'a t -> int
(** Key of the entry a pop would return, or [max_int] if empty.  O(1),
    allocation-free (the [peek_key] of the hot path). *)

val peek_key : 'a t -> (int * int) option
(** Priority of the entry [pop] would return, without removing it. *)

val pop_pick : 'a t -> pick:(int -> int) -> (int * int * 'a) option
(** [pop_pick q ~pick] removes and returns a live entry with the smallest
    [key], selected by [pick] among the [n >= 2] candidates sharing that
    key (listed in ascending [seq] order).  Candidate 0 is the entry
    {!pop} would return, so [pick = fun _ -> 0] reproduces {!pop};
    out-of-range picks are clamped to 0.  [pick] is not consulted when
    only one candidate exists.  Candidates are gathered into a reusable
    scratch array — O(candidates), no per-pick allocation.  Intended for
    schedule exploration, not the default hot path. *)

val pop_pick_exn : 'a t -> pick:(int -> int) -> 'a
(** Allocation-free {!pop_pick}, mirroring {!pop_exn}. *)

val cancel : 'a t -> handle -> unit
(** Cancels an entry in O(1).  Idempotent; no effect if already popped,
    cancelled, or recycled. *)

val handle_live : 'a t -> handle -> bool
(** [true] if the handle's entry has been neither popped nor cancelled. *)

val to_list : 'a t -> (int * int * 'a) list
(** Live entries in ascending priority order (for inspection). *)

(**/**)

val slab_capacity : 'a t -> int
(** Entry slots currently allocated, live or free (for tests asserting
    reuse and sweep bounds). *)

val bucket_count : 'a t -> int
(** Active buckets, i.e. distinct pending keys plus any short-lived
    memo-miss duplicates (for tests). *)
