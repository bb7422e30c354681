(** The processor-allocation policy of Section 4.1, as a pure function.

    "Space-shares processors while respecting priorities and guaranteeing
    that no processor idles if there is work to do.  Processors are divided
    evenly among address spaces; if some address spaces do not need all of
    the processors in their share, those processors are divided evenly among
    the remainder."

    Extracted from the kernel so the policy itself is property-testable.
    There is one implementation, the in-place {!Waterfill}: the kernel runs
    it over an array of its own space records on every reallocation pass
    and applies the targets it writes back mechanically; {!targets} is a
    list wrapper over the same code. *)

type claim = {
  space : int;  (** address-space id (unique) *)
  priority : int;  (** higher is served first *)
  desired : int;  (** processors the space can use right now *)
}

(** What the waterfill reads from, and writes back to, one claimant. *)
module type CLAIMANT = sig
  type t


  val priority : t -> int
  (** higher is served first *)

  val desired : t -> int
  (** processors the claimant can use; [>= 0] *)

  val id : t -> int
  (** unique; breaks ties in the allocation order *)

  val set_target : t -> int -> unit
end

module Waterfill (C : CLAIMANT) : sig
  val run : cpus:int -> rotation:int -> C.t array -> int -> unit
  (** [run ~cpus ~rotation a n] sorts [a.(0) .. a.(n-1)] in place by
      (priority desc, desired asc, id asc), then calls [C.set_target] once
      on each with the count {!targets} would give it.  Within a priority
      group it hands out ceiling shares of what remains, smallest desire
      first, visiting each run of equal desire rotated left by [rotation].
      O(n) when the order is unchanged since the previous call, O(n{^ 2})
      at worst; it allocates nothing.  Ids must be distinct and desires
      non-negative; unlike {!targets} it does not check. *)
end

val targets : cpus:int -> rotation:int -> claim list -> (int * int) list
(** [targets ~cpus ~rotation claims] assigns each claiming space a
    processor count.  Guarantees (tested as properties):

    - no space receives more than it desires, nor a negative count;
    - the assignment is {e work-conserving}: processors are left over only
      when every desire is satisfied;
    - a higher-priority group is fully served (up to even division of what
      remains) before a lower one receives anything;
    - within a priority group the division is even: two spaces with equal
      desire differ by at most one processor;
    - an uneven remainder moves between equal claimants as [rotation]
      increases, so time-slicing the leftover is fair across periods.

    The result lists every claim's space id exactly once.  Raises
    [Invalid_argument] on negative [cpus], duplicate ids, or negative
    desires. *)
