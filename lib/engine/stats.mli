(** Statistical accumulators for simulation measurements. *)

(** Streaming summary: count, mean, variance (Welford), min, max.
    O(1) per observation, no sample retention. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0.0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; 0.0 with fewer than two observations. *)

  val stddev : t -> float
  val min : t -> float
  (** 0.0 when empty, consistently with [mean]. *)

  val max : t -> float
  (** 0.0 when empty, consistently with [mean]. *)

  val total : t -> float
  val merge : t -> t -> t
  (** Combined summary, as if all observations of both were added to one. *)

  val pp : Format.formatter -> t -> unit
end

(** Sample set retaining all observations, for exact quantiles. *)
module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val percentile : t -> float -> float
  (** [percentile s p] with [p] in [\[0, 100\]], nearest-rank with linear
      interpolation.  Raises [Invalid_argument] if empty or [p] out of
      range. *)

  val median : t -> float
  val to_array : t -> float array
  (** Observations in insertion order. *)
end

(** Log-scale histogram over [\[lo, hi)] with constant {e relative}
    resolution: each power-of-two octave above [lo] is split into
    [sub_buckets] linear sub-buckets (HDR-histogram bucketing).  O(1)
    memory in the sample count — the accumulator for tail-latency
    percentiles over arbitrarily long serving runs. *)
module Log_histogram : sig
  type t

  val create : lo:float -> hi:float -> sub_buckets:int -> t
  (** [lo] must be positive ([lo] is the smallest in-range value; smaller
      samples land in the underflow bin).  Raises [Invalid_argument] on a
      non-positive [lo], [hi <= lo] or [sub_buckets <= 0]. *)

  val add : t -> float -> unit
  (** NaN samples are counted in {!nan_count} and excluded from every
      other statistic. *)

  val count : t -> int
  (** Every [add], including under/overflow and NaN. *)

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0, 100\]]: the sub-bucket midpoint
      of the bucket holding the rank-⌈p/100·n⌉ sample (NaNs excluded), a
      relative error of at most [0.5 /. sub_buckets].  Underflow ranks
      report [lo]; overflow ranks report the exact maximum, which is
      tracked separately.  Raises [Invalid_argument] if empty or [p] out
      of range. *)

  val max : t -> float
  (** Exact maximum of non-NaN samples; 0.0 when empty. *)

  val mean : t -> float
  (** Exact mean of non-NaN samples; 0.0 when empty. *)

  val underflow : t -> int
  val overflow : t -> int
  val nan_count : t -> int

  val pp : Format.formatter -> t -> unit
  (** ASCII bar rendering of the non-empty buckets. *)
end

(** Time-weighted average of a piecewise-constant quantity, e.g. the number
    of busy processors.  Feed it level changes; it integrates level * dt. *)
module Weighted : sig
  type t

  val create : at:Time.t -> level:float -> t
  val update : t -> at:Time.t -> level:float -> unit
  (** Record that the level changed to [level] at time [at].  Times must be
      non-decreasing. *)

  val average : t -> upto:Time.t -> float
  (** Time-weighted mean level over [\[start, upto\]]. *)

  val current : t -> float
end
