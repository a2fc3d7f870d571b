(** Exact order statistics over raw samples.

    Every percentile the benchmark reports is computed here from the
    samples themselves — never from a bucketed histogram — by linear
    interpolation between the two closest ranks (the definition NumPy
    calls ["linear"]): with [n] samples sorted ascending as [s.(0..n-1)],
    percentile [p] is [s.(lo) + f *. (s.(lo+1) - s.(lo))] where
    [p /. 100. *. float (n - 1) = lo + f]. *)

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [\[0, 100\]].  Selects in expected linear
    time on a copy; [a] is left untouched.  Raises [Invalid_argument] on
    an empty array, [p] outside the range, or a NaN sample. *)

val tail_grid : float list
(** Candidate tail percentiles, highest first: 99, 95, 90, 75, 50. *)

val min_beyond : int
(** Samples a tail percentile must have strictly above its rank (10). *)

val tail_p : int -> float option
(** The highest percentile in {!tail_grid} with at least {!min_beyond}
    of [n] samples beyond it, i.e. [floor (n * (1 - p/100)) >= 10]. *)

type summary = {
  n : int;
  median : float;
  q1 : float;  (** 25th percentile *)
  q3 : float;  (** 75th percentile *)
  tail_at : float;  (** the percentile [tail] reports (see {!tail_p}) *)
  tail : float;
}

val summarize : float array -> summary
(** Median, quartiles and tail of a non-empty sample.  When fewer than 20
    samples exist no grid percentile qualifies and the tail is the
    maximum ([tail_at = 100]). *)
