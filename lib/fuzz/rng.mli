(** Deterministic, seed-threaded SplitMix64 PRNG for the fuzzing
    subsystem. Unlike OCaml's [Random] there is no global state: every
    stream is an explicit value, and {!split} derives an independent
    stream so unrelated generation decisions (program shape vs.
    interrupt schedule vs. scramble values) cannot perturb each other —
    the property behind bit-reproducible fuzz reports. *)

type t

val of_seed : int64 -> t

val split : t -> t
(** A statistically independent stream. Advances [t] by two draws. *)

val next : t -> int64

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be > 0. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val bool : t -> bool

val chance : t -> int -> int -> bool
(** [chance t k n] is true with probability [k/n]. *)

val choose : t -> 'a array -> 'a

val bytes : t -> int -> Bytes.t
