(** Per-relation statistics for cardinality estimation: tuple counts and
    per-column distinct-value counts, gathered from the actual base
    tables (the paper's CostEstimator relies on the cardinality
    estimation technique of Lawal et al. (CIKM'20); we keep its
    ingredients — counts, distincts, join selectivities, and a bounded
    expansion model for fixpoints).

    Besides whole relations, a [t] measures {e slices}: the selection
    [sigma_p(n)] of a base relation [n], which is the leaf every RPQ
    label translates to. A slice's count and distinct counts are exact,
    computed with one scan of [n] the first time they are asked for and
    kept for the life of the [t] (one optimizer call, in the systems).
    A [t] memoises as it is read, so it must not be shared between
    domains. *)

type rel_stats = { count : int; distincts : (string * int) list }
(** One base relation: tuple count and distinct values per column, in
    schema order. *)

type est = { card : float; distincts : (string * float) list }
(** A count and per-column distinct counts as the estimator reads them:
    floats, each at least 1 ({!Estimate.est}). *)

val est_of_counts : int -> (string * int) list -> est
(** [est_of_counts count distincts]: exact counts in that form. *)

type t

val of_tables : (string * Relation.Rel.t) list -> t
(** Nothing is measured here: whole-relation statistics on the first
    {!find}, slices on the first {!slice}. *)

val find : t -> string -> rel_stats option

val count : t -> string -> int option
(** Tuple count of a base relation. *)

val distinct : t -> string -> string -> int option
(** [distinct stats rel col]: distinct values in that column. *)

val slice : t -> string -> Relation.Pred.t -> est option
(** [slice stats n p]: exact statistics of [sigma_p(n)], memoised on
    [(n, p)] (structural equality, no printing). [None] when [n] is not
    a known relation or [p] names a column [n] lacks. *)
