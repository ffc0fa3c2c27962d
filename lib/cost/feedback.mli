(** Estimate-vs-actual feedback: joins the estimator's per-operator
    cardinalities against the actuals collected by an EXPLAIN ANALYZE
    run and ranks the worst mis-estimates by q-error.

    Operators are addressed by term-tree paths under the convention
    shared with [Physical.Exec]: the root is "0",
    child [i] of a node at path [p] is [p ^ "." ^ i], and the children
    of a [Fix] are its constant branches followed by its recursive ones,
    in [Mura.Fcond.split] order. This library never sees the executor —
    actuals arrive as plain [(path, rows)] pairs, so the harness can
    join the two sides without creating a dependency cycle. *)

type estimate = { path : string; label : string; est_card : float }

val estimates : Stats.t -> Mura.Term.t -> estimate list
(** Estimated output cardinality of every node, in path order. Inside a
    fixpoint the recursive variable is bound to the fixpoint's own
    estimate, so branch estimates approximate full-result volumes — the
    right scale to compare against actuals accumulated over all
    iterations. *)

val q_error : est:float -> actual:float -> float
(** [max (est/actual) (actual/est)], both sides clamped to >= 1 tuple;
    1.0 is a perfect estimate. *)

type mismatch = {
  m_path : string;
  m_label : string;
  m_est : float;
  m_actual : float;
  m_q : float;
}

val compare_actuals :
  Stats.t -> Mura.Term.t -> actuals:(string * int) list -> mismatch list
(** Per-operator comparison, worst q-error first. Nodes without a
    reported actual (e.g. never executed) are skipped. *)

val query_q_error : mismatch list -> float
(** Max q-error over the compared operators; 1.0 when none. *)

val summary : ?top:int -> mismatch list -> string
(** Human-readable ranked digest (default [top] = 5). *)

val ordering_hook : (string -> unit) ref
(** Called with a description whenever {!check_plan_ordering} detects a
    disagreement; defaults to a no-op. [Harness.Runner] points it at its
    logger. *)

val check_plan_ordering :
  est_costs:(string * float) list ->
  actual_costs:(string * float) list ->
  string option
(** Compares which alternative the cost model ranked cheapest against
    which one actually ran cheapest (by any actual measure: sim-time,
    wall time). Returns (and feeds {!ordering_hook}) a description when
    they disagree, [None] when the orderings agree or either list is
    empty. *)
