(** Cardinality and cost estimation for mu-RA terms.

    Estimates propagate a tuple count plus per-column distinct counts
    bottom-up through the algebra. Inputs are measured where they can
    be: a base relation reads its statistics, and a selection over a base
    relation, the leaf [sigma[pred = l](E)] every RPQ label becomes,
    reads the exact count and distincts of its slice ({!Stats.slice}).
    Other selections scale by a uniform selectivity; their [c = v]
    conjuncts pin [c] to one value and [a = b] conjuncts narrow [a] and
    [b] to the smaller domain. Joins assume containment: on a shared
    column the side with fewer values finds all of them on the other
    side, and each side's other columns shrink to the values its
    matching tuples hit.

    Fixpoints use a bounded geometric expansion model: the one-step
    growth ratio of the variable part, summed over an assumed recursion
    depth. Every value of an output column is in the constant part or is
    made by one application of the variable part, so the larger of the
    two distinct counts bounds that column's reachable domain. The
    fixpoint is capped by the product of these bounds, and they become
    its output distincts.

    The total cost of a term sums the estimated output of every
    operator. A fixpoint is charged its constant part, one application
    of its variable part to the final fixpoint estimate (semi-naive
    accounting: the deltas sum to the result, so the variable part sees
    each tuple once), and its own output. A fixpoint without a stable
    column ({!Mura.Stabilizer.stable_among}) runs as P_gld, which
    repartitions every delta once per recursive branch, so it is charged
    its output once more per recursive branch.

    Estimates and costs come from one bottom-up pass: each operator's
    estimate is computed once from its operands' estimates. Only the
    variable part of a fixpoint is walked twice, once with the variable
    bound to the constant part (for the growth ratio and the domain
    bounds) and once bound to the fixpoint's estimate (for its cost). *)

type est = Stats.est = { card : float; distincts : (string * float) list }

val assumed_depth : int
(** Recursion depth assumed by the expansion model (default 20). *)

val term :
  ?vars:(string * est) list -> Stats.t -> Mura.Term.t -> est
(** Bottom-up estimate. Unknown relations get a default guess rather
    than an error (the estimator must never fail during exploration). *)

val cardinality : Stats.t -> Mura.Term.t -> float

val cost : Stats.t -> Mura.Term.t -> float
(** Total estimated work; suitable as the [cost] callback of
    {!Rewrite.Engine.optimize}. *)
