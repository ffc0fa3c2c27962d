(** Cardinality and cost estimation for mu-RA terms.

    Estimates propagate a tuple count plus per-column distinct counts
    bottom-up through the algebra. Fixpoints use a bounded geometric
    expansion model: the one-step growth ratio of the variable part,
    summed over an assumed recursion depth and capped by the domain
    product of the output columns. The total cost of a term sums the
    estimated output of every operator. A fixpoint is charged its
    constant part, one application of its variable part to the final
    fixpoint estimate (semi-naive accounting: the deltas sum to the
    result, so the variable part sees each tuple once), and its own
    output. A join of two recursive operands pays a penalty of five
    times their summed outputs. This is enough to rank the MuRewriter's
    alternative plans (smaller constant parts, merged fixpoints, pushed
    filters all get cheaper costs).

    Estimates and costs come from one bottom-up pass: each operator's
    estimate is computed once from its operands' estimates. Only the
    variable part of a fixpoint is walked twice, once with the variable
    bound to the constant part (for the growth ratio) and once bound to
    the fixpoint's estimate (for its cost). *)

type est = { card : float; distincts : (string * float) list }

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
