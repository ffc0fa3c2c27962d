(** The rewrite engine: bounded exploration of the space of semantically
    equivalent logical plans (the MuRewriter component of Fig. 3).

    Rules are applied at every position of the term; the reachable set is
    deduplicated up to renaming of internal working columns and recursion
    variables ({!canonical_key}), and capped at [max_plans]: the search
    stops as soon as that many distinct plans are recorded. *)

val apply_everywhere :
  Mura.Typing.env -> Rules.rule -> Mura.Term.t -> Mura.Term.t list
(** All single applications of one rule, at any position. *)

val explore :
  ?rules:Rules.rule list -> ?max_plans:int -> Mura.Typing.env -> Mura.Term.t ->
  Mura.Term.t list
(** Transitive closure of single-step rewriting, starting term included,
    in breadth-first discovery order and truncated to the first
    [max_plans] distinct plans. [max_plans] defaults to 200. *)

val optimize :
  ?rules:Rules.rule list -> ?max_plans:int -> cost:(Mura.Term.t -> float) ->
  Mura.Typing.env -> Mura.Term.t -> Mura.Term.t
(** Explore and return the cheapest plan according to [cost]. *)

val canonical_key : Mura.Term.t -> string
(** Deduplication key: {!Mura.Normal.serialize} of the term with internal
    ["_m*"] columns and ["_X*"] variables renumbered in first-occurrence
    order, and each literal [Cst] relation replaced by a relation named
    ["<const:n>"] after its cardinality [n]. Two terms get equal keys
    exactly when they are equal up to a bijective renaming of internal
    names and up to the contents of equal-size literals. The key is
    flat (no line breaks) and costs one pass over the term; it is not
    a normal form ({!Mura.Normal.key} is). *)
