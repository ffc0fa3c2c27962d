(** The stabilizer: stable-column analysis of fixpoint bodies
    (Definition 10 of the mu-RA paper, used here per Sec. IV-A2).

    A column [c] of a fixpoint [mu(X = R ∪ phi)] is {e stable} when every
    tuple produced by an application of [phi] carries, at [c], the value
    its generating tuple of [X] had at [c]; by induction every tuple of
    the fixpoint then shares its [c]-value with some tuple of [R].

    Stable columns license two key optimizations:
    - pushing a filter [sigma_{c=v}] into the fixpoint's constant part;
    - hash-partitioning the constant part by [c] so that per-worker local
      fixpoints are disjoint and need no final [distinct] (Prop. in
      Sec. IV-A2). *)

val stable_among : var:string -> string list -> Term.t list -> string list
(** [stable_among ~var cols recs]: those of the fixpoint's columns
    [cols] that every recursive branch in [recs] copies unchanged from
    [var], in the order of [cols]. Needs no typing: the branches are
    taken to be well typed. The cost model reads it to tell which
    fixpoints the executor can run without a per-iteration shuffle. *)

val stable_columns : Typing.env -> var:string -> Term.t -> string list
(** [stable_columns env ~var body] — the stable columns of
    [mu(var = body)], in schema order.
    @raise Typing.Type_error / Fcond.Not_fcond *)
