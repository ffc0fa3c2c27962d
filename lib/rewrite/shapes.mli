(** Recognisers and constructors for the path-shaped mu-RA fragments the
    rewriter reasons about.

    All shapes are over binary path relations with columns
    [(src, trg)]. The central composition shape is
    [pi~_m(rho_trg->m(a) |><| rho_src->m(b))] — "a then b" — produced by
    {!Mura.Patterns.compose} and by the Query2Mu translation. *)

type composition = { left : Mura.Term.t; right : Mura.Term.t; mid : string }

val as_compose : Mura.Term.t -> composition option
(** Recognise [a ∘ b] (modulo the middle-column name and join argument
    order). *)

val mk_compose : Mura.Term.t -> Mura.Term.t -> Mura.Term.t
(** Build a composition with a fresh middle column. *)

type closure_dir = Right  (** mu(X = B ∪ X∘B): grows rightwards *) | Left  (** mu(X = B ∪ B∘X) *)

type closure = { base : Mura.Term.t; dir : closure_dir }

val as_closure : Mura.Term.t -> closure option
(** Recognise a pure transitive closure [B+] in either direction: the
    seed's union branches must equal the step's, in order. So
    [(A|B)+ = mu(X = A ∪ B ∪ X∘(A ∪ B))] is a closure with
    [base = A ∪ B]. *)

type seeded = { seed : Mura.Term.t; step : Mura.Term.t; dir : closure_dir }

val as_seeded : Mura.Term.t -> seeded option
(** Recognise [mu(X = R ∪ X∘B)] ([dir = Right]) or [mu(X = R ∪ B∘X)]
    ([dir = Left]); a pure closure is also seeded (with [seed = step]).
    The body's union branches that do not mention [X] form the seed
    [R = R1 ∪ .. ∪ Rn]; the recursive ones must all be compositions
    appending to [X] on the same side, and their appended operands form
    the step [B = B1 ∪ .. ∪ Bm], since
    [X∘B1 ∪ X∘B2 = X∘(B1 ∪ B2)]. Mixed sides ([X∘B ∪ A∘X], the merged
    fixpoint) and any other recursive branch give [None]. *)

val mk_closure : closure_dir -> Mura.Term.t -> Mura.Term.t
val mk_seeded : closure_dir -> seed:Mura.Term.t -> step:Mura.Term.t -> Mura.Term.t

val mk_merged :
  first:Mura.Term.t -> second:Mura.Term.t -> Mura.Term.t
(** The merged fixpoint for [A+ ∘ B+] (Sec. III "merging fixpoints"):
    [mu(X = A∘B ∪ A∘X ∪ X∘B)]. *)
