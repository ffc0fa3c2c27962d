(** mu-RA to SQL translation — the text the distributed engine ships to
    its per-worker databases (the paper's P_plw^pg translates the
    fixpoint expression "to a PostgreSQL query").

    Fixpoints become [WITH RECURSIVE] CTEs (hoisted to the top of the
    statement, in dependency order); the other operators map to
    SELECT/JOIN/WHERE/UNION. Not all of mu-RA is expressible in the
    local dialect: antijoins, constant relations, zero-arity
    subterms (an empty select list) and non-equality predicates raise
    {!Unsupported}. *)

exception Unsupported of string

val of_term : Mura.Typing.env -> Mura.Term.t -> string
(** @raise Unsupported / Mura.Typing.Type_error *)
