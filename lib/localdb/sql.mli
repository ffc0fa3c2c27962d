(** A small SQL dialect for the local engine — the concrete query
    language of the per-worker database, mirroring how Dist-mu-RA ships
    SQL text to its PostgreSQL backends.

    Supported grammar (set semantics throughout — every SELECT is
    implicitly DISTINCT):

    {v
    stmt   := [WITH RECURSIVE cte ("," cte)*] select
    cte    := name AS "(" select ")"
    select := SELECT cols FROM item (JOIN item ON eqs)* [WHERE eqs]
            | select UNION select
    cols   := "*" | col ("," col)*       col := [tbl "."] name [AS name]
    item   := name [alias] | "(" select ")" alias
    eqs    := eq (AND eq)*               eq := ref "=" (ref | literal)
                                         ref := [tbl "."] name
    literal := integer | 'string'
    v}

    A recursive CTE must be a UNION whose left branch does not reference
    the CTE; it is evaluated with the work-table loop (semi-naive), as
    PostgreSQL does. Keywords are case-insensitive. *)

exception Sql_error of string

val query : Instance.t -> string -> Relation.Rel.t
(** Parse, plan and execute against the catalog. @raise Sql_error *)
