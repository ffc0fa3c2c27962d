(** A local database instance: a catalog of named tables plus a mu-RA
    query processor running on the volcano executor — the one front end
    of the local engine.

    Stands in for the per-worker PostgreSQL of the paper's P_plw^pg plan:
    the worker registers its partition of the fixpoint's constant part
    and the broadcast relations as tables, and runs the local fixpoint
    term on them. Centralized mu-RA runs whole optimized queries on the
    same processor. Recursive terms are executed with a work-table loop
    equivalent to PostgreSQL's [WITH RECURSIVE] (semi-naive union,
    {!Plan.recursive_union}). *)

type t

val create : unit -> t

val register : t -> string -> Relation.Rel.t -> unit
(** Create or replace a table/view. *)

val lookup : t -> string -> Relation.Rel.t option

val query : t -> Mura.Term.t -> Relation.Rel.t
(** Evaluate a mu-RA term against the catalog.
    @raise Mura.Eval.Eval_error on unknown table names
    @raise Mura.Fcond.Not_fcond on invalid fixpoints *)

val explain : t -> Mura.Term.t -> string
(** Compiled operator tree (note: fixpoints are materialised during
    compilation, so they appear as scans of their results). *)
