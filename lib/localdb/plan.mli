(** Row-at-a-time (volcano-style) physical plans for the local engine.

    This engine stands in for the per-worker PostgreSQL instances of the
    paper's P_plw^pg plan: a general-purpose, row-at-a-time interpreted
    executor. Each operator produces a cursor; tuples flow one by one
    through closure dispatch, which carries the per-row interpretation
    overhead that distinguishes this backend from the set-at-a-time
    SetRDD path (Fig. 7 of the paper). *)

type build
(** A join's right side, hashed by its join key. *)

type t =
  | Scan of Relation.Rel.t
  | Work_table of Relation.Tset.t ref
      (** scan of the recursive working table (recursive CTE source) *)
  | Filter of (Relation.Tuple.t -> bool) * t
  | Map of (Relation.Tuple.t -> Relation.Tuple.t) * t
      (** projection / renaming / relayout *)
  | Hash_join of join
  | Hash_anti of join  (** left tuples with no right partner *)
  | Append of t list
  | Distinct of t

and join = {
  left : t;
  left_key : int array;
  right : t;
  right_key : int array;
  merge : Relation.Tuple.t -> Relation.Tuple.t -> Relation.Tuple.t;
      (** builds the output tuple from (left, right); for [Hash_anti] it
          is unused *)
  mutable built : build option;
      (** the right side's table, kept once built when [right] reads no
          [Work_table] *)
}

val join :
  left:t ->
  left_key:int array ->
  right:t ->
  right_key:int array ->
  merge:(Relation.Tuple.t -> Relation.Tuple.t -> Relation.Tuple.t) ->
  join
(** A join whose table is not built yet. *)

type cursor = unit -> Relation.Tuple.t option
(** Pull-based cursor; [None] signals exhaustion. *)

val open_cursor : t -> cursor
(** Fresh cursor over the plan. Re-opening re-reads every input; a join
    whose right side reads no [Work_table] hashes that side at its first
    open only, and later opens probe the same table (PostgreSQL keeps
    the table on rescan when the inner side's parameters did not
    change). *)

val run : t -> Relation.Tset.t
(** Drain a cursor into a set. *)

val recursive_union :
  name:string ->
  max_iterations:int ->
  max_tuples:int ->
  limit:(string -> exn) ->
  all:Relation.Tset.t ->
  work:Relation.Tset.t ref ->
  t list ->
  int list
(** The work-table loop of PostgreSQL's recursive [UNION] (semi-naive)
    that {!Instance} runs each fixpoint with. [all] holds the seed and
    [work] its copy; the recursive [branches] read [work] through
    [Work_table]. Each round runs every branch, keeps the tuples not yet
    in [all], adds them to [all] and makes them the next working table,
    until a round yields none. Returns the per-round fresh counts, the
    last one the empty round that ends the loop. Raises [limit msg] when
    a round would pass [max_iterations] or [all] grows past [max_tuples]
    tuples. Traced as one ["localdb.fix"] span (with a [rounds]
    attribute) and a ["localdb.round"] instant per round. *)

val pp : Format.formatter -> t -> unit
(** Operator-tree rendering (EXPLAIN-style). *)
