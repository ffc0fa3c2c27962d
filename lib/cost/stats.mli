(** Per-relation statistics for cardinality estimation: tuple counts and
    per-column distinct-value counts, gathered from the actual base
    tables (the paper's CostEstimator relies on the cardinality
    estimation technique of Lawal et al. (CIKM'20); we keep its
    ingredients — counts, distincts, join selectivities, and a bounded
    expansion model for fixpoints). *)

type rel_stats = { count : int; distincts : (string * int) list; schema : Relation.Schema.t }
(** One base relation: tuple count, distinct values per column (in
    schema order) and schema. *)

type t

val of_tables : (string * Relation.Rel.t) list -> t

val find : t -> string -> rel_stats option

val count : t -> string -> int option
(** Tuple count of a base relation. *)

val distinct : t -> string -> string -> int option
(** [distinct stats rel col]: distinct values in that column. *)

