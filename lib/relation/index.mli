(** Hash indexes over tuple collections, keyed by a subset of columns.

    Used only by the reference joins and antijoins of {!Rel} and
    [Distsim.Dds]; the compiled executor probes {!Join_index}. *)

type t

val build : Schema.t -> string list -> Tuple.t Seq.t -> t
(** [build schema key_cols tuples] indexes [tuples] (laid out per
    [schema]) by their projection on [key_cols].
    @raise Schema.Schema_error if a key column is absent. *)

val probe : t -> Tuple.t -> Tuple.t list
(** [probe idx key] returns the tuples whose key projection equals [key]
    (a tuple of the key columns, in the order given to {!build}). *)

val mem : t -> Tuple.t -> bool
