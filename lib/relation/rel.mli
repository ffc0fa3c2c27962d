(** Relations and the (non-recursive) relational-algebra kernel.

    A relation is a schema plus a set of tuples. The operators implement
    exactly the non-recursive fragment of mu-RA (Fig. 1 of the paper):
    selection, anti-projection, renaming, natural join, antijoin, union —
    plus projection, set difference and intersection, which the rewriter
    and the baselines need. All operators are eager and produce fresh
    relations; inputs are never mutated. *)

type t

val create : Schema.t -> t
(** Fresh empty relation. *)

val schema : t -> Schema.t
val cardinal : t -> int
val is_empty : t -> bool

val add : t -> Tuple.t -> bool
(** Mutating insert (used while building); returns [true] if new.
    @raise Invalid_argument on arity mismatch. *)

val of_list : Schema.t -> Value.t list list -> t
val of_tuples : Schema.t -> Tuple.t list -> t
val of_tset : Schema.t -> Tset.t -> t
(** Takes ownership of the set: the caller must not mutate it further. *)

val tuples : t -> Tset.t
(** The underlying set; must not be mutated by the caller. *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val exists : (Tuple.t -> bool) -> t -> bool
val for_all : (Tuple.t -> bool) -> t -> bool
val to_list : t -> Tuple.t list
val mem : t -> Tuple.t -> bool
val copy : t -> t

(** {1 Operators} *)

val select : Pred.t -> t -> t
val project : string list -> t -> t
(** Keep exactly the given columns (with deduplication). *)

val antiproject : string list -> t -> t
(** Drop the given columns (the mu-RA pi-tilde), deduplicating. *)

val rename : (string * string) list -> t -> t

val natural_join : t -> t -> t
(** Join on all shared column names; degenerates to cartesian product when
    the schemas are disjoint. Output schema: left columns then the right
    columns not shared. *)

val antijoin : t -> t -> t
(** [antijoin l r]: tuples of [l] with no partner in [r] on the shared
    columns (the mu-RA [l ▷ r]). *)

val union : t -> t -> t
(** Set union; accepts any column order on the right (tuples are permuted
    to the left layout). @raise Schema.Schema_error on incompatible
    schemas. *)

val diff : t -> t -> t
(** Set difference, same schema flexibility as {!union}. *)

val inter : t -> t -> t

val relayout : Schema.t -> t -> t
(** [relayout s r] permutes the columns of [r] into the order of [s]
    (same column names required); returns [r] itself when the order
    already matches. @raise Schema.Schema_error *)

val union_into : t -> t -> int
(** [union_into dst src] mutates [dst], adding all tuples of [src]
    (permuted as needed); returns the number of new tuples. *)

val equal : t -> t -> bool
(** Set equality modulo column order. *)

val distinct_count : t -> string -> int
(** Number of distinct values in a column (for statistics). *)

val distinct_counts : t -> (string * int) list
(** [distinct_count] of every column, in schema order, counted together. *)

val select_counts : Pred.t -> t -> int * (string * int) list
(** Cardinality and {!distinct_counts} of [select p r], from one scan of
    [r] and without building the selection.
    @raise Schema.Schema_error if [p] mentions a column absent from [r]. *)

val pp : Format.formatter -> t -> unit
(** Schema plus cardinality plus (small) contents; stable order. *)

val pp_full : Format.formatter -> t -> unit
val to_string : t -> string
