(** Mutable hash sets of tuples.

    Open-addressing set specialised for [int array] keys; this is the
    storage behind every {!Rel.t} and the workhorse of semi-naive fixpoint
    evaluation (union / membership / difference of deltas). *)

type t

val create : ?capacity:int -> unit -> t

val reserve : t -> int -> unit
(** [reserve s n] grows the table so that [n] elements fit without any
    further internal resize; a no-op when the table is already large
    enough. Used to presize hot-path outputs (joins, unions, exchanges)
    whose cardinality is known or well-estimated up front. *)

val add : t -> Tuple.t -> bool
(** [add s tu] inserts [tu]; returns [true] iff it was not already
    present. The array is stored as-is and must not be mutated after. *)

val add_hashed : t -> Tuple.t -> int -> bool
(** [add_hashed s tu h] is [add s tu] for a caller that already holds
    [h = Tuple.hash tu] (e.g. an exchange, reusing the hash computed
    while routing). Passing any other value for [h] corrupts the set. *)

val mem : t -> Tuple.t -> bool

val add_cols : t -> int array array -> row:int -> hash:int -> bool
(** [add_cols s cols ~row ~hash] inserts the tuple whose [c]-th value is
    [cols.(c).(row)], probing column-wise and allocating the stored
    [Tuple.t] only when the insert actually happens — the hot path of the
    compiled columnar executor, where most candidate rows are duplicates.
    [hash] must equal [Tuple.hash] of the materialised row. *)

val rehash_grow_count : unit -> int
(** Process-wide count of hash-table growths triggered by inserts (explicit
    presizing via {!reserve}/{!copy_with_capacity} never counts). Presized
    hot paths are expected to keep this at zero; the micro benches assert
    it. *)

val reset_rehash_grows : unit -> unit
val cardinal : t -> int
val is_empty : t -> bool
val iter : (Tuple.t -> unit) -> t -> unit

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val exists : (Tuple.t -> bool) -> t -> bool
val for_all : (Tuple.t -> bool) -> t -> bool
val to_list : t -> Tuple.t list
val to_array : t -> Tuple.t array

(** Eagerly materialised sequence (safe against later mutation). *)
val to_seq : t -> Tuple.t Seq.t
val of_list : Tuple.t list -> t
val copy : t -> t

val copy_with_capacity : t -> int -> t
(** [copy_with_capacity s n] is [copy s] followed by [reserve _ n], done in
    a single pass: the copy is written straight into a table big enough for
    [n] entries instead of copying and immediately rehashing. The resulting
    table has exactly the geometry (and so iteration order) of the two-step
    version. *)

val add_all : t -> t -> int
(** [add_all dst src] inserts every tuple of [src] into [dst]; returns the
    number of tuples that were new. *)

val equal : t -> t -> bool
(** Set equality (same cardinality and membership). *)
