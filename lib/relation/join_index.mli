(** Columnar join index for the compiled executor.

    Rows are grouped by their key columns; each group's payload (the
    columns the join appends) is stored contiguously, row-major, in one
    flat array, and keys are compared in place, so a probe allocates
    nothing and answers a group id. Groups whose payload sets are equal
    share a {e canonical id}, computed on the first {!canon} call only. *)

type t

val of_tset : key_pos:int array -> payload_pos:int array -> Tset.t -> t
(** [of_tset ~key_pos ~payload_pos s] indexes the tuples of [s] by their
    values at [key_pos], with payload the values at [payload_pos]. *)

val of_batch : key_pos:int array -> payload_pos:int array -> Batch.t -> t
(** Same, over the rows of a batch. *)

val find : t -> int array -> int array -> int
(** [find t row key_pos] is the group whose key equals [row] at
    [key_pos] (positions listed in the index's key order), or [-1]. *)

val mem : t -> int array -> int array -> bool
(** [mem t row key_pos] is [find t row key_pos >= 0]. *)

val start : t -> int -> int
val stop : t -> int -> int
(** Group [g]'s payload rows are rows [start t g] to [stop t g - 1]; row
    [r] occupies [payload.(r * width) .. payload.(r * width + width - 1)]. *)

val groups : t -> int

val payload : t -> int array
(** The flat payload array (never reordered). *)

val canon : t -> int array
(** Canonical group ids, computed on the first call (domain-safe): two
    groups share an id iff their payload sets are equal. A group whose
    payload set no other group has gets a negative id. *)

val has_canon : t -> bool
(** Whether {!canon} has run. *)
