(** Columnar tuple batches (struct-of-arrays) for the compiled execution
    core.

    A batch of arity [k] holds [k] unboxed [int array] columns plus a
    parallel column of full-tuple hashes: fused pipelines stream rows
    column-at-a-time, exchanges route on the stored hash, and batch->set
    conversion reuses it via {!Tset.add_cols} so [Tuple.hash] runs once per
    tuple per iteration. *)

type t

val create : ?capacity:int -> arity:int -> unit -> t
val arity : t -> int
val length : t -> int

val cols : t -> int array array
(** The live column arrays ([arity] of them, each at least [length] long).
    Exposed for pipelines and exchanges; treat as read-only. *)

val hashes : t -> int array
(** Parallel full-tuple hash column: entry [i] is [Tuple.hash] of row [i]. *)

val hash : t -> int -> int
val hash_positions : t -> int array -> int -> int
(** [hash_positions b positions i] is [Tuple.hash_positions positions] of
    row [i], evaluated against the columns (used for map-side routing). *)

val to_tuple : t -> int -> Tuple.t
val push : t -> Tuple.t -> int -> unit
(** [push b tu h] appends a row; [h] must be [Tuple.hash tu]. *)

val push_row : t -> t -> int -> unit
(** [push_row dst src i] appends row [i] of [src] (same arity), reusing its
    stored hash. *)

val of_tset : arity:int -> Tset.t -> t
val to_tset : t -> Tset.t
(** Presized for [length b] entries so the conversion never rehashes; rows
    need not be distinct — the set probe dedups. *)

val add_to_tset : t -> Tset.t -> unit
(** Add every row into an existing set, reserving capacity up front. *)

val iter : (Tuple.t -> unit) -> t -> unit

val slice_bounds : int -> slice:int -> slices:int -> int * int
(** [slice_bounds len ~slice ~slices] is the [\[lo, hi)] row range of the
    [slice]-th of [slices] chunks — same arithmetic as {!Tset.iter_slice},
    so chunks concatenate to the batch order. *)

val hash_row : int array -> int
(** [Tuple.hash] of a raw row (e.g. a builder scratch). *)

(** Deduplicating batch builder: an open-addressing index over row ids with
    a reusable scratch row, so a fused pipeline pays zero allocation for a
    candidate row that turns out to be a duplicate. *)
module Builder : sig
  type batch = t
  type t

  val create : ?capacity:int -> arity:int -> unit -> t

  val scratch : t -> int array
  (** The reusable scratch row; fill it, then call {!add_scratch}. *)

  val add_scratch : t -> int -> bool
  (** [add_scratch t h] appends the scratch row if not already present;
      [h] must be [hash_row] of the scratch. Returns [true] iff appended. *)

  val mem_scratch : t -> int -> bool

  val clear : t -> unit
  (** Forget every row (the builder then works as a fresh one), keeping
      the allocated capacity: a reusable seen set. *)

  val batch : t -> batch
  val length : t -> int
end
