(** Distributed datasets (the runtime's RDD/Dataset analogue).

    A [Dds.t] is a relation split into one partition per worker. Each
    partition is a tuple {e set} (the SetRDD representation the paper
    borrows from BigDatalog): intra-partition duplicates never exist;
    inter-partition duplicates are possible unless the dataset is
    hash-partitioned.

    Narrow operations (filter, map_partitions, partition-wise set ops,
    broadcast joins) touch no network. Wide operations (repartition,
    distinct, shuffle join, collect) are charged on the owning cluster's
    {!Metrics.t}.

    On a parallel cluster with {!Cluster.pooled_shuffle} enabled, wide
    operations run as a {e two-phase shuffle} on the persistent worker
    pool — a map phase (each worker routes its own partition into
    per-destination buckets, hashing key columns in place and counting
    moved records locally) and a merge phase (each destination merges
    its incoming buckets into a presized set, reusing the map-side
    hashes) — each phase with its own trace span ([dds.exchange.map] /
    [dds.exchange.merge]) carrying per-phase skew attributes. Result
    partitions and the charged records/bytes/moved counts are
    bit-identical to the sequential driver-side exchange, which remains
    the fallback for small exchanges (see {!Cluster.shuffle_mode}). *)

type partitioning =
  | Arbitrary  (** no placement guarantee *)
  | Hashed of string list
      (** co-located by hash of these columns: equal projections on these
          columns imply the same worker *)

val same_hashing : partitioning -> partitioning -> bool
(** Whether two partitionings are [Hashed] by the same column list — the
    repartition no-op rule ({!repartition} skips the exchange when
    [same_hashing current (Hashed by)]). Compiled fixpoint runners track
    partitioning themselves and apply the same rule before calling
    {!repartition_batches}. *)

type t

val cluster : t -> Cluster.t
val schema : t -> Relation.Schema.t
val partitioning : t -> partitioning
val num_partitions : t -> int
val cardinal : t -> int
(** Total tuples (a driver-side count; not charged as data movement). *)

val partition : t -> int -> Relation.Tset.t
(** Read-only view of a partition (tests and local engines). *)

val partition_sizes : t -> int array

(** {1 Creation and collection} *)

val of_rel : ?by:string list -> Cluster.t -> Relation.Rel.t -> t
(** Ship a driver-side relation to the workers: hash-partitioned [~by]
    the given columns, or spread round-robin. Charged as one shuffle.
    Pooled clusters route the input in parallel (each worker scans a
    slice of the relation); round-robin placement is reconstructed from
    a counting pass so partitions match the sequential path exactly. *)

val empty : Cluster.t -> Relation.Schema.t -> t

val collect : t -> Relation.Rel.t
(** Gather all partitions to the driver (charged as one shuffle). On
    pooled clusters the per-partition snapshot + hashing runs on the
    workers; only the final merge is driver-side. *)

(** {1 Narrow operations} *)

val filter : Relation.Pred.t -> t -> t

val rename : (string * string) list -> t -> t
(** Schema-only relabelling; the partitioning column names are renamed
    along with the schema. *)

val map_partitions :
  ?op:string -> ?partitioning:partitioning -> schema:Relation.Schema.t ->
  (int -> Relation.Tset.t -> Relation.Tset.t) -> t -> t
(** [map_partitions ~schema f d] applies [f worker_index partition] on
    every worker. The default resulting partitioning is [Arbitrary];
    callers asserting preservation pass it explicitly. [?op] labels the
    operation's span in the ambient trace (default ["map_partitions"]). *)

val set_union_local : t -> t -> t
(** Partition-wise set union (the SetRDD union: no shuffle). Schemas must
    agree on names; the right side is relaid out if needed. The result is
    freshly allocated (presized for the combined cardinality in one pass);
    neither input is mutated. *)

val set_diff_local : t -> t -> t
(** Partition-wise difference. Only meaningful when both sides are
    co-partitioned; the caller is responsible (checked: both [Hashed] on
    the same columns, or both [Arbitrary] by explicit choice). *)

val set_inter_local : t -> t -> t
(** Partition-wise intersection (probes the smaller side of each
    partition pair against the larger). Like {!set_diff_local}, only
    meaningful on co-partitioned inputs; the result keeps the left
    side's schema layout and partitioning. Used by the DRed
    over-deletion pass to clip propagated deletions to tuples actually
    in the accumulator. *)

val copy_parts : t -> t
(** Driver-side deep copy of every partition (not charged — no simulated
    data movement). The escape hatch callers use to obtain a loop-private
    accumulator before handing it to {!diff_union_in_place}. *)

val diff_union_in_place : acc:t -> produced:t -> t * t
(** [diff_union_in_place ~acc ~produced] is the semi-naive delta
    maintenance step: returns [(acc', fresh)] where [fresh = produced \
    acc] and [acc' = acc ∪ produced], computed in a single stage with one
    probe per tuple ({!Relation.Tset.absorb_fresh}); the accumulator is
    grown in place rather than copied every iteration.

    {b Ownership:} [acc]'s partitions are mutated in place ([acc'] shares
    them). The caller must own [acc] exclusively — in the semi-naive
    drivers the accumulator is loop private, created by the initial
    repartition or defensively {!copy_parts}ed; it must never alias a
    cached base relation. Traced as [dds.diff_union] with input/output
    size and skew attributes. [acc'] keeps [acc]'s partitioning when
    both sides agree on it, and is [Arbitrary] otherwise. *)

(** {2 Iteration-shuffle deduplication}

    A semi-naive P_gld loop reshuffles its produced delta every iteration,
    and re-derivations of already-discovered tuples are shuffled again
    each time. A {!seen_filter} gives the exchange map side a per-source,
    per-destination memory ([Tset] per (src, dst) pair) of everything it
    already routed through this filter; re-derivations are dropped before
    they are bucketed or counted. Inside a fixpoint this is sound:
    anything routed earlier was already unioned into the accumulator, so
    the subsequent diff would discard it anyway — results, iteration
    counts and per-iteration fresh counts are bit-identical while
    [shuffled_records] / [shuffled_bytes] strictly shrink on workloads
    with re-derivations. Drops are charged as
    {!Metrics.record_dedup_dropped} and attached to the [dds.repartition]
    span as [dedup_dropped]. *)

type seen_filter

val seen_filter : Cluster.t -> seen_filter
(** A fresh filter, scoped to one fixpoint loop (one per [Fix] node). *)

val seen_dropped : seen_filter -> int
(** Total tuples this filter has dropped so far. *)

val broadcast : Cluster.t -> Relation.Rel.t -> unit
(** Meter shipping a driver-side relation once to every other worker.
    Joining against it afterwards is narrow and free, so a fixpoint loop
    that reuses the same broadcast (as P_plw does) pays the
    communication exactly once. *)

(** {1 Wide operations} *)

val repartition : ?seen:seen_filter -> by:string list -> t -> t
(** Hash-repartition; tuples already on their target worker are not
    counted as moved. No-op when already [Hashed] by the same columns.
    [?seen] attaches an iteration-shuffle {!seen_filter}: tuples the
    filter has already routed are dropped map-side (absent from the
    result and from the moved/records/bytes meters). *)

val distinct : t -> t
(** Global deduplication. Free when the dataset is [Hashed] by any column
    subset (equal tuples are then co-located and partitions are sets);
    otherwise repartitions by the full schema. *)

val join_shuffle : t -> t -> t
(** Natural join by co-partitioning both sides on the shared columns.
    Degenerates to a broadcast-style plan when there are no shared
    columns. *)

val antijoin_shuffle : t -> t -> t
(** [antijoin_shuffle l r]: distributed [l ▷ r] by co-partitioning both
    sides on the shared columns. With no shared columns, falls back to a
    broadcast of the right side's emptiness. *)

val union_distinct : t -> t -> t
(** The Dataset union-then-distinct used by the P_gld plan. *)

(** {1 Columnar batch exchange (compiled execution core)}

    The compiled fixpoint runner keeps its per-worker deltas as
    {!Relation.Batch.t} column blocks instead of tuple sets. These
    entry points are the batch twins of {!repartition} / dataset
    adoption, with identical communication accounting: same routing
    ([Tuple.hash_positions] of the key columns — the stored full-tuple
    hash column when the keys are the whole schema in order), same
    moved/dropped counts, same seen-filter semantics. Output partitions
    are duplicate-free (merged through a presized dedup builder reusing
    the map-side hashes — no rehash, no table growth). *)

val of_partitions :
  Cluster.t -> schema:Relation.Schema.t -> partitioning:partitioning ->
  Relation.Tset.t array -> t
(** Adopt already-distributed partitions as a dataset. No data movement,
    nothing charged; the array must have one partition per worker.
    @raise Invalid_argument on a partition-count mismatch. *)

val exchange_batches :
  ?seen:seen_filter -> Cluster.t -> Relation.Batch.t array ->
  positions:int array -> workers:int -> Relation.Batch.t array * int * int
(** [exchange_batches cluster batches ~positions ~workers] routes every
    row by the hash of the columns at [positions]; returns the fresh
    per-destination batches, the moved count (kept rows whose destination
    differs from their source) and the seen-filter drop count. Pooled or
    sequential per {!Cluster.shuffle_mode}; both produce bit-identical
    output. Meters nothing — callers meter, mirroring {!repartition}. *)

val repartition_batches :
  ?seen:seen_filter -> Cluster.t -> Relation.Batch.t array ->
  schema:Relation.Schema.t -> by:string list -> Relation.Batch.t array
(** Charged batch repartition: {!exchange_batches} plus the exact
    metering of a non-no-op {!repartition} (shuffle records/bytes, dedup
    drops, per-worker partition-size samples, span attributes). The
    caller is responsible for the [same_hashing] no-op rule — call this
    only when the exchange is real. *)
