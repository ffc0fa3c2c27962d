(** Compiled columnar execution core: the distributed executor's fused
    operator pipelines over {!Relation.Batch} column blocks.

    [compile] lowers the union-free recursive branches of a fixpoint
    into chains of fused segments (select/project/rename/join-probe as
    one closure chain per worker, streaming rows column-at-a-time with
    no intermediate [Tuple.t] materialisation) separated by charged
    batch exchanges; [run] drives the semi-naive loop over them with a
    mutable per-worker accumulator ({!Relation.Tset.add_cols} probes
    reusing the batch hash column) and [apply] applies them once.
    {!Shell} lowers the non-fixpoint operators around [Fix] nodes onto
    the same chains. Zero-arity relations run as width-0 batches.

    Joins probe a {!Relation.Join_index}. A probe whose input has a
    column no later operator of its chain reads expands each distinct
    (live columns, canonical payload group) pair once per application,
    from the first application with at least as many input rows as the
    index has groups: only duplicate rows are skipped, so results,
    iterations and communication counters are those of the unfactorized
    chain.

    Every application of a branch runs inside an ["op"] trace span
    ({!op_span}) carrying the branch node's path, output [rows] and
    [candidates] (the rows its chains emitted into their dedup builders),
    so a folded trace reports both per branch, summed over iterations. *)

module Schema = Relation.Schema
module Rel = Relation.Rel
module Term = Mura.Term
module Dds = Distsim.Dds
module Cluster = Distsim.Cluster

(** {1 Operator spans} *)

val op_label : Term.t -> string
(** Span label of a physical operator ("Join", "Fix X", "Rel E", …). *)

val op_span : path:string -> string -> (unit -> 'a) -> 'a
(** [op_span ~path label f] runs [f] inside a trace span of category
    ["op"] with a [path] attribute: the term-tree path of the node
    (root "0", child [i] of [p] is [p ^ "." ^ i]). *)

val set_rows : int -> unit
(** Attach the [rows] attribute (the node's output cardinality, known
    where its chain materializes) to the innermost open span; a no-op
    when tracing is off. *)

(** {1 Recursive branches} *)

type t
(** A compiled fixpoint: fused per-worker pipelines for every recursive
    branch, plus their once-per-fixpoint preparation hooks. *)

val compile :
  cluster:Cluster.t ->
  var:string ->
  join_mode:[ `Broadcast | `Shuffle ] ->
  x_schema:Schema.t ->
  exec_const:(path:string -> Term.t -> Dds.t) ->
  eval_const:(path:string -> Term.t -> Rel.t) ->
  branch_path:(int -> string) ->
  Term.t list ->
  t
(** Compile the recursive branches of [mu(var = ...)], evaluating their
    constant sides in term order: driver-side via [eval_const] for
    broadcast joins ([`Broadcast], P_plw), distributed via [exec_const]
    for [`Shuffle] (P_gld). Broadcasts are charged here, once.
    [x_schema] is the layout of the datasets the branches are applied
    to; [branch_path i] names branch [i]'s node.
    @raise Mura.Eval.Eval_error on a foreign recursive variable, a
    nested fixpoint or a non-positive antijoin; schema errors surface
    from the operator that needs the missing column. *)

val run :
  t ->
  var:string ->
  plan_label:string ->
  x0:Dds.t ->
  x0_private:bool ->
  ?delta0:Dds.t ->
  per_iter_by:string list option ->
  ?seen:Dds.seen_filter ->
  max_iterations:int ->
  max_tuples:int ->
  limit:(string -> exn) ->
  unit ->
  Dds.t * int * int list
(** Run the compiled semi-naive loop from [x0]. [x0_private] says the
    caller's initial repartition allocated fresh partitions (they are
    adopted and mutated in place; otherwise a defensive copy is taken).
    [?delta0] resumes an interrupted or incrementally-maintained
    fixpoint: the first iteration's frontier is [delta0] (which the
    caller has already absorbed into [x0]) instead of the whole of
    [x0]; it must share [x0]'s schema. [per_iter_by] is the
    per-iteration repartition key (P_gld's full schema columns; [None]
    for P_plw's narrow loop) with [?seen] attaching the
    iteration-shuffle dedup filter. [limit] builds the resource-limit
    exception ([Exec.Resource_limit] — passed in to keep this module
    below [Exec]). Returns (result, iterations, per-iteration fresh
    counts).
    @raise Relation.Schema.Schema_error when a branch's output columns
    differ from [x_schema]'s. *)

val apply : t -> Dds.t -> Dds.t list
(** Apply every branch once to [d] (laid out as [x_schema]), with the
    metering of {!run}'s iterations: one dataset per branch, in the
    branch's own output layout, partitioned where its rows were
    produced. The incremental-maintenance entry. *)

(** {1 Whole-plan shell compilation}

    The non-fixpoint shell around [Fix] nodes lowers onto the same fused
    chains as the recursive branches. [Exec] drives the lowering (it
    owns operator semantics, size decisions and metering); this module
    provides the chain mechanics: per-worker batches with a pending
    fused-operator suffix, materialized only where values are
    observed. *)
module Shell : sig
  type chain
  (** Per-worker batches plus a pending fused-operator suffix. *)

  val of_batches : schema:Schema.t -> part:Dds.partitioning -> Relation.Batch.t array -> chain
  (** Adopt per-worker batches (one per worker) as a materialized chain. *)

  val of_dds : Cluster.t -> Dds.t -> chain
  (** Bridge a dataset's partitions into batches (unmetered adoption). *)

  val to_dds : Cluster.t -> chain -> Dds.t
  (** Materialize and adopt the partitions back as a dataset (unmetered;
      partitioning label carried over). *)

  val schema : chain -> Schema.t
  val part : chain -> Dds.partitioning
  val set_part : chain -> Dds.partitioning -> chain

  val is_mat : chain -> bool
  (** No pending operators. *)

  val rows : chain -> int
  (** Total rows; the chain must be materialized. *)

  val batches : chain -> Relation.Batch.t array
  (** The per-worker batches; the chain must be materialized. *)

  val materialize : Cluster.t -> chain -> chain
  (** Run the pending suffix: a hash-reusing copy pass when no pending
      op changes row content, otherwise one fused closure chain per
      worker into a presized dedup builder, whose candidate count goes
      on the innermost open span as its [candidates] attribute. *)

  val empty_like : chain -> chain
  (** Materialized empty chain with the same schema and partitioning. *)

  val filter : Relation.Pred.t -> chain -> chain
  (** Fused selection, compiled against the chain's schema. *)

  val rename_cols : (string * string) list -> chain -> chain
  val project : string list -> chain -> chain

  val probe :
    key_pos:int array ->
    width:int ->
    out_schema:Schema.t ->
    index:(int -> Relation.Join_index.t) ->
    chain ->
    chain
  (** Fused index join: probe worker [w]'s index at [key_pos] and append
      each matching payload row ([width] columns). *)

  val antiprobe : key_pos:int array -> index:(int -> Relation.Join_index.t) -> chain -> chain
  (** Fused antijoin: keep the rows whose key worker [w]'s index lacks. *)

  val reorder : into:Schema.t -> chain -> chain
  (** Fused column permutation into the given layout (same names). *)

  val union : Cluster.t -> chain -> chain -> chain
  (** Per-worker dedup merge into the left layout, mirroring
      [Dds.set_union_local] (stored-hash reuse, [same_hashing]
      partitioning fold). *)

  val repartition : Cluster.t -> chain -> by:string list -> chain
  (** Charged batch exchange ([Dds.repartition_batches]); the caller
      applies the [same_hashing] no-op rule. *)
end
