(** The PhysicalPlanGenerator: distributed execution of mu-RA terms
    (Sec. IV of the paper).

    Non-recursive operators map to distributed-dataset operations with
    automatic broadcast/shuffle join selection. Fixpoints are executed
    with one of three physical plans:

    - {b P_gld} ("global loop on the driver"): each iteration runs
      distributed set operations; the union/difference against the
      accumulated result costs at least one shuffle per iteration.
    - {b P_plw_s} ("parallel local loops on the workers", SetRDD
      implementation): the constant part is partitioned across workers
      (by the stable columns when they exist), the relations of the
      variable part are broadcast once, and each iteration uses only
      narrow partition-wise operations — zero shuffles inside the loop.
      A branch join whose constant side is, under [ρ]/[π̃] layers, a
      join of two fix-free factors broadcasts the factors and probes
      them in turn when their join expands ([Σ_{l∈L} |R_key(l)| > |L| +
      |R|]): first the factor sharing a column with the recursive side,
      then the other, dropping the inner join columns after. A join
      that does not expand, or whose factors share no column with the
      recursive side, is composed from the factors and probed whole
      (see {!Pipeline.compile}).
    - {b P_plw_pg}: same distribution scheme, but each worker runs its
      complete local fixpoint inside a single mapPartitions call: the
      term [Fix (X, __seed ∪ recursive branches)] run with
      {!Localdb.Instance.query} on its local database instance (the
      PostgreSQL stand-in), [__seed] being its partition of the
      constant part.

    Plan selection (Sec. IV-B-c): when the fixpoint has a stable column,
    repartition by it and use P_plw (no final distinct needed — the local
    fixpoints are provably disjoint); otherwise use P_gld. *)

type fixpoint_plan = P_gld | P_plw_s | P_plw_pg

val pp_plan : Format.formatter -> fixpoint_plan -> unit
val plan_name : fixpoint_plan -> string

type config = {
  cluster : Distsim.Cluster.t;
  force_plan : fixpoint_plan option;  (** [None]: automatic selection *)
  broadcast_threshold : int;
      (** joins whose smaller side is at most this many tuples use a
          broadcast join *)
  max_iterations : int;  (** fixpoint iteration guard *)
  max_tuples : int;  (** memory guard on any materialised dataset *)
  use_stable_partitioning : bool;
      (** ablation knob: when [false], P_plw skips the stable-column
          repartitioning of Sec. IV-A2 and pays a final distinct *)
}

val default_config : Distsim.Cluster.t -> config

exception Resource_limit of string
(** Raised when [max_iterations] or [max_tuples] is exceeded (the
    harness reports it as an engine failure, as the paper does for
    crashed systems). *)

type fix_report = {
  var : string;
  fix_path : string;
      (** term-tree path of the [Fix] node (root "0"; child [i] of [p] is
          [p ^ "." ^ i]; Fix children = constant branches then recursive
          ones, in [Mura.Fcond.split] order — the convention shared with
          [Cost.Feedback]) *)
  plan : fixpoint_plan;
  stable : string list;  (** stable columns found by the stabilizer *)
  partitioned_by : string list;  (** actual repartitioning applied *)
  iterations : int;
  result_size : int;
  deltas : int list;
      (** per-iteration fresh-tuple counts, in iteration order (the last
          entry is the empty delta that terminates the loop); [[]] for
          P_plw^pg, whose single superstep hides the local rounds *)
}

type report = {
  mutable fixpoints : fix_report list;  (** innermost-first *)
}

type ctx
(** A session: a cluster, a driver-side catalog, and the cache of
    already-distributed tables. *)

val session : config -> (string * Relation.Rel.t) list -> ctx
val config_of : ctx -> config
val report : ctx -> report
val metrics : ctx -> Distsim.Metrics.t

val exec_dds : ctx -> Mura.Term.t -> Distsim.Dds.t
(** Distributed evaluation; the result stays distributed. Every operator
    runs inside an ["op"] trace span carrying its term-tree path and,
    where its output materializes, its [rows] (see {!Analyze}). *)

val explain : ctx -> Mura.Term.t -> string
(** Describe the physical plan that {!exec_dds} would choose, without
    executing it: operator tree with join strategies and, per fixpoint,
    the selected plan, the stable columns, the repartitioning, (for
    P_plw^pg) the local fixpoint term each worker's database runs and
    (for P_plw^s) the lowering of each factor join in a recursive
    branch. Fixpoint plan selection mirrors execution exactly; so does
    the factor-join lowering, for which the two fix-free factors are
    evaluated on the driver. Other join strategy choices are stated as
    rules (sizes are only known at run time). *)

val run : ctx -> Mura.Term.t -> Relation.Rel.t
(** [exec_dds] followed by a collect to the driver. *)

(** EXPLAIN ANALYZE: the annotated plan tree of a traced run.

    Actuals come from the code that ran: run the term with a tracer
    installed, then fold its ["op"] spans by node path. Node addressing
    follows the shared path convention (see {!type:fix_report}[.fix_path]),
    which is how per-path estimates from [Cost.Feedback] join against
    these actuals. *)
module Analyze : sig
  type node = {
    path : string;
    label : string;
    rows : int option;
        (** output cardinality where the node materialized (summed over
            the node's evaluations, e.g. a recursive branch's iterations);
            [None] for a node fused into its consumer's chain *)
    candidates : int option;
        (** rows the node's fused chains emitted into their dedup
            builders before dedup, summed like [rows]; [None] where no
            chain materialized through a builder *)
    lowering : string option;
        (** how the node was lowered, where the executor chose between
            lowerings: a P_plw^s factor join's "factor probes: …" or
            "composed probe: …" *)
    ns : float;  (** cumulative time, inclusive of children *)
    calls : int;  (** evaluations (iteration count for recursive branches) *)
    plan : string option;  (** fixpoint plan name, [Fix] nodes only *)
    iterations : int;  (** fixpoint iterations; 0 elsewhere *)
    deltas : int list;  (** per-iteration fresh-tuple counts *)
    children : node list;
  }

  val tree : ctx -> Trace.event list -> Mura.Term.t -> node
  (** Join the term tree with the run's trace events and the session's
      fixpoint reports. Pass only the events of the run being analyzed. *)

  val render : ?annot:(string -> string) -> node -> string
  (** Indented annotated-plan text. [annot path] injects extra
      per-node text right after [rows=] and [candidates=] (the harness passes
      "est=<estimate> err=<q-error>" from [Cost.Feedback]). *)
end
