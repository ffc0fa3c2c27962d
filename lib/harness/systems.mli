(** The systems compared in the paper's experiments, as uniform drivers.

    Each driver takes a workload (a labelled graph plus a query) and
    produces an outcome: result size, wall-clock time, simulated parallel
    time and communication metrics — or a failure (resource budget
    exceeded, mirroring the crashes the paper reports) or a timeout. *)

type workload = {
  graph : Relation.Rel.t;  (** (src, pred, trg) or (src, trg), per query *)
  ucrpq : string option;  (** UCRPQ text, when the query is regular *)
  mu_term : Mura.Term.t option;  (** mu-RA form (table name ["E"]) *)
  datalog : Datalog.Ast.program option;  (** Datalog form (edb ["edge"]) *)
}

val of_ucrpq : Relation.Rel.t -> string -> workload
(** Workload with all three query forms derived from the UCRPQ text. *)

val of_mu : ?datalog:Datalog.Ast.program -> Relation.Rel.t -> Mura.Term.t -> workload

type success = {
  wall_s : float;  (** measured wall-clock seconds *)
  sim_s : float;  (** simulated parallel time (max-per-worker + network) *)
  result_size : int;
  shuffles : int;
  shuffled_records : int;
  broadcast_records : int;
  supersteps : int;
}

type outcome =
  | Success of success
  | Failed of string  (** engine crash: budget exceeded, unsupported... *)
  | Timeout of float

val pp_outcome : Format.formatter -> outcome -> unit

type system = { name : string; short : string; run : timeout_s:float -> workload -> outcome }

val guarded : timeout_s:float -> Distsim.Metrics.t option -> (unit -> int) -> outcome
(** Wrap a runner body (returning the result size) with deadline
    installation, failure capture and metric harvesting — the shared
    execution envelope of every system driver, also used by
    [Runner.analyze]. *)

val optimize : (string * Relation.Rel.t) list -> Mura.Term.t -> Mura.Term.t
(** The logical optimization shared by all mu-RA systems: MuRewriter
    exploration ranked by the cost estimator over the actual table
    statistics. *)

(** {1 The systems} *)

val dist_mu_ra : ?workers:int -> ?max_tuples:int -> unit -> system
(** The full pipeline: Query2Mu / mu-RA term -> MuRewriter + CostEstimator
    -> PhysicalPlanGenerator with automatic plan selection. [max_tuples]
    bounds any materialised dataset (for same-budget comparisons). *)

val dist_mu_ra_gld : ?workers:int -> ?max_tuples:int -> unit -> system
(** Same logical optimization, but every fixpoint forced to P_gld. *)

val dist_mu_ra_plw : ?workers:int -> [ `Setrdd | `Postgres ] -> system
(** Fixpoints forced to one P_plw implementation (Fig. 7). *)

val dist_mu_ra_unopt : ?workers:int -> unit -> system
(** Ablation: physical plans as usual, but no logical rewriting (the
    query is executed as translated). *)

val dist_mu_ra_unpartitioned : ?workers:int -> unit -> system
(** Ablation: stable-column repartitioning disabled — P_plw must pay a
    final distinct and its local fixpoints may duplicate work. *)

val centralized_mu_ra : unit -> system
(** mu-RA on the single-node interpreted engine (the paper's
    PostgreSQL-based centralized mu-RA). Logical optimization included. *)

val bigdatalog : ?workers:int -> ?max_facts:int -> unit -> system
(** Datalog with magic-set binding propagation and GPS decomposition. *)

val myria : ?workers:int -> ?max_facts:int -> unit -> system
(** Global incremental Datalog with a memory budget (fails on large
    transitive closures, as in the paper). *)

val graphx : ?workers:int -> ?max_state:int -> unit -> system
(** Pregel NFA-product traversal. Only supports single-atom UCRPQ
    workloads; others are reported as [Failed "unsupported"]. *)

val all : unit -> system list
