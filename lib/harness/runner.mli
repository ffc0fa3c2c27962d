(** Experiment runner: execute a matrix of (query × system) workloads and
    print the paper-style result tables. *)

type row = { label : string; cells : (string * Systems.outcome) list }

val run_one :
  ?timeout_s:float -> Systems.system -> Systems.workload -> Systems.outcome
(** Default timeout 60 s (scaled-down version of the paper's 1000 s). *)

val run_matrix :
  ?timeout_s:float ->
  systems:Systems.system list ->
  (string * Systems.workload) list ->
  row list
(** One row per workload, one cell per system, each timed once in list
    order. The first workload is first run once under every system and
    its outcomes discarded, so the process's warm-up does not fall on
    whichever system comes first. *)

val cell_text : Systems.outcome -> string
(** "1.234" (seconds), "fail", or "t/o". *)

val print_table :
  ?extra:(string * (Systems.outcome -> string)) list ->
  title:string -> columns:string list -> row list -> unit
(** Aligned text table on stdout: label column, one column per system
    (matched by name against the cells), optional derived columns
    computed from the first system's outcome. *)

val print_series : title:string -> x_label:string -> (string * row list) list -> unit
(** For figure-style output: one block per x value. *)

(** {1 Machine-readable results and trace rollups} *)

val split_label : string -> string * string list
(** ["Q1  [C1,C2]"] → [("Q1", ["C1"; "C2"])]; labels without a class
    bracket return the trimmed label and an empty list. *)

val rows_json : row list -> string
(** JSON array: one object per row with the query id, its classes and a
    per-system object carrying the outcome (status, wall/sim time and
    communication metrics). *)

val write_json : ?dir:string -> name:string -> row list -> unit
(** Write {!rows_json} to [BENCH_<name>.json] in [dir] (default ["."]). *)

val print_trace_rollup : unit -> unit
(** Print the ambient trace's per-operator and per-iteration rollup
    tables (no-op when tracing is disabled). *)

(** {1 EXPLAIN and EXPLAIN ANALYZE} *)

val explain :
  ?workers:int ->
  ?force_plan:Physical.Exec.fixpoint_plan ->
  graph:Relation.Rel.t ->
  query:string ->
  unit ->
  string
(** Optimize the UCRPQ and describe, without executing: the rewritten
    logical plan and the physical plan [Physical.Exec] would choose, or
    the one [force_plan] forces for every fixpoint, with the P_plw^pg
    local fixpoint when that is the plan (the [murarun --explain]
    pipeline). *)

type analysis = {
  a_query : string;
  a_system : string;
  a_workers : int;
  a_logical_plan : string;
  a_physical_plan : string;
  a_annotated_plan : string;
      (** rendered tree with per-node [rows=… est=… err=… time=…] *)
  a_tree : Physical.Exec.Analyze.node;
  a_mismatches : Cost.Feedback.mismatch list;  (** worst q-error first *)
  a_q_error : float;  (** max per-operator q-error *)
  a_outcome : Systems.outcome;
  a_metrics : Distsim.Metrics.t;
  a_ordering : string option;
      (** estimate-vs-actual plan-ordering disagreement, when checked *)
}

val analyze :
  ?workers:int ->
  ?timeout_s:float ->
  ?force_plan:Physical.Exec.fixpoint_plan ->
  ?compare_plans:bool ->
  graph:Relation.Rel.t ->
  query:string ->
  unit ->
  analysis
(** EXPLAIN ANALYZE: optimize, execute under a tracer (the installed one
    when tracing is on, a fresh one otherwise), fold the run's operator
    spans into per-node actuals ({!Physical.Exec.Analyze.tree}), join
    them against the cost estimator's per-node cardinalities, and
    collect the cluster's skew/straggler histograms. With [compare_plans] (default false) the two cheapest
    logical plans are also executed and their actual sim-time ordering
    checked against the estimated one ({!Cost.Feedback.check_plan_ordering},
    which feeds [Cost.Feedback.ordering_hook]). *)

val skew_table : Distsim.Metrics.t -> string
(** Per-worker skew digest: straggler ratio, histogram percentiles for
    worker compute time / partition sizes / per-stage straggler ratios,
    and the cumulative per-worker totals. *)

val print_analysis : analysis -> unit
(** Annotated plan, ranked mis-estimates, skew table and (when present)
    the plan-ordering disagreement, on stdout. *)

val report_json : analysis -> string
(** The machine-readable run report: query, system, plan strings,
    outcome, metrics (scalar counters + histograms + per-worker totals +
    straggler ratio), the per-operator actuals tree, and the q-error
    ranking. *)

val write_report : file:string -> analysis -> unit
(** Write {!report_json} to [file]. *)
