(** Multi-tenant query serving over one shared cluster.

    A [Serve.t] owns the single long-lived {!Distsim.Cluster} of the
    process and turns it from a one-shot experiment harness into a
    query {e service}: multiple client sessions submit mu-RA (or UCRPQ)
    queries concurrently, and the server schedules them onto the shared
    cluster while reusing as much work as it can across tenants.

    Four layers, outermost first:

    - {b Admission}: the cluster has a single-driver invariant (stages
      of two evaluations must never interleave — {!Distsim.Cluster.run_stage}
      enforces it with {!Distsim.Cluster.Concurrent_dispatch}), so
      evaluations are admitted through a queue with at most
      [max_inflight] in flight and dispatched fairly across sessions
      ({!fair_pick}). Admitted evaluations still serialize their actual
      cluster segments on an internal lock; [max_inflight > 1] exists so
      that overlapping queries can {e share} in-flight work, not so their
      stages can interleave.
    - {b Plan cache}: logical optimization (rewriting + costing) is
      memoized on the {!Mura.Normal.key} of the submitted term, so
      alpha-renamed or commutatively reordered resubmissions skip the
      rewriter.
    - {b Result cache}: evaluated results are cached under the same
      normal-form key. Entries remember what they read as {!Dep.t}s: a
      read [σ[c = v ∧ …](R)] depends only on the key [(R, c, v)], any
      other read of [R] on all of [R]. An edge batch ({!update}) drops
      only the entries whose keys its changed tuples touch;
      {!register} drops every entry on the relation. The cache holds at
      most [result_cache_bytes] (serialized-size model of
      {!Distsim.Metrics.tuple_bytes}) and evicts least-recently-used
      entries beyond that.
    - {b Shared-fixpoint batching}: before executing a plan, its maximal
      {e closed} [Fix] subterms (no free recursion variables) are
      resolved through the result cache and an in-flight promise table:
      the first evaluation to need a transitive closure registers a
      promise and computes it; concurrent evaluations needing the same
      subterm (same normal key, same graph version) block on the promise
      and splice in the shared relation — the fixpoint runs exactly
      once. Resolved subterms are substituted as [Cst] constants and
      only the residual plan is executed.

    Deadlock freedom: an evaluator resolves one fixpoint subterm at a
    time and fulfills its promise (also on failure) before touching the
    next, never waits on a promise while holding the cluster lock, and
    whole-query promises are only awaited by queries that hold nothing.

    Consistency: queries evaluate against a snapshot of the catalog
    taken at submission. A result is only cached if none of its
    dependencies changed while it was being computed (a batch on keys it
    does not read leaves it current), so the cache never serves a stale
    mix.

    Updates: an edge batch ({!update}) invalidates, it maintains
    nothing. The entries it hits are dropped and the next read of one
    evaluates it from scratch, as the paper evaluates every query. *)

module Session : sig
  type t
  (** A client session: the unit of admission fairness and accounting. *)

  val id : t -> int
  val name : t -> string
end

(** What a cached computation reads of the catalog: the unit of
    invalidation. *)
module Dep : sig
  type t =
    | Rel of string  (** any tuple of the relation *)
    | Key of string * string * Relation.Value.t
        (** [Key (r, c, v)]: only the tuples of [r] whose column [c]
            holds [v] *)

  val of_term : Mura.Term.t -> t list
  (** The dependencies of a term, in one walk, without duplicates. An
      occurrence [σ[c = v ∧ …](R)] (an [Eq_const] conjunct of the
      selection directly over [R]) gives [Key (R, c, v)]; any other
      occurrence of [R] — unfiltered, under a selection without such a
      conjunct (an [Or], say), or with a rename between the selection
      and [R] — gives [Rel R]. *)
end

type t

val create :
  ?max_inflight:int ->
  ?plan_cache_capacity:int ->
  ?result_cache_bytes:int ->
  ?sample_every:int ->
  ?slow_threshold_ms:float ->
  ?slow_log_capacity:int ->
  ?config:Physical.Exec.config ->
  cluster:Distsim.Cluster.t ->
  unit ->
  t
(** [create ~cluster ()] wraps [cluster] in a server. Sessions may
    submit from any domain; an admitted evaluation runs its cluster
    stages on the submitting domain.

    - [max_inflight] (default 1): concurrent admitted evaluations.
      Values > 1 enable cross-query fixpoint sharing; cluster stages
      remain serialized internally either way.
    - [plan_cache_capacity] (default 128): optimized plans kept, LRU.
    - [result_cache_bytes] (default 64 MiB): result-cache budget under
      the {!Distsim.Metrics.tuple_bytes} size model, LRU.
    - [sample_every] (default 0 = off): capture a full per-query trace
      for every N-th submitted query ({!Telemetry.Sampler}, 1-in-N on
      the query id). The server installs its own tracer only while a
      sampled evaluation is in flight and only when no ambient tracer is
      already active (a user [--trace] wins; its events still carry the
      query ids). Captured traces are kept in a bounded buffer
      ({!sampled_traces}).
    - [slow_threshold_ms] (default [infinity] = off): evaluations whose
      end-to-end latency breaches this land in the bounded slow-query
      log ({!slow_log}).
    - [slow_log_capacity] (default 64): slow-log entries kept, newest
      first.
    - [config]: execution knobs (forced fixpoint plan, thresholds...);
      its [cluster] field is overridden by [cluster].
    @raise Invalid_argument if [max_inflight < 1]. *)

val cluster : t -> Distsim.Cluster.t

val shutdown : t -> unit
(** Reject new queries. Idempotent. Already-admitted evaluations
    complete; the cluster stays usable by its owner. *)

(** {1 Sessions} *)

val open_session : ?name:string -> t -> Session.t
val close_session : t -> Session.t -> unit
(** Closing a session only rejects its future queries; in-flight ones
    complete normally. *)

(** {1 Catalog} *)

val register : t -> string -> Relation.Rel.t -> unit
(** [register t name rel] binds (or replaces) a database relation and
    bumps the graph version. It hits every dependency on [name], keys
    included: plan- and result-cache entries that read [name] and
    in-flight promises over it are invalidated; entries on other
    relations survive. *)

val update : ?inserts:Relation.Rel.t -> ?deletes:Relation.Rel.t -> t -> string -> unit
(** [update t name ~inserts ~deletes] applies an edge batch to the
    registered relation [name]: the new contents are
    [(old \ deletes) ∪ inserts], and the graph version advances by one.
    Only the net change counts — inserted tuples not already present and
    deleted tuples that are. It hits [Dep.Rel name] and, for every
    column [c] of every changed tuple, [Dep.Key (name, c, tuple.(c))];
    a batch that changes nothing hits nothing. Result-cache entries that
    read a hit dependency are dropped, and the next read of one
    recomputes it; entries whose keys the batch missed survive
    untouched. Plan-cache entries survive: a rewritten plan stays valid
    under any catalog contents. Batches apply deletes before inserts; a
    tuple named by both ends up present.
    @raise Invalid_argument on an unregistered relation or a batch
    whose schema does not match the relation's. *)

val graph_version : t -> int
(** Monotone counter of catalog mutations; 0 before any {!register}. *)

val relation : t -> string -> Relation.Rel.t option
val tables : t -> (string * Relation.Rel.t) list

(** {1 Queries} *)

type response = {
  rel : Relation.Rel.t;
  session : int;
  query_id : int;
      (** process-wide query id, assigned in submission order at
          admission; threaded through every span of the evaluation as
          the [query_id] attr ({!Trace.with_ambient_attrs}) *)
  sampled : bool;  (** a full trace of this evaluation was captured *)
  plan_hit : bool;  (** optimized plan came from the plan cache *)
  result_hit : bool;
      (** served without evaluating: from the result cache, or (when
          [shared]) by joining an identical in-flight evaluation *)
  shared : bool;  (** joined an in-flight evaluation of the same query *)
  fix_hits : int;
      (** fixpoint subterms of this evaluation served from the result
          cache or from another query's in-flight fixpoint *)
  repaired : bool;
      (** no longer produced (always [false]); kept for the benchmark's
          reader until a benchmark change drops it *)
  iterations : int;
      (** fixpoint iterations this response actually ran on the cluster;
          0 whenever the work was reused *)
  wait_ns : float;  (** time spent queued in admission *)
  exec_ns : float;  (** admission-to-completion time; 0 on cache hits *)
}

val query : ?optimize:bool -> t -> Session.t -> Mura.Term.t -> response
(** Evaluate a mu-RA term through the caches. [optimize] (default
    [true]) runs the logical rewriter (memoized in the plan cache);
    [false] executes the term as written (still cached by normal form —
    results are semantically identical either way, so optimized and
    unoptimized submissions of one query share a result entry).
    Exceptions of the underlying engines (typing, translation,
    {!Physical.Exec.Resource_limit}...) are re-raised to the submitting
    session — also to sessions that joined a failed in-flight
    evaluation.
    @raise Invalid_argument on a closed session or server. *)

val query_ucrpq : ?optimize:bool -> t -> Session.t -> string -> response
(** Parse a UCRPQ ({!Rpq.Query.parse_union}), translate it to mu-RA and
    {!query} it. *)

val explain : ?optimize:bool -> t -> Mura.Term.t -> string
(** The physical plan the server would execute, without running it. *)

(** {1 Introspection} *)

type stats = {
  submitted : int;
  completed : int;
  failed : int;
  result_hits : int;  (** whole-query result-cache hits *)
  shared_joins : int;  (** whole-query joins of in-flight evaluations *)
  result_misses : int;  (** queries that went to evaluation *)
  plan_hits : int;
  plan_misses : int;
  fix_evals : int;  (** fixpoint subterms recomputed from scratch *)
  fix_hits : int;  (** fixpoint subterms served from the result cache *)
  fix_shared : int;  (** fixpoint subterms joined in flight *)
  repaired : int;
      (** no longer produced (always 0); kept for the benchmark's reader
          until a benchmark change drops it *)
  repair_fallbacks : int;
      (** no longer produced (always 0); kept for the benchmark's reader
          until a benchmark change drops it *)
  invalidated : int;  (** cache entries dropped by {!register}/{!update} *)
  evictions : int;  (** result-cache entries dropped by the LRU budget *)
  result_entries : int;
  result_bytes : int;
  plan_entries : int;
  graph_version : int;
  inflight : int;
  queued : int;
  slow_queries : int;  (** queries that breached [slow_threshold_ms] *)
  traces_captured : int;  (** sampled evaluations whose trace was kept *)
}

val stats : t -> stats
(** A consistent snapshot of the counters. *)

(** {1 Telemetry} *)

type slow_query = {
  sq_query : int;  (** query id *)
  sq_session : string;
  sq_key : string;  (** normalized term key ({!Mura.Normal.key}) *)
  sq_plans : string list;
      (** fixpoint plans chosen by this evaluation, in evaluation order
          (empty when the query was served from cache) *)
  sq_iterations : int;
  sq_stages : int;  (** cluster stages this evaluation ran *)
  sq_straggler_mean : float;
      (** mean per-stage max/median worker-time ratio of this
          evaluation's cluster segments; 0 when nothing ran *)
  sq_wait_ns : float;
  sq_total_ns : float;
  sq_plan_hit : bool;
  sq_result_hit : bool;
  sq_shared : bool;
  sq_fix_hits : int;
  sq_sampled : bool;
}

val slow_log : t -> slow_query list
(** Queries that breached [slow_threshold_ms], newest first, at most
    [slow_log_capacity] entries ({!stats}.[slow_queries] counts every
    breach, including evicted ones). *)

type query_trace = {
  qt_query : int;
  qt_session : string;
  qt_key : string;
  qt_events : Trace.event list;
      (** the sampled evaluation's events — those carrying its
          [query_id] attr: admission-to-completion spans, stages,
          exchanges, operator and fixpoint spans *)
}

val sampled_traces : t -> query_trace list
(** Captured traces of sampled queries, newest first, bounded. *)

val wait_hist : t -> Distsim.Metrics.Hist.t
(** Admission-wait distribution (ns), live reference. *)

val latency_hist : t -> Distsim.Metrics.Hist.t
(** End-to-end query latency distribution (ns), live reference. *)

val fair_pick : served:(int -> int) -> (int * int) list -> (int * int) option
(** The admission scheduling rule, exposed pure for tests.
    [fair_pick ~served pending] picks from [pending] (a
    [(session, arrival_seq)] list) the entry minimizing
    [(served session, arrival_seq)]: sessions that have been served
    less go first; FIFO breaks ties. [None] iff [pending] is empty. *)
