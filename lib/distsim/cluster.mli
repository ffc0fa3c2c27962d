(** A simulated cluster: a driver plus a fixed set of workers.

    Each worker owns one partition slot per dataset. Workers can execute
    their partition work on real OCaml domains ([parallel = true]) or
    sequentially (deterministic, default); in both modes the per-worker
    compute time is measured and the stage time is the maximum across
    workers, which is what a synchronous Spark stage would cost.
    Exchanges (the wide operations of [Dds]) run on the driver in both
    modes, so a parallel cluster charges the same stages, supersteps and
    communication as a sequential one: the pool runs stage compute only.

    In parallel mode the cluster owns a {e persistent} worker-domain
    pool: [workers - 1] domains are spawned once at {!make} (the driver
    domain doubles as worker 0) and reused by every stage, each fed
    through a one-slot job queue guarded by a mutex/condvar pair. This
    amortises the domain-spawn cost that a per-stage
    [Domain.spawn]/[Domain.join] would pay on every fixpoint iteration.
    The pool survives worker exceptions (they are re-raised on the
    driver; the domains keep serving later stages) and is joined by
    {!shutdown} — called explicitly by long-lived owners and as an
    [at_exit] safety net otherwise. *)

type t

val make : ?parallel:bool -> workers:int -> unit -> t
(** @raise Invalid_argument if [workers < 1]. *)

val workers : t -> int

val metrics : t -> Metrics.t
(** The cluster-lifetime metric accumulator (reset between experiments
    with {!Metrics.reset}). *)

val pool_size : t -> int
(** Number of live pool domains (0 for sequential clusters and after
    {!shutdown}). *)

val shutdown : t -> unit
(** Join the persistent worker-domain pool. Idempotent; a no-op on
    sequential clusters. After shutdown the cluster remains usable, with
    stages executing sequentially on the driver. *)

exception Concurrent_dispatch
(** Raised by {!run_stage} when a stage is dispatched while another is
    already in flight on the same cluster. The runtime has a {e single
    driver} invariant: one cluster executes one evaluation at a time
    (stages of two queries must never interleave — they would corrupt
    the shared metric accumulator and race on the pool's job slots).
    Callers that accept concurrent queries must serialize evaluations
    through an admission queue ([Serve] is the canonical entry point);
    this exception is the loud backstop for code that bypasses it. *)

val busy : t -> bool
(** Whether a stage is currently in flight (true only while some other
    domain is inside {!run_stage}). *)

val run_stage : t -> (int -> 'a) -> 'a array
(** [run_stage c f] runs [f w] for every worker index [w] (on the
    persistent pool in parallel mode), meters the stage (max per-worker
    time) and returns the per-worker results. Exceptions raised by any
    [f w] are re-raised on the driver; the pool stays usable for
    subsequent stages. When tracing is enabled the stage span carries a
    [dispatch_ns] attribute and [pool.occupancy] counter samples.
    @raise Concurrent_dispatch if another stage is already in flight. *)
