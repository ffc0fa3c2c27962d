(** A simulated cluster: a driver plus a fixed set of workers.

    Each worker owns one partition slot per dataset. A stage runs every
    worker's partition work in turn on the calling domain, which keeps
    runs deterministic; each worker's compute time is measured, and the
    stage is charged the maximum across workers, which is what a
    synchronous Spark stage would cost. Exchanges (the wide operations
    of [Dds]) run on the driver, between stages. *)

type t

val make : workers:int -> unit -> t
(** @raise Invalid_argument if [workers < 1]. *)

val workers : t -> int

val metrics : t -> Metrics.t
(** The cluster-lifetime metric accumulator (reset between experiments
    with {!Metrics.reset}). *)

exception Concurrent_dispatch
(** Raised by {!run_stage} when a stage is dispatched while another is
    already in flight on the same cluster. The runtime has a {e single
    driver} invariant: one cluster executes one evaluation at a time
    (stages of two queries must never interleave — they would corrupt
    the shared metric accumulator). Sessions on other domains
    ([Serve]'s callers) could otherwise reach {!run_stage} together.
    Callers that accept concurrent queries must serialize evaluations
    through an admission queue ([Serve] is the canonical entry point);
    this exception is the loud backstop for code that bypasses it. *)

val busy : t -> bool
(** Whether a stage is currently in flight (true only while some other
    domain is inside {!run_stage}). *)

val run_stage : t -> (int -> 'a) -> 'a array
(** [run_stage c f] runs [f w] for every worker index [w] in turn,
    meters the stage (max per-worker time, straggler ratio) and returns
    the per-worker results. Worker [w]'s trace events land on track
    [w + 1]. An exception raised by any [f w] is re-raised once every
    worker has run; the cluster is idle afterwards and runs the next
    stage as usual.
    @raise Concurrent_dispatch if another stage is already in flight. *)
