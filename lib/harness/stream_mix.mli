(** The streaming scenario: sustained edge arrivals interleaved with
    queries, measuring incremental repair against recomputation.

    Two servers over separate clusters receive the {e same} update and
    query stream: one with incremental repair enabled (the default
    {!Serve} configuration) and one with it disabled
    ([max_repair_handles = 0] — every post-update miss recomputes its
    fixpoints from scratch). Each round applies an edge-insert batch
    (periodically mixed with deletions), then submits the query mix;
    the first post-update submission of every query the batch touched
    misses the result cache, so its execution time is the repair latency
    on one server and the recompute latency on the other. A query whose
    keys the batch did not touch ({!Serve.update}) is a result-cache hit
    instead, counted apart. Every response — from both
    servers — is checked against the centralized reference evaluation
    of the {e updated} graph: parity failures are counted, never
    ignored. *)

type config = {
  workers : int;
  parallel : bool;  (** real domains for the cluster worker pools *)
  rounds : int;  (** update batches applied *)
  batch : int;  (** inserted edges per batch *)
  delete_every : int;
      (** every k-th round also deletes [batch/2] resident edges,
          exercising the DRed path; 0 = insert-only stream *)
  queries_per_round : int;  (** full-mix submissions after each batch *)
  force_plan : Physical.Exec.fixpoint_plan option;
  seed : int;  (** update-stream RNG seed *)
}

val default_config : config
(** 4 workers (sequential), 8 rounds of 4 inserts, deletions every 3rd
    round, 2 query passes per round. *)

type result = {
  rounds : int;
  completed : int;  (** queries answered across both servers *)
  parity_failures : int;
  repaired : int;  (** fixpoints incrementally repaired (repair server) *)
  repair_fallbacks : int;
  recomputed : int;
      (** fixpoints evaluated from scratch on the repair server (its
          establishment evaluations and any fallbacks) *)
  post_update_hits : int;
      (** first post-update submissions the repair server answered from
          the result cache: the batch touched no key the query reads *)
  repair_mean_ms : float;  (** post-update miss latency, repair server *)
  repair_p50_ms : float;
  repair_p95_ms : float;
  recompute_mean_ms : float;  (** same misses on the baseline server *)
  recompute_p50_ms : float;
  recompute_p95_ms : float;
  speedup : float;  (** recompute mean / repair mean *)
  repair_stats : Serve.stats;
  baseline_stats : Serve.stats;
  telemetry : Telemetry.Snapshot.t option;
}

val run : ?mix:Serve_mix.mix -> config -> graph:Relation.Rel.t -> result
(** Run the stream against both servers and tear the pools down.
    Inserted edges clone a resident edge with rewired endpoints, so
    labelled graphs keep a realistic label distribution.
    @raise Failure when [graph] has no [src]/[trg] columns. *)

val print : result -> unit

val report_json : result -> string
(** Machine-readable stream report: per-outcome counts, repair and
    recompute latency percentiles, the repair-vs-recompute speedup, and
    both servers' counters. *)

val write_report : file:string -> result -> unit
