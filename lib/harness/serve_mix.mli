(** The [muraserve] scenario: a concurrent query mix against one
    {!Serve} instance over one shared cluster.

    [sessions] client domains each submit the full query [mix] [repeat]
    times; every query text is re-translated per submission (fresh
    generated names), so the run exercises normalization, the plan and
    result caches, admission fairness and in-flight fixpoint sharing
    exactly as a long-lived service would. Every response is checked
    against the reference in-memory evaluation — parity failures are
    counted, never ignored. *)

type mix = (string * (unit -> Mura.Term.t)) list
(** Labelled query generators; the label keys the parity oracle. *)

val default_mix : unit -> mix
(** Reachability-flavoured mix over an unlabelled edge relation [E]:
    transitive closure, single-source reachability, and a filtered
    closure — distinct queries sharing one fixpoint subterm. *)

type config = {
  workers : int;
  sessions : int;  (** concurrent client domains *)
  repeat : int;  (** full-mix submissions per session *)
  max_inflight : int;  (** admission slots; >= 2 enables fixpoint sharing *)
  force_plan : Physical.Exec.fixpoint_plan option;
  sample_every : int;  (** per-query trace sampling, 1-in-N (0 = off) *)
  slow_threshold_ms : float;  (** slow-query-log threshold ([infinity] = off) *)
}

val default_config : config
(** 4 workers, 4 sessions, 4 repeats, 2 admission slots,
    sampling and slow log off. *)

type result = {
  wall_s : float;
  completed : int;
  failed : int;
  throughput_qps : float;
  hit_rate : float;
      (** (result hits + in-flight joins) / completed queries *)
  parity_failures : int;  (** responses differing from the oracle *)
  stats : Serve.stats;  (** full server counters at the end of the run *)
  wait_p50_ms : float;
      (** admission-wait percentiles ({!Telemetry.Hist.quantile}, the
          shared interpolated implementation) *)
  wait_p95_ms : float;
  lat_p50_ms : float;  (** end-to-end latency percentiles *)
  lat_p95_ms : float;
  lat_p99_ms : float;
  slow_queries : Serve.slow_query list;  (** the server's slow-query log *)
  traces_captured : int;  (** sampled per-query traces kept *)
  telemetry : Telemetry.Snapshot.t option;
      (** snapshot of the ambient registry at the end of the run, when
          one was installed *)
}

val run : ?mix:mix -> config -> graph:Relation.Rel.t -> result
(** Build a cluster + server, register [graph] as [E], run the mix and
    shut the server down. Client failures propagate. *)

val print : result -> unit
(** Human-readable summary on stdout. *)

val report_json : result -> string
(** The machine-readable serve report: throughput, cache hit/miss
    counters, admission-wait and latency percentiles, parity. *)

val write_report : file:string -> result -> unit
