(** Process-wide, domain-safe registry of labeled counters, gauges and
    histograms for the always-on server.

    The design mirrors {!Trace}: instrumentation sites read an ambient
    registry handle that defaults to {!disabled}, on which every update
    is a strict no-op (a single tag test — no allocation, no lock), so
    telemetry calls can live in hot paths unconditionally. An enabled
    registry guards its series table with one mutex; updates from
    concurrent session domains serialize there, which is
    cheap at the stage/shuffle/query granularity the runtime uses.

    Series are identified by a metric name plus a sorted label set —
    [serve_cache_total{cache="result", event="hit"}] and the [event="miss"]
    variant are distinct series of the same metric. Snapshots are
    cumulative; {!Window} handles produce since-last-scrape deltas. *)

(** Fixed-bucket log2 histogram: bucket 0 holds [0, 1), bucket [b >= 1]
    holds [2^(b-1), 2^b); 48 buckets cover any practical count or
    nanosecond value. Adding a sample is O(1) and allocation-free.
    (Moved here from [Distsim.Metrics], which re-exports it as an
    alias.) *)
module Hist : sig
  type t

  val create : unit -> t
  val reset : t -> unit

  val add : t -> float -> unit
  (** Negative samples are clamped to 0. *)

  val count : t -> int
  val total : t -> float
  val mean : t -> float

  val min_value : t -> float
  (** Exact observed minimum; 0 when empty. *)

  val max_value : t -> float
  (** Exact observed maximum; 0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [0, 100]: an upper-bound estimate (the
      upper edge of the bucket holding the rank-th sample) clamped to the
      exact observed min/max. Empty histograms report 0; a single-bucket
      histogram degenerates to the exact max. *)

  val quantile : t -> float -> float
  (** [quantile h q] for [q] in [0, 1]: interpolated estimate — the
      fractional rank [q * count] is located in its log2 bucket and the
      value is interpolated linearly inside the bucket, then clamped to
      the exact observed min/max. Smoother and never above [percentile]'s
      upper edge; the shared implementation behind every latency
      percentile the harness and server report. Empty histograms
      report 0. *)

  val merge : t -> t -> unit
  (** [merge acc h] accumulates [h] into [acc]. *)

  val buckets : t -> (float * int) list
  (** Non-empty buckets as [(upper_bound, count)], ascending. *)
end

type labels = (string * string) list

type t
(** A metrics registry (or the disabled no-op). *)

val disabled : t
val make : unit -> t
val enabled : t -> bool

(** {1 Ambient registry}

    Instrumentation sites read the process-wide ambient registry, which
    defaults to {!disabled}. Hot paths that build label lists should
    guard on {!enabled} so the disabled path allocates nothing. *)

val install : t -> unit
val uninstall : unit -> unit
val get : unit -> t

(** {1 Updates}

    The kind of a series is fixed by its first update; a later update of
    a conflicting kind for the same (name, labels) is dropped. *)

val add : t -> ?labels:labels -> string -> float -> unit
(** Counter increment by an arbitrary non-negative amount. *)

val inc : t -> ?labels:labels -> string -> unit
(** Counter increment by 1. *)

val set : t -> ?labels:labels -> string -> float -> unit
(** Gauge: overwrite with the current value. *)

val observe : t -> ?labels:labels -> string -> float -> unit
(** Histogram sample. *)

(** {1 Snapshots} *)

module Snapshot : sig
  type hsum = {
    h_count : int;
    h_sum : float;
    h_min : float;
    h_max : float;
    h_p50 : float;
    h_p90 : float;
    h_p99 : float;
    h_buckets : (float * int) list;
        (** non-empty buckets as [(upper_bound, count)], ascending *)
  }

  type point = Counter of float | Gauge of float | Histogram of hsum
  type row = { r_name : string; r_labels : labels; r_point : point }

  type t = { taken_us : float; window : [ `Cumulative | `Delta ]; rows : row list }
  (** Rows are sorted by (name, labels) — snapshots of the same registry
      state are byte-identical. *)

  val find : ?labels:labels -> t -> string -> point option

  val value : ?labels:labels -> t -> string -> float option
  (** Scalar readout: counter/gauge value, or a histogram's sample count. *)

  val to_prometheus : t -> string
  (** Prometheus text exposition: [# TYPE] comments, [name{labels} value]
      samples, and [_bucket{le=..}]/[_sum]/[_count] histogram series. *)

  val to_json : t -> string
  val write : t -> string -> unit
  (** Write the JSON snapshot to a file. *)
end

val snapshot : t -> Snapshot.t
(** Cumulative snapshot; empty on a disabled registry. *)

(** Since-last-scrape windows: a handle remembers the cumulative state
    it last saw and {!Window.delta} reports the difference — counters
    and histogram bucket counts since the previous call (gauges pass
    through at their current value). Multiple independent handles can
    scrape one registry. *)
module Window : sig
  type handle

  val create : unit -> handle

  val delta : handle -> t -> Snapshot.t
  (** First call on a handle reports the full cumulative state. Delta
      histogram min/max degrade to the bucket edges of the window's
      non-empty buckets (exact extrema are not recoverable from
      cumulative state). *)
end

(** Deterministic query-trace sampler: 1-in-N by query id plus a
    slower-than-threshold predicate. Pure decisions, so sampling in the
    server is reproducible for a given admission order. *)
module Sampler : sig
  type t

  val make : ?slow_threshold_ns:float -> every:int -> unit -> t
  (** [every <= 0] disables id sampling; the threshold defaults to
      [infinity] (off). *)

  val sample_id : t -> int -> bool
  (** True iff [every > 0] and the id is a multiple of [every]. *)

  val slow : t -> ns:float -> bool
end
