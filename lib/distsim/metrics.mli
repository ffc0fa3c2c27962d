(** Communication and execution metrics of a distributed run.

    Every wide operation (shuffle, distinct, shuffle join, collect) and
    every broadcast is charged here. The paper's central claim — P_plw
    needs one shuffle per fixpoint where P_gld needs one per iteration —
    is observable directly in these counters, independently of wall-clock
    noise. [sim_time_ns] accumulates a simulated parallel time:
    per stage, the maximum per-worker compute time, plus a latency model
    for each shuffle and broadcast.

    Beyond the scalar counters, every stage feeds three fixed-bucket
    log2 histograms ({!Hist}): per-worker compute time, per-worker
    output partition sizes, and the per-stage straggler ratio
    (max / median worker time) — the raw material of the skew tables in
    [murarun --analyze] and the JSON run reports. *)

(** Fixed-bucket log2 histogram — an alias of {!Telemetry.Hist}, where
    the implementation now lives (shared with the labeled metrics
    registry); see there for the bucket scheme, [percentile] and the
    interpolated [quantile]. *)
module Hist = Telemetry.Hist

type t = {
  mutable shuffles : int;  (** wide stages executed *)
  mutable shuffled_records : int;  (** tuples moved across workers *)
  mutable shuffled_bytes : int;
  mutable broadcasts : int;
  mutable broadcast_records : int;
  mutable supersteps : int;  (** driver-coordinated rounds *)
  mutable stages : int;  (** all stages, narrow included *)
  mutable sim_time_ns : float;
  worker_ns : Hist.t;  (** per-stage per-worker compute time *)
  partition_records : Hist.t;  (** per-stage per-worker output sizes *)
  straggler : Hist.t;  (** per-stage max/median worker time *)
  mutable per_worker_ns : float array;
      (** cumulative compute ns per worker index (grows on demand) *)
  mutable per_worker_records : float array;
      (** cumulative output records per worker index *)
  mutable dedup_dropped_records : int;
      (** tuples dropped map-side by the iteration-shuffle seen filter
          (re-derivations that were already routed in an earlier fixpoint
          iteration); 0 outside fixpoint loops *)
}

val create : unit -> t
val reset : t -> unit
val add : t -> t -> unit
(** [add acc m] accumulates [m] into [acc] (histograms and per-worker
    arrays merged elementwise). *)

val tuple_bytes : int -> int
(** Serialized size model for a tuple of the given arity. *)

(** Latency model knobs (per-record network cost and per-round fixed
    cost, in simulated nanoseconds). *)

val ns_per_shuffled_record : float
val ns_per_shuffle_round : float
val ns_per_broadcast_record : float

val record_stage : t -> max_worker_ns:float -> unit
val record_worker_time : t -> worker:int -> ns:float -> unit
val record_straggler : t -> ratio:float -> unit
val record_partition_size : t -> worker:int -> records:int -> unit
val record_shuffle : t -> records:int -> bytes:int -> unit
val record_broadcast : t -> records:int -> unit
val record_superstep : t -> unit

val record_dedup_dropped : t -> records:int -> unit
(** Count tuples suppressed by the exchange seen filter. Dropped tuples do
    not appear in [shuffled_records] / [shuffled_bytes]; this counter is
    how much the filter saved. *)

val straggler_ratio : t -> float
(** Worst per-stage max/median worker-time ratio seen so far (1.0 is
    perfectly balanced; 0 when no stage ran). *)

val rehash_grows : unit -> int
(** Process-wide count of insert-triggered hash-table growths
    ({!Relation.Tset.rehash_grow_count}; explicit presizing never
    counts). The compiled execution core presizes its batch outputs, so
    this counts the set-side growths; [perfbench] reports it as
    [relation.rehash_grows]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
