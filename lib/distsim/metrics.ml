(* The fixed-bucket log2 histogram moved into [Telemetry] (the labeled
   metrics registry sits below distsim in the library stack and shares
   the bucket scheme); the alias keeps [Metrics.Hist.t] the same type
   for every existing caller. *)
module Hist = Telemetry.Hist

type t = {
  mutable shuffles : int;
  mutable shuffled_records : int;
  mutable shuffled_bytes : int;
  mutable broadcasts : int;
  mutable broadcast_records : int;
  mutable supersteps : int;
  mutable stages : int;
  mutable sim_time_ns : float;
  worker_ns : Hist.t;
  partition_records : Hist.t;
  straggler : Hist.t;
  mutable per_worker_ns : float array;
  mutable per_worker_records : float array;
  mutable dedup_dropped_records : int;
}

let create () =
  {
    shuffles = 0;
    shuffled_records = 0;
    shuffled_bytes = 0;
    broadcasts = 0;
    broadcast_records = 0;
    supersteps = 0;
    stages = 0;
    sim_time_ns = 0.;
    worker_ns = Hist.create ();
    partition_records = Hist.create ();
    straggler = Hist.create ();
    per_worker_ns = [||];
    per_worker_records = [||];
    dedup_dropped_records = 0;
  }

let reset m =
  m.shuffles <- 0;
  m.shuffled_records <- 0;
  m.shuffled_bytes <- 0;
  m.broadcasts <- 0;
  m.broadcast_records <- 0;
  m.supersteps <- 0;
  m.stages <- 0;
  m.sim_time_ns <- 0.;
  Hist.reset m.worker_ns;
  Hist.reset m.partition_records;
  Hist.reset m.straggler;
  m.per_worker_ns <- [||];
  m.per_worker_records <- [||];
  m.dedup_dropped_records <- 0

let ensure_workers arr w =
  if Array.length arr > w then arr
  else begin
    let fresh = Array.make (w + 1) 0. in
    Array.blit arr 0 fresh 0 (Array.length arr);
    fresh
  end

let merge_per_worker a b =
  let out = ensure_workers a (max 0 (Array.length b - 1)) in
  Array.iteri (fun i v -> out.(i) <- out.(i) +. v) b;
  out

let add acc m =
  acc.shuffles <- acc.shuffles + m.shuffles;
  acc.shuffled_records <- acc.shuffled_records + m.shuffled_records;
  acc.shuffled_bytes <- acc.shuffled_bytes + m.shuffled_bytes;
  acc.broadcasts <- acc.broadcasts + m.broadcasts;
  acc.broadcast_records <- acc.broadcast_records + m.broadcast_records;
  acc.supersteps <- acc.supersteps + m.supersteps;
  acc.stages <- acc.stages + m.stages;
  acc.sim_time_ns <- acc.sim_time_ns +. m.sim_time_ns;
  Hist.merge acc.worker_ns m.worker_ns;
  Hist.merge acc.partition_records m.partition_records;
  Hist.merge acc.straggler m.straggler;
  acc.per_worker_ns <- merge_per_worker acc.per_worker_ns m.per_worker_ns;
  acc.per_worker_records <- merge_per_worker acc.per_worker_records m.per_worker_records;
  acc.dedup_dropped_records <- acc.dedup_dropped_records + m.dedup_dropped_records

(* 8 bytes per field plus a fixed header, roughly Spark's unsafe row. *)
let tuple_bytes arity = 16 + (8 * arity)

let ns_per_shuffled_record = 150.
let ns_per_shuffle_round = 2_000_000.
let ns_per_broadcast_record = 60.

(* The record_* chokepoints below double as the feed of the ambient
   [Telemetry] registry: one process-wide labeled view of the same
   communication counters, aggregated across every cluster and query in
   a serving process. Strict no-ops while no registry is installed. *)

let record_stage m ~max_worker_ns =
  m.stages <- m.stages + 1;
  m.sim_time_ns <- m.sim_time_ns +. max_worker_ns;
  let r = Telemetry.get () in
  if Telemetry.enabled r then begin
    Telemetry.inc r "cluster_stages_total";
    Telemetry.observe r "cluster_stage_max_worker_ns" max_worker_ns
  end

let record_worker_time m ~worker ~ns =
  Hist.add m.worker_ns ns;
  m.per_worker_ns <- ensure_workers m.per_worker_ns worker;
  m.per_worker_ns.(worker) <- m.per_worker_ns.(worker) +. ns

let record_straggler m ~ratio =
  Hist.add m.straggler ratio;
  Telemetry.observe (Telemetry.get ()) "cluster_stage_straggler_ratio" ratio

let record_partition_size m ~worker ~records =
  Hist.add m.partition_records (float_of_int records);
  m.per_worker_records <- ensure_workers m.per_worker_records worker;
  m.per_worker_records.(worker) <- m.per_worker_records.(worker) +. float_of_int records

let record_shuffle m ~records ~bytes =
  m.shuffles <- m.shuffles + 1;
  m.shuffled_records <- m.shuffled_records + records;
  m.shuffled_bytes <- m.shuffled_bytes + bytes;
  m.sim_time_ns <-
    m.sim_time_ns +. ns_per_shuffle_round +. (float_of_int records *. ns_per_shuffled_record);
  let r = Telemetry.get () in
  if Telemetry.enabled r then begin
    Telemetry.inc r "dds_shuffles_total";
    Telemetry.add r "dds_shuffled_records_total" (float_of_int records);
    Telemetry.add r "dds_shuffled_bytes_total" (float_of_int bytes)
  end

let record_broadcast m ~records =
  m.broadcasts <- m.broadcasts + 1;
  m.broadcast_records <- m.broadcast_records + records;
  m.sim_time_ns <- m.sim_time_ns +. (float_of_int records *. ns_per_broadcast_record);
  let r = Telemetry.get () in
  if Telemetry.enabled r then begin
    Telemetry.inc r "dds_broadcasts_total";
    Telemetry.add r "dds_broadcast_records_total" (float_of_int records)
  end

let record_superstep m =
  m.supersteps <- m.supersteps + 1;
  Telemetry.inc (Telemetry.get ()) "cluster_supersteps_total"

let record_dedup_dropped m ~records =
  m.dedup_dropped_records <- m.dedup_dropped_records + records;
  Telemetry.add (Telemetry.get ()) "dds_dedup_dropped_records_total" (float_of_int records)

let straggler_ratio m = Hist.max_value m.straggler

(* Debug counter proving the compiled output path presizes correctly:
   process-wide count of insert-triggered hash-table growths (explicit
   presizing never counts). Surfaced here so benches and tests reach it
   through the metrics API; the counter itself lives in [Relation.Tset]
   because worker domains grow sets concurrently. *)
let rehash_grows () = Relation.Tset.rehash_grow_count ()

let pp ppf m =
  Format.fprintf ppf
    "shuffles=%d (%d rec, %d B) broadcasts=%d (%d rec) supersteps=%d stages=%d sim_time=%.1fms"
    m.shuffles m.shuffled_records m.shuffled_bytes m.broadcasts m.broadcast_records m.supersteps
    m.stages (m.sim_time_ns /. 1e6)

let to_string m = Format.asprintf "%a" pp m
