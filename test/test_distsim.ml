(* Tests for the distributed runtime: partitioning invariants, narrow vs
   wide operations, metering. *)

open Relation
module Dds = Distsim.Dds
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics

let sch = Schema.of_list
let rel schema rows = Rel.of_list (sch schema) rows
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_rel msg expected actual =
  if not (Rel.equal expected actual) then
    Alcotest.failf "%s:@.expected %a@.got %a" msg Rel.pp_full expected Rel.pp_full actual

let edges = rel [ "src"; "trg" ] [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ]; [ 3; 4 ]; [ 4; 1 ]; [ 5; 5 ] ]

let test_roundtrip () =
  let c = Cluster.make ~workers:4 () in
  let d = Dds.of_rel c edges in
  check_int "cardinal" (Rel.cardinal edges) (Dds.cardinal d);
  check_rel "collect" edges (Dds.collect d);
  check_int "partitions" 4 (Dds.num_partitions d)

let test_hash_partitioning_colocates () =
  let c = Cluster.make ~workers:3 () in
  let d = Dds.of_rel ~by:[ "src" ] c edges in
  (* each src value lives on exactly one worker *)
  let owners = Hashtbl.create 8 in
  for w = 0 to Dds.num_partitions d - 1 do
    Tset.iter
      (fun tu ->
        match Hashtbl.find_opt owners tu.(0) with
        | Some w' when w' <> w -> Alcotest.failf "src %d on two workers" tu.(0)
        | _ -> Hashtbl.replace owners tu.(0) w)
      (Dds.partition d w)
  done;
  check_bool "partitioned" true (Dds.partitioning d = Dds.Hashed [ "src" ])

let test_filter_narrow () =
  let c = Cluster.make ~workers:4 () in
  let m = Cluster.metrics c in
  let d = Dds.of_rel ~by:[ "src" ] c edges in
  let shuffles_before = m.Metrics.shuffles in
  let f = Dds.filter (Pred.Eq_const ("src", 1)) d in
  check_int "no new shuffle" shuffles_before m.Metrics.shuffles;
  check_int "filtered" 2 (Dds.cardinal f);
  check_bool "partitioning preserved" true (Dds.partitioning f = Dds.Hashed [ "src" ])

let test_repartition_noop_and_move () =
  let c = Cluster.make ~workers:4 () in
  let m = Cluster.metrics c in
  let d = Dds.of_rel ~by:[ "src" ] c edges in
  let before = m.Metrics.shuffles in
  let same = Dds.repartition ~by:[ "src" ] d in
  check_int "noop repartition" before m.Metrics.shuffles;
  check_bool "same value" true (same == d);
  let moved = Dds.repartition ~by:[ "trg" ] d in
  check_int "one shuffle" (before + 1) m.Metrics.shuffles;
  check_rel "content preserved" edges (Dds.collect moved)

let test_distinct () =
  let c = Cluster.make ~workers:4 () in
  (* craft duplicates across partitions via arbitrary placement of a
     relation with repeated insertion patterns: use set_union_local of two
     differently-partitioned copies *)
  let a = Dds.of_rel ~by:[ "src" ] c edges in
  let b = Dds.of_rel ~by:[ "trg" ] c edges in
  let u = Dds.set_union_local a b in
  check_bool "dups across partitions" true (Dds.cardinal u >= Rel.cardinal edges);
  let d = Dds.distinct u in
  check_int "distinct collapses" (Rel.cardinal edges) (Dds.cardinal d);
  check_rel "same set" edges (Dds.collect d)

let test_distinct_free_when_hashed () =
  let c = Cluster.make ~workers:4 () in
  let m = Cluster.metrics c in
  let d = Dds.of_rel ~by:[ "src" ] c edges in
  let before = m.Metrics.shuffles in
  let d' = Dds.distinct d in
  check_int "free distinct" before m.Metrics.shuffles;
  check_bool "same" true (d' == d)

let test_join_shuffle () =
  let c = Cluster.make ~workers:4 () in
  let d = Dds.of_rel c edges in
  let other = Rel.rename [ ("src", "trg"); ("trg", "nxt") ] edges in
  let od = Dds.of_rel c other in
  let j = Dds.join_shuffle d od in
  check_rel "shuffle join = local join" (Rel.natural_join edges other) (Dds.collect j)

(* no shared column: the smaller side is collected and broadcast once,
   whichever side it is, and joined narrowly against the other side *)
let test_join_broadcast () =
  let c = Cluster.make ~workers:4 () in
  let m = Cluster.metrics c in
  let small = rel [ "x" ] [ [ 7 ]; [ 8 ] ] in
  List.iter
    (fun (a, b) ->
      let before = m.Metrics.broadcasts in
      let j = Dds.join_shuffle (Dds.of_rel c a) (Dds.of_rel c b) in
      check_int "one broadcast" (before + 1) m.Metrics.broadcasts;
      check_rel "cartesian = local join" (Rel.natural_join a b) (Dds.collect j))
    [ (edges, small); (small, edges) ]

let test_antijoin_modes () =
  let c = Cluster.make ~workers:3 () in
  let d = Dds.of_rel c edges in
  let sinks = rel [ "trg" ] [ [ 3 ]; [ 4 ] ] in
  let expected = Rel.antijoin edges sinks in
  let sd = Dds.of_rel c sinks in
  check_rel "shuffle anti" expected (Dds.collect (Dds.antijoin_shuffle d sd))

let test_set_diff_local () =
  let c = Cluster.make ~workers:4 () in
  let a = Dds.of_rel ~by:[ "src" ] c edges in
  let sub = rel [ "src"; "trg" ] [ [ 1; 2 ]; [ 5; 5 ] ] in
  let b = Dds.of_rel ~by:[ "src" ] c sub in
  check_rel "co-partitioned diff" (Rel.diff edges sub) (Dds.collect (Dds.set_diff_local a b))

let test_rename () =
  let c = Cluster.make ~workers:2 () in
  let d = Dds.of_rel ~by:[ "src" ] c edges in
  let r = Dds.rename [ ("src", "a") ] d in
  check_bool "schema renamed" true (Schema.equal_ordered (Dds.schema r) (sch [ "a"; "trg" ]));
  check_bool "partitioning renamed" true (Dds.partitioning r = Dds.Hashed [ "a" ]);
  check_rel "values unchanged" (Rel.rename [ ("src", "a") ] edges) (Dds.collect r)

let test_single_worker () =
  let c = Cluster.make ~workers:1 () in
  let d = Dds.of_rel ~by:[ "src" ] c edges in
  check_rel "all ops on one worker"
    (Rel.natural_join edges (Rel.rename [ ("src", "trg"); ("trg", "n") ] edges))
    (Dds.collect (Dds.join_shuffle d (Dds.of_rel c (Rel.rename [ ("src", "trg"); ("trg", "n") ] edges))))

let test_parallel_domains () =
  (* same results with real multicore execution *)
  let c = Cluster.make ~parallel:true ~workers:4 () in
  let d = Dds.of_rel ~by:[ "src" ] c edges in
  let j = Dds.join_shuffle d (Dds.of_rel c (Rel.rename [ ("src", "trg"); ("trg", "n") ] edges)) in
  check_rel "parallel join"
    (Rel.natural_join edges (Rel.rename [ ("src", "trg"); ("trg", "n") ] edges))
    (Dds.collect j)

let test_metrics_accounting () =
  let m = Metrics.create () in
  Metrics.record_shuffle m ~records:100 ~bytes:3200;
  Metrics.record_shuffle m ~records:50 ~bytes:1600;
  Metrics.record_broadcast m ~records:10;
  Metrics.record_superstep m;
  check_int "shuffles" 2 m.Metrics.shuffles;
  check_int "records" 150 m.Metrics.shuffled_records;
  check_int "bytes" 4800 m.Metrics.shuffled_bytes;
  check_int "broadcast records" 10 m.Metrics.broadcast_records;
  check_int "supersteps" 1 m.Metrics.supersteps;
  check_bool "sim time grows" true (m.Metrics.sim_time_ns > 0.);
  let acc = Metrics.create () in
  Metrics.add acc m;
  Metrics.add acc m;
  check_int "accumulated" 4 acc.Metrics.shuffles;
  Metrics.reset m;
  check_int "reset" 0 m.Metrics.shuffles;
  check_int "tuple bytes" (16 + 24) (Metrics.tuple_bytes 3)

let test_deadline () =
  Deadline.set ~seconds_from_now:3600.;
  Deadline.check_now ();
  (* far future: ticks pass *)
  for _ = 1 to 100_000 do
    Deadline.tick ()
  done;
  Deadline.set ~seconds_from_now:(-1.);
  (match Deadline.check_now () with
  | () -> Alcotest.fail "expected Expired"
  | exception Deadline.Expired -> ());
  (* amortised tick also fires *)
  (match
     for _ = 1 to 100_000 do
       Deadline.tick ()
     done
   with
  | () -> Alcotest.fail "expected Expired from tick"
  | exception Deadline.Expired -> ());
  Deadline.clear ();
  check_bool "cleared" false (Deadline.active ());
  Deadline.check_now ()

(* ---- persistent worker-domain pool ---- *)

let test_pool_lifecycle () =
  let c = Cluster.make ~parallel:true ~workers:4 () in
  check_int "three pool domains" 3 (Cluster.pool_size c);
  Alcotest.(check (array int)) "stage on pool" [| 0; 1; 4; 9 |]
    (Cluster.run_stage c (fun w -> w * w));
  Alcotest.(check (array int)) "pool reused" [| 1; 2; 3; 4 |]
    (Cluster.run_stage c (fun w -> w + 1));
  Cluster.shutdown c;
  check_int "pool joined" 0 (Cluster.pool_size c);
  Alcotest.(check (array int)) "sequential after shutdown" [| 0; 2; 4; 6 |]
    (Cluster.run_stage c (fun w -> 2 * w));
  Cluster.shutdown c (* idempotent *)

let test_pool_survives_exception () =
  let c = Cluster.make ~parallel:true ~workers:4 () in
  (match Cluster.run_stage c (fun w -> if w = 2 then failwith "boom" else w) with
  | _ -> Alcotest.fail "expected the worker exception on the driver"
  | exception Failure msg -> Alcotest.(check string) "re-raised on driver" "boom" msg);
  check_int "pool still alive" 3 (Cluster.pool_size c);
  Alcotest.(check (array int)) "pool still serves stages" [| 0; 10; 20; 30 |]
    (Cluster.run_stage c (fun w -> 10 * w));
  Cluster.shutdown c

(* Single-driver invariant: a second evaluation dispatching a stage while
   one is in flight must be rejected (the admission queue in [Serve] is
   the only legitimate serialization point). Deterministic interleaving:
   the first dispatcher parks inside its stage until the second has been
   refused. *)
let test_concurrent_dispatch_guard () =
  let c = Cluster.make ~workers:2 () in
  let entered = Atomic.make false and proceed = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Cluster.run_stage c (fun w ->
            if w = 0 then begin
              Atomic.set entered true;
              while not (Atomic.get proceed) do
                Domain.cpu_relax ()
              done
            end;
            w))
  in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  check_bool "cluster reports busy" true (Cluster.busy c);
  (match Cluster.run_stage c (fun w -> w) with
  | _ -> Alcotest.fail "expected Concurrent_dispatch"
  | exception Cluster.Concurrent_dispatch -> ());
  Atomic.set proceed true;
  Alcotest.(check (array int)) "holder's stage completed" [| 0; 1 |] (Domain.join holder);
  check_bool "idle again" false (Cluster.busy c);
  (* the guard resets: later (serialized) stages run normally *)
  Alcotest.(check (array int)) "stage after refusal" [| 0; 2 |]
    (Cluster.run_stage c (fun w -> 2 * w))

(* ---- worker pool through the physical layer ---- *)

module Exec = Physical.Exec
module Patterns = Mura.Patterns

(* Input volume of the parity tests: large enough that every exchange
   moves thousands of records, forces Tset resizes and fans its stages
   out over the pool. *)
let big_n = 10_000

(* deterministic graph with cycles, diamonds and a tail: disjoint copies
   of one 60-edge, 17-node component, enough of them to exceed [big_n]
   edges *)
let tier1_graph =
  let copy k =
    List.init 60 (fun i -> [| (17 * k) + (i mod 17); (17 * k) + (((i * 7) + 3 + (i / 17)) mod 17) |])
  in
  Rel.of_tuples (sch [ "src"; "trg" ]) (List.concat (List.init ((big_n / 60) + 1) copy))

(* the five communication counters plus the charged stages and
   supersteps *)
let shuffle_counters m =
  Metrics.
    ( m.shuffles,
      m.shuffled_records,
      m.shuffled_bytes,
      m.broadcasts,
      m.broadcast_records,
      m.stages,
      m.supersteps )

let run_physical ~parallel ?plan term =
  let c = Cluster.make ~parallel ~workers:4 () in
  let config = { (Exec.default_config c) with Exec.force_plan = plan } in
  let ctx = Exec.session config [ ("E", tier1_graph) ] in
  let r = Exec.run ctx term in
  let counters = shuffle_counters (Cluster.metrics c) in
  let fixpoints =
    List.map
      (fun (fr : Exec.fix_report) -> (fr.iterations, fr.deltas))
      (Exec.report ctx).Exec.fixpoints
  in
  Cluster.shutdown c;
  (List.sort compare (Rel.to_list r), counters, fixpoints)

let tier1_queries =
  [
    ("closure", Patterns.closure (Mura.Term.Rel "E"), [ None; Some Exec.P_gld ]);
    ( "reach",
      Patterns.reach (Value.of_int 0),
      [ None; Some Exec.P_gld; Some Exec.P_plw_s; Some Exec.P_plw_pg ] );
    ("same_generation", Patterns.same_generation (), [ None; Some Exec.P_gld ]);
  ]

(* the pool is a pure scheduling change: results, the five communication
   counters, the charged stages and supersteps, and every fixpoint's
   iteration count and delta curve match a sequential cluster *)
let test_pool_matches_sequential () =
  let stages (_, _, _, _, _, s, _) = s in
  let divergences =
    List.concat_map
      (fun (name, term, plans) ->
        List.filter_map
          (fun plan ->
            let name = name ^ match plan with None -> "" | Some p -> " under " ^ Exec.plan_name p in
            let r_s, c_s, f_s = run_physical ~parallel:false ?plan term in
            let r_p, c_p, f_p = run_physical ~parallel:true ?plan term in
            if r_s <> r_p then Some (name ^ ": results diverged")
            else if c_s <> c_p then
              Some
                (Printf.sprintf "%s: counters diverged (stages: %d sequential, %d parallel)" name
                   (stages c_s) (stages c_p))
            else if f_s <> f_p then Some (name ^ ": iterations/deltas diverged")
            else None)
          plans)
      tier1_queries
  in
  if divergences <> [] then Alcotest.fail (String.concat "; " divergences)

(* property: any pipeline of distributed ops agrees with the centralized
   kernel *)
let random_graph_gen =
  let open QCheck2.Gen in
  let edge = pair (int_range 0 12) (int_range 0 12) in
  let+ edges = list_size (int_range 0 40) edge in
  Rel.of_tuples (sch [ "src"; "trg" ]) (List.map (fun (s, t) -> [| s; t |]) edges)

let qtest name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen prop)

let prop_distributed_join =
  qtest "distributed ≡ centralized join"
    QCheck2.Gen.(triple random_graph_gen random_graph_gen (int_range 1 6))
    (fun (a, b, workers) ->
      let c = Cluster.make ~workers () in
      let b' = Rel.rename [ ("src", "trg"); ("trg", "nxt") ] b in
      let expected = Rel.natural_join a b' in
      let shuffled = Dds.collect (Dds.join_shuffle (Dds.of_rel c a) (Dds.of_rel c b')) in
      Rel.equal expected shuffled)

let prop_distinct_after_union =
  qtest "union+distinct ≡ set union"
    QCheck2.Gen.(triple random_graph_gen random_graph_gen (int_range 1 6))
    (fun (a, b, workers) ->
      let c = Cluster.make ~workers () in
      let u = Dds.union_distinct (Dds.of_rel ~by:[ "src" ] c a) (Dds.of_rel ~by:[ "trg" ] c b) in
      Rel.equal (Rel.union a b) (Dds.collect u)
      && Dds.cardinal u = Rel.cardinal (Rel.union a b))

(* --- Metrics and histograms ----------------------------------------- *)

let check_float = Alcotest.(check (float 1e-9))

let test_metrics_record_arithmetic () =
  let m = Metrics.create () in
  Metrics.record_shuffle m ~records:10 ~bytes:100;
  check_int "shuffles" 1 m.Metrics.shuffles;
  check_int "shuffled_records" 10 m.Metrics.shuffled_records;
  check_int "shuffled_bytes" 100 m.Metrics.shuffled_bytes;
  check_float "shuffle sim time"
    (Metrics.ns_per_shuffle_round +. (10. *. Metrics.ns_per_shuffled_record))
    m.Metrics.sim_time_ns;
  Metrics.record_broadcast m ~records:5;
  check_int "broadcasts" 1 m.Metrics.broadcasts;
  check_int "broadcast_records" 5 m.Metrics.broadcast_records;
  check_float "broadcast sim time"
    (Metrics.ns_per_shuffle_round
    +. (10. *. Metrics.ns_per_shuffled_record)
    +. (5. *. Metrics.ns_per_broadcast_record))
    m.Metrics.sim_time_ns;
  Metrics.record_superstep m;
  Metrics.record_stage m ~max_worker_ns:1000.;
  check_int "supersteps" 1 m.Metrics.supersteps;
  check_int "stages" 1 m.Metrics.stages

let test_metrics_create_reset_add () =
  let mk () =
    let m = Metrics.create () in
    m.Metrics.shuffles <- 1;
    m.Metrics.shuffled_records <- 2;
    m.Metrics.shuffled_bytes <- 3;
    m.Metrics.broadcasts <- 4;
    m.Metrics.broadcast_records <- 5;
    m.Metrics.supersteps <- 6;
    m.Metrics.stages <- 7;
    m.Metrics.sim_time_ns <- 8.;
    Metrics.record_worker_time m ~worker:1 ~ns:100.;
    Metrics.record_partition_size m ~worker:1 ~records:50;
    Metrics.record_straggler m ~ratio:2.5;
    Metrics.record_dedup_dropped m ~records:9;
    m
  in
  let acc = mk () and m = mk () in
  Metrics.add acc m;
  check_int "add shuffles" 2 acc.Metrics.shuffles;
  check_int "add shuffled_records" 4 acc.Metrics.shuffled_records;
  check_int "add shuffled_bytes" 6 acc.Metrics.shuffled_bytes;
  check_int "add broadcasts" 8 acc.Metrics.broadcasts;
  check_int "add broadcast_records" 10 acc.Metrics.broadcast_records;
  check_int "add supersteps" 12 acc.Metrics.supersteps;
  check_int "add stages" 14 acc.Metrics.stages;
  check_float "add sim_time" 16. acc.Metrics.sim_time_ns;
  check_int "add dedup_dropped" 18 acc.Metrics.dedup_dropped_records;
  check_int "add worker_ns samples" 2 (Metrics.Hist.count acc.Metrics.worker_ns);
  check_float "add per-worker ns" 200. acc.Metrics.per_worker_ns.(1);
  check_float "add per-worker records" 100. acc.Metrics.per_worker_records.(1);
  check_float "straggler ratio survives add" 2.5 (Metrics.straggler_ratio acc);
  Metrics.reset acc;
  check_int "reset shuffles" 0 acc.Metrics.shuffles;
  check_int "reset shuffled_records" 0 acc.Metrics.shuffled_records;
  check_int "reset shuffled_bytes" 0 acc.Metrics.shuffled_bytes;
  check_int "reset broadcasts" 0 acc.Metrics.broadcasts;
  check_int "reset broadcast_records" 0 acc.Metrics.broadcast_records;
  check_int "reset supersteps" 0 acc.Metrics.supersteps;
  check_int "reset stages" 0 acc.Metrics.stages;
  check_float "reset sim_time" 0. acc.Metrics.sim_time_ns;
  check_int "reset dedup_dropped" 0 acc.Metrics.dedup_dropped_records;
  check_int "reset hist" 0 (Metrics.Hist.count acc.Metrics.worker_ns);
  check_float "reset straggler" 0. (Metrics.straggler_ratio acc);
  check_int "reset per-worker" 0 (Array.length acc.Metrics.per_worker_ns)

let test_tuple_bytes () =
  check_int "arity 0" 16 (Metrics.tuple_bytes 0);
  check_int "arity 2" 32 (Metrics.tuple_bytes 2);
  check_int "arity 5" 56 (Metrics.tuple_bytes 5)

let test_hist_empty () =
  let h = Metrics.Hist.create () in
  check_int "count" 0 (Metrics.Hist.count h);
  check_float "p50 of empty" 0. (Metrics.Hist.percentile h 50.);
  check_float "min" 0. (Metrics.Hist.min_value h);
  check_float "max" 0. (Metrics.Hist.max_value h);
  check_float "mean" 0. (Metrics.Hist.mean h);
  check_bool "no buckets" true (Metrics.Hist.buckets h = [])

let test_hist_single_bucket () =
  let h = Metrics.Hist.create () in
  (* all samples in bucket [4, 8): percentiles degenerate to the exact max *)
  List.iter (Metrics.Hist.add h) [ 7.; 7.; 7.; 7.; 7. ];
  check_int "count" 5 (Metrics.Hist.count h);
  check_float "p1" 7. (Metrics.Hist.percentile h 1.);
  check_float "p50" 7. (Metrics.Hist.percentile h 50.);
  check_float "p100" 7. (Metrics.Hist.percentile h 100.);
  check_float "mean" 7. (Metrics.Hist.mean h);
  check_bool "one bucket" true (List.length (Metrics.Hist.buckets h) = 1)

let test_hist_percentiles_ordered () =
  let h = Metrics.Hist.create () in
  for i = 0 to 99 do
    Metrics.Hist.add h (float_of_int (i * 10))
  done;
  let p q = Metrics.Hist.percentile h q in
  check_bool "p50 <= p90" true (p 50. <= p 90.);
  check_bool "p90 <= p99" true (p 90. <= p 99.);
  check_bool "p99 <= max" true (p 99. <= Metrics.Hist.max_value h);
  check_float "max exact" 990. (Metrics.Hist.max_value h);
  check_float "min exact" 0. (Metrics.Hist.min_value h);
  (* negative samples clamp to 0 *)
  Metrics.Hist.add h (-5.);
  check_float "clamped min" 0. (Metrics.Hist.min_value h)

let test_hist_merge () =
  let a = Metrics.Hist.create () and b = Metrics.Hist.create () in
  Metrics.Hist.add a 4.;
  Metrics.Hist.add b 1000.;
  Metrics.Hist.merge a b;
  check_int "merged count" 2 (Metrics.Hist.count a);
  check_float "merged total" 1004. (Metrics.Hist.total a);
  check_float "merged min" 4. (Metrics.Hist.min_value a);
  check_float "merged max" 1000. (Metrics.Hist.max_value a)

let test_stage_feeds_histograms () =
  let c = Cluster.make ~workers:4 () in
  let m = Cluster.metrics c in
  let d = Dds.of_rel c edges in
  (* a narrow compute stage (run_stage) samples worker times/stragglers;
     the partition-size histogram is fed by every exchange and stage *)
  ignore (Dds.collect (Dds.filter (Pred.Eq_const ("src", 1)) d));
  check_bool "worker times sampled" true (Metrics.Hist.count m.Metrics.worker_ns > 0);
  check_bool "partition sizes sampled" true (Metrics.Hist.count m.Metrics.partition_records > 0);
  check_bool "straggler ratio >= 1" true (Metrics.straggler_ratio m >= 1.);
  check_int "one per-worker slot per worker" 4 (Array.length m.Metrics.per_worker_ns)

(* -------------------------------------------------------------- *)
(* Exchange parity: parallel cluster vs sequential cluster         *)
(* -------------------------------------------------------------- *)

(* [src] unique; a [skew] fraction of tuples share one hot [trg] key, so
   repartitioning by [trg] is both heavily skewed and moves most rows —
   large enough to force Tset resizes. *)
let big_rel ?(n = big_n) ?(skew = 0.5) () =
  let hot = int_of_float (skew *. float_of_int n) in
  Rel.of_tuples
    (sch [ "src"; "trg" ])
    (List.init n (fun i -> [| i; (if i < hot then 7 else i * 3) |]))

(* Run [scenario] on a sequential and on a parallel cluster of the same
   size; result partitions and counters must be identical: the pool
   runs stage compute, and every exchange runs on the driver either
   way. *)
let check_shuffle_parity name ?(workers = 4) scenario =
  let run ~parallel =
    let c = Cluster.make ~parallel ~workers () in
    let d = scenario c in
    let parts = Array.init (Dds.num_partitions d) (fun i -> Tset.copy (Dds.partition d i)) in
    let cnt = shuffle_counters (Cluster.metrics c) in
    Cluster.shutdown c;
    (parts, cnt)
  in
  let seq_parts, seq_cnt = run ~parallel:false in
  let pool_parts, pool_cnt = run ~parallel:true in
  check_int (name ^ ": same partition count") (Array.length seq_parts) (Array.length pool_parts);
  Array.iteri
    (fun i p ->
      check_bool (Printf.sprintf "%s: partition %d identical" name i) true
        (Tset.equal p pool_parts.(i)))
    seq_parts;
  check_bool (name ^ ": counters identical") true (seq_cnt = pool_cnt)

let test_shuffle_parity_repartition () =
  let r = big_rel () in
  check_shuffle_parity "repartition" (fun c ->
      Dds.repartition ~by:[ "trg" ] (Dds.of_rel ~by:[ "src" ] c r))

let test_shuffle_parity_of_rel () =
  let r = big_rel ~skew:0.9 () in
  check_shuffle_parity "of_rel hashed" (fun c -> Dds.of_rel ~by:[ "trg" ] c r);
  check_shuffle_parity "of_rel round-robin" (fun c -> Dds.of_rel c r)

let test_shuffle_parity_collect () =
  let r = big_rel () in
  let run ~parallel =
    let c = Cluster.make ~parallel ~workers:4 () in
    let out = Dds.collect (Dds.of_rel ~by:[ "src" ] c r) in
    let cnt = shuffle_counters (Cluster.metrics c) in
    Cluster.shutdown c;
    (out, cnt)
  in
  let seq, seq_cnt = run ~parallel:false in
  let pool, pool_cnt = run ~parallel:true in
  check_rel "collect parity" seq pool;
  check_bool "collect counters identical" true (seq_cnt = pool_cnt)

let test_shuffle_parity_joins () =
  let a = big_rel ~skew:0.3 () in
  let b =
    Rel.of_tuples (sch [ "trg"; "dst" ]) (List.init big_n (fun i -> [| i * 2; i + 100_000 |]))
  in
  check_shuffle_parity "join_shuffle" (fun c ->
      Dds.join_shuffle (Dds.of_rel ~by:[ "src" ] c a) (Dds.of_rel ~by:[ "dst" ] c b));
  check_shuffle_parity "antijoin_shuffle" (fun c ->
      Dds.antijoin_shuffle (Dds.of_rel ~by:[ "src" ] c a) (Dds.of_rel ~by:[ "dst" ] c b))

(* degenerate exchanges: one worker (no pool) and empty inputs *)
let test_shuffle_parity_edges () =
  let r = big_rel ~n:60 () in
  check_shuffle_parity "workers=1" ~workers:1 (fun c ->
      Dds.repartition ~by:[ "trg" ] (Dds.of_rel ~by:[ "src" ] c r));
  let empty = Rel.of_tuples (sch [ "src"; "trg" ]) [] in
  check_shuffle_parity "empty dataset" (fun c ->
      Dds.repartition ~by:[ "trg" ] (Dds.of_rel ~by:[ "src" ] c empty));
  check_shuffle_parity "empty round-robin" (fun c -> Dds.of_rel c empty)

(* -------------------------------------------------------------- *)
(* The iteration-shuffle seen filter                              *)
(* -------------------------------------------------------------- *)

(* The seen filter drops re-routed tuples map-side: same drop counts,
   partitions and counters on a sequential and a parallel cluster. *)
let test_seen_filter_drops () =
  let r = big_rel () in
  let run ~parallel =
    let c = Cluster.make ~parallel ~workers:4 () in
    let m = Cluster.metrics c in
    let seen = Dds.seen_filter c in
    let d = Dds.of_rel ~by:[ "src" ] c r in
    let first = Dds.repartition ~seen ~by:[ "trg" ] d in
    check_int "nothing dropped on first routing" 0 (Dds.seen_dropped seen);
    check_int "first routing complete" (Rel.cardinal r) (Dds.cardinal first);
    let records_after_first = m.Metrics.shuffled_records in
    (* route the very same dataset again: everything was seen *)
    let again = Dds.repartition ~seen ~by:[ "trg" ] d in
    check_int "re-derivations dropped" (Rel.cardinal r) (Dds.seen_dropped seen);
    check_int "second routing empty" 0 (Dds.cardinal again);
    check_int "drops charged" (Rel.cardinal r) m.Metrics.dedup_dropped_records;
    check_int "dropped tuples not shuffled" records_after_first m.Metrics.shuffled_records;
    let out = Dds.collect first in
    let cnt = (Dds.seen_dropped seen, m.Metrics.dedup_dropped_records, shuffle_counters m) in
    Cluster.shutdown c;
    (out, cnt)
  in
  let seq_out, seq_cnt = run ~parallel:false in
  let pool_out, pool_cnt = run ~parallel:true in
  check_rel "sequential/parallel filtered partitions agree" seq_out pool_out;
  check_bool "sequential/parallel dedup counters identical" true (seq_cnt = pool_cnt)

(* antijoin_shuffle must sample output-partition sizes like every other
   wide op: two repartitions (4 samples each on 4 workers) plus the
   output skew pass = exactly 12 new histogram samples. *)
let test_antijoin_feeds_partition_hist () =
  let c = Cluster.make ~workers:4 () in
  let m = Cluster.metrics c in
  let a = Dds.of_rel c (rel [ "x"; "y" ] [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 5 ] ]) in
  let b = Dds.of_rel c (rel [ "y"; "z" ] [ [ 2; 9 ]; [ 5; 9 ] ]) in
  let before = Metrics.Hist.count m.Metrics.partition_records in
  ignore (Dds.antijoin_shuffle a b);
  check_int "repartitions + output skew sampled" (before + 12)
    (Metrics.Hist.count m.Metrics.partition_records)

let () =
  Alcotest.run "distsim"
    [
      ( "metrics",
        [
          Alcotest.test_case "record arithmetic" `Quick test_metrics_record_arithmetic;
          Alcotest.test_case "create/reset/add all fields" `Quick test_metrics_create_reset_add;
          Alcotest.test_case "tuple_bytes" `Quick test_tuple_bytes;
          Alcotest.test_case "hist empty" `Quick test_hist_empty;
          Alcotest.test_case "hist single bucket" `Quick test_hist_single_bucket;
          Alcotest.test_case "hist percentiles ordered" `Quick test_hist_percentiles_ordered;
          Alcotest.test_case "hist merge" `Quick test_hist_merge;
          Alcotest.test_case "stages feed histograms" `Quick test_stage_feeds_histograms;
        ] );
      ( "basics",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "hash colocation" `Quick test_hash_partitioning_colocates;
          Alcotest.test_case "single worker" `Quick test_single_worker;
          Alcotest.test_case "parallel domains" `Quick test_parallel_domains;
        ] );
      ( "pool",
        [
          Alcotest.test_case "lifecycle" `Quick test_pool_lifecycle;
          Alcotest.test_case "survives worker exception" `Quick test_pool_survives_exception;
          Alcotest.test_case "pool ≡ sequential on tier-1 queries" `Quick test_pool_matches_sequential;
          Alcotest.test_case "concurrent dispatch refused" `Quick test_concurrent_dispatch_guard;
        ] );
      ( "narrow",
        [
          Alcotest.test_case "filter" `Quick test_filter_narrow;
          Alcotest.test_case "set_diff_local" `Quick test_set_diff_local;
          Alcotest.test_case "rename" `Quick test_rename;
        ] );
      ( "seen filter",
        [
          Alcotest.test_case "drop counter" `Quick test_seen_filter_drops;
        ] );
      ( "wide",
        [
          Alcotest.test_case "repartition" `Quick test_repartition_noop_and_move;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "distinct free when hashed" `Quick test_distinct_free_when_hashed;
        ] );
      ( "joins",
        [
          Alcotest.test_case "broadcast join" `Quick test_join_broadcast;
          Alcotest.test_case "shuffle join" `Quick test_join_shuffle;
          Alcotest.test_case "antijoins" `Quick test_antijoin_modes;
          Alcotest.test_case "antijoin feeds partition hist" `Quick
            test_antijoin_feeds_partition_hist;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "accounting" `Quick test_metrics_accounting;
          Alcotest.test_case "deadline" `Quick test_deadline;
        ] );
      ( "shuffle parity",
        [
          Alcotest.test_case "repartition" `Quick test_shuffle_parity_repartition;
          Alcotest.test_case "of_rel" `Quick test_shuffle_parity_of_rel;
          Alcotest.test_case "collect" `Quick test_shuffle_parity_collect;
          Alcotest.test_case "joins" `Quick test_shuffle_parity_joins;
          Alcotest.test_case "workers=1 and empty" `Quick test_shuffle_parity_edges;
        ] );
      ( "properties",
        [
          prop_distributed_join;
          prop_distinct_after_union;
        ] );
    ]
