(* Tests for lib/telemetry: interpolated quantiles on the log2
   histogram, the labeled-series registry (kind conflicts, cross-domain
   merges, strict no-op when disabled), snapshot exposition (Prometheus
   text + JSON), windowed since-last-scrape deltas, the deterministic
   sampler, and the serving layer's slow-query log and sampled per-query
   traces (query-id propagation into span attrs). *)

open Relation
module Term = Mura.Term
module Patterns = Mura.Patterns
module Cluster = Distsim.Cluster
module Hist = Telemetry.Hist
module Snapshot = Telemetry.Snapshot

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Hist.quantile                                                       *)
(* ------------------------------------------------------------------ *)

let test_quantile_empty () =
  let h = Hist.create () in
  check_float "empty histogram reports 0" 0. (Hist.quantile h 0.5)

let test_quantile_single_value () =
  let h = Hist.create () in
  Hist.add h 37.;
  (* one sample: every quantile collapses to the exact value (clamping) *)
  List.iter (fun q -> check_float "single-sample quantile" 37. (Hist.quantile h q))
    [ 0.; 0.25; 0.5; 0.99; 1. ]

let test_quantile_bounds_and_monotonicity () =
  let h = Hist.create () in
  for i = 1 to 1000 do
    Hist.add h (float_of_int i)
  done;
  let prev = ref neg_infinity in
  List.iter
    (fun q ->
      let v = Hist.quantile h q in
      check_bool "within [min, max]" true (v >= Hist.min_value h && v <= Hist.max_value h);
      check_bool "never above percentile's upper bound" true
        (v <= Hist.percentile h (100. *. q) +. 1e-9);
      check_bool "monotone in q" true (v >= !prev);
      prev := v)
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]

let test_quantile_interpolates () =
  (* uniform 1..1024: the interpolated median lands near 512, while the
     bucket upper bound alone would report 1024 *)
  let h = Hist.create () in
  for i = 1 to 1024 do
    Hist.add h (float_of_int i)
  done;
  let v = Hist.quantile h 0.5 in
  check_bool "median interpolated inside its bucket" true (v >= 384. && v <= 640.);
  check_bool "strictly better than the bucket edge" true (v < Hist.percentile h 50.)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_basics () =
  let r = Telemetry.make () in
  check_bool "fresh registry is enabled" true (Telemetry.enabled r);
  check_bool "disabled is disabled" false (Telemetry.enabled Telemetry.disabled);
  Telemetry.inc r "q_total";
  Telemetry.add r "q_total" 2.;
  Telemetry.set r "inflight" 3.;
  Telemetry.observe r ~labels:[ ("session", "a") ] "lat" 100.;
  Telemetry.observe r ~labels:[ ("session", "a") ] "lat" 200.;
  Telemetry.observe r ~labels:[ ("session", "b") ] "lat" 1.;
  (* a conflicting-kind update of an existing series is dropped *)
  Telemetry.set r "q_total" 99.;
  Telemetry.observe r "inflight" 5.;
  let snap = Telemetry.snapshot r in
  check_bool "cumulative window" true (snap.Snapshot.window = `Cumulative);
  check_float "counter" 3. (Option.get (Snapshot.value snap "q_total"));
  check_float "gauge" 3. (Option.get (Snapshot.value snap "inflight"));
  (match Snapshot.find ~labels:[ ("session", "a") ] snap "lat" with
  | Some (Snapshot.Histogram h) ->
    check_int "labelled histogram count" 2 h.Snapshot.h_count;
    check_float "labelled histogram sum" 300. h.Snapshot.h_sum
  | _ -> Alcotest.fail "lat{session=a} missing or not a histogram");
  check_float "distinct label set is a distinct series" 1.
    (Option.get (Snapshot.value ~labels:[ ("session", "b") ] snap "lat"));
  check_bool "unknown series" true (Snapshot.value snap "nope" = None)

let test_label_order_canonical () =
  let r = Telemetry.make () in
  Telemetry.inc r ~labels:[ ("b", "2"); ("a", "1") ] "c";
  Telemetry.inc r ~labels:[ ("a", "1"); ("b", "2") ] "c";
  let snap = Telemetry.snapshot r in
  check_float "both label orders hit one series" 2.
    (Option.get (Snapshot.value ~labels:[ ("b", "2"); ("a", "1") ] snap "c"));
  check_int "exactly one row" 1 (List.length snap.Snapshot.rows)

let test_disabled_is_free () =
  let d = Telemetry.disabled in
  (* warm up any lazy setup, then measure the loop's allocations *)
  Telemetry.inc d "x";
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Telemetry.inc d "x";
    Telemetry.add d "w" 3.;
    Telemetry.set d "y" 1.;
    Telemetry.observe d "z" 2.
  done;
  let words = Gc.minor_words () -. before in
  (* 4000 updates; a single boxed float per update would already be
     thousands of words. Allow slack for the Gc.minor_words calls. *)
  check_bool (Printf.sprintf "disabled path allocates nothing (%.0f words)" words) true
    (words < 256.)

let test_ambient_registry () =
  check_bool "default ambient is disabled" false (Telemetry.enabled (Telemetry.get ()));
  let r = Telemetry.make () in
  Telemetry.install r;
  check_bool "installed" true (Telemetry.get () == r);
  Telemetry.uninstall ();
  check_bool "uninstalled" false (Telemetry.enabled (Telemetry.get ()))

(* merged concurrent updates equal the sequential sum *)
let qtest_concurrent_merge =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20 ~name:"concurrent updates merge to the sequential sum"
       QCheck2.Gen.(pair (int_range 2 6) (int_range 1 200))
       (fun (domains, k) ->
         let r = Telemetry.make () in
         let worker d () =
           for i = 1 to k do
             Telemetry.inc r "c";
             Telemetry.add r ~labels:[ ("d", string_of_int d) ] "per_domain" 1.;
             Telemetry.observe r "h" (float_of_int i)
           done
         in
         let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
         List.iter Domain.join ds;
         let snap = Telemetry.snapshot r in
         let total = float_of_int (domains * k) in
         Snapshot.value snap "c" = Some total
         && List.for_all
              (fun d ->
                Snapshot.value ~labels:[ ("d", string_of_int d) ] snap "per_domain"
                = Some (float_of_int k))
              (List.init domains Fun.id)
         &&
         match Snapshot.find snap "h" with
         | Some (Snapshot.Histogram h) ->
           h.Snapshot.h_count = domains * k
           && h.Snapshot.h_sum = float_of_int domains *. float_of_int (k * (k + 1) / 2)
         | _ -> false))

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)
(* ------------------------------------------------------------------ *)

let test_prometheus_exposition () =
  let r = Telemetry.make () in
  Telemetry.inc r ~labels:[ ("event", "hit") ] "cache_total";
  Telemetry.inc r ~labels:[ ("event", "miss") ] "cache_total";
  Telemetry.set r "inflight" 2.;
  Telemetry.observe r "lat" 3.;
  Telemetry.observe r "lat" 100.;
  let p = Snapshot.to_prometheus (Telemetry.snapshot r) in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "prometheus text contains %S" needle) true (contains p needle))
    [
      "# TYPE cache_total counter";
      "# TYPE inflight gauge";
      "# TYPE lat histogram";
      "cache_total{event=\"hit\"} 1";
      "cache_total{event=\"miss\"} 1";
      "inflight 2";
      "lat_bucket{le=\"+Inf\"} 2";
      "lat_sum 103";
      "lat_count 2";
    ];
  (* one TYPE line per metric, not per series *)
  let count_type =
    let rec go i acc =
      if i >= String.length p then acc
      else if contains (String.sub p i (min 27 (String.length p - i))) "# TYPE cache_total" then
        go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check_int "single TYPE line for the labelled counter" 1 count_type

let test_json_exposition () =
  let r = Telemetry.make () in
  Telemetry.inc r ~labels:[ ("event", "hit") ] "cache_total";
  Telemetry.observe r "lat" 7.;
  let j = Snapshot.to_json (Telemetry.snapshot r) in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "json contains %S" needle) true (contains j needle))
    [
      "\"window\":\"cumulative\"";
      "\"metrics\":[";
      "\"name\":\"cache_total\"";
      "\"kind\":\"counter\"";
      "\"labels\":{\"event\":\"hit\"}";
      "\"kind\":\"histogram\"";
      "\"buckets\":[";
      "\"le\":";
    ]

(* ------------------------------------------------------------------ *)
(* Windows                                                             *)
(* ------------------------------------------------------------------ *)

let test_window_deltas () =
  let r = Telemetry.make () in
  let w = Telemetry.Window.create () in
  Telemetry.add r "c" 5.;
  Telemetry.set r "g" 2.;
  Telemetry.observe r "h" 10.;
  let d1 = Telemetry.Window.delta w r in
  check_bool "delta window" true (d1.Snapshot.window = `Delta);
  check_float "first scrape reports the full cumulative" 5.
    (Option.get (Snapshot.value d1 "c"));
  check_float "gauge passes through" 2. (Option.get (Snapshot.value d1 "g"));
  Telemetry.add r "c" 2.;
  Telemetry.set r "g" 7.;
  Telemetry.observe r "h" 10.;
  Telemetry.observe r "h" 1000.;
  let d2 = Telemetry.Window.delta w r in
  check_float "counter delta since last scrape" 2. (Option.get (Snapshot.value d2 "c"));
  check_float "gauge still passes through" 7. (Option.get (Snapshot.value d2 "g"));
  (match Snapshot.find d2 "h" with
  | Some (Snapshot.Histogram h) -> check_int "histogram delta count" 2 h.Snapshot.h_count
  | _ -> Alcotest.fail "windowed histogram missing");
  (* an independent handle still sees the full cumulative state *)
  let w2 = Telemetry.Window.create () in
  let e1 = Telemetry.Window.delta w2 r in
  check_float "fresh handle sees cumulative" 7. (Option.get (Snapshot.value e1 "c"));
  (* and the registry's own snapshot stays cumulative throughout *)
  check_float "cumulative snapshot unaffected" 7.
    (Option.get (Snapshot.value (Telemetry.snapshot r) "c"))

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let test_sampler_determinism () =
  let s = Telemetry.Sampler.make ~every:3 () in
  List.iter
    (fun (id, want) ->
      check_bool (Printf.sprintf "sample_id %d" id) want (Telemetry.Sampler.sample_id s id))
    [ (1, false); (2, false); (3, true); (4, false); (6, true); (9, true); (10, false) ];
  (* repeated decisions are identical: pure function of the id *)
  check_bool "deterministic" true
    (Telemetry.Sampler.sample_id s 6 = Telemetry.Sampler.sample_id s 6);
  let off = Telemetry.Sampler.make ~every:0 () in
  check_bool "every=0 disables id sampling" false (Telemetry.Sampler.sample_id off 3);
  check_bool "default threshold never slow" false (Telemetry.Sampler.slow off ~ns:1e18);
  let slow = Telemetry.Sampler.make ~slow_threshold_ns:5e6 ~every:0 () in
  check_bool "at threshold is slow" true (Telemetry.Sampler.slow slow ~ns:5e6);
  check_bool "below threshold is not" false (Telemetry.Sampler.slow slow ~ns:4.9e6)

(* ------------------------------------------------------------------ *)
(* Serving layer: slow-query log and sampled traces                    *)
(* ------------------------------------------------------------------ *)

let edges =
  Rel.of_list
    (Schema.of_list [ "src"; "trg" ])
    [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 5 ]; [ 5; 1 ]; [ 3; 6 ] ]

let make_serve ?sample_every ?slow_threshold_ms ?slow_log_capacity () =
  let cluster = Cluster.make ~workers:2 () in
  let t = Serve.create ?sample_every ?slow_threshold_ms ?slow_log_capacity ~cluster () in
  Serve.register t "E" edges;
  t

let test_slow_log_bound_and_eviction () =
  (* threshold 0: every completed query breaches; capacity 3 *)
  let t = make_serve ~slow_threshold_ms:0. ~slow_log_capacity:3 () in
  let sn = Serve.open_session ~name:"slow" t in
  let queries =
    [
      Patterns.closure (Term.Rel "E");
      Patterns.reach 1;
      Patterns.reach 2;
      Patterns.reach 3;
      Patterns.reach 4;
    ]
  in
  let responses = List.map (fun q -> Serve.query t sn q) queries in
  let log = Serve.slow_log t in
  let s = Serve.stats t in
  check_int "every breach is counted" (List.length queries) s.Serve.slow_queries;
  check_int "log is bounded at its capacity" 3 (List.length log);
  (* newest first: the head is the last submitted query *)
  let last = List.nth responses (List.length responses - 1) in
  (match log with
  | head :: _ ->
    check_int "newest entry first" last.Serve.query_id head.Serve.sq_query;
    check_bool "session recorded" true (head.Serve.sq_session = "slow");
    check_bool "normalized key recorded" true (String.length head.Serve.sq_key > 0);
    check_bool "latency recorded" true (head.Serve.sq_total_ns >= 0.)
  | [] -> Alcotest.fail "empty slow log");
  (* evicted entries stay visible in the counter, not the log *)
  check_bool "evictions observable" true (s.Serve.slow_queries > List.length log);
  Serve.shutdown t

let test_slow_log_off_by_default () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  ignore (Serve.query t sn (Patterns.closure (Term.Rel "E")));
  check_int "no slow queries without a threshold" 0 (Serve.stats t).Serve.slow_queries;
  check_int "empty log" 0 (List.length (Serve.slow_log t));
  Serve.shutdown t

let test_query_id_propagation () =
  let t = make_serve ~sample_every:1 () in
  let sn = Serve.open_session ~name:"qid" t in
  let r1 = Serve.query t sn (Patterns.closure (Term.Rel "E")) in
  check_bool "owner evaluation is sampled" true r1.Serve.sampled;
  (* a cache hit re-serves the stored result: nothing new to capture *)
  let r2 = Serve.query t sn (Patterns.closure (Term.Rel "E")) in
  check_bool "hit is not sampled" false r2.Serve.sampled;
  check_bool "query ids are distinct and ordered" true (r2.Serve.query_id > r1.Serve.query_id);
  (match Serve.sampled_traces t with
  | [] -> Alcotest.fail "sample_every=1 captured no trace"
  | qt :: _ ->
    check_int "trace is keyed by the sampled query" r1.Serve.query_id qt.Serve.qt_query;
    check_bool "trace has events" true (qt.Serve.qt_events <> []);
    (* every captured event carries the query id, from admission
       through the cluster's stage spans *)
    List.iter
      (fun (e : Trace.event) ->
        check_bool
          (Printf.sprintf "event %s carries query_id" e.Trace.name)
          true
          (List.assoc_opt "query_id" e.Trace.attrs = Some (Trace.Int r1.Serve.query_id)))
      qt.Serve.qt_events;
    check_bool "stage spans captured" true
      (List.exists
         (fun (e : Trace.event) -> e.Trace.kind = Trace.Span && e.Trace.name = "stage")
         qt.Serve.qt_events);
    check_bool "exchange events captured" true
      (List.exists (fun (e : Trace.event) -> e.Trace.name = "shuffle") qt.Serve.qt_events));
  Serve.shutdown t

(* a user-installed ambient tracer wins: the server does not clobber it,
   and the user's events still carry the query ids *)
let test_user_tracer_wins () =
  let tr = Trace.make () in
  Trace.install tr;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let t = make_serve ~sample_every:1 () in
      let sn = Serve.open_session t in
      let r = Serve.query t sn (Patterns.closure (Term.Rel "E")) in
      check_bool "no server capture under a user tracer" false r.Serve.sampled;
      check_int "no stored traces" 0 (List.length (Serve.sampled_traces t));
      check_bool "user tracer saw the evaluation, tagged with the id" true
        (List.exists
           (fun (e : Trace.event) ->
             List.assoc_opt "query_id" e.Trace.attrs = Some (Trace.Int r.Serve.query_id))
           (Trace.events tr));
      Serve.shutdown t)

(* the serve hot paths feed the ambient registry *)
let test_serve_feeds_registry () =
  let r = Telemetry.make () in
  Telemetry.install r;
  Fun.protect ~finally:Telemetry.uninstall (fun () ->
      let t = make_serve () in
      let sn = Serve.open_session ~name:"tele" t in
      ignore (Serve.query t sn (Patterns.closure (Term.Rel "E")));
      ignore (Serve.query t sn (Patterns.closure (Term.Rel "E")));
      let snap = Telemetry.snapshot r in
      check_float "submissions counted" 2.
        (Option.get (Snapshot.value snap "serve_queries_submitted_total"));
      check_float "result hit counted" 1.
        (Option.get
           (Snapshot.value
              ~labels:[ ("cache", "result"); ("event", "hit") ]
              snap "serve_cache_total"));
      check_float "result miss counted" 1.
        (Option.get
           (Snapshot.value
              ~labels:[ ("cache", "result"); ("event", "miss") ]
              snap "serve_cache_total"));
      (match
         Snapshot.find ~labels:[ ("session", "tele") ] snap "serve_query_latency_ns"
       with
      | Some (Snapshot.Histogram h) -> check_int "latency observed per query" 2 h.Snapshot.h_count
      | _ -> Alcotest.fail "per-session latency histogram missing");
      check_bool "cluster chokepoints reported" true
        (Snapshot.value snap "cluster_stages_total" <> None);
      Serve.shutdown t)

let () =
  Alcotest.run "telemetry"
    [
      ( "quantile",
        [
          Alcotest.test_case "empty" `Quick test_quantile_empty;
          Alcotest.test_case "single value" `Quick test_quantile_single_value;
          Alcotest.test_case "bounds and monotonicity" `Quick test_quantile_bounds_and_monotonicity;
          Alcotest.test_case "interpolation beats bucket edges" `Quick test_quantile_interpolates;
        ] );
      ( "registry",
        [
          Alcotest.test_case "basics and kinds" `Quick test_registry_basics;
          Alcotest.test_case "label order canonical" `Quick test_label_order_canonical;
          Alcotest.test_case "disabled path allocates nothing" `Quick test_disabled_is_free;
          Alcotest.test_case "ambient install/uninstall" `Quick test_ambient_registry;
          qtest_concurrent_merge;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus text" `Quick test_prometheus_exposition;
          Alcotest.test_case "json snapshot" `Quick test_json_exposition;
        ] );
      ("windows", [ Alcotest.test_case "since-last-scrape deltas" `Quick test_window_deltas ]);
      ("sampler", [ Alcotest.test_case "determinism" `Quick test_sampler_determinism ]);
      ( "serve",
        [
          Alcotest.test_case "slow log bound and eviction" `Quick test_slow_log_bound_and_eviction;
          Alcotest.test_case "slow log off by default" `Quick test_slow_log_off_by_default;
          Alcotest.test_case "query-id propagation into spans" `Quick test_query_id_propagation;
          Alcotest.test_case "user tracer wins" `Quick test_user_tracer_wins;
          Alcotest.test_case "hot paths feed the registry" `Quick test_serve_feeds_registry;
        ] );
    ]
