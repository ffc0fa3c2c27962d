module Rel = Relation.Rel
module Term = Mura.Term
module Patterns = Mura.Patterns
module Exec = Physical.Exec
module Cluster = Distsim.Cluster
module Hist = Distsim.Metrics.Hist

type mix = (string * (unit -> Term.t)) list

(* distinct queries that share the closure fixpoint when executed: the
   mix exercises whole-query reuse AND subterm sharing *)
let default_mix () : mix =
  [
    ("tc", fun () -> Patterns.closure (Term.Rel "E"));
    ("reach", fun () -> Patterns.reach 1);
    ( "tc_filtered",
      fun () -> Term.Select (Relation.Pred.Gt_const ("src", 1), Patterns.closure (Term.Rel "E"))
    );
  ]

type config = {
  workers : int;
  sessions : int;
  repeat : int;
  max_inflight : int;
  force_plan : Exec.fixpoint_plan option;
  sample_every : int;
  slow_threshold_ms : float;
}

let default_config =
  {
    workers = 4;
    sessions = 4;
    repeat = 4;
    max_inflight = 2;
    force_plan = None;
    sample_every = 0;
    slow_threshold_ms = infinity;
  }

type result = {
  wall_s : float;
  completed : int;
  failed : int;
  throughput_qps : float;
  hit_rate : float;
  parity_failures : int;
  stats : Serve.stats;
  wait_p50_ms : float;
  wait_p95_ms : float;
  lat_p50_ms : float;
  lat_p95_ms : float;
  lat_p99_ms : float;
  slow_queries : Serve.slow_query list;
  traces_captured : int;
  telemetry : Telemetry.Snapshot.t option;
}

let run ?(mix = default_mix ()) config ~graph =
  let cluster = Cluster.make ~workers:config.workers () in
  let sconfig =
    match config.force_plan with
    | None -> None
    | Some _ -> Some { (Exec.default_config cluster) with Exec.force_plan = config.force_plan }
  in
  let t =
    Serve.create ~max_inflight:config.max_inflight ~sample_every:config.sample_every
      ~slow_threshold_ms:config.slow_threshold_ms ?config:sconfig ~cluster ()
  in
  Serve.register t "E" graph;
  (* parity oracle: the centralized reference evaluator *)
  let env = Mura.Eval.env [ ("E", graph) ] in
  let expected = List.map (fun (label, mk) -> (label, Mura.Eval.eval env (mk ()))) mix in
  let parity_failures = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let client i () =
    let sn = Serve.open_session ~name:(Printf.sprintf "client-%d" i) t in
    for _ = 1 to config.repeat do
      List.iter
        (fun (label, mk) ->
          (* fresh translation per submission, like a real client *)
          let r = Serve.query t sn (mk ()) in
          if not (Rel.equal (List.assoc label expected) r.Serve.rel) then
            Atomic.incr parity_failures)
        mix
    done;
    Serve.close_session t sn
  in
  let domains = List.init config.sessions (fun i -> Domain.spawn (client i)) in
  List.iter Domain.join domains;
  let wall_s = Unix.gettimeofday () -. t0 in
  let s = Serve.stats t in
  let wait_h = Serve.wait_hist t and lat_h = Serve.latency_hist t in
  (* shared interpolated-quantile implementation (Telemetry.Hist) *)
  let pct h q = Hist.quantile h q /. 1e6 in
  let telemetry =
    let reg = Telemetry.get () in
    if Telemetry.enabled reg then Some (Telemetry.snapshot reg) else None
  in
  let r =
    {
      wall_s;
      completed = s.Serve.completed;
      failed = s.Serve.failed;
      throughput_qps = (if wall_s > 0. then float_of_int s.Serve.completed /. wall_s else 0.);
      hit_rate =
        (if s.Serve.completed = 0 then 0.
         else
           float_of_int (s.Serve.result_hits + s.Serve.shared_joins)
           /. float_of_int s.Serve.completed);
      parity_failures = Atomic.get parity_failures;
      stats = s;
      wait_p50_ms = pct wait_h 0.50;
      wait_p95_ms = pct wait_h 0.95;
      lat_p50_ms = pct lat_h 0.50;
      lat_p95_ms = pct lat_h 0.95;
      lat_p99_ms = pct lat_h 0.99;
      slow_queries = Serve.slow_log t;
      traces_captured = s.Serve.traces_captured;
      telemetry;
    }
  in
  Serve.shutdown t;
  r

let print r =
  let s = r.stats in
  Printf.printf
    "serve mix: %d queries in %.3fs (%.1f q/s), hit rate %.0f%%, %d parity failures\n"
    r.completed r.wall_s r.throughput_qps (100. *. r.hit_rate) r.parity_failures;
  Printf.printf
    "  cache: %d result hits, %d in-flight joins, %d misses; plans: %d hits / %d misses\n"
    s.Serve.result_hits s.Serve.shared_joins s.Serve.result_misses s.Serve.plan_hits
    s.Serve.plan_misses;
  Printf.printf "  fixpoints: %d evaluated, %d cache hits, %d shared in flight\n"
    s.Serve.fix_evals s.Serve.fix_hits s.Serve.fix_shared;
  Printf.printf "  admission wait p50/p95: %.2f/%.2f ms; latency p50/p95/p99: %.2f/%.2f/%.2f ms\n"
    r.wait_p50_ms r.wait_p95_ms r.lat_p50_ms r.lat_p95_ms r.lat_p99_ms;
  if s.Serve.slow_queries > 0 || r.traces_captured > 0 then
    Printf.printf "  telemetry: %d slow queries logged, %d traces sampled\n" s.Serve.slow_queries
      r.traces_captured;
  match r.telemetry with
  | None -> ()
  | Some snap ->
    Printf.printf "  registry: %d series (ambient telemetry enabled)\n"
      (List.length snap.Telemetry.Snapshot.rows)

let slow_query_json (q : Serve.slow_query) =
  let open Trace.Json in
  obj
    [
      ("query_id", num (float_of_int q.Serve.sq_query));
      ("session", str q.Serve.sq_session);
      ("key", str q.Serve.sq_key);
      ("plans", arr (List.map str q.Serve.sq_plans));
      ("iterations", num (float_of_int q.Serve.sq_iterations));
      ("stages", num (float_of_int q.Serve.sq_stages));
      ("straggler_mean", num q.Serve.sq_straggler_mean);
      ("wait_ms", num (q.Serve.sq_wait_ns /. 1e6));
      ("total_ms", num (q.Serve.sq_total_ns /. 1e6));
      ("plan_hit", if q.Serve.sq_plan_hit then "true" else "false");
      ("result_hit", if q.Serve.sq_result_hit then "true" else "false");
      ("shared", if q.Serve.sq_shared then "true" else "false");
      ("fix_hits", num (float_of_int q.Serve.sq_fix_hits));
      ("sampled", if q.Serve.sq_sampled then "true" else "false");
    ]

let report_json r =
  let open Trace.Json in
  let s = r.stats in
  let i n = num (float_of_int n) in
  obj
    ([
       ("kind", str "serve_mix");
       ("wall_s", num r.wall_s);
       ("completed", i r.completed);
       ("failed", i r.failed);
       ("throughput_qps", num r.throughput_qps);
       ("hit_rate", num r.hit_rate);
       ("parity_failures", i r.parity_failures);
       ("submitted", i s.Serve.submitted);
       ("result_hits", i s.Serve.result_hits);
       ("shared_joins", i s.Serve.shared_joins);
       ("result_misses", i s.Serve.result_misses);
       ("plan_hits", i s.Serve.plan_hits);
       ("plan_misses", i s.Serve.plan_misses);
       ("fix_evals", i s.Serve.fix_evals);
       ("fix_hits", i s.Serve.fix_hits);
       ("fix_shared", i s.Serve.fix_shared);
       ("invalidated", i s.Serve.invalidated);
       ("evictions", i s.Serve.evictions);
       ("result_cache_entries", i s.Serve.result_entries);
       ("result_cache_bytes", i s.Serve.result_bytes);
       ("graph_version", i s.Serve.graph_version);
       ("slow_queries", i s.Serve.slow_queries);
       ("traces_captured", i r.traces_captured);
       ( "wait_ms",
         obj [ ("p50", num r.wait_p50_ms); ("p95", num r.wait_p95_ms) ] );
       ( "latency_ms",
         obj
           [
             ("p50", num r.lat_p50_ms); ("p95", num r.lat_p95_ms); ("p99", num r.lat_p99_ms);
           ] );
       ("slow_query_log", arr (List.map slow_query_json r.slow_queries));
     ]
    @
    match r.telemetry with
    | None -> []
    | Some snap -> [ ("telemetry", Telemetry.Snapshot.to_json snap) ])

let write_report ~file r =
  let oc = open_out file in
  output_string oc (report_json r);
  output_char oc '\n';
  close_out oc
