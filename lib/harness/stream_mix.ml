module Rel = Relation.Rel
module Schema = Relation.Schema
module Term = Mura.Term
module Exec = Physical.Exec
module Cluster = Distsim.Cluster
module Hist = Distsim.Metrics.Hist

type config = {
  workers : int;
  parallel : bool;
  rounds : int;
  batch : int;
  delete_every : int;
  queries_per_round : int;
  force_plan : Exec.fixpoint_plan option;
  seed : int;
}

let default_config =
  {
    workers = 4;
    parallel = false;
    rounds = 8;
    batch = 4;
    delete_every = 3;
    queries_per_round = 2;
    force_plan = None;
    seed = 7;
  }

type result = {
  rounds : int;
  completed : int;  (* queries answered across both servers *)
  parity_failures : int;
  repaired : int;
  repair_fallbacks : int;
  recomputed : int;  (* fixpoints evaluated from scratch on the repair server *)
  post_update_hits : int;  (* first post-update submissions served from the result cache *)
  repair_mean_ms : float;
  repair_p50_ms : float;
  repair_p95_ms : float;
  recompute_mean_ms : float;
  recompute_p50_ms : float;
  recompute_p95_ms : float;
  speedup : float;
  repair_stats : Serve.stats;
  baseline_stats : Serve.stats;
  telemetry : Telemetry.Snapshot.t option;
}

(* Pick [k] resident edges to delete (deterministic: set order). *)
let take_edges k rel =
  let out = Rel.create (Rel.schema rel) in
  (try
     Rel.iter
       (fun tu ->
         if Rel.cardinal out >= k then raise Exit;
         ignore (Rel.add out (Array.copy tu)))
       rel
   with Exit -> ());
  out

let run ?(mix = Serve_mix.default_mix ()) config ~graph =
  let schema = Rel.schema graph in
  let col name =
    match
      List.find_index (String.equal name) (Schema.cols schema)
    with
    | Some i -> i
    | None -> failwith "stream mix needs an edge graph with src/trg columns"
  in
  let src_i = col "src" and trg_i = col "trg" in
  let nodes = 1 + Rel.fold (fun tu m -> max m (max tu.(src_i) tu.(trg_i))) graph 0 in
  let rng = Graphgen.Rng.create config.seed in
  let make_server enabled =
    let cluster = Cluster.make ~parallel:config.parallel ~workers:config.workers () in
    let sconfig =
      match config.force_plan with
      | None -> None
      | Some _ -> Some { (Exec.default_config cluster) with Exec.force_plan = config.force_plan }
    in
    let t =
      Serve.create
        ~max_repair_handles:(if enabled then 32 else 0)
        ?config:sconfig ~cluster ()
    in
    Serve.register t "E" graph;
    t
  in
  let srv_repair = make_server true in
  let srv_baseline = make_server false in
  let sn_repair = Serve.open_session ~name:"stream-repair" srv_repair in
  let sn_baseline = Serve.open_session ~name:"stream-baseline" srv_baseline in
  let current = ref graph in
  let completed = ref 0 in
  let parity_failures = ref 0 in
  let post_update_hits = ref 0 in
  let repair_h = Hist.create () in
  let recompute_h = Hist.create () in
  (* warm both servers so round 1 starts from a converged, cached state *)
  List.iter (fun (_, mk) -> ignore (Serve.query srv_repair sn_repair (mk ()))) mix;
  List.iter (fun (_, mk) -> ignore (Serve.query srv_baseline sn_baseline (mk ()))) mix;
  for round = 1 to config.rounds do
    (* sustained arrivals: a fresh-edge batch (a resident edge cloned
       with rewired endpoints, so labelled graphs keep their labels),
       plus periodic deletions *)
    let inserts = Rel.create schema in
    let resident = Array.of_list (Rel.to_list !current) in
    let attempts = ref 0 in
    while Rel.cardinal inserts < config.batch && !attempts < config.batch * 20 do
      incr attempts;
      let tu = Array.copy resident.(Graphgen.Rng.int rng (Array.length resident)) in
      let i = Graphgen.Rng.int rng nodes and j = Graphgen.Rng.int rng nodes in
      tu.(src_i) <- i;
      tu.(trg_i) <- j;
      if i <> j && not (Rel.mem !current tu) then ignore (Rel.add inserts tu)
    done;
    let deletes =
      if config.delete_every > 0 && round mod config.delete_every = 0 then
        Some (take_edges (max 1 (config.batch / 2)) !current)
      else None
    in
    Serve.update ~inserts ?deletes srv_repair "E";
    Serve.update ~inserts ?deletes srv_baseline "E";
    current :=
      (match deletes with Some d -> Rel.union (Rel.diff !current d) inserts
      | None -> Rel.union !current inserts);
    let env = Mura.Eval.env [ ("E", !current) ] in
    let expected = List.map (fun (label, mk) -> (label, Mura.Eval.eval env (mk ()))) mix in
    for q = 1 to config.queries_per_round do
      List.iter
        (fun (label, mk) ->
          let want = List.assoc label expected in
          let rr = Serve.query srv_repair sn_repair (mk ()) in
          let rb = Serve.query srv_baseline sn_baseline (mk ()) in
          completed := !completed + 2;
          if not (Rel.equal want rr.Serve.rel) then incr parity_failures;
          if not (Rel.equal want rb.Serve.rel) then incr parity_failures;
          (* the first post-update submission of a query the batch
             touched misses the result cache: its exec time is the
             repair latency on one server and the recompute latency on
             the other *)
          if q = 1 then begin
            if rr.Serve.result_hit then incr post_update_hits
            else Hist.add repair_h rr.Serve.exec_ns;
            if not rb.Serve.result_hit then Hist.add recompute_h rb.Serve.exec_ns
          end)
        mix
    done
  done;
  let s_r = Serve.stats srv_repair in
  let s_b = Serve.stats srv_baseline in
  let mean h = if Hist.count h = 0 then 0. else Hist.total h /. float_of_int (Hist.count h) in
  let pct h q = Hist.quantile h q /. 1e6 in
  let telemetry =
    let reg = Telemetry.get () in
    if Telemetry.enabled reg then Some (Telemetry.snapshot reg) else None
  in
  let r =
    {
      rounds = config.rounds;
      completed = !completed;
      parity_failures = !parity_failures;
      repaired = s_r.Serve.repaired;
      repair_fallbacks = s_r.Serve.repair_fallbacks;
      recomputed = s_r.Serve.fix_evals;
      post_update_hits = !post_update_hits;
      repair_mean_ms = mean repair_h /. 1e6;
      repair_p50_ms = pct repair_h 0.50;
      repair_p95_ms = pct repair_h 0.95;
      recompute_mean_ms = mean recompute_h /. 1e6;
      recompute_p50_ms = pct recompute_h 0.50;
      recompute_p95_ms = pct recompute_h 0.95;
      speedup = (if mean repair_h > 0. then mean recompute_h /. mean repair_h else 0.);
      repair_stats = s_r;
      baseline_stats = s_b;
      telemetry;
    }
  in
  Serve.shutdown srv_repair;
  Serve.shutdown srv_baseline;
  r

let print r =
  Printf.printf
    "stream mix: %d rounds, %d queries, %d parity failures\n"
    r.rounds r.completed r.parity_failures;
  Printf.printf "  repair server: %d repaired, %d recomputed, %d fallbacks, %d handles live\n"
    r.repaired r.recomputed r.repair_fallbacks r.repair_stats.Serve.repair_handles;
  Printf.printf "  repair latency mean/p50/p95: %.2f/%.2f/%.2f ms\n" r.repair_mean_ms
    r.repair_p50_ms r.repair_p95_ms;
  Printf.printf "  recompute latency mean/p50/p95: %.2f/%.2f/%.2f ms\n" r.recompute_mean_ms
    r.recompute_p50_ms r.recompute_p95_ms;
  Printf.printf "  repair-vs-recompute speedup: %.1fx\n" r.speedup

let report_json r =
  let open Trace.Json in
  let i n = num (float_of_int n) in
  let server_json (s : Serve.stats) =
    obj
      [
        ("completed", i s.Serve.completed);
        ("result_hits", i s.Serve.result_hits);
        ("result_misses", i s.Serve.result_misses);
        ("fix_evals", i s.Serve.fix_evals);
        ("repaired", i s.Serve.repaired);
        ("repair_fallbacks", i s.Serve.repair_fallbacks);
        ("repair_handles", i s.Serve.repair_handles);
        ("invalidated", i s.Serve.invalidated);
        ("graph_version", i s.Serve.graph_version);
      ]
  in
  obj
    ([
       ("kind", str "stream_mix");
       ("rounds", i r.rounds);
       ("completed", i r.completed);
       ("parity_failures", i r.parity_failures);
       ("repaired", i r.repaired);
       ("repair_fallbacks", i r.repair_fallbacks);
       ("recomputed", i r.recomputed);
       ("post_update_hits", i r.post_update_hits);
       ( "repair_ms",
         obj
           [
             ("mean", num r.repair_mean_ms);
             ("p50", num r.repair_p50_ms);
             ("p95", num r.repair_p95_ms);
           ] );
       ( "recompute_ms",
         obj
           [
             ("mean", num r.recompute_mean_ms);
             ("p50", num r.recompute_p50_ms);
             ("p95", num r.recompute_p95_ms);
           ] );
       ("speedup", num r.speedup);
       ("repair_server", server_json r.repair_stats);
       ("baseline_server", server_json r.baseline_stats);
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
