(* The cold workloads: repeated passes over the paper's query set, every
   query on the cache-less path text -> parse -> rewrite + cost -> fresh
   session -> distributed run on a sequential four-worker simulated
   cluster. *)

open Common
module Rel = Relation.Rel
module Exec = Physical.Exec
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics

type dataset = Yago | Uniprot

let default_scale = function Yago -> 1000 | Uniprot -> 1500
let workers = 4
let read_timeout_s = 60.

type input = { graph : Rel.t; queries : (string * string) array  (** id, UCRPQ text *) }

(* Graphs per run. A 1500-edge Uniprot graph varies much from seed to seed
   (Q33 alone is half a pass, and the median falls between two of the 24
   queries), so uniprot_cold alternates its passes over two graphs. *)
let graphs_per_run = function Yago -> 1 | Uniprot -> 2

(* One graph with its query texts (the Uniprot queries take their
   constants from the graph). *)
let generate dataset ~seed ~scale =
  let specs, graph =
    match dataset with
    | Yago -> ((fun _ -> Harness.Queries.yago), Graphgen.Yago_like.generate ~seed ~scale ())
    | Uniprot -> (Harness.Queries.uniprot, Graphgen.Uniprot_like.generate ~seed ~scale ())
  in
  let queries =
    Array.of_list (List.map (fun s -> (s.Harness.Queries.id, s.Harness.Queries.text)) (specs graph))
  in
  { graph; queries }

(* The run's graphs: graph [i] of seed [s] is generated from seed
   [s * graphs + i], so no two runs share a graph. *)
let setup dataset ~seed ~scale =
  let n = graphs_per_run dataset in
  Array.init n (fun i -> generate dataset ~seed:((seed * n) + i) ~scale)

(* What one traced read observed beyond its spans. *)
type obs = {
  cluster : Metrics.t;
  fixpoints : int;
  plw_fixpoints : int;
  iterations : int;
  tuples : int;
  exec_minor : float;
  gc0 : gc_mark;
  gc1 : gc_mark;
}

(* One cold read. With [sp], each layer call is wrapped in a span under
   the read's root span and [obs] is filled in; without, the calls run
   bare. *)
let read ?sp ~req graph text =
  let tables = [ ("E", graph) ] in
  match sp with
  | None ->
    let term = Rpq.Query.union_to_term (Rpq.Query.parse_union text) in
    let best = Harness.Systems.optimize tables term in
    let ctx = Exec.session (Exec.default_config (Cluster.make ~workers ())) tables in
    (Exec.run ctx best, None)
  | Some sp ->
    let gc0 = gc_mark () in
    span_in sp ~req ~parent:(-1) "read" @@ fun root ->
    let term =
      span_in sp ~req ~parent:root "rpq.parse" @@ fun _ ->
      Rpq.Query.union_to_term (Rpq.Query.parse_union text)
    in
    let best =
      span_in sp ~req ~parent:root "rewrite.optimize" @@ fun _ ->
      Harness.Systems.optimize tables term
    in
    let minor0 = Gc.minor_words () in
    let rel, ctx, cluster =
      span_in sp ~req ~parent:root "physical.exec" @@ fun _ ->
      let cluster = Cluster.make ~workers () in
      let ctx = Exec.session (Exec.default_config cluster) tables in
      (Exec.run ctx best, ctx, cluster)
    in
    let exec_minor = Gc.minor_words () -. minor0 in
    let fix = (Exec.report ctx).Exec.fixpoints in
    let obs =
      {
        cluster = Cluster.metrics cluster;
        fixpoints = List.length fix;
        plw_fixpoints = List.length (List.filter (fun f -> f.Exec.plan <> Exec.P_gld) fix);
        iterations = List.fold_left (fun a f -> a + f.Exec.iterations) 0 fix;
        tuples = Rel.cardinal rel;
        exec_minor;
        gc0;
        gc1 = gc_mark ();
      }
    in
    (rel, Some obs)

type result = {
  latencies_ms : float list;
  passes : (int * float) list;  (** reads completed and their summed ms, per pass *)
  responses : ((int * int) * digest) list;  (** (graph, query) index, digest *)
  failed : int;
  sp : spans;
  obs : ((int * int) * obs) list;  (** (graph, query) index, observations (traced only) *)
  heap : float;  (** peak major heap (MiB) after [heap_passes] passes *)
}

(* Enough reads for ten samples beyond the 90th percentile. *)
let min_reads = 100

(* The peak heap is read after a fixed amount of work, so that a faster
   host, which completes more passes, does not read a larger peak. *)
let heap_passes = 4

(* Whole passes, alternating over the graphs, until [seconds] have gone by,
   [min_reads] are in and every graph had as many passes (or [limit]
   passes). *)
let measure ~traced settings gs =
  let sp = spans () in
  let lat = ref [] and responses = ref [] and failed = ref 0 and obs = ref [] in
  let t_start = now () in
  let req = ref 0 in
  let more pass =
    match settings.limit with
    | Some n -> pass < n
    | None ->
      pass mod Array.length gs <> 0
      || pass * Array.length gs.(0).queries < min_reads
      || now () -. t_start < settings.seconds
  in
  let pass = ref 0 and passes = ref [] and heap = ref None in
  while more !pass do
    calibrate 3;
    let gi = !pass mod Array.length gs in
    let st = gs.(gi) in
    let before = List.length !lat in
    Array.iteri
      (fun qi (id, text) ->
        Relation.Deadline.set ~seconds_from_now:read_timeout_s;
        let t0 = now () in
        (match read ?sp:(if traced then Some sp else None) ~req:!req st.graph text with
        | rel, o ->
          let t1 = now () in
          Relation.Deadline.clear ();
          lat := ((t1 -. t0) *. 1e3) :: !lat;
          responses := ((gi, qi), digest rel) :: !responses;
          Option.iter (fun o -> obs := ((gi, qi), o) :: !obs) o
        | exception e ->
          Relation.Deadline.clear ();
          incr failed;
          Printf.eprintf "read %s failed: %s\n%!" id (Printexc.to_string e));
        incr req)
      st.queries;
    let n = List.length !lat - before in
    passes := (n, sum (List.filteri (fun i _ -> i < n) !lat)) :: !passes;
    incr pass;
    if !pass = heap_passes then heap := Some (heap_mb ())
  done;
  calibrate 3;
  {
    latencies_ms = List.rev !lat;
    passes = List.rev !passes;
    responses = !responses;
    failed = !failed;
    sp;
    obs = !obs;
    heap = (match !heap with Some h -> h | None -> heap_mb ());
  }

let e2e_metrics r =
  let l = r.latencies_ms in
  [
    (* the median pass: transient slowdowns of the host stay out *)
    m "throughput_qps" "1/s"
      (median (List.map (fun (n, ms) -> float_of_int n /. (ms /. 1e3)) r.passes));
    m "latency_p50_ms" "ms" (median l);
    m "latency_p90_ms" "ms" (quantile l 0.9);
  ]

(* Explore-set size per graph and query: counted once, outside every timed
   span. *)
let plans_total gs r =
  let plans =
    Array.map
      (fun st ->
        let tenv = Mura.Typing.env [ ("E", Rel.schema st.graph) ] in
        Array.map
          (fun (_, text) -> List.length (Rewrite.Engine.explore ~max_plans:120 tenv (Oracle.term_of text)))
          st.queries)
      gs
  in
  List.fold_left (fun a ((gi, qi), _) -> a + plans.(gi).(qi)) 0 r.obs

(* Totals over the traced reads. *)
let sumi r f = List.fold_left (fun a (_, o) -> a + f o) 0 r.obs

let layer_metrics gs r =
  let per x = ratio x (float_of_int (List.length r.obs)) in
  let sumi f = float_of_int (sumi r f) in
  let sumf f = List.fold_left (fun a (_, o) -> a +. f o) 0. r.obs in
  let tuples = sumi (fun o -> o.tuples) in
  let fixpoints = sumi (fun o -> o.fixpoints) in
  let straggler f = sumf (fun o -> f o.cluster.Metrics.straggler) in
  [
    m "rpq.parse_ms" "ms" (per (total_ms r.sp "rpq.parse"));
    m "rewrite.optimize_ms" "ms" (per (total_ms r.sp "rewrite.optimize"));
    m "rewrite.plans" "count" (per (float_of_int (plans_total gs r)));
    m "physical.exec_ms" "ms" (per (total_ms r.sp "physical.exec"));
    m "physical.fixpoints" "count" (per fixpoints);
    m "physical.iterations" "count" (per (sumi (fun o -> o.iterations)));
    m "physical.plw_share" "ratio" (ratio (sumi (fun o -> o.plw_fixpoints)) fixpoints);
    m "physical.result_tuples" "count" (per tuples);
    m "distsim.stages" "count" (per (sumi (fun o -> o.cluster.Metrics.stages)));
    m "distsim.shuffles" "count" (per (sumi (fun o -> o.cluster.Metrics.shuffles)));
    m "distsim.shuffled_records" "count" (per (sumi (fun o -> o.cluster.Metrics.shuffled_records)));
    m "distsim.shuffled_bytes" "bytes" (per (sumi (fun o -> o.cluster.Metrics.shuffled_bytes)));
    m "distsim.broadcast_records" "count" (per (sumi (fun o -> o.cluster.Metrics.broadcast_records)));
    m "distsim.dedup_dropped" "count" (per (sumi (fun o -> o.cluster.Metrics.dedup_dropped_records)));
    m "distsim.worker_busy_ms" "ms"
      (per (sumf (fun o -> Array.fold_left ( +. ) 0. o.cluster.Metrics.per_worker_ns /. 1e6)));
    m "distsim.sim_ms" "ms" (per (sumf (fun o -> o.cluster.Metrics.sim_time_ns /. 1e6)));
    m "distsim.straggler_ratio" "ratio"
      (ratio (straggler Metrics.Hist.total) (straggler (fun h -> float_of_int (Metrics.Hist.count h))));
    m "relation.rehash_grows" "count" (per (sumi (fun o -> o.gc1.grows - o.gc0.grows)));
    m "gc.minor_words_per_tuple" "words" (ratio (sumf (fun o -> o.exec_minor)) tuples);
    m "gc.major_collections" "count" (per (sumi (fun o -> o.gc1.majors - o.gc0.majors)));
  ]

(* Deterministic totals of a traced phase, for the self-check. *)
let counters gs r =
  let sumi = sumi r in
  [
    ("rewrite.plans", plans_total gs r);
    ("physical.fixpoints", sumi (fun o -> o.fixpoints));
    ("physical.iterations", sumi (fun o -> o.iterations));
    ("physical.result_tuples", sumi (fun o -> o.tuples));
    ("distsim.stages", sumi (fun o -> o.cluster.Metrics.stages));
    ("distsim.shuffles", sumi (fun o -> o.cluster.Metrics.shuffles));
    ("distsim.shuffled_records", sumi (fun o -> o.cluster.Metrics.shuffled_records));
    ("distsim.shuffled_bytes", sumi (fun o -> o.cluster.Metrics.shuffled_bytes));
    ("distsim.broadcast_records", sumi (fun o -> o.cluster.Metrics.broadcast_records));
    ("distsim.dedup_dropped", sumi (fun o -> o.cluster.Metrics.dedup_dropped_records));
    ("relation.rehash_grows", sumi (fun o -> o.gc1.grows - o.gc0.grows));
  ]

(* [refresh_p50_ms] on the cold path. The output format asks for every
   end-to-end metric on every workload, but nothing is cached here, so a
   read after an update is a cold read by construction: the figure is a
   cold read latency, measured on reads of its own. After the timed
   passes and outside their time budget, each of [refresh_rounds] rounds
   inserts an edge batch into a graph and deletes it again, then reads
   every query once on the result. Its contents are version 0's, so the
   reference answers of version 0 check these reads (and cost nothing
   more). *)
let refresh_rounds = 6

let refresh_round settings gs round =
  let gi = round mod Array.length gs in
  let st = gs.(gi) in
  let g = st.graph in
  let b = { (Updates.next (Updates.create ~seed:((settings.seed * 7919) + 3 + round) g)) with deletes = None } in
  let changed = Updates.apply (Updates.apply g b) { inserts = Rel.create (Rel.schema g); deletes = Some b.inserts } in
  let r = measure ~traced:false { settings with limit = Some 1 } [| { st with graph = changed } |] in
  { r with responses = List.map (fun ((_, qi), d) -> ((gi, qi), d)) r.responses }

let run dataset settings ~trace =
  let scale = Option.value settings.scale ~default:(default_scale dataset) in
  let gs, setup_s = repeat_setup settings.setups (fun () -> setup dataset ~seed:settings.seed ~scale) in
  (* traced runs split their time between an untraced and a traced phase *)
  let phase = if trace then { settings with seconds = settings.seconds /. 2. } else settings in
  let base = measure ~traced:false phase gs in
  let refreshed = if trace then [] else List.init refresh_rounds (refresh_round settings gs) in
  let traced = if trace then Some (measure ~traced:true phase gs) else None in
  let t_oracle = now () in
  let runs = (base :: Option.to_list traced) @ refreshed in
  let oracles = Array.map (fun st -> Oracle.create st.graph) gs in
  let mismatches =
    List.fold_left
      (fun bad r ->
        List.fold_left
          (fun bad ((gi, qi), d) ->
            bad + Oracle.mismatches oracles.(gi) ~version:0 gs.(gi).graph [ (snd gs.(gi).queries.(qi), d) ])
          bad r.responses)
      0 runs
  in
  let oracle_s = now () -. t_oracle in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 runs in
  let attempted = List.fold_left (fun a r -> a + List.length r.responses) failed runs in
  let refresh_ms = List.concat_map (fun r -> r.latencies_ms) refreshed in
  let metrics, counters =
    match traced with
    | None ->
      ( e2e_metrics base
        @ [ m "refresh_p50_ms" "ms" (median refresh_ms); setup_s; m "heap_mb" "MiB" base.heap ],
        [] )
    | Some t ->
      let layers = layer_metrics gs t in
      let layer name = (List.find (fun x -> String.equal x.name name) layers).value in
      ( layers
        @ trace_metrics ~untraced_ms:base.latencies_ms ~traced_ms:t.latencies_ms
            ~layers_ms:(layer "rpq.parse_ms" +. layer "rewrite.optimize_ms" +. layer "physical.exec_ms"),
        counters gs t )
  in
  let measured = Option.value traced ~default:base in
  {
    attempted;
    failed;
    mismatches;
    metrics;
    counters;
    meta =
      [
        ("scale", Int scale);
        ("graphs", Int (Array.length gs));
        ("edges", Int (Array.fold_left (fun a st -> a + Rel.cardinal st.graph) 0 gs));
        ("queries", Int (Array.length gs.(0).queries));
        ("passes", Int (List.length measured.passes));
        ("reads", Int (List.length measured.latencies_ms));
        ("refresh_reads", Int (List.length refresh_ms));
        ("setups", Int settings.setups);
        ("oracle_s", Num oracle_s);
      ];
    spans = measured.sp;
  }
