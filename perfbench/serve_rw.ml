(* The read/write serving workload: one closed-loop client against one
   [Serve] session over the Yago graph. Reads are Q1-Q24 drawn with a fixed
   Zipf skew; every [update_every]-th request is an edge batch. *)

open Common
module Rel = Relation.Rel
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics
module Rng = Graphgen.Rng

let default_scale = 1000
let update_every = 8
let window = 64

(* The peak heap is read after a fixed number of requests, so that a
   faster host, which completes more requests, does not read a larger
   peak. *)
let heap_requests = 1500
let zipf_s = 1.0

(* Q25's (actedIn/-actedIn)+ closure is left to yago_cold: here it would
   dominate every refresh. *)
let queries =
  Array.of_list
    (List.filteri (fun i _ -> i < 24) (List.map (fun s -> s.Harness.Queries.text) Harness.Queries.yago))

type server = { srv : Serve.t; sn : Serve.Session.t }

let server graph =
  let srv = Serve.create ~cluster:(Cluster.make ~workers:4 ()) () in
  Serve.register srv "E" graph;
  { srv; sn = Serve.open_session ~name:"bench" srv }

type read = {
  q : int;
  version : int;  (** graph version answered at: number of batches applied *)
  d : digest;
  ms : float;
  hit : bool;
  repaired : bool;
  refresh : bool;  (** first read of [q] since an update changed the graph *)
  exec_ms : float;
  iterations : int;
}

type result = {
  warmup : read list;
  reads : read list;  (** measured region, in order *)
  update_ms : float list;
  req_ms : float list;  (** every measured request (read or update), in order *)
  batches : Updates.batch list;  (** in order; batch [i] makes version [i + 1] *)
  failed : int;
  sp : spans;
  stats0 : Serve.stats;
  stats1 : Serve.stats;
  m0 : Metrics.t;  (** cluster counters at the start of the measured region *)
  m1 : Metrics.t;
  gc : gc_mark;  (** traced: summed over the [Serve.query] and [Serve.update] calls *)
  fix : Telemetry.Snapshot.t option;  (** traced: fixpoints by plan *)
  heap : float;  (** peak major heap (MiB) after [heap_requests] requests *)
}

let snapshot_metrics s =
  let m = Metrics.create () in
  Metrics.add m (Cluster.metrics (Serve.cluster s.srv));
  m

let requests r = List.length r.reads + List.length r.update_ms

(* One request stream from [settings.seed]; the same in every phase. *)
let measure ~traced settings graph s =
  let rng = Rng.create ((settings.seed * 7919) + 1) in
  let ups = Updates.create ~seed:((settings.seed * 7919) + 2) graph in
  let sp = spans () and gc = ref zero_mark in
  let version = ref 0 and batches = ref [] and failed = ref 0 in
  let last_read = Array.make (Array.length queries) (-1) in
  let do_read ~req q =
    let text = queries.(q) in
    let refresh = last_read.(q) >= 0 && last_read.(q) < !version in
    let t0 = now () in
    match
      if not traced then Serve.query_ucrpq s.srv s.sn text
      else
        (* [Serve.query_ucrpq] is exactly parse + translate + [Serve.query];
           split here so the parse gets its own span *)
        span_in sp ~req ~parent:(-1) "request" @@ fun root ->
        let term = span_in sp ~req ~parent:root "rpq.parse" (fun _ -> Oracle.term_of text) in
        span_in sp ~req ~parent:root "serve.query" (fun _ -> metered gc (fun () -> Serve.query s.srv s.sn term))
    with
    | resp ->
      let ms = (now () -. t0) *. 1e3 in
      last_read.(q) <- !version;
      Some
        {
          q;
          version = !version;
          d = digest resp.Serve.rel;
          ms;
          hit = resp.Serve.result_hit;
          repaired = resp.Serve.repaired;
          refresh;
          exec_ms = resp.Serve.exec_ns /. 1e6;
          iterations = resp.Serve.iterations;
        }
    | exception e ->
      incr failed;
      Printf.eprintf "read Q%d failed: %s\n%!" (q + 1) (Printexc.to_string e);
      None
  in
  (* warm-up: one read of each query fills the plan and result caches *)
  let warmup = List.filter_map (fun q -> do_read ~req:(-1) q) (List.init (Array.length queries) Fun.id) in
  let reg = if traced then Some (Telemetry.make ()) else None in
  Option.iter Telemetry.install reg;
  gc := zero_mark;
  let stats0 = Serve.stats s.srv and m0 = snapshot_metrics s in
  let reads = ref [] and update_ms = ref [] and req_ms = ref [] in
  let t_start = now () in
  let more i =
    match settings.limit with Some n -> i < n | None -> now () -. t_start < settings.seconds
  in
  let i = ref 0 and heap = ref None in
  while more !i do
    if !i = heap_requests then heap := Some (heap_mb ());
    if !i mod window = 0 then calibrate 2;
    (if (!i + 1) mod update_every = 0 then begin
       let b = Updates.next ups in
       let t0 = now () in
       match
         let call () = Serve.update ~inserts:b.inserts ?deletes:b.deletes s.srv "E" in
         if traced then
           span_in sp ~req:!i ~parent:(-1) "request" (fun root ->
               span_in sp ~req:!i ~parent:root "serve.update" (fun _ -> metered gc call))
         else call ()
       with
       | () ->
         let ms = (now () -. t0) *. 1e3 in
         update_ms := ms :: !update_ms;
         req_ms := ms :: !req_ms;
         incr version;
         batches := b :: !batches
       | exception e ->
         incr failed;
         Printf.eprintf "update failed: %s\n%!" (Printexc.to_string e)
     end
     else
       let q = Rng.zipf rng ~n:(Array.length queries) ~s:zipf_s in
       Option.iter
         (fun r ->
           reads := r :: !reads;
           req_ms := r.ms :: !req_ms)
         (do_read ~req:!i q));
    incr i
  done;
  let stats1 = Serve.stats s.srv and m1 = snapshot_metrics s in
  let fix = Option.map Telemetry.snapshot reg in
  Option.iter (fun _ -> Telemetry.uninstall ()) reg;
  {
    warmup;
    reads = List.rev !reads;
    update_ms = List.rev !update_ms;
    req_ms = List.rev !req_ms;
    batches = List.rev !batches;
    failed = !failed;
    sp;
    stats0;
    stats1;
    m0;
    m1;
    gc = !gc;
    fix;
    heap = (match !heap with Some h -> h | None -> heap_mb ());
  }

(* Replay the update stream in version order and compare every read with
   the oracle on the graph it was answered at. *)
let mismatches oracle graph r =
  let by_version = Array.of_list r.batches in
  let g = ref graph and at = ref 0 in
  List.fold_left
    (fun bad x ->
      while !at < x.version do
        g := Updates.apply !g by_version.(!at);
        incr at
      done;
      bad + Oracle.mismatches oracle ~version:x.version !g [ (queries.(x.q), x.d) ])
    0
    (List.stable_sort (fun a b -> compare a.version b.version) (r.warmup @ r.reads))

let read_ms r = List.map (fun x -> x.ms) r.reads

(* Throughput per window of [window] consecutive requests; the benchmark
   reports the median window, so transient slowdowns of the host stay out. *)
let window_qps r =
  let rec go acc n ms = function
    | [] -> acc
    | x :: rest ->
      let n = n + 1 and ms = ms +. x in
      if n = window then go ((float_of_int n /. (ms /. 1e3)) :: acc) 0 0. rest else go acc n ms rest
  in
  go [] 0 0. r.req_ms

let e2e_metrics r =
  [
    m "throughput_qps" "1/s" (median (window_qps r));
    m "latency_p50_ms" "ms" (median (read_ms r));
    m "latency_p90_ms" "ms" (quantile (read_ms r) 0.9);
    m "refresh_p50_ms" "ms" (median (List.filter_map (fun x -> if x.refresh then Some x.ms else None) r.reads));
  ]

let sample_counts r =
  let count p = Int (List.length (List.filter p r.reads)) in
  [
    ("reads", Int (List.length r.reads));
    ("updates", Int (List.length r.update_ms));
    ("refresh_reads", count (fun x -> x.refresh));
    ("hit_reads", count (fun x -> x.hit));
    ("repaired_reads", count (fun x -> x.repaired));
  ]

let fix_counts r =
  match r.fix with
  | None -> (0, 0, 0.)
  | Some snap ->
    List.fold_left
      (fun (all, plw, iters) row ->
        let plan = Option.value ~default:"" (List.assoc_opt "plan" row.Telemetry.Snapshot.r_labels) in
        match (row.Telemetry.Snapshot.r_name, row.r_point) with
        | "exec_fixpoints_total", Telemetry.Snapshot.Counter c ->
          let c = int_of_float c in
          (all + c, (if String.equal plan (Physical.Exec.plan_name Physical.Exec.P_gld) then plw else plw + c), iters)
        | "exec_fixpoint_iterations", Histogram h -> (all, plw, iters +. h.h_sum)
        | _ -> (all, plw, iters))
      (0, 0, 0.) snap.rows

(* Deterministic totals of the measured region, for the self-check. *)
let counters r =
  let d f = f r.stats1 - f r.stats0 in
  let dm f = f r.m1 - f r.m0 in
  let fixpoints, _, _ = fix_counts r in
  [
    ("serve.result_hits", d (fun s -> s.Serve.result_hits));
    ("serve.plan_hits", d (fun s -> s.Serve.plan_hits));
    ("serve.fix_evals", d (fun s -> s.Serve.fix_evals));
    ("serve.repaired", d (fun s -> s.Serve.repaired));
    ("serve.repair_fallbacks", d (fun s -> s.Serve.repair_fallbacks));
    ("serve.invalidated", d (fun s -> s.Serve.invalidated));
    ("serve.evictions", d (fun s -> s.Serve.evictions));
    ("physical.fixpoints", fixpoints);
    ("physical.iterations", List.fold_left (fun a x -> a + x.iterations) 0 r.reads);
    ("distsim.stages", dm (fun m -> m.Metrics.stages));
    ("distsim.shuffles", dm (fun m -> m.Metrics.shuffles));
    ("distsim.shuffled_records", dm (fun m -> m.Metrics.shuffled_records));
    ("distsim.shuffled_bytes", dm (fun m -> m.Metrics.shuffled_bytes));
    ("distsim.broadcast_records", dm (fun m -> m.Metrics.broadcast_records));
    ("distsim.dedup_dropped", dm (fun m -> m.Metrics.dedup_dropped_records));
    ("relation.rehash_grows", r.gc.grows);
  ]

let layer_metrics graph r =
  let reads = float_of_int (List.length r.reads) in
  let reqs = float_of_int (requests r) in
  let per_read x = ratio x reads and per_req x = ratio x reqs in
  let c = counters r in
  let cnt name = float_of_int (List.assoc name c) in
  let d f = float_of_int (f r.stats1 - f r.stats0) in
  let lat p = median (List.filter_map (fun x -> if p x then Some x.ms else None) r.reads) in
  let zero_nan x = if Float.is_nan x then 0. else x in
  let fixpoints, plw, iterations = fix_counts r in
  let tenv = Mura.Typing.env [ ("E", Rel.schema graph) ] in
  let plans =
    Array.map (fun text -> List.length (Rewrite.Engine.explore ~max_plans:120 tenv (Oracle.term_of text))) queries
  in
  let repaired = d (fun s -> s.Serve.repaired) and fallbacks = d (fun s -> s.Serve.repair_fallbacks) in
  let busy (m : Metrics.t) = Array.fold_left ( +. ) 0. m.per_worker_ns in
  [
    m "rpq.parse_ms" "ms" (per_read (total_ms r.sp "rpq.parse"));
    (* the rewriter runs inside Serve on plan misses only; the warm-up
       takes them all, so none is left in the measured region *)
    m "rewrite.optimize_ms" "ms" 0.;
    m "rewrite.plans" "count" (per_read (float_of_int (List.fold_left (fun a x -> a + plans.(x.q)) 0 r.reads)));
    m "physical.exec_ms" "ms" (per_read (sum (List.map (fun x -> x.exec_ms) r.reads)));
    m "physical.fixpoints" "count" (per_read (float_of_int fixpoints));
    m "physical.iterations" "count" (per_read iterations);
    m "physical.plw_share" "ratio" (ratio (float_of_int plw) (float_of_int fixpoints));
    m "physical.result_tuples" "count" (per_read (float_of_int (List.fold_left (fun a x -> a + x.d.card) 0 r.reads)));
    m "distsim.stages" "count" (per_req (cnt "distsim.stages"));
    m "distsim.shuffles" "count" (per_req (cnt "distsim.shuffles"));
    m "distsim.shuffled_records" "count" (per_req (cnt "distsim.shuffled_records"));
    m "distsim.shuffled_bytes" "bytes" (per_req (cnt "distsim.shuffled_bytes"));
    m "distsim.broadcast_records" "count" (per_req (cnt "distsim.broadcast_records"));
    m "distsim.dedup_dropped" "count" (per_req (cnt "distsim.dedup_dropped"));
    m "distsim.worker_busy_ms" "ms" (per_req ((busy r.m1 -. busy r.m0) /. 1e6));
    m "distsim.sim_ms" "ms" (per_req ((r.m1.Metrics.sim_time_ns -. r.m0.Metrics.sim_time_ns) /. 1e6));
    m "distsim.straggler_ratio" "ratio"
      (ratio
         (Metrics.Hist.total r.m1.straggler -. Metrics.Hist.total r.m0.straggler)
         (float_of_int (Metrics.Hist.count r.m1.straggler - Metrics.Hist.count r.m0.straggler)));
    m "relation.rehash_grows" "count" (per_req (cnt "relation.rehash_grows"));
    m "gc.minor_words_per_tuple" "words"
      (ratio r.gc.minor (float_of_int (List.fold_left (fun a x -> a + x.d.card) 0 r.reads)));
    m "gc.major_collections" "count" (per_req (float_of_int r.gc.majors));
    m "serve.hit_rate" "ratio" (per_read (float_of_int (List.length (List.filter (fun x -> x.hit) r.reads))));
    m "serve.plan_hit_rate" "ratio"
      (ratio (d (fun s -> s.Serve.plan_hits)) (d (fun s -> s.Serve.plan_hits + s.Serve.plan_misses)));
    m "serve.hit_ms" "ms" (zero_nan (lat (fun x -> x.hit)));
    m "serve.miss_ms" "ms" (zero_nan (lat (fun x -> (not x.hit) && not x.repaired)));
    m "serve.repair_ms" "ms" (zero_nan (lat (fun x -> x.repaired)));
    m "serve.update_ms" "ms" (zero_nan (median r.update_ms));
    m "serve.fix_evals" "count" (per_req (cnt "serve.fix_evals"));
    m "serve.repaired" "count" (per_req repaired);
    m "serve.repair_fallbacks" "count" (per_req fallbacks);
    m "serve.repair_success" "ratio" (ratio repaired (repaired +. fallbacks));
    m "serve.invalidated" "count" (per_req (cnt "serve.invalidated"));
    m "serve.evictions" "count" (per_req (cnt "serve.evictions"));
  ]

let run settings ~trace =
  let scale = Option.value settings.scale ~default:default_scale in
  let (graph, s), setup_s =
    repeat_setup settings.setups (fun () ->
        let graph = Graphgen.Yago_like.generate ~seed:settings.seed ~scale () in
        (graph, server graph))
  in
  (* traced runs split their time between an untraced and a traced phase *)
  let phase = if trace then { settings with seconds = settings.seconds /. 2. } else settings in
  let base = measure ~traced:false phase graph s in
  Serve.shutdown s.srv;
  let traced =
    if not trace then None
    else begin
      let s = server graph in
      let r = measure ~traced:true phase graph s in
      Serve.shutdown s.srv;
      Some r
    end
  in
  let t_oracle = now () in
  let all = base :: Option.to_list traced in
  let oracle = Oracle.create graph in
  let mismatches = List.fold_left (fun a r -> a + mismatches oracle graph r) 0 all in
  let oracle_s = now () -. t_oracle in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 all in
  let attempted =
    List.fold_left (fun a r -> a + List.length r.warmup + requests r) failed all
  in
  let metrics, counters =
    match traced with
    | None -> (e2e_metrics base @ [ setup_s; m "heap_mb" "MiB" base.heap ], [])
    | Some t ->
      let per_read name = ratio (total_ms t.sp name) (float_of_int (List.length t.reads)) in
      ( layer_metrics graph t
        @ trace_metrics ~untraced_ms:(read_ms base) ~traced_ms:(read_ms t)
            ~layers_ms:(per_read "rpq.parse" +. per_read "serve.query"),
        counters t )
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
        ("edges", Int (Rel.cardinal graph));
        ("queries", Int (Array.length queries));
        ("update_every", Int update_every);
        ("zipf_s", Num zipf_s);
        ("setups", Int settings.setups);
        ("oracle_s", Num oracle_s);
      ]
      @ sample_counts measured;
    spans = measured.sp;
  }
