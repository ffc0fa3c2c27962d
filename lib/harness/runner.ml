type row = { label : string; cells : (string * Systems.outcome) list }

let run_one ?(timeout_s = 60.) (s : Systems.system) w = s.run ~timeout_s w

let run_matrix ?(timeout_s = 60.) ~systems workloads =
  List.map
    (fun (label, w) ->
      {
        label;
        cells = List.map (fun (s : Systems.system) -> (s.name, run_one ~timeout_s s w)) systems;
      })
    workloads

let cell_text = function
  | Systems.Success s -> Printf.sprintf "%.3f" s.wall_s
  | Systems.Failed _ -> "fail"
  | Systems.Timeout _ -> "t/o"

let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let print_table ?(extra = []) ~title ~columns rows =
  Printf.printf "\n== %s ==\n" title;
  let extra_names = List.map fst extra in
  let headers = ("query" :: columns) @ extra_names in
  let cell_of row col =
    match List.assoc_opt col row.cells with Some o -> cell_text o | None -> "-"
  in
  let extra_of row (name, f) =
    ignore name;
    match row.cells with (_, o) :: _ -> f o | [] -> "-"
  in
  let body =
    List.map
      (fun row ->
        (row.label :: List.map (cell_of row) columns)
        @ List.map (extra_of row) extra)
      rows
  in
  let all_rows = headers :: body in
  let widths =
    List.mapi
      (fun i _ -> List.fold_left (fun acc r -> max acc (String.length (List.nth r i))) 0 all_rows)
      headers
  in
  let print_row r =
    print_string
      (String.concat "  " (List.map2 (fun w s -> pad w s) widths r));
    print_newline ()
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row body

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_<name>.json) and trace rollups      *)
(* ------------------------------------------------------------------ *)

(* Row labels follow the "Q1   [C1,C2]" convention of the bench harness;
   recover the query id and class list when present. *)
let split_label label =
  match (String.index_opt label '[', String.index_opt label ']') with
  | Some i, Some j when j > i ->
    let q = String.trim (String.sub label 0 i) in
    let classes =
      String.sub label (i + 1) (j - i - 1)
      |> String.split_on_char ','
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    (q, classes)
  | _ -> (String.trim label, [])

let outcome_json (o : Systems.outcome) =
  let open Trace.Json in
  match o with
  | Systems.Success s ->
    obj
      [
        ("status", str "success");
        ("wall_s", num s.wall_s);
        ("sim_s", num s.sim_s);
        ("result_size", string_of_int s.result_size);
        ("shuffles", string_of_int s.shuffles);
        ("shuffled_records", string_of_int s.shuffled_records);
        ("broadcast_records", string_of_int s.broadcast_records);
        ("supersteps", string_of_int s.supersteps);
      ]
  | Systems.Failed msg -> obj [ ("status", str "failed"); ("error", str msg) ]
  | Systems.Timeout t -> obj [ ("status", str "timeout"); ("after_s", num t) ]

let rows_json rows =
  let open Trace.Json in
  let row_json row =
    let query, classes = split_label row.label in
    obj
      [
        ("label", str row.label);
        ("query", str query);
        ("classes", "[" ^ String.concat "," (List.map str classes) ^ "]");
        ( "systems",
          obj (List.map (fun (name, o) -> (name, outcome_json o)) row.cells) );
      ]
  in
  "[" ^ String.concat ",\n" (List.map row_json rows) ^ "]\n"

let write_json ?(dir = ".") ~name rows =
  let file = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (rows_json rows))

(* Per-operator / per-iteration rollup of the ambient trace, for display
   after a traced run (murarun --trace, BENCH_TRACE=1). *)
let print_trace_rollup () =
  let tr = Trace.get () in
  if Trace.enabled tr then print_string (Trace.Rollup.to_string tr)

(* ------------------------------------------------------------------ *)
(* EXPLAIN and EXPLAIN ANALYZE                                         *)
(* ------------------------------------------------------------------ *)

module Exec = Physical.Exec
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics

let term_of_query query = Rpq.Query.union_to_term (Rpq.Query.parse_union query)

let explain ?(workers = 4) ?force_plan ~graph ~query () =
  let tables = [ ("E", graph) ] in
  let best = Systems.optimize tables (term_of_query query) in
  let cluster = Cluster.make ~workers () in
  let ctx = Exec.session { (Exec.default_config cluster) with force_plan } tables in
  Printf.sprintf "logical plan (after rewriting):\n  %s\n\nphysical plan:\n%s"
    (Mura.Term.to_string best) (Exec.explain ctx best)

type analysis = {
  a_query : string;
  a_system : string;
  a_workers : int;
  a_logical_plan : string;
  a_physical_plan : string;
  a_annotated_plan : string;
  a_tree : Exec.Analyze.node;
  a_mismatches : Cost.Feedback.mismatch list;
  a_q_error : float;
  a_outcome : Systems.outcome;
  a_metrics : Metrics.t;
  a_ordering : string option;
}

let rec flatten_nodes acc (n : Exec.Analyze.node) =
  List.fold_left flatten_nodes (n :: acc) n.Exec.Analyze.children

let annot_of mismatches path =
  match
    List.find_opt (fun (m : Cost.Feedback.mismatch) -> String.equal m.m_path path) mismatches
  with
  | Some m -> Printf.sprintf "est=%.0f err=%.2f" m.m_est m.m_q
  | None -> ""

(* Execute the two cheapest (by estimate) logical plans and report when
   the actual sim-time ordering contradicts the estimated one — the
   cost model telling on itself. *)
let check_ordering ~timeout_s ~workers tables stats term =
  let tenv = Mura.Typing.env (List.map (fun (n, r) -> (n, Relation.Rel.schema r)) tables) in
  let plans = Rewrite.Engine.explore ~max_plans:120 tenv term in
  let ranked =
    List.map (fun t -> (t, Cost.Estimate.cost stats t)) plans
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  match ranked with
  | (p1, c1) :: (p2, c2) :: _ ->
    let sim t =
      let cluster = Cluster.make ~workers () in
      let ctx = Exec.session (Exec.default_config cluster) tables in
      match
        Systems.guarded ~timeout_s
          (Some (Cluster.metrics cluster))
          (fun () -> Relation.Rel.cardinal (Exec.run ctx t))
      with
      | Systems.Success s -> Some s.Systems.sim_s
      | Systems.Failed _ | Systems.Timeout _ -> None
    in
    (match (sim p1, sim p2) with
    | Some s1, Some s2 ->
      Cost.Feedback.check_plan_ordering
        ~est_costs:[ ("chosen plan", c1); ("runner-up plan", c2) ]
        ~actual_costs:[ ("chosen plan", s1); ("runner-up plan", s2) ]
    | _ -> None)
  | _ -> None

let analyze ?(workers = 4) ?(timeout_s = 120.) ?force_plan ?(compare_plans = false) ~graph
    ~query () =
  let tables = [ ("E", graph) ] in
  let stats = Cost.Stats.of_tables tables in
  let term = term_of_query query in
  let best = Systems.optimize tables term in
  (* the actuals are a fold of the run's trace: reuse the tracer --trace
     installed, or install one for the run *)
  let tr, installed =
    match Trace.get () with
    | t when Trace.enabled t -> (t, false)
    | _ ->
      let t = Trace.make () in
      Trace.install t;
      (t, true)
  in
  let last_id = List.fold_left (fun m (e : Trace.event) -> max m e.id) (-1) (Trace.events tr) in
  let cluster = Cluster.make ~workers () in
  let ctx = Exec.session { (Exec.default_config cluster) with force_plan } tables in
  let outcome =
    Fun.protect
      ~finally:(fun () -> if installed then Trace.uninstall ())
      (fun () ->
        Systems.guarded ~timeout_s
          (Some (Cluster.metrics cluster))
          (fun () -> Relation.Rel.cardinal (Exec.run ctx best)))
  in
  let events = List.filter (fun (e : Trace.event) -> e.id > last_id) (Trace.events tr) in
  let tree = Exec.Analyze.tree ctx events best in
  let actuals =
    List.filter_map
      (fun (n : Exec.Analyze.node) -> Option.map (fun rows -> (n.path, rows)) n.rows)
      (flatten_nodes [] tree)
  in
  let mismatches = Cost.Feedback.compare_actuals stats best ~actuals in
  let ordering =
    if compare_plans then check_ordering ~timeout_s ~workers tables stats term else None
  in
  {
    a_query = query;
    a_system =
      (match force_plan with None -> "dist" | Some p -> "dist/" ^ Exec.plan_name p);
    a_workers = workers;
    a_logical_plan = Mura.Term.to_string best;
    a_physical_plan = Exec.explain ctx best;
    a_annotated_plan = Exec.Analyze.render ~annot:(annot_of mismatches) tree;
    a_tree = tree;
    a_mismatches = mismatches;
    a_q_error = Cost.Feedback.query_q_error mismatches;
    a_outcome = outcome;
    a_metrics = Cluster.metrics cluster;
    a_ordering = ordering;
  }

let skew_table (m : Metrics.t) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "straggler ratio (worst stage, max/median worker time): %.2f\n"
    (Metrics.straggler_ratio m);
  let hist name scale unit h =
    Printf.bprintf buf "%-26s n=%-5d p50=%.2f%s p90=%.2f%s p99=%.2f%s max=%.2f%s\n" name
      (Metrics.Hist.count h)
      (Metrics.Hist.quantile h 0.50 /. scale)
      unit
      (Metrics.Hist.quantile h 0.90 /. scale)
      unit
      (Metrics.Hist.quantile h 0.99 /. scale)
      unit
      (Metrics.Hist.max_value h /. scale)
      unit
  in
  hist "worker compute time" 1e6 "ms" m.Metrics.worker_ns;
  hist "partition size" 1. " rec" m.Metrics.partition_records;
  hist "stage straggler ratio" 1. "x" m.Metrics.straggler;
  if m.Metrics.dedup_dropped_records > 0 then
    Printf.bprintf buf "iteration-shuffle dedup: %d re-derived tuples dropped map-side\n"
      m.Metrics.dedup_dropped_records;
  let n = max (Array.length m.Metrics.per_worker_ns) (Array.length m.Metrics.per_worker_records) in
  if n > 0 then begin
    Printf.bprintf buf "worker  compute_ms  out_records\n";
    for w = 0 to n - 1 do
      let at a = if w < Array.length a then a.(w) else 0. in
      Printf.bprintf buf "%6d  %10.2f  %11.0f\n" w
        (at m.Metrics.per_worker_ns /. 1e6)
        (at m.Metrics.per_worker_records)
    done
  end;
  Buffer.contents buf

let print_analysis a =
  Printf.printf "\n== EXPLAIN ANALYZE (%s, %d workers) ==\n" a.a_system a.a_workers;
  (match a.a_outcome with
  | Systems.Success s ->
    Printf.printf "result: %d tuples in %.3fs wall / %.3fs sim\n" s.Systems.result_size
      s.Systems.wall_s s.Systems.sim_s
  | o -> Printf.printf "outcome: %s\n" (cell_text o));
  Printf.printf "\nannotated plan (rows=actual, est=estimated, err=q-error):\n%s"
    a.a_annotated_plan;
  Printf.printf "\n%s" (Cost.Feedback.summary a.a_mismatches);
  Printf.printf "\n== worker skew ==\n%s" (skew_table a.a_metrics);
  match a.a_ordering with
  | Some msg -> Printf.printf "\nplan-ordering disagreement: %s\n" msg
  | None -> ()

(* --- JSON run report ------------------------------------------------ *)

let hist_json h =
  let open Trace.Json in
  obj
    [
      ("count", string_of_int (Metrics.Hist.count h));
      ("mean", num (Metrics.Hist.mean h));
      ("min", num (Metrics.Hist.min_value h));
      ("max", num (Metrics.Hist.max_value h));
      ("p50", num (Metrics.Hist.quantile h 0.50));
      ("p90", num (Metrics.Hist.quantile h 0.90));
      ("p99", num (Metrics.Hist.quantile h 0.99));
      ( "buckets",
        arr
          (List.map
             (fun (hi, c) -> obj [ ("le", num hi); ("count", string_of_int c) ])
             (Metrics.Hist.buckets h)) );
    ]

let metrics_json (m : Metrics.t) =
  let open Trace.Json in
  obj
    [
      ("shuffles", string_of_int m.Metrics.shuffles);
      ("shuffled_records", string_of_int m.Metrics.shuffled_records);
      ("shuffled_bytes", string_of_int m.Metrics.shuffled_bytes);
      ("broadcasts", string_of_int m.Metrics.broadcasts);
      ("broadcast_records", string_of_int m.Metrics.broadcast_records);
      ("supersteps", string_of_int m.Metrics.supersteps);
      ("stages", string_of_int m.Metrics.stages);
      ("dedup_dropped_records", string_of_int m.Metrics.dedup_dropped_records);
      ("sim_time_ns", num m.Metrics.sim_time_ns);
      ("straggler_ratio", num (Metrics.straggler_ratio m));
      ("worker_ns", hist_json m.Metrics.worker_ns);
      ("partition_records", hist_json m.Metrics.partition_records);
      ("straggler", hist_json m.Metrics.straggler);
      ("per_worker_ns", arr (List.map num (Array.to_list m.Metrics.per_worker_ns)));
      ("per_worker_records", arr (List.map num (Array.to_list m.Metrics.per_worker_records)));
    ]

let rec node_json (n : Exec.Analyze.node) =
  let open Trace.Json in
  obj
    ([ ("path", str n.path); ("label", str n.label) ]
    @ (match n.rows with Some r -> [ ("rows", string_of_int r) ] | None -> [])
    @ (match n.candidates with Some c -> [ ("candidates", string_of_int c) ] | None -> [])
    @ [ ("ns", num n.ns); ("calls", string_of_int n.calls) ]
    @ (match n.plan with Some p -> [ ("plan", str p) ] | None -> [])
    @ (if n.iterations > 0 then
         [
           ("iterations", string_of_int n.iterations);
           ("deltas", arr (List.map string_of_int n.deltas));
         ]
       else [])
    @ [ ("children", arr (List.map node_json n.children)) ])

let report_json a =
  let open Trace.Json in
  let mismatch_json (m : Cost.Feedback.mismatch) =
    obj
      [
        ("path", str m.m_path);
        ("label", str m.m_label);
        ("est", num m.m_est);
        ("actual", num m.m_actual);
        ("q_error", num m.m_q);
      ]
  in
  obj
    [
      ("query", str a.a_query);
      ("system", str a.a_system);
      ("workers", string_of_int a.a_workers);
      ("logical_plan", str a.a_logical_plan);
      ("physical_plan", str a.a_physical_plan);
      ("outcome", outcome_json a.a_outcome);
      ("metrics", metrics_json a.a_metrics);
      ("straggler_ratio", num (Metrics.straggler_ratio a.a_metrics));
      ("operators", node_json a.a_tree);
      ("q_error", num a.a_q_error);
      ("mis_estimates", arr (List.map mismatch_json a.a_mismatches));
      ( "ordering_disagreement",
        match a.a_ordering with Some msg -> str msg | None -> "null" );
    ]
  ^ "\n"

let write_report ~file a =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (report_json a))

let print_series ~title ~x_label blocks =
  Printf.printf "\n== %s ==\n" title;
  List.iter
    (fun (x, rows) ->
      Printf.printf "-- %s = %s --\n" x_label x;
      List.iter
        (fun row ->
          Printf.printf "  %-28s %s\n" row.label
            (String.concat "  "
               (List.map (fun (name, o) -> Printf.sprintf "%s=%s" name (cell_text o)) row.cells)))
        rows)
    blocks
