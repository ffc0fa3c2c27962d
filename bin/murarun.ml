(* murarun — run a UCRPQ on a graph with any of the supported engines.

   One-shot runs evaluate the query from scratch; --analyze adds EXPLAIN
   ANALYZE, and --serve resubmits it through the caching server from
   concurrent sessions. Edge updates are applied interactively in
   murashell.

   --gen yago:N:SEED and uniprot:N:SEED rebuild a seeded graph: perfbench
   seed s generates yago_cold's graph from seed s (scale 1000) and
   uniprot_cold's two from seeds 2s and 2s+1 (scale 1500).

   Examples:
     murarun --gen yago:2000 --query "?x <- ?x isLocatedIn+ Japan"
     murarun --gen uniprot:1500:2 --query "?x, ?y <- ?x interacts/(occurs/-occurs)+ ?y" --analyze
     murarun --graph edges.txt --query "?x, ?y <- ?x a+/b ?y" --system bigdatalog
     murarun --gen er:10000:0.001 --labels a,b --query "?x, ?y <- ?x a+/b+ ?y" --all
     murarun --gen yago:2000 --query "?x, ?y <- ?x isLocatedIn+ ?y" --serve 4 *)

open Cmdliner
module S = Harness.Systems
module R = Harness.Runner

let load_graph gen graph_file labels =
  let base =
    match (gen, graph_file) with
    | Some spec, _ -> (
      (* an optional generator seed after the scale *)
      let seed s = Option.map int_of_string (List.nth_opt s 0) in
      match String.split_on_char ':' spec with
      | "yago" :: scale :: ([] | [ _ ] as s) ->
        Graphgen.Yago_like.generate ?seed:(seed s) ~scale:(int_of_string scale) ()
      | "uniprot" :: scale :: ([] | [ _ ] as s) ->
        Graphgen.Uniprot_like.generate ?seed:(seed s) ~scale:(int_of_string scale) ()
      | [ "er"; nodes; p ] ->
        Graphgen.Generators.erdos_renyi ~nodes:(int_of_string nodes) ~p:(float_of_string p) ()
      | [ "tree"; nodes ] -> Graphgen.Generators.random_tree ~nodes:(int_of_string nodes) ()
      | _ ->
        failwith "unknown generator spec (yago:N[:SEED] | uniprot:N[:SEED] | er:N:P | tree:N)")
    | None, Some file ->
      if Filename.check_suffix file ".nt" then Relation.Rel_io.load_labelled_edges file
      else (
        (* sniff: 3 fields = labelled *)
        try Relation.Rel_io.load_labelled_edges file
        with Failure _ -> Relation.Rel_io.load_edges file)
    | None, None -> failwith "provide --graph FILE or --gen SPEC"
  in
  match labels with
  | Some l when Relation.Schema.arity (Relation.Rel.schema base) = 2 ->
    Graphgen.Generators.add_labels ~labels:(String.split_on_char ',' l) base
  | _ -> base

let system_of = function
  | "dist" -> S.dist_mu_ra ()
  | "gld" -> S.dist_mu_ra_gld ()
  | "plw-s" -> S.dist_mu_ra_plw `Setrdd
  | "plw-pg" -> S.dist_mu_ra_plw `Postgres
  | "central" -> S.centralized_mu_ra ()
  | "bigdatalog" -> S.bigdatalog ()
  | "myria" -> S.myria ()
  | "graphx" -> S.graphx ()
  | other -> failwith ("unknown system " ^ other)

let force_plan_of = function
  | "gld" -> Some Physical.Exec.P_gld
  | "plw-s" -> Some Physical.Exec.P_plw_s
  | "plw-pg" -> Some Physical.Exec.P_plw_pg
  | _ -> None

let run gen graph_file labels query system all_systems workers timeout show explain_only
    analyze report_file compare_plans trace_file serve_sessions serve_repeat max_inflight
    metrics_out sample_every slow_ms =
  try
    if trace_file <> None then Trace.install (Trace.make ());
    if metrics_out <> None then Telemetry.install (Telemetry.make ());
    (* written on every exit path that completed a run *)
    let write_metrics () =
      match metrics_out with
      | None -> ()
      | Some file ->
        let snap = Telemetry.snapshot (Telemetry.get ()) in
        Telemetry.Snapshot.write snap file;
        Printf.printf "metrics: %d series written to %s\n"
          (List.length snap.Telemetry.Snapshot.rows)
          file
    in
    let graph = load_graph gen graph_file labels in
    Printf.printf "graph: %d edges\n" (Relation.Rel.cardinal graph);
    let w = S.of_ucrpq graph query in
    if explain_only then begin
      Printf.printf "\n%s" (R.explain ~workers ?force_plan:(force_plan_of system) ~graph ~query ());
      raise Exit
    end;
    if serve_sessions > 0 then begin
      (* serve mode: concurrent sessions resubmitting the query through
         the caching service; each submission re-translates the text *)
      let mix =
        [ ("query", fun () -> Rpq.Query.union_to_term (Rpq.Query.parse_union query)) ]
      in
      let config =
        {
          Harness.Serve_mix.workers;
          sessions = serve_sessions;
          repeat = serve_repeat;
          max_inflight;
          force_plan = force_plan_of system;
          sample_every;
          slow_threshold_ms = (if slow_ms > 0. then slow_ms else infinity);
        }
      in
      let r = Harness.Serve_mix.run ~mix config ~graph in
      Harness.Serve_mix.print r;
      (match report_file with
      | Some file ->
        Harness.Serve_mix.write_report ~file r;
        Printf.printf "serve report written to %s\n" file
      | None -> ());
      write_metrics ();
      if r.Harness.Serve_mix.parity_failures > 0 then failwith "serve parity failure";
      raise Exit
    end;
    if analyze || report_file <> None then begin
      let a =
        R.analyze ~workers ~timeout_s:timeout ?force_plan:(force_plan_of system)
          ~compare_plans ~graph ~query ()
      in
      if analyze then R.print_analysis a;
      (match report_file with
      | Some file ->
        R.write_report ~file a;
        Printf.printf "\nreport written to %s\n" file
      | None -> ());
      raise Exit
    end;
    let systems =
      if all_systems then S.all ()
      else [ (match system with "dist" -> S.dist_mu_ra ~workers () | s -> system_of s) ]
    in
    List.iter
      (fun (sys : S.system) ->
        match R.run_one ~timeout_s:timeout sys w with
        | S.Success s ->
          Printf.printf "%-22s %.3fs  %d tuples  (%d shuffles, %d records moved, %d supersteps)\n"
            sys.name s.wall_s s.result_size s.shuffles s.shuffled_records s.supersteps
        | o -> Printf.printf "%-22s %s\n" sys.name (R.cell_text o))
      systems;
    (match trace_file with
    | None -> ()
    | Some file ->
      let tr = Trace.get () in
      let hint =
        if Filename.check_suffix file ".jsonl" then (
          Trace.Jsonl.write tr file;
          "flat JSONL event log")
        else (
          Trace.Chrome.write tr file;
          "open in chrome://tracing or Perfetto")
      in
      Printf.printf "\ntrace: %d events written to %s (%s)\n\n"
        (List.length (Trace.events tr))
        file hint;
      R.print_trace_rollup ();
      Trace.uninstall ());
    write_metrics ();
    if show > 0 then begin
      (* display a sample of the answers with the reference engine *)
      let term = Rpq.Query.to_term (Rpq.Query.parse query) in
      let result = Mura.Eval.eval (Mura.Eval.env [ ("E", graph) ]) term in
      Printf.printf "\nfirst answers:\n";
      let n = ref 0 in
      (try
         Relation.Rel.iter
           (fun tu ->
             if !n >= show then raise Exit;
             incr n;
             Printf.printf "  %s\n" (Relation.Tuple.to_string tu))
           result
       with Exit -> ())
    end;
    0
  with
  | Exit -> 0
  | Failure msg
  | Sys_error msg
  | Rpq.Regex.Parse_error msg
  | Rpq.Query.Translation_error msg ->
    Printf.eprintf "error: %s\n" msg;
    1

let () =
  let gen =
    Arg.(value & opt (some string) None & info [ "gen" ] ~docv:"SPEC"
           ~doc:"Generate a graph: yago:N[:SEED], uniprot:N[:SEED], er:N:P or tree:N (SEED: the generator seed, default the generator's own).")
  in
  let graph_file =
    Arg.(value & opt (some file) None & info [ "graph" ] ~docv:"FILE"
           ~doc:"Edge-list file (2 or 3 whitespace-separated fields per line).")
  in
  let labels =
    Arg.(value & opt (some string) None & info [ "labels" ] ~docv:"L1,L2,..."
           ~doc:"Decorate an unlabelled graph with random labels.")
  in
  let query =
    Arg.(required & opt (some string) None & info [ "query"; "q" ] ~docv:"UCRPQ"
           ~doc:"The query, e.g. \"?x <- ?x a+/b Japan\".")
  in
  let system =
    Arg.(value & opt string "dist" & info [ "system"; "s" ] ~docv:"NAME"
           ~doc:
             "Engine: dist, gld, plw-s, plw-pg, central, bigdatalog, myria, graphx.")
  in
  let all_systems = Arg.(value & flag & info [ "all" ] ~doc:"Run every engine and compare.") in
  let workers = Arg.(value & opt int 4 & info [ "workers"; "w" ] ~doc:"Cluster size.") in
  let timeout = Arg.(value & opt float 120. & info [ "timeout" ] ~doc:"Timeout in seconds.") in
  let show = Arg.(value & opt int 0 & info [ "show" ] ~doc:"Print up to N answers.") in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Show the optimized logical and physical plans instead of executing.")
  in
  let analyze =
    Arg.(value & flag & info [ "analyze" ]
           ~doc:"EXPLAIN ANALYZE: execute with per-operator instrumentation and print the \
                 annotated plan (actual rows, estimated rows, q-error per node), the ranked \
                 mis-estimates and the per-worker skew/straggler table. Honors --system for \
                 forcing a fixpoint plan (gld, plw-s, plw-pg).")
  in
  let report_file =
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE.json"
           ~doc:"Write the machine-readable run report (query, plans, metrics, histograms, \
                 per-operator actuals, q-errors) as JSON. Implies an analyzed execution.")
  in
  let compare_plans =
    Arg.(value & flag & info [ "compare-plans" ]
           ~doc:"With --analyze: also execute the runner-up logical plan and report when the \
                 actual cost ordering disagrees with the estimated one.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Capture an execution trace: Chrome trace_event JSON (open in chrome://tracing or \
                 Perfetto), or a flat JSONL event log if FILE ends in .jsonl. Also prints the \
                 per-operator/per-iteration rollup.")
  in
  let serve_sessions =
    Arg.(value & opt int 0 & info [ "serve" ] ~docv:"SESSIONS"
           ~doc:"Serve mode: run SESSIONS concurrent client sessions submitting the query \
                 through the multi-tenant caching service (lib/serve) and report throughput, \
                 cache hit rates and latency percentiles. --report writes the serve JSON.")
  in
  let serve_repeat =
    Arg.(value & opt int 4 & info [ "serve-repeat" ] ~docv:"N"
           ~doc:"With --serve: each session submits the query N times (default 4).")
  in
  let max_inflight =
    Arg.(value & opt int 2 & info [ "max-inflight" ] ~docv:"N"
           ~doc:"With --serve: admission slots; 2+ lets concurrent queries share in-flight \
                 fixpoints (default 2).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Install the process-wide telemetry registry (labeled counters, gauges and \
                 histograms fed by the serve/cluster/exec hot paths) and write its JSON \
                 snapshot to FILE at the end of the run.")
  in
  let sample_every =
    Arg.(value & opt int 0 & info [ "sample" ] ~docv:"N"
           ~doc:"With --serve: capture a full per-query execution trace for every N-th \
                 submitted query (deterministic 1-in-N on the query id; 0 disables).")
  in
  let slow_ms =
    Arg.(value & opt float 0. & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"With --serve: queries slower than MS land in the server's bounded slow-query \
                 log (0 disables).")
  in
  let term =
    Term.(
      const run $ gen $ graph_file $ labels $ query $ system $ all_systems $ workers $ timeout
      $ show $ explain $ analyze $ report_file $ compare_plans $ trace_file $ serve_sessions
      $ serve_repeat $ max_inflight $ metrics_out $ sample_every $ slow_ms)
  in
  let info =
    Cmd.info "murarun" ~version:"1.0"
      ~doc:"Distributed evaluation of recursive graph queries (Dist-mu-RA)"
  in
  exit (Cmd.eval' (Cmd.v info term))
