(* murashell — an interactive shell for recursive graph queries.

   The shell is a single-tenant client of the serving layer: one cluster
   is created at startup (not per command), one [Serve.t] wraps it, and
   every query goes through the plan/result caches — resubmitting a
   query hits the cache and returns without touching the cluster.

   Commands:
     load FILE            load a (2- or 3-column) edge-list file as E
     gen SPEC             generate a graph (yago:N, uniprot:N, er:N:P, tree:N)
     insert EDGES         apply an edge-insert batch
     delete EDGES         apply an edge-delete batch
     workers N            set the simulated cluster size (default 4)
     explain QUERY        show optimized logical + physical plans
     stats                cache/admission counters with a since-last-stats
                          delta column (windowed telemetry scrape)
     QUERY                evaluate (e.g. ?x <- ?x a+ Japan)
     help | quit *)

module Rel = Relation.Rel

type state = {
  mutable serve : Serve.t;
  mutable session : Serve.Session.t;
  mutable workers : int;
  window : Telemetry.Window.handle;
      (* remembers the cumulative counters the previous [stats] saw *)
}

let boot workers =
  let cluster = Distsim.Cluster.make ~workers () in
  Serve.create ~cluster ()

let st =
  (* the shell runs with the registry installed so [stats] can scrape
     since-last-stats deltas; it survives server rebuilds (workers N) *)
  Telemetry.install (Telemetry.make ());
  let serve = boot 4 in
  {
    serve;
    session = Serve.open_session ~name:"shell" serve;
    workers = 4;
    window = Telemetry.Window.create ();
  }

let help () =
  print_string
    "commands:\n\
    \  load FILE      load an edge-list file as the relation E\n\
    \  gen SPEC       yago:N | uniprot:N | er:N:P | tree:N\n\
    \  insert EDGES   add edges, e.g.  insert 3 a 7; 7 b 9\n\
    \  delete EDGES   remove edges (same syntax); cached results that\n\
    \                 read a changed label are recomputed on next use\n\
    \  workers N      set cluster size\n\
    \  explain QUERY  show the optimized plans without executing\n\
    \  stats          cache/admission counters + since-last-stats deltas\n\
    \  QUERY          e.g.  ?x, ?y <- ?x knows+/likes ?y\n\
    \  help, quit\n"

let require_graph () =
  match Serve.relation st.serve "E" with
  | Some g -> g
  | None -> failwith "no graph loaded (use 'load FILE' or 'gen SPEC')"

let parse_query text = Rpq.Query.union_to_term (Rpq.Query.parse_union text)

let run_query text =
  ignore (require_graph ());
  let t0 = Unix.gettimeofday () in
  let r = Serve.query_ucrpq st.serve st.session text in
  let dt = Unix.gettimeofday () -. t0 in
  let how =
    if r.Serve.result_hit then if r.Serve.shared then "joined in-flight query" else "result cache hit"
    else
      Printf.sprintf "%d iterations%s%s"
        r.Serve.iterations
        (if r.Serve.plan_hit then ", plan cached" else "")
        (if r.Serve.fix_hits > 0 then Printf.sprintf ", %d fixpoints reused" r.Serve.fix_hits
         else "")
  in
  Printf.printf "%d tuples in %.3fs  [%s]\n" (Rel.cardinal r.Serve.rel) dt how;
  let shown = ref 0 in
  (try
     Rel.iter
       (fun tu ->
         if !shown >= 10 then raise Exit;
         incr shown;
         Printf.printf "  %s\n" (Relation.Tuple.to_string tu))
       r.Serve.rel
   with Exit -> print_endline "  ...")

(* Parse an edge batch: ';'-separated edges, fields split on spaces or
   commas. Field count must match E's arity (2, or 3 with labels).
   Nonnegative integers are node ids; anything else is interned as a
   symbolic constant, matching the loader's convention. *)
let parse_edges spec =
  let g = require_graph () in
  let schema = Rel.schema g in
  let arity = Relation.Schema.arity schema in
  let batch = Rel.create schema in
  List.iter
    (fun edge ->
      let fields =
        String.split_on_char ' ' (String.trim edge)
        |> List.concat_map (String.split_on_char ',')
        |> List.filter (fun s -> s <> "")
      in
      if fields <> [] then begin
        if List.length fields <> arity then
          failwith
            (Printf.sprintf "edge '%s' has %d fields but E has arity %d"
               (String.trim edge) (List.length fields) arity);
        let value f =
          match int_of_string_opt f with
          | Some n when n >= 0 -> n
          | _ -> Relation.Value.of_string f
        in
        ignore (Rel.add batch (Array.of_list (List.map value fields)))
      end)
    (String.split_on_char ';' spec);
  if Rel.is_empty batch then failwith "empty edge batch";
  batch

(* Updates go through [Serve.update]: only the cached results and
   fixpoints that read a label (or other σ-key) the batch changes are
   invalidated; the rest keep hitting. The next query that needs an
   invalidated result recomputes it. *)
let insert_edges spec =
  let batch = parse_edges spec in
  Serve.update ~inserts:batch st.serve "E";
  Printf.printf "+%d edges (graph version %d)\n" (Rel.cardinal batch) (Serve.graph_version st.serve)

let delete_edges spec =
  let batch = parse_edges spec in
  Serve.update ~deletes:batch st.serve "E";
  Printf.printf "-%d edges (graph version %d)\n" (Rel.cardinal batch) (Serve.graph_version st.serve)

let explain_query text =
  ignore (require_graph ());
  let term = parse_query text in
  Printf.printf "physical plan:\n%s" (Serve.explain st.serve term)

let print_stats () =
  let s = Serve.stats st.serve in
  Printf.printf "queries: %d submitted, %d completed, %d failed (graph version %d)\n"
    s.Serve.submitted s.Serve.completed s.Serve.failed s.Serve.graph_version;
  (* totals come from the server counters; the delta column is a
     windowed scrape of the ambient registry, so each [stats] reports
     what happened since the previous one (first call: since startup) *)
  let snap = Telemetry.Window.delta st.window (Telemetry.get ()) in
  let cache c e =
    match
      Telemetry.Snapshot.value ~labels:[ ("cache", c); ("event", e) ] snap "serve_cache_total"
    with
    | Some v -> int_of_float v
    | None -> 0
  in
  Printf.printf "  %-22s %8s  %s\n" "" "total" "since last stats";
  let row name total dlt = Printf.printf "  %-22s %8d  %+d\n" name total dlt in
  row "result hits" s.Serve.result_hits (cache "result" "hit");
  row "in-flight joins" s.Serve.shared_joins (cache "result" "shared");
  row "result misses" s.Serve.result_misses (cache "result" "miss");
  row "plan hits" s.Serve.plan_hits (cache "plan" "hit");
  row "plan misses" s.Serve.plan_misses (cache "plan" "miss");
  row "fixpoints recomputed" s.Serve.fix_evals (cache "fix" "eval");
  row "fixpoint cache hits" s.Serve.fix_hits (cache "fix" "hit");
  row "fixpoints shared" s.Serve.fix_shared (cache "fix" "shared");
  Printf.printf
    "  caches: %d result entries (%d bytes), %d plan entries; invalidated %d, evicted %d\n"
    s.Serve.result_entries s.Serve.result_bytes s.Serve.plan_entries s.Serve.invalidated
    s.Serve.evictions;
  if s.Serve.slow_queries > 0 || s.Serve.traces_captured > 0 then
    Printf.printf "  telemetry: %d slow queries logged, %d traces captured\n"
      s.Serve.slow_queries s.Serve.traces_captured

(* replace the server (new worker count): carry the graph over *)
let set_workers n =
  let graph = Serve.relation st.serve "E" in
  Serve.shutdown st.serve;
  st.workers <- n;
  st.serve <- boot n;
  st.session <- Serve.open_session ~name:"shell" st.serve;
  (match graph with Some g -> Serve.register st.serve "E" g | None -> ());
  Printf.printf "cluster size: %d workers (caches reset)\n" n

let set_graph g =
  (* registration bumps the graph version and invalidates dependents *)
  Serve.register st.serve "E" g

let gen spec =
  let spec, labels =
    match String.split_on_char ' ' (String.trim spec) with
    | [ s ] -> (s, [ "a"; "b"; "c" ])
    | s :: l :: _ -> (s, String.split_on_char ',' l)
    | [] -> failwith "empty generator spec"
  in
  let g =
    match String.split_on_char ':' spec with
    | [ "yago"; scale ] -> Graphgen.Yago_like.generate ~scale:(int_of_string scale) ()
    | [ "uniprot"; scale ] -> Graphgen.Uniprot_like.generate ~scale:(int_of_string scale) ()
    | [ "er"; nodes; p ] ->
      Graphgen.Generators.erdos_renyi ~nodes:(int_of_string nodes) ~p:(float_of_string p) ()
    | [ "tree"; nodes ] -> Graphgen.Generators.random_tree ~nodes:(int_of_string nodes) ()
    | _ -> failwith "unknown generator spec"
  in
  (* UCRPQs need labelled edges: decorate plain graphs *)
  let g =
    if Relation.Schema.arity (Rel.schema g) = 2 then
      Graphgen.Generators.add_labels ~labels g
    else g
  in
  set_graph g;
  Printf.printf "generated %d labelled edges (labels: %s)\n" (Rel.cardinal g)
    (String.concat "," labels)

let load file =
  let g =
    try Relation.Rel_io.load_labelled_edges file
    with Failure _ -> Relation.Rel_io.load_edges file
  in
  set_graph g;
  Printf.printf "loaded %d edges from %s\n" (Rel.cardinal g) file

let dispatch line =
  let line = String.trim line in
  if line = "" then ()
  else if line = "help" then help ()
  else if line = "stats" then print_stats ()
  else if line = "quit" || line = "exit" then raise Exit
  else
    match String.index_opt line ' ' with
    | Some i when String.sub line 0 i = "load" ->
      load (String.trim (String.sub line i (String.length line - i)))
    | Some i when String.sub line 0 i = "gen" ->
      gen (String.trim (String.sub line i (String.length line - i)))
    | Some i when String.sub line 0 i = "insert" ->
      insert_edges (String.trim (String.sub line i (String.length line - i)))
    | Some i when String.sub line 0 i = "delete" ->
      delete_edges (String.trim (String.sub line i (String.length line - i)))
    | Some i when String.sub line 0 i = "workers" ->
      set_workers (int_of_string (String.trim (String.sub line i (String.length line - i))))
    | Some i when String.sub line 0 i = "explain" ->
      explain_query (String.trim (String.sub line i (String.length line - i)))
    | _ -> run_query line

let () =
  print_endline "Dist-mu-RA shell — 'help' for commands";
  try
    while true do
      print_string "mura> ";
      (match read_line () with
      | line -> (
        try dispatch line with
        | Exit -> raise Exit
        | Failure msg
        | Invalid_argument msg
        | Rpq.Regex.Parse_error msg
        | Rpq.Query.Translation_error msg
        | Mura.Eval.Eval_error msg
        | Mura.Typing.Type_error msg
        | Relation.Schema.Schema_error msg
        | Sys_error msg ->
          Printf.printf "error: %s\n" msg
        | Physical.Exec.Resource_limit msg -> Printf.printf "resource limit: %s\n" msg)
      | exception End_of_file -> raise Exit)
    done
  with Exit ->
    Serve.shutdown st.serve;
    print_endline "bye"
