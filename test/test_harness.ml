(* Integration tests: every system driver produces the same result sizes
   on common workloads; the harness reports failures/timeouts cleanly. *)

open Relation
module S = Harness.Systems
module Q = Harness.Queries
module R = Harness.Runner
module Exec = Physical.Exec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_yago = lazy (Graphgen.Yago_like.generate ~seed:1 ~scale:800 ())

let result_size = function
  | S.Success s -> Some s.result_size
  | S.Failed _ | S.Timeout _ -> None

let test_systems_agree_on_query text =
  let w = S.of_ucrpq (Lazy.force small_yago) text in
  let outcomes =
    List.map
      (fun (sys : S.system) -> (sys.name, R.run_one ~timeout_s:120. sys w))
      (S.all ())
  in
  let sizes = List.filter_map (fun (n, o) -> Option.map (fun s -> (n, s)) (result_size o)) outcomes in
  check_bool "at least four systems answered" true (List.length sizes >= 4);
  match sizes with
  | [] -> Alcotest.fail "no system answered"
  | (_, first) :: rest ->
    List.iter
      (fun (name, s) ->
        if s <> first then
          Alcotest.failf "%s disagrees: %d vs %d on %s" name s first text)
      rest

let test_simple_filter_query () = test_systems_agree_on_query "?x <- ?x isLocatedIn+ Japan"
let test_left_filter_query () = test_systems_agree_on_query "?x <- Japan dealsWith+ ?x"
let test_concat_query () = test_systems_agree_on_query "?x, ?y <- ?x livesIn/isLocatedIn+ ?y"

let test_mu_only_workload () =
  (* same generation on a small tree: no UCRPQ form, so GraphX must
     report an unsupported failure while the others agree *)
  let tree = Graphgen.Generators.random_tree ~seed:2 ~nodes:300 () in
  let w = Q.same_generation_workload tree in
  let dist = R.run_one (S.dist_mu_ra ()) w in
  let central = R.run_one (S.centralized_mu_ra ()) w in
  let big = R.run_one (S.bigdatalog ()) w in
  (match (result_size dist, result_size central, result_size big) with
  | Some a, Some b, Some c when a = b && b = c -> ()
  | a, b, c ->
    Alcotest.failf "disagreement: dist=%s central=%s big=%s"
      (match a with Some n -> string_of_int n | None -> "fail")
      (match b with Some n -> string_of_int n | None -> "fail")
      (match c with Some n -> string_of_int n | None -> "fail"));
  match R.run_one (S.graphx ()) w with
  | S.Failed _ -> ()
  | _ -> Alcotest.fail "graphx should not support mu-only workloads"

let test_reach_and_anbn () =
  let g = Graphgen.Generators.erdos_renyi ~seed:3 ~nodes:300 ~p:0.005 () in
  let w = Q.reach_workload g (Value.of_int 0) in
  (match (result_size (R.run_one (S.dist_mu_ra ()) w), result_size (R.run_one (S.bigdatalog ()) w)) with
  | Some a, Some b -> check_int "reach agreement" a b
  | _ -> Alcotest.fail "reach failed");
  let lg = Graphgen.Generators.labelled_chain ~labels:[ "a"; "b" ] ~segment:6 in
  let w2 = Q.anbn_workload lg ~a:"a" ~b:"b" in
  match (result_size (R.run_one (S.dist_mu_ra ()) w2), result_size (R.run_one (S.bigdatalog ()) w2)) with
  | Some a, Some b -> check_int "anbn agreement" a b
  | _ -> Alcotest.fail "anbn failed"

(* exhaustive agreement: all 25 Yago + 24 Uniprot queries, three engines *)
let agreement_over specs graph =
  let systems = [ S.dist_mu_ra (); S.centralized_mu_ra (); S.bigdatalog () ] in
  List.iter
    (fun (q : Q.spec) ->
      let w = S.of_ucrpq graph q.text in
      let sizes =
        List.filter_map
          (fun (sys : S.system) -> result_size (R.run_one ~timeout_s:60. sys w))
          systems
      in
      match sizes with
      | a :: rest when List.for_all (( = ) a) rest && List.length sizes = 3 -> ()
      | _ ->
        Alcotest.failf "%s: disagreement or failure (%s)" q.id
          (String.concat ","
             (List.map
                (fun (sys : S.system) -> R.cell_text (R.run_one ~timeout_s:60. sys w))
                systems)))
    specs

let test_all_yago_queries_agree () =
  agreement_over Q.yago (Graphgen.Yago_like.generate ~seed:9 ~scale:500 ())

let test_all_uniprot_queries_agree () =
  let g = Graphgen.Uniprot_like.generate ~seed:10 ~scale:1_200 () in
  agreement_over (Q.uniprot g) g

let test_query_sets_parse () =
  List.iter
    (fun (q : Q.spec) ->
      match Rpq.Query.parse q.text with
      | (_ : Rpq.Query.t) -> ()
      | exception e -> Alcotest.failf "%s does not parse: %s" q.id (Printexc.to_string e))
    Q.yago;
  let uniprot_graph = Graphgen.Uniprot_like.generate ~seed:5 ~scale:2_000 () in
  List.iter
    (fun (q : Q.spec) ->
      match Rpq.Query.to_term (Rpq.Query.parse q.text) with
      | (_ : Mura.Term.t) -> ()
      | exception e -> Alcotest.failf "%s does not translate: %s" q.id (Printexc.to_string e))
    (Q.uniprot uniprot_graph);
  check_int "25 yago queries" 25 (List.length Q.yago);
  check_int "24 uniprot queries" 24 (List.length (Q.uniprot uniprot_graph))

let test_every_yago_query_translates () =
  List.iter
    (fun (q : Q.spec) ->
      match Rpq.Query.to_term (Rpq.Query.parse q.text) with
      | t -> check_bool (q.id ^ " has a fixpoint") true (Mura.Term.fix_count t >= 1)
      | exception e -> Alcotest.failf "%s: %s" q.id (Printexc.to_string e))
    Q.yago

let test_classification () =
  let classes text = Q.classify (Rpq.Query.parse text) in
  let check_classes msg expected text =
    Alcotest.(check (list string)) msg
      (List.map Q.class_name expected)
      (List.map Q.class_name (classes text))
  in
  (* the paper's defining examples for each class *)
  check_classes "C1" [ Q.C1 ] "?x, ?y <- ?x a+ ?y";
  check_classes "C2" [ Q.C2 ] "?x <- ?x a+ C";
  check_classes "C3" [ Q.C3 ] "?x <- C a+ ?x";
  check_classes "C4" [ Q.C4 ] "?x, ?y <- ?x a+/b ?y";
  check_classes "C5" [ Q.C5 ] "?x, ?y <- ?x b/a+ ?y";
  check_classes "C6" [ Q.C6 ] "?x, ?y <- ?x a+/b+ ?y";
  (* the paper's combined example: ?x <- C a/b+ ?x is C3 and C5 *)
  check_classes "C3+C5 combination" [ Q.C3; Q.C5 ] "?x <- C a/b+ ?x";
  (* alternation containing a closure is recursive *)
  check_classes "closure inside alternation" [ Q.C1 ] "?x, ?y <- ?x (a b+)+ ?y";
  (* no recursion: no classes *)
  check_classes "no recursion" [] "?x, ?y <- ?x a/b ?y"

let test_union_workload_agreement () =
  let g = Lazy.force small_yago in
  let text = "?x <- ?x isLocatedIn+ Japan union ?x <- ?x isLocatedIn+ Germany" in
  let w = S.of_ucrpq g text in
  let outcomes =
    List.map
      (fun (sys : S.system) -> (sys.name, R.run_one ~timeout_s:60. sys w))
      [ S.dist_mu_ra (); S.centralized_mu_ra (); S.bigdatalog (); S.graphx () ]
  in
  let sizes = List.filter_map (fun (n, o) -> Option.map (fun s -> (n, s)) (result_size o)) outcomes in
  check_int "all four answered" 4 (List.length sizes);
  match sizes with
  | (_, first) :: rest ->
    List.iter (fun (n, s) -> if s <> first then Alcotest.failf "%s disagrees on union" n) rest
  | [] -> Alcotest.fail "nobody answered"

let test_concat_closure_builder () =
  Alcotest.(check string) "n=3" "?x, ?y <- ?x a1+/a2+/a3+ ?y"
    (Q.concat_closure ~labels:[ "a1"; "a2"; "a3" ]);
  let g = Graphgen.Generators.labelled_chain ~labels:[ "a1"; "a2" ] ~segment:4 in
  let w = S.of_ucrpq g (Q.concat_closure ~labels:[ "a1"; "a2" ]) in
  match (result_size (R.run_one (S.dist_mu_ra ()) w), result_size (R.run_one (S.bigdatalog ()) w)) with
  | Some a, Some b ->
    check_int "concat closures agree" a b;
    check_bool "nonempty" true (a > 0)
  | _ -> Alcotest.fail "concat closure failed"

let test_timeout_reporting () =
  let w = S.of_ucrpq (Lazy.force small_yago) "?a, ?b <- ?a isLocatedIn+ ?b" in
  match R.run_one ~timeout_s:0.000001 (S.dist_mu_ra ()) w with
  | S.Timeout _ -> ()
  | o -> Alcotest.failf "expected timeout, got %s" (R.cell_text o)

let test_failure_reporting () =
  let w = S.of_ucrpq (Lazy.force small_yago) "?a, ?b <- ?a isLocatedIn+ ?b" in
  match R.run_one (S.myria ~max_facts:3 ()) w with
  | S.Failed _ -> ()
  | o -> Alcotest.failf "expected failure, got %s" (R.cell_text o)

let test_runner_matrix_and_table () =
  let g = Lazy.force small_yago in
  let systems = [ S.dist_mu_ra (); S.centralized_mu_ra () ] in
  let workloads =
    [ ("Q19", S.of_ucrpq g "?a <- ?a isLocatedIn+/isLocatedIn Japan") ]
  in
  let rows = R.run_matrix ~systems workloads in
  check_int "one row" 1 (List.length rows);
  check_int "two cells" 2 (List.length (List.hd rows).cells);
  (* table printing must not raise *)
  R.print_table ~title:"test" ~columns:(List.map (fun (s : S.system) -> s.name) systems) rows

(* --- EXPLAIN / EXPLAIN ANALYZE --------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let analyze_graph = lazy (Graphgen.Generators.erdos_renyi ~seed:7 ~nodes:400 ~p:0.004 ())
let analyze_query = "?x, ?y <- ?x a+ ?y"

let analysis =
  lazy
    (R.analyze ~workers:4
       ~graph:(Graphgen.Generators.add_labels ~labels:[ "a" ] (Lazy.force analyze_graph))
       ~query:analyze_query ())

let test_explain_text () =
  let g = Graphgen.Generators.add_labels ~labels:[ "a" ] (Lazy.force analyze_graph) in
  let s = R.explain ~graph:g ~query:analyze_query () in
  check_bool "logical plan" true (contains s "logical plan");
  check_bool "physical plan" true (contains s "physical plan")

(* a forced plan shows in the explained physical plan, and P_plw^pg
   adds the local fixpoint its workers run *)
let test_explain_forced_plan () =
  let g = Graphgen.Generators.add_labels ~labels:[ "a" ] (Lazy.force analyze_graph) in
  let explain force_plan = R.explain ?force_plan ~graph:g ~query:analyze_query () in
  check_bool "default chooses P_plw^s" true (contains (explain None) "plan=P_plw^s");
  let gld = explain (Some Physical.Exec.P_gld) in
  check_bool "forced P_gld" true (contains gld "plan=P_gld");
  check_bool "no local fixpoint under P_gld" false (contains gld "local fixpoint");
  let pg = explain (Some Physical.Exec.P_plw_pg) in
  check_bool "forced P_plw^pg" true (contains pg "plan=P_plw^pg");
  check_bool "P_plw^pg local fixpoint" true
    (contains pg "local fixpoint on each worker's database: ")

let test_analyze_annotated_plan () =
  let a = Lazy.force analysis in
  check_bool "actual rows annotated" true (contains a.R.a_annotated_plan "rows=");
  check_bool "estimates annotated" true (contains a.R.a_annotated_plan "est=");
  check_bool "q-errors annotated" true (contains a.R.a_annotated_plan "err=");
  check_bool "ranked mis-estimates" true (a.R.a_mismatches <> []);
  check_bool "query q-error >= 1" true (a.R.a_q_error >= 1.);
  (* the analyzed run's root actual must match the plain outcome *)
  match a.R.a_outcome with
  | S.Success s -> check_bool "tree root = result size" true (a.R.a_tree.rows = Some s.result_size)
  | o -> Alcotest.failf "analyze outcome: %s" (R.cell_text o)

(* EXPLAIN ANALYZE over Q1-Q49 on small graphs, under the chosen plans
   and with every fixpoint forced onto P_gld and onto P_plw^pg (a local
   fixpoint on each worker's database): each traced run returns
   Mura.Eval's result, and its root reports it *)
let test_analyze_corpus () =
  let check graph specs =
    let expected =
      List.map
        (fun (q : Q.spec) ->
          let term = Rpq.Query.union_to_term (Rpq.Query.parse_union q.text) in
          Rel.cardinal (Mura.Eval.eval (Mura.Eval.env [ ("E", graph) ]) term))
        specs
    in
    check_bool "most queries return tuples" true
      (2 * List.length (List.filter (fun n -> n > 0) expected) > List.length specs);
    List.iter
      (fun force_plan ->
        List.iter2
          (fun (q : Q.spec) expected ->
            let a = R.analyze ~workers:4 ~timeout_s:60. ?force_plan ~graph ~query:q.text () in
            let id =
              q.id ^ "/" ^ match force_plan with None -> "chosen" | Some p -> Exec.plan_name p
            in
            match a.R.a_outcome with
            | S.Success s ->
              check_int (id ^ ": result = Mura.Eval") expected s.result_size;
              check_bool (id ^ ": root rows") true (a.R.a_tree.rows = Some expected)
            | o -> Alcotest.failf "%s: analyze outcome %s" id (R.cell_text o))
          specs expected)
      [ None; Some Exec.P_gld; Some Exec.P_plw_pg ]
  in
  check (Graphgen.Yago_like.generate ~seed:1 ~scale:300 ()) Q.yago;
  let u = Graphgen.Uniprot_like.generate ~seed:2 ~scale:300 () in
  check u (Q.uniprot u)

let test_analyze_skew_table () =
  let a = Lazy.force analysis in
  let t = R.skew_table a.R.a_metrics in
  check_bool "straggler ratio" true (contains t "straggler");
  check_bool "per-worker rows" true (contains t "worker")

let test_report_json_keys () =
  let a = Lazy.force analysis in
  let json = R.report_json a in
  List.iter
    (fun key -> check_bool ("report has " ^ key) true (contains json ("\"" ^ key ^ "\"")))
    [
      "query"; "system"; "workers"; "logical_plan"; "physical_plan"; "outcome"; "metrics";
      "straggler_ratio"; "operators"; "q_error"; "mis_estimates"; "shuffled_records";
      "worker_ns"; "per_worker_ns";
    ];
  (* print_analysis must not raise *)
  R.print_analysis a

let () =
  Alcotest.run "harness"
    [
      ( "cross-system agreement",
        [
          Alcotest.test_case "right filter" `Slow test_simple_filter_query;
          Alcotest.test_case "left filter" `Slow test_left_filter_query;
          Alcotest.test_case "concatenation" `Slow test_concat_query;
          Alcotest.test_case "mu-only workloads" `Slow test_mu_only_workload;
          Alcotest.test_case "reach + anbn" `Slow test_reach_and_anbn;
          Alcotest.test_case "all 25 yago queries" `Slow test_all_yago_queries_agree;
          Alcotest.test_case "all 24 uniprot queries" `Slow test_all_uniprot_queries_agree;
        ] );
      ( "query sets",
        [
          Alcotest.test_case "parse" `Quick test_query_sets_parse;
          Alcotest.test_case "yago translation" `Quick test_every_yago_query_translates;
          Alcotest.test_case "classification" `Quick test_classification;
          Alcotest.test_case "union workload" `Quick test_union_workload_agreement;
          Alcotest.test_case "concat closures" `Quick test_concat_closure_builder;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "timeout" `Quick test_timeout_reporting;
          Alcotest.test_case "failure" `Quick test_failure_reporting;
          Alcotest.test_case "matrix/table" `Quick test_runner_matrix_and_table;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "explain" `Quick test_explain_text;
          Alcotest.test_case "explain forced plan" `Quick test_explain_forced_plan;
          Alcotest.test_case "annotated plan" `Quick test_analyze_annotated_plan;
          Alcotest.test_case "Q1-Q49 agree with Mura.Eval" `Quick test_analyze_corpus;
          Alcotest.test_case "skew table" `Quick test_analyze_skew_table;
          Alcotest.test_case "report json" `Quick test_report_json_keys;
        ] );
    ]
