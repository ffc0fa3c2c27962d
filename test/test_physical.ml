(* Tests for the physical plan generator: all three fixpoint plans agree
   with the centralized evaluator, plan selection follows the stabilizer,
   and the communication profiles match the paper's claims (P_plw does a
   constant number of shuffles; P_gld shuffles every iteration). *)

open Relation
module Term = Mura.Term
module Exec = Physical.Exec
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics

let sch = Schema.of_list
let rel schema rows = Rel.of_list (sch schema) rows
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_rel msg expected actual =
  if not (Rel.equal expected actual) then
    Alcotest.failf "%s:@.expected %a@.got %a" msg Rel.pp_full expected Rel.pp_full actual

(* a graph with two long chains and a cycle, to force several iterations *)
let edges =
  rel [ "src"; "trg" ]
    [
      [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 5 ]; [ 5; 6 ];
      [ 10; 11 ]; [ 11; 12 ]; [ 12; 10 ];
      [ 3; 10 ]; [ 6; 1 ];
    ]

let closure_term = Mura.Patterns.closure (Term.Rel "E")
let expected_closure = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) closure_term

let session ?force_plan ?(workers = 4) () =
  let cluster = Cluster.make ~workers () in
  let config = { (Exec.default_config cluster) with force_plan } in
  Exec.session config [ ("E", edges) ]

let test_plan_agreement plan () =
  let ctx = match plan with None -> session () | Some p -> session ~force_plan:p () in
  check_rel "plan agreement" expected_closure (Exec.run ctx closure_term)

let test_auto_selection_stable () =
  let ctx = session () in
  ignore (Exec.run ctx closure_term);
  match (Exec.report ctx).fixpoints with
  | [ fr ] ->
    check_bool "P_plw selected" true (fr.plan = Exec.P_plw_s);
    Alcotest.(check (list string)) "stable column" [ "src" ] fr.stable;
    Alcotest.(check (list string)) "partitioned by it" [ "src" ] fr.partitioned_by;
    check_int "result size" (Rel.cardinal expected_closure) fr.result_size
  | l -> Alcotest.failf "expected one fixpoint report, got %d" (List.length l)

let test_auto_selection_unstable () =
  (* same-generation: neither column is stable -> P_gld *)
  let ctx = session () in
  ignore (Exec.run ctx (Mura.Patterns.same_generation ()));
  match (Exec.report ctx).fixpoints with
  | [ fr ] ->
    check_bool "P_gld selected" true (fr.plan = Exec.P_gld);
    Alcotest.(check (list string)) "no stable column" [] fr.stable
  | l -> Alcotest.failf "expected one fixpoint report, got %d" (List.length l)

let shuffles_of_run plan term =
  let ctx = session ~force_plan:plan () in
  let plan = Some plan in
  ignore plan;
  (* preload the table so the initial distribution is not counted *)
  ignore (Exec.exec_dds ctx (Term.Rel "E"));
  let m = Cluster.metrics (Exec.config_of ctx).Exec.cluster in
  let before = m.Metrics.shuffles in
  let result = Exec.run ctx term in
  check_rel "result while counting" expected_closure result;
  let iterations = match (Exec.report ctx).fixpoints with fr :: _ -> fr.iterations | [] -> 0 in
  (m.Metrics.shuffles - before, iterations)

let test_communication_profile () =
  let gld_shuffles, gld_iters = shuffles_of_run Exec.P_gld closure_term in
  let plw_shuffles, plw_iters = shuffles_of_run Exec.P_plw_s closure_term in
  check_bool "several iterations" true (gld_iters > 3 && plw_iters > 3);
  (* P_gld: at least one shuffle per iteration *)
  check_bool
    (Printf.sprintf "gld shuffles (%d) >= iterations (%d)" gld_shuffles gld_iters)
    true (gld_shuffles >= gld_iters);
  (* P_plw^s: constant shuffle count — the stable repartition plus the
     final collect, regardless of iteration count *)
  check_bool (Printf.sprintf "plw shuffles (%d) <= 3" plw_shuffles) true (plw_shuffles <= 3);
  check_bool "plw < gld" true (plw_shuffles < gld_shuffles)

let test_plw_disjoint_partitions () =
  (* with the stable repartitioning, local fixpoints are disjoint: total
     = sum of partition sizes with no duplicates (Sec. IV-A2) *)
  let ctx = session ~force_plan:Exec.P_plw_s () in
  let d = Exec.exec_dds ctx closure_term in
  let sum = Array.fold_left ( + ) 0 (Distsim.Dds.partition_sizes d) in
  check_int "no cross-worker duplicates" (Rel.cardinal expected_closure) sum

let test_filtered_closure_all_plans () =
  let term = Term.Select (Pred.Eq_const ("src", 1), closure_term) in
  let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) term in
  List.iter
    (fun plan ->
      let ctx = session ~force_plan:plan () in
      check_rel (Exec.plan_name plan) expected (Exec.run ctx term))
    [ Exec.P_gld; Exec.P_plw_s; Exec.P_plw_pg ]

let test_nonrecursive_operators () =
  let ctx = session () in
  let t =
    Term.Union
      ( Term.Select (Pred.Gt_const ("src", 3), Term.Rel "E"),
        Term.Rename ([ ("src", "trg"); ("trg", "src") ], Term.Rel "E") )
  in
  let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) t in
  check_rel "union of filter and rename" expected (Exec.run ctx t)

let test_explain () =
  let ctx = session () in
  let term = Term.Select (Pred.Eq_const ("src", 1), closure_term) in
  let text = Exec.explain ctx term in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "mentions fixpoint plan" true (contains "plan=P_plw^s");
  check_bool "mentions stable column" true (contains "stable=[src]");
  check_bool "mentions repartition" true (contains "repartition constant part by [src]");
  check_bool "mentions scan" true (contains "TableScan E");
  (* explain does not execute: no fixpoint report recorded *)
  check_int "no execution" 0 (List.length (Exec.report ctx).fixpoints)

let test_resource_limit () =
  let cluster = Cluster.make ~workers:2 () in
  let config = { (Exec.default_config cluster) with max_tuples = 10 } in
  let ctx = Exec.session config [ ("E", edges) ] in
  match Exec.run ctx closure_term with
  | (_ : Rel.t) -> Alcotest.fail "expected Resource_limit"
  | exception Exec.Resource_limit _ -> ()

let test_same_generation_plans () =
  let parent = rel [ "src"; "trg" ] [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 3 ]; [ 2; 4 ]; [ 4; 5 ]; [ 3; 6 ] ] in
  let term = Mura.Patterns.same_generation () in
  let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", parent) ]) term in
  List.iter
    (fun plan ->
      let cluster = Cluster.make ~workers:3 () in
      let ctx = Exec.session { (Exec.default_config cluster) with force_plan = plan } [ ("E", parent) ] in
      check_rel "same generation" expected (Exec.run ctx term))
    [ None; Some Exec.P_gld; Some Exec.P_plw_s; Some Exec.P_plw_pg ]

let random_graph_gen =
  let open QCheck2.Gen in
  let edge = pair (int_range 0 12) (int_range 0 12) in
  let+ edges = list_size (int_range 1 40) edge in
  Rel.of_tuples (sch [ "src"; "trg" ]) (List.map (fun (s, t) -> [| s; t |]) edges)

let qtest name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:60 ~name gen prop)

let prop_all_plans_agree =
  qtest "all plans ≡ centralized on random closures"
    QCheck2.Gen.(triple random_graph_gen random_graph_gen (int_range 1 5))
    (fun (e, s, workers) ->
      let term = Mura.Patterns.closure_from (Term.Rel "S") (Term.Rel "E") in
      let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", e); ("S", s) ]) term in
      List.for_all
        (fun plan ->
          let cluster = Cluster.make ~workers () in
          let ctx =
            Exec.session
              { (Exec.default_config cluster) with force_plan = plan }
              [ ("E", e); ("S", s) ]
          in
          Rel.equal expected (Exec.run ctx term))
        [ None; Some Exec.P_gld; Some Exec.P_plw_s; Some Exec.P_plw_pg ])

let prop_reach_all_plans =
  qtest "reach: all plans agree" random_graph_gen (fun e ->
      let term = Mura.Patterns.reach (Value.of_int 0) in
      let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", e) ]) term in
      List.for_all
        (fun plan ->
          let cluster = Cluster.make ~workers:3 () in
          let ctx =
            Exec.session { (Exec.default_config cluster) with force_plan = plan } [ ("E", e) ]
          in
          Rel.equal expected (Exec.run ctx term))
        [ None; Some Exec.P_gld; Some Exec.P_plw_s; Some Exec.P_plw_pg ])

let test_distributed_shortest_paths () =
  let rng_edges =
    List.init 60 (fun i -> [| i mod 17; (i * 7) mod 17; 1 + (i mod 5) |])
  in
  let rel = Rel.of_tuples (sch [ "src"; "trg"; "weight" ]) rng_edges in
  let env = Mura.Eval.env [ ("E", rel) ] in
  let expected = Mura.Agg.shortest_paths env ~edges:"E" in
  let cluster = Cluster.make ~workers:4 () in
  let m = Cluster.metrics cluster in
  let result = Physical.Agg_exec.shortest_paths cluster rel in
  check_rel "distributed ≡ centralized shortest paths" expected result;
  (* P_plw-style: one broadcast, constant shuffles *)
  check_bool "one broadcast" true (m.Metrics.broadcasts = 1);
  check_bool "constant shuffles" true (m.Metrics.shuffles <= 2)

let prop_random_terms_all_plans =
  qtest "random terms: every plan ≡ centralized"
    QCheck2.Gen.(pair Gen_terms.term_and_env_gen (int_range 1 4))
    (fun ((t, tables), workers) ->
      let expected = Mura.Eval.eval (Mura.Eval.env tables) t in
      List.for_all
        (fun plan ->
          let cluster = Cluster.make ~workers () in
          let ctx =
            Exec.session { (Exec.default_config cluster) with force_plan = plan } tables
          in
          Rel.equal expected (Exec.run ctx t))
        [ None; Some Exec.P_gld; Some Exec.P_plw_s; Some Exec.P_plw_pg ])

(* --- EXPLAIN ANALYZE ------------------------------------------------- *)

let analyze_session ?force_plan () =
  let cluster = Cluster.make ~workers:4 () in
  let config = { (Exec.default_config cluster) with force_plan; collect_actuals = true } in
  Exec.session config [ ("E", edges) ]

let counters (m : Metrics.t) =
  (m.shuffles, m.shuffled_records, m.shuffled_bytes, m.broadcasts, m.broadcast_records,
   m.supersteps)

let test_analyze_no_observable_effect () =
  List.iter
    (fun plan ->
      let plain = session ~force_plan:plan () in
      let analyzed = analyze_session ~force_plan:plan () in
      let r_plain = Exec.run plain closure_term in
      let r_analyzed = Exec.run analyzed closure_term in
      check_rel "same result" r_plain r_analyzed;
      check_bool "same communication counters" true
        (counters (Exec.metrics plain) = counters (Exec.metrics analyzed)))
    [ Exec.P_gld; Exec.P_plw_s; Exec.P_plw_pg ]

let test_analyze_root_actual () =
  List.iter
    (fun plan ->
      let ctx = analyze_session ~force_plan:plan () in
      let result = Exec.run ctx closure_term in
      let tree = Exec.Analyze.tree ctx closure_term in
      check_int "root actual rows = |result|" (Rel.cardinal result) tree.Exec.Analyze.rows;
      check_bool "root timed" true (tree.Exec.Analyze.ns > 0.);
      check_int "root evaluated once" 1 tree.Exec.Analyze.calls)
    [ Exec.P_gld; Exec.P_plw_s; Exec.P_plw_pg ]

let test_analyze_deltas () =
  let ctx = analyze_session ~force_plan:Exec.P_plw_s () in
  ignore (Exec.run ctx closure_term);
  match (Exec.report ctx).fixpoints with
  | [ fr ] ->
    check_int "one delta per iteration" fr.iterations (List.length fr.deltas);
    check_bool "terminating empty delta" true (List.nth fr.deltas (fr.iterations - 1) = 0);
    check_bool "fix path recorded" true (fr.fix_path <> "")
  | l -> Alcotest.failf "expected one fixpoint report, got %d" (List.length l)

let test_analyze_plw_pg_locals () =
  let ctx = analyze_session ~force_plan:Exec.P_plw_pg () in
  let result = Exec.run ctx closure_term in
  let tree = Exec.Analyze.tree ctx closure_term in
  let rec find_fix (n : Exec.Analyze.node) =
    if n.plan <> None then Some n else List.find_map find_fix n.children
  in
  match find_fix tree with
  | None -> Alcotest.fail "no fixpoint node in analyze tree"
  | Some fix ->
    check_bool "local plan actuals present" true (fix.Exec.Analyze.local <> []);
    let root_local =
      List.find (fun (l : Exec.Analyze.local_op) -> l.l_path = "0") fix.Exec.Analyze.local
    in
    (* the local fixpoints are disjoint: their result sizes sum to the
       global result *)
    check_int "local fix rows sum to result" (Rel.cardinal result) root_local.l_rows_total;
    check_bool "semi-naive rounds seen" true (root_local.l_rounds > 0);
    check_int "all workers reported" 4 root_local.l_workers

let test_analyze_render () =
  let ctx = analyze_session () in
  ignore (Exec.run ctx closure_term);
  let tree = Exec.Analyze.tree ctx closure_term in
  let rendered =
    Exec.Analyze.render ~annot:(fun path -> if path = "0" then "est=42 err=2.00" else "") tree
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "has actual rows" true (contains rendered "rows=");
  check_bool "annot injected" true (contains rendered "est=42 err=2.00");
  check_bool "has iteration counts" true (contains rendered "iters=");
  check_bool "has delta curve" true (contains rendered "deltas=[")

(* --- delta maintenance / iteration-shuffle dedup ---------------------- *)

let contains_sub text needle =
  let n = String.length needle and h = String.length text in
  let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
  go 0

let counters_full (m : Metrics.t) =
  (counters m, m.Metrics.dedup_dropped_records)

(* run a term on one executor ([compiled] picks the compiled columnar
   core or the interpreted loop) and return the result, every fixpoint's
   (var, plan, iterations, deltas) and all communication counters *)
let exec_run ?force_plan ?(workers = 4) ~compiled term tables =
  let cluster = Cluster.make ~workers () in
  let config =
    { (Exec.default_config cluster) with force_plan; use_compiled_exec = compiled }
  in
  let ctx = Exec.session config tables in
  let result = Exec.run ctx term in
  let sigs =
    List.map
      (fun (fr : Exec.fix_report) -> (fr.var, fr.plan, fr.iterations, fr.deltas))
      (Exec.report ctx).fixpoints
  in
  (result, sigs, counters_full (Exec.metrics ctx))

(* The in-place accumulator and the map-side seen filter are pure
   optimisations: on both executors, every semi-naive plan and worker
   count the result matches the centralized oracle, and every delta curve
   ends with its empty fixpoint-reaching iteration. *)
let test_fused_parity () =
  List.iter
    (fun (name, term) ->
      let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) term in
      List.iter
        (fun plan ->
          List.iter
            (fun workers ->
              List.iter
                (fun compiled ->
                  let label =
                    Printf.sprintf "%s %s w=%d compiled=%b" name (Exec.plan_name plan) workers
                      compiled
                  in
                  let r, sigs, _ =
                    exec_run ~force_plan:plan ~workers ~compiled term [ ("E", edges) ]
                  in
                  check_rel (label ^ ": oracle agreement") expected r;
                  List.iter
                    (fun (_, _, iters, deltas) ->
                      check_int (label ^ ": one delta per iteration") iters (List.length deltas);
                      check_int (label ^ ": last delta empty") 0 (List.nth deltas (iters - 1)))
                    sigs)
                [ false; true ])
            [ 1; 4 ])
        [ Exec.P_gld; Exec.P_plw_s ])
    [ ("closure", closure_term); ("same_gen", Mura.Patterns.same_generation ()) ]

(* a fixpoint whose very first iteration derives nothing new *)
let test_fused_empty_first_delta () =
  let self = rel [ "src"; "trg" ] [ [ 1; 1 ]; [ 2; 2 ] ] in
  List.iter
    (fun plan ->
      List.iter
        (fun compiled ->
          let r, sigs, _ = exec_run ~force_plan:plan ~compiled closure_term [ ("E", self) ] in
          check_rel "fixpoint of self-loops = E" self r;
          match sigs with
          | [ (_, _, iters, deltas) ] ->
            check_int "terminates in one iteration" 1 iters;
            check_bool "first delta empty" true (deltas = [ 0 ])
          | _ -> Alcotest.fail "expected exactly one fixpoint report")
        [ false; true ])
    [ Exec.P_gld; Exec.P_plw_s ]

(* on P_gld the seen filter must drop re-derivations from the iteration
   shuffles (transitive closure re-derives pairs every round) without
   changing the result *)
let test_dedup_reduces_gld_shuffle () =
  List.iter
    (fun compiled ->
      let r, _, (_, dropped) =
        exec_run ~force_plan:Exec.P_gld ~compiled closure_term [ ("E", edges) ]
      in
      check_rel "closure while counting" expected_closure r;
      check_bool "re-derivations dropped" true (dropped > 0))
    [ false; true ]

(* --- compiled columnar execution ------------------------------------- *)

(* deterministic Erdős–Rényi-ish multigraph (LCG, no global Random state) *)
let er_graph ~n ~m ~seed =
  let state = ref seed in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  rel [ "src"; "trg" ] (List.init m (fun _ -> [ next n; next n ]))

(* The compiled pipelines are a pure execution-strategy change: on every
   plan, worker count and graph shape the result relation, iteration
   count, per-iteration delta curve and all communication counters
   (including the seen-filter drops) match the interpreted oracle
   exactly. *)
let test_compiled_parity () =
  let graphs =
    [
      ("path", rel [ "src"; "trg" ] (List.init 60 (fun i -> [ i; i + 1 ])));
      ("sparse_er", er_graph ~n:40 ~m:60 ~seed:7);
      ("dense_er", er_graph ~n:18 ~m:90 ~seed:23);
    ]
  in
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun plan ->
          List.iter
            (fun workers ->
              let label = Printf.sprintf "%s %s w=%d" gname (Exec.plan_name plan) workers in
              let br, bs, bc =
                exec_run ~force_plan:plan ~workers ~compiled:false closure_term [ ("E", g) ]
              in
              let cr, cs, cc =
                exec_run ~force_plan:plan ~workers ~compiled:true closure_term [ ("E", g) ]
              in
              check_rel (label ^ ": results") br cr;
              check_bool (label ^ ": iterations and delta curves") true (bs = cs);
              check_bool (label ^ ": communication counters") true (bc = cc))
            [ 1; 4 ])
        [ Exec.P_gld; Exec.P_plw_s ])
    graphs

(* engagement: the one-time compiler accepts the TC step shape and
   declines shapes outside its contract (the caller then falls back) *)
let test_compiled_engagement () =
  let cluster = Cluster.make ~workers:2 () in
  let edges_schema = sch [ "src"; "trg" ] in
  let tenv = Mura.Typing.env [ ("E", edges_schema) ] in
  let eval t = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) t in
  let compile recs =
    Physical.Pipeline.compile ~cluster ~var:"X" ~join_mode:`Broadcast ~x_schema:edges_schema
      ~typing:(Mura.Typing.infer ~vars:[ ("X", edges_schema) ] tenv)
      ~exec_const:(fun ~path:_ t -> Distsim.Dds.of_rel cluster (eval t))
      ~eval_const:(fun ~path:_ t -> eval t)
      ~branch_path:(fun i -> "0." ^ string_of_int i)
      recs
  in
  let tc_step =
    Term.Antiproject
      ( [ "_m" ],
        Term.Join
          (Term.Rename ([ ("trg", "_m") ], Term.Var "X"),
           Term.Rename ([ ("src", "_m") ], Term.Rel "E")) )
  in
  check_bool "TC step compiles" true (compile [ tc_step ] <> None);
  check_bool "nested union falls back" true
    (compile [ Term.Union (Term.Var "X", Term.Rel "E") ] = None);
  check_bool "nested fixpoint falls back" true
    (compile [ Mura.Patterns.closure (Term.Var "X") ] = None)

let test_explain_exec_mode () =
  let ctx = session () in
  check_bool "compiled mode shown" true
    (contains_sub (Exec.explain ctx closure_term) "Execution: compiled columnar");
  let cluster = Cluster.make ~workers:2 () in
  let config = { (Exec.default_config cluster) with use_compiled_exec = false } in
  let ctx2 = Exec.session config [ ("E", edges) ] in
  check_bool "interpreted mode shown" true
    (contains_sub (Exec.explain ctx2 closure_term) "Execution: interpreted operator-at-a-time")

(* --- compiled shell (whole-plan columnar execution) ------------------- *)

module Sh = Physical.Pipeline.Shell

(* a shell-heavy plan: every non-fixpoint operator engages around the
   closure — select, rename, join, antiproject, project, union, antijoin *)
let shell_term =
  let two_hop =
    Term.Antiproject
      ( [ "_m" ],
        Term.Join
          ( Term.Rename ([ ("trg", "_m") ], Term.Rel "E"),
            Term.Rename ([ ("src", "_m") ], Term.Rel "E") ) )
  in
  Term.Antijoin
    ( Term.Union
        ( Term.Select (Pred.Gt_const ("src", 2), two_hop),
          Term.Project ([ "src"; "trg" ], closure_term) ),
      Term.Select (Pred.Eq_const ("src", 1), Term.Rel "E") )

(* joins with no shared column: broadcast -> compiled cartesian probe;
   shuffle -> the one dynamic per-subtree fallback *)
let cartesian_term =
  Term.Join
    ( Term.Rename ([ ("src", "a"); ("trg", "b") ], Term.Rel "E"),
      Term.Rename ([ ("src", "c"); ("trg", "d") ], Term.Rel "E") )

let shell_run ?(threshold = -1) ~workers ~compiled term tables =
  let cluster = Cluster.make ~workers () in
  let base = Exec.default_config cluster in
  let config =
    { base with
      use_compiled_exec = compiled;
      broadcast_threshold =
        (if threshold < 0 then base.Exec.broadcast_threshold else threshold);
    }
  in
  let ctx = Exec.session config tables in
  (Exec.run ctx term, counters_full (Exec.metrics ctx))

(* The compiled shell is a pure execution-strategy change: results and
   every communication counter match the interpreter on all three
   fixpoint plans (including P_plw^pg's compiled local fixpoints) and
   every worker count. *)
let test_shell_parity () =
  let graphs = [ ("edges", edges); ("sparse_er", er_graph ~n:40 ~m:60 ~seed:7) ] in
  List.iter
    (fun (gname, g) ->
      let central = Mura.Eval.eval (Mura.Eval.env [ ("E", g) ]) shell_term in
      List.iter
        (fun plan ->
          List.iter
            (fun workers ->
              let label = Printf.sprintf "%s %s w=%d" gname (Exec.plan_name plan) workers in
              let br, bs, bc =
                exec_run ~force_plan:plan ~workers ~compiled:false shell_term [ ("E", g) ]
              in
              let cr, cs, cc =
                exec_run ~force_plan:plan ~workers ~compiled:true shell_term [ ("E", g) ]
              in
              check_rel (label ^ ": central agreement") central cr;
              check_rel (label ^ ": results") br cr;
              check_bool (label ^ ": iterations and delta curves") true (bs = cs);
              check_bool (label ^ ": communication counters") true (bc = cc))
            [ 1; 4 ])
        [ Exec.P_gld; Exec.P_plw_s; Exec.P_plw_pg ])
    graphs

(* broadcast_threshold = 0 forces every shell join/antijoin onto the
   shuffle paths (including the cartesian-shuffle dynamic fallback) *)
let test_shell_shuffle_parity () =
  List.iter
    (fun (tname, term) ->
      let central = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) term in
      List.iter
        (fun workers ->
          let label = Printf.sprintf "%s w=%d threshold=0" tname workers in
          let br, bc = shell_run ~threshold:0 ~workers ~compiled:false term [ ("E", edges) ] in
          let cr, cc = shell_run ~threshold:0 ~workers ~compiled:true term [ ("E", edges) ] in
          check_rel (label ^ ": central agreement") central cr;
          check_rel (label ^ ": results") br cr;
          check_bool (label ^ ": communication counters") true (bc = cc))
        [ 1; 4 ])
    [ ("shell_term", shell_term); ("cartesian", cartesian_term) ]

(* per-subtree fallback: a zero-arity Project interprets itself (and
   makes its parent Join interpret), the siblings stay compiled, results
   match, and each fallback is counted once per site/reason *)
let test_shell_subtree_fallback () =
  let bad = Term.Join (Term.Rel "E", Term.Project ([], Term.Rel "E")) in
  let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) bad in
  let reg = Telemetry.make () in
  Telemetry.install reg;
  Fun.protect ~finally:Telemetry.uninstall @@ fun () ->
  let ctx = session () in
  let r = Exec.run ctx bad in
  check_rel "zero-arity subtree result" expected r;
  let snap = Telemetry.snapshot reg in
  let v labels = Telemetry.Snapshot.value ~labels snap "pipeline_fallback_total" in
  check_bool "join fell back (zero_arity_child)" true
    (v [ ("reason", "zero_arity_child"); ("site", "shell") ] = Some 1.);
  check_bool "project fell back (zero_arity)" true
    (v [ ("reason", "zero_arity"); ("site", "shell") ] = Some 1.)

(* anti-double-metering: supportability is decided from typing alone, so
   a shell whose root is rejected late must not evaluate or re-meter the
   constant under it a second time — the counters match the interpreter
   exactly, where each Cst is distributed once *)
let test_shell_no_double_const_eval () =
  let big = er_graph ~n:50 ~m:200 ~seed:3 in
  let t = Term.Join (Term.Cst big, Term.Project ([], Term.Rel "E")) in
  let br, bc = shell_run ~workers:4 ~compiled:false t [ ("E", edges) ] in
  let cr, cc = shell_run ~workers:4 ~compiled:true t [ ("E", edges) ] in
  check_rel "late-rejected shell result" br cr;
  check_bool "constants metered exactly once" true (bc = cc)

let test_shell_explain () =
  let ctx = session () in
  let t = Term.Select (Pred.Gt_const ("src", 2), Term.Project ([ "src" ], closure_term)) in
  let text = Exec.explain ctx t in
  check_bool "compiled nodes annotated" true (contains_sub text "[compiled]");
  check_bool "branch verdicts listed" true (contains_sub text "branch 0: compiled");
  let bad = Term.Join (Term.Rel "E", Term.Project ([], Term.Rel "E")) in
  let text2 = Exec.explain ctx bad in
  check_bool "interpreted nodes annotated with the reason" true
    (contains_sub text2 "[interpreted: zero_arity]");
  let ctx3 = session ~force_plan:Exec.P_plw_pg () in
  let text3 = Exec.explain ctx3 closure_term in
  check_bool "P_plw^pg local plan verdict" true
    (contains_sub text3 "local plan: compiled batch fixpoint")

(* the P_plw^pg local executor agrees with the Instance oracle and
   rejects non-fixpoints statically *)
let test_bexec_local () =
  let tc_step =
    Term.Antiproject
      ( [ "_m" ],
        Term.Join
          ( Term.Rename ([ ("trg", "_m") ], Term.Var "X"),
            Term.Rename ([ ("src", "_m") ], Term.Rel "E") ) )
  in
  let local = Term.Fix ("X", Term.union_all [ Term.Rel "__seed"; tc_step ]) in
  let env = [ ("__seed", sch [ "src"; "trg" ]); ("E", sch [ "src"; "trg" ]) ] in
  let db = Localdb.Instance.create () in
  Localdb.Instance.register db "E" edges;
  Localdb.Instance.register db "__seed" edges;
  (match Localdb.Bexec.plan ~env local with
  | Error r -> Alcotest.failf "bexec rejected the TC local plan: %s" r
  | Ok p ->
    let got = Localdb.Bexec.run p db in
    let want = Localdb.Instance.query db local in
    check_rel "bexec = instance oracle" (Rel.relayout (Rel.schema got) want) got);
  match Localdb.Bexec.plan ~env (Term.Rel "E") with
  | Error "not_a_fixpoint" -> ()
  | Error r -> Alcotest.failf "wrong rejection slug: %s" r
  | Ok _ -> Alcotest.fail "non-fixpoint must be rejected"

(* grouped reductions as fused batch folds agree with a naive driver fold *)
let test_group_aggregates () =
  let cluster = Cluster.make ~workers:4 () in
  let canon = Rel.relayout (sch [ "src"; "trg" ]) edges in
  let d = Distsim.Dds.of_rel cluster canon in
  let counts = Physical.Agg_exec.group_count cluster ~key:[ "src" ] d in
  let tbl = Hashtbl.create 16 in
  Rel.iter
    (fun tu ->
      Hashtbl.replace tbl tu.(0) (1 + Option.value ~default:0 (Hashtbl.find_opt tbl tu.(0))))
    canon;
  let expected = rel [ "src"; "count" ] (Hashtbl.fold (fun k v acc -> [ k; v ] :: acc) tbl []) in
  check_rel "group_count" expected counts;
  let mins = Physical.Agg_exec.group_min cluster ~key:[ "trg" ] ~value:"src" d in
  let tbl2 = Hashtbl.create 16 in
  Rel.iter
    (fun tu ->
      match Hashtbl.find_opt tbl2 tu.(1) with
      | Some v -> Hashtbl.replace tbl2 tu.(1) (min v tu.(0))
      | None -> Hashtbl.add tbl2 tu.(1) tu.(0))
    canon;
  let expected2 = rel [ "trg"; "src" ] (Hashtbl.fold (fun k v acc -> [ k; v ] :: acc) tbl2 []) in
  check_rel "group_min" expected2 mins

(* capacity-hint audit: the batch paths presize every output, so neither
   the shell's materialize/union/to_dds nor the local batch fixpoint
   ever triggers an insert-time rehash *)
let test_compiled_batch_no_rehash () =
  let g = er_graph ~n:30 ~m:120 ~seed:11 in
  let cluster = Cluster.make ~workers:2 () in
  let d = Distsim.Dds.of_rel cluster g in
  let c0 = Sh.of_dds cluster d in
  Tset.reset_rehash_grows ();
  let m =
    Sh.materialize cluster (Sh.project [ "src" ] (Sh.filter (fun tu -> tu.(0) land 1 = 0) c0))
  in
  ignore (Sh.to_dds cluster (Sh.union cluster m m));
  check_int "no insert-triggered rehash in shell materialize/union" 0 (Tset.rehash_grow_count ());
  let tc_step =
    Term.Antiproject
      ( [ "_m" ],
        Term.Join
          ( Term.Rename ([ ("trg", "_m") ], Term.Var "X"),
            Term.Rename ([ ("src", "_m") ], Term.Rel "E") ) )
  in
  let local = Term.Fix ("X", Term.union_all [ Term.Rel "__seed"; tc_step ]) in
  let env = [ ("__seed", sch [ "src"; "trg" ]); ("E", sch [ "src"; "trg" ]) ] in
  let db = Localdb.Instance.create () in
  Localdb.Instance.register db "E" g;
  Localdb.Instance.register db "__seed" g;
  match Localdb.Bexec.plan ~env local with
  | Error r -> Alcotest.failf "bexec rejected: %s" r
  | Ok p ->
    Tset.reset_rehash_grows ();
    ignore (Localdb.Bexec.run p db);
    check_int "no insert-triggered rehash in the local batch fixpoint" 0
      (Tset.rehash_grow_count ())

(* --- incremental fixpoint maintenance -------------------------------- *)

module Incr = Exec.Incr

let incr_config ~force_plan ~workers ~compiled =
  let cluster = Cluster.make ~workers () in
  { (Exec.default_config cluster) with force_plan = Some force_plan; use_compiled_exec = compiled }

let eval_on tables term = Mura.Eval.eval (Mura.Eval.env tables) term

(* Parity contract: establish, apply a batch, and the repaired result is
   bit-identical to a from-scratch evaluation on the updated catalog —
   across both plans, worker counts and execution modes, including a
   second repair on top of the first. *)
let test_incr_insert_parity () =
  let base = er_graph ~n:30 ~m:45 ~seed:11 in
  let batch1 = rel [ "src"; "trg" ] [ [ 0; 17 ]; [ 17; 23 ]; [ 5; 0 ] ] in
  let batch2 = rel [ "src"; "trg" ] [ [ 23; 29 ]; [ 29; 5 ] ] in
  List.iter
    (fun plan ->
      List.iter
        (fun workers ->
          List.iter
            (fun compiled ->
              let label =
                Printf.sprintf "%s w=%d compiled=%b" (Exec.plan_name plan) workers compiled
              in
              let config = incr_config ~force_plan:plan ~workers ~compiled in
              let h = Incr.establish config ~tables:[ ("E", base) ] closure_term in
              let apply batch =
                match Incr.update ~inserts:[ ("E", batch) ] h with
                | `Repaired (r, _) -> r
                | `Unsupported msg -> Alcotest.failf "%s: unsupported: %s" label msg
              in
              let after1 = apply batch1 in
              let tables1 = [ ("E", Rel.union base batch1) ] in
              check_rel (label ^ ": first repair") (eval_on tables1 closure_term) after1;
              let after2 = apply batch2 in
              let tables2 = [ ("E", Rel.union (Rel.union base batch1) batch2) ] in
              check_rel (label ^ ": repair of repair") (eval_on tables2 closure_term) after2;
              check_int (label ^ ": resumes counted") 2 (Incr.resumes h))
            [ false; true ])
        [ 1; 4 ])
    [ Exec.P_gld; Exec.P_plw_s ]

let test_incr_delete_parity () =
  let deletes = rel [ "src"; "trg" ] [ [ 3; 4 ]; [ 12; 10 ] ] in
  let inserts = rel [ "src"; "trg" ] [ [ 4; 20 ]; [ 20; 3 ] ] in
  List.iter
    (fun plan ->
      List.iter
        (fun compiled ->
          let label = Printf.sprintf "%s compiled=%b" (Exec.plan_name plan) compiled in
          let config = incr_config ~force_plan:plan ~workers:4 ~compiled in
          let h = Incr.establish config ~tables:[ ("E", edges) ] closure_term in
          (match Incr.update ~deletes:[ ("E", deletes) ] h with
          | `Repaired (r, _) ->
            let tables = [ ("E", Rel.diff edges deletes) ] in
            check_rel (label ^ ": DRed delete") (eval_on tables closure_term) r
          | `Unsupported msg -> Alcotest.failf "%s: unsupported: %s" label msg);
          match Incr.update ~inserts:[ ("E", inserts) ] ~deletes:[ ("E", deletes) ] h with
          | `Repaired (r, _) ->
            (* the first update already removed [deletes]; this one is an
               effective pure insert riding through the combined path *)
            let tables = [ ("E", Rel.union (Rel.diff edges deletes) inserts) ] in
            check_rel (label ^ ": combined update") (eval_on tables closure_term) r
          | `Unsupported msg -> Alcotest.failf "%s: unsupported: %s" label msg)
        [ false; true ])
    [ Exec.P_gld; Exec.P_plw_s ]

let test_incr_noop_update () =
  let config = incr_config ~force_plan:Exec.P_plw_s ~workers:2 ~compiled:true in
  let h = Incr.establish config ~tables:[ ("E", edges) ] closure_term in
  let before = Incr.result h in
  (* inserting already-present tuples and deleting absent ones is a no-op *)
  match
    Incr.update
      ~inserts:[ ("E", rel [ "src"; "trg" ] [ [ 1; 2 ] ]) ]
      ~deletes:[ ("E", rel [ "src"; "trg" ] [ [ 77; 78 ] ]) ]
      h
  with
  | `Repaired (r, iters) ->
    check_rel "result unchanged" before r;
    check_int "no resumed iterations" 0 iters;
    check_int "not counted as a resume" 0 (Incr.resumes h)
  | `Unsupported msg -> Alcotest.failf "unsupported: %s" msg

let test_incr_unsupported () =
  (* changed relation under an antijoin right side: insertion can retract
     derived tuples, so the update must refuse and leave the handle
     untouched *)
  let blocked = rel [ "src" ] [ [ 10 ] ] in
  let term =
    Term.Fix ("X", Term.Union (Term.Rel "E", Term.Antijoin (Term.Var "X", Term.Rel "D")))
  in
  let config = incr_config ~force_plan:Exec.P_gld ~workers:2 ~compiled:true in
  let h = Incr.establish config ~tables:[ ("E", edges); ("D", blocked) ] term in
  let before = Incr.result h in
  (match Incr.update ~inserts:[ ("D", rel [ "src" ] [ [ 3 ] ]) ] h with
  | `Unsupported _ -> ()
  | `Repaired _ -> Alcotest.fail "antijoin-right update must be unsupported");
  check_rel "handle untouched" before (Incr.result h);
  (match Incr.update ~inserts:[ ("F", rel [ "src"; "trg" ] [ [ 1; 2 ] ]) ] h with
  | `Unsupported _ -> ()
  | `Repaired _ -> Alcotest.fail "unregistered relation must be unsupported");
  (match Incr.update ~inserts:[ ("E", rel [ "a"; "b" ] [ [ 1; 2 ] ]) ] h with
  | `Unsupported _ -> ()
  | `Repaired _ -> Alcotest.fail "schema mismatch must be unsupported");
  (* inserts touching only the antijoin-left relation still repair *)
  match Incr.update ~inserts:[ ("E", rel [ "src"; "trg" ] [ [ 6; 10 ] ]) ] h with
  | `Repaired (r, _) ->
    let tables =
      [ ("E", Rel.union edges (rel [ "src"; "trg" ] [ [ 6; 10 ] ])); ("D", blocked) ]
    in
    check_rel "antijoin-left insert repairs" (eval_on tables term) r
  | `Unsupported msg -> Alcotest.failf "unsupported: %s" msg

let test_incr_establish_shapes () =
  let config = incr_config ~force_plan:Exec.P_gld ~workers:2 ~compiled:true in
  (match Incr.establish config ~tables:[ ("E", edges) ] (Term.Rel "E") with
  | exception Incr.Unsupported _ -> ()
  | _ -> Alcotest.fail "non-fixpoint establish must raise");
  let pg = incr_config ~force_plan:Exec.P_plw_pg ~workers:2 ~compiled:true in
  match Incr.establish pg ~tables:[ ("E", edges) ] closure_term with
  | exception Incr.Unsupported _ -> ()
  | _ -> Alcotest.fail "P_plw^pg establish must raise"

let () =
  Alcotest.run "physical"
    [
      ( "analyze",
        [
          Alcotest.test_case "results bit-identical with analyze" `Quick
            test_analyze_no_observable_effect;
          Alcotest.test_case "root actual = result cardinality" `Quick test_analyze_root_actual;
          Alcotest.test_case "fixpoint deltas recorded" `Quick test_analyze_deltas;
          Alcotest.test_case "plw_pg local actuals" `Quick test_analyze_plw_pg_locals;
          Alcotest.test_case "render" `Quick test_analyze_render;
        ] );
      ( "plans",
        [
          Alcotest.test_case "P_gld" `Quick (test_plan_agreement (Some Exec.P_gld));
          Alcotest.test_case "P_plw^s" `Quick (test_plan_agreement (Some Exec.P_plw_s));
          Alcotest.test_case "P_plw^pg" `Quick (test_plan_agreement (Some Exec.P_plw_pg));
          Alcotest.test_case "auto selection" `Quick (test_plan_agreement None);
        ] );
      ( "selection",
        [
          Alcotest.test_case "stable -> P_plw" `Quick test_auto_selection_stable;
          Alcotest.test_case "unstable -> P_gld" `Quick test_auto_selection_unstable;
        ] );
      ( "communication",
        [
          Alcotest.test_case "profiles" `Quick test_communication_profile;
          Alcotest.test_case "plw disjointness" `Quick test_plw_disjoint_partitions;
        ] );
      ( "integration",
        [
          Alcotest.test_case "filtered closure" `Quick test_filtered_closure_all_plans;
          Alcotest.test_case "non-recursive ops" `Quick test_nonrecursive_operators;
          Alcotest.test_case "resource limit" `Quick test_resource_limit;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "distributed shortest paths" `Quick test_distributed_shortest_paths;
          Alcotest.test_case "same generation" `Quick test_same_generation_plans;
        ] );
      ( "fused delta",
        [
          Alcotest.test_case "fused/dedup parity" `Quick test_fused_parity;
          Alcotest.test_case "empty first delta" `Quick test_fused_empty_first_delta;
          Alcotest.test_case "dedup shrinks P_gld shuffle" `Quick test_dedup_reduces_gld_shuffle;
        ] );
      ( "compiled exec",
        [
          Alcotest.test_case "compiled/interpreted parity" `Quick test_compiled_parity;
          Alcotest.test_case "compiler engagement" `Quick test_compiled_engagement;
          Alcotest.test_case "explain shows execution mode" `Quick test_explain_exec_mode;
        ] );
      ( "compiled shell",
        [
          Alcotest.test_case "shell parity (all plans)" `Quick test_shell_parity;
          Alcotest.test_case "shuffle/cartesian shell parity" `Quick test_shell_shuffle_parity;
          Alcotest.test_case "per-subtree fallback + telemetry" `Quick test_shell_subtree_fallback;
          Alcotest.test_case "no double const evaluation" `Quick test_shell_no_double_const_eval;
          Alcotest.test_case "explain annotates subtrees" `Quick test_shell_explain;
          Alcotest.test_case "bexec local fixpoint" `Quick test_bexec_local;
          Alcotest.test_case "grouped batch folds" `Quick test_group_aggregates;
          Alcotest.test_case "zero-rehash capacity audit" `Quick test_compiled_batch_no_rehash;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "insert-and-resume parity" `Quick test_incr_insert_parity;
          Alcotest.test_case "DRed delete parity" `Quick test_incr_delete_parity;
          Alcotest.test_case "no-op update" `Quick test_incr_noop_update;
          Alcotest.test_case "unsupported updates refuse" `Quick test_incr_unsupported;
          Alcotest.test_case "establish shape checks" `Quick test_incr_establish_shapes;
        ] );
      ("properties", [ prop_all_plans_agree; prop_reach_all_plans; prop_random_terms_all_plans ]);
    ]
