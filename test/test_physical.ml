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

let session_on ?force_plan ?(workers = 4) tables =
  let cluster = Cluster.make ~workers () in
  Exec.session { (Exec.default_config cluster) with force_plan } tables

let session ?force_plan ?workers () = session_on ?force_plan ?workers [ ("E", edges) ]

(* fixpoints joining a zero-arity side (a projection on no column, an
   antiprojection dropping every column) *)
let zero_arity_fixpoints =
  List.map
    (fun side -> Term.Fix ("X", Term.Union (Term.Rel "E", Term.Join (Term.Var "X", side))))
    [ Term.Project ([], Term.Rel "E"); Term.Antiproject ([ "src"; "trg" ], Term.Rel "E") ]

(* a fixpoint whose recursive branch joins a constant relation: the
   shape Serve.resolve_fixes leaves when it splices a resolved fixpoint
   into a term as a [Term.Cst] *)
let cst_branch_fixpoint =
  let hops = rel [ "src"; "trg" ] [ [ 6; 20 ]; [ 20; 21 ]; [ 12; 30 ] ] in
  Term.Fix
    ( "X",
      Term.Union
        ( Term.Rel "E",
          Term.Antiproject
            ( [ "_m" ],
              Term.Join
                (Term.Rename ([ ("trg", "_m") ], Term.Var "X"), Term.Rename ([ ("src", "_m") ], Term.Cst hops))
            ) ) )

let test_plan_agreement plan () =
  List.iter
    (fun term ->
      let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) term in
      List.iter
        (fun workers ->
          let ctx = session ?force_plan:plan ~workers () in
          check_rel "plan agreement" expected (Exec.run ctx term))
        [ 1; 4 ])
    (closure_term :: cst_branch_fixpoint :: zero_arity_fixpoints)

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

(* the closure of a 50-edge chain (1 275 pairs, 50 iterations) passes
   both guards on every plan, P_plw^pg's local loops included: the
   tuple guard once the accumulated pairs pass 100, the iteration guard
   at the fourth iteration *)
let test_resource_limit () =
  let chain = rel [ "src"; "trg" ] (List.init 50 (fun i -> [ i; i + 1 ])) in
  List.iter
    (fun (limit, with_limit) ->
      List.iter
        (fun force_plan ->
          let cluster = Cluster.make ~workers:2 () in
          let config = with_limit { (Exec.default_config cluster) with force_plan } in
          let ctx = Exec.session config [ ("E", chain) ] in
          let name =
            Printf.sprintf "%s under %s"
              (match force_plan with None -> "auto" | Some p -> Exec.plan_name p)
              limit
          in
          match Exec.run ctx closure_term with
          | r -> Alcotest.failf "%s: expected Resource_limit, got %d rows" name (Rel.cardinal r)
          | exception Exec.Resource_limit _ -> ())
        [ None; Some Exec.P_gld; Some Exec.P_plw_s; Some Exec.P_plw_pg ])
    [
      ("max_tuples = 100", fun c -> { c with Exec.max_tuples = 100 });
      ("max_iterations = 3", fun c -> { c with Exec.max_iterations = 3 });
    ]

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

(* --- counter pins ------------------------------------------------------ *)

let contains_sub text needle =
  let n = String.length needle and h = String.length text in
  let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
  go 0

(* communication counters: shuffles, shuffled records and bytes,
   broadcasts and broadcast records, seen-filter drops *)
let counters (m : Metrics.t) =
  ( m.shuffles,
    m.shuffled_records,
    m.shuffled_bytes,
    m.broadcasts,
    m.broadcast_records,
    m.dedup_dropped_records )

(* deterministic Erdős–Rényi-ish multigraph (LCG, no global Random state) *)
let er_graph ~n ~m ~seed =
  let state = ref seed in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  rel [ "src"; "trg" ] (List.init m (fun _ -> [ next n; next n ]))

let compose a b =
  Term.Antiproject
    ([ "_m" ], Term.Join (Term.Rename ([ ("trg", "_m") ], a), Term.Rename ([ ("src", "_m") ], b)))

(* a shell-heavy plan: every non-fixpoint operator around the closure —
   select, rename, join, antiproject, project, union, antijoin *)
let shell_term =
  Term.Antijoin
    ( Term.Union
        ( Term.Select (Pred.Gt_const ("src", 2), compose (Term.Rel "E") (Term.Rel "E")),
          Term.Project ([ "src"; "trg" ], closure_term) ),
      Term.Select (Pred.Eq_const ("src", 1), Term.Rel "E") )

(* a join with no shared column *)
let cartesian_term =
  Term.Join
    ( Term.Rename ([ ("src", "a"); ("trg", "b") ], Term.Rel "E"),
      Term.Rename ([ ("src", "c"); ("trg", "d") ], Term.Rel "E") )

(* P_gld branch shapes: an antijoin against a constant side, and a
   join with no shared column *)
let blocked = rel [ "trg" ] [ [ 4 ]; [ 11 ] ]

let antijoin_fix =
  Term.Fix
    ("X", Term.Union (Term.Rel "E", Term.Antijoin (compose (Term.Var "X") (Term.Rel "E"), Term.Rel "B")))

let cartesian_fix =
  Term.Fix
    ( "X",
      Term.Union
        ( Term.Rename ([ ("src", "x") ], Term.Project ([ "src" ], Term.Rel "E")),
          Term.Rename
            ( [ ("y", "x") ],
              Term.Antiproject
                ( [ "x" ],
                  Term.Join
                    (Term.Var "X", Term.Rename ([ ("src", "y") ], Term.Project ([ "src" ], Term.Rel "S")))
                ) ) ) )

(* a zero-arity accumulator: "is E non-empty", as a width-0 relation *)
let zero_arity_fix =
  Term.Fix
    ( "X",
      Term.Union
        (Term.Project ([], Term.Rel "E"), Term.Project ([], Term.Join (Term.Var "X", Term.Rel "E"))) )

(* Result cardinality, per-fixpoint (iterations, delta curve) outermost
   first, and communication counters of each pinned run, keyed by
   "<case>/<plan>/w<workers>" on the sequential cluster. Recorded when
   the compiled pipelines were checked against the operator-at-a-time
   interpreter, and unchanged since; the P_gld rows of the three branch
   shapes above (antijoin_fix, cartesian_fix, zero_arity_fix) were
   recorded once the compiled pipelines covered them. *)
let pins =
  [
    ("closure/P_gld/w1", 63, [ (8, [11; 12; 9; 9; 9; 2; 1; 0]) ], (20, 73, 2336, 0, 0, 16));
    ("closure/P_gld/w4", 63, [ (8, [11; 12; 9; 9; 9; 2; 1; 0]) ], (20, 192, 6144, 0, 0, 3));
    ("closure/P_plw^s/w1", 63, [ (8, [11; 12; 9; 9; 9; 2; 1; 0]) ], (3, 73, 2336, 1, 10, 0));
    ("closure/P_plw^s/w4", 63, [ (8, [11; 12; 9; 9; 9; 2; 1; 0]) ], (3, 80, 2560, 1, 30, 0));
    ("same_gen/P_gld/w1", 21, [ (6, [2; 2; 2; 2; 2; 0]) ], (24, 41, 1312, 1, 10, 3));
    ("same_gen/P_gld/w4", 21, [ (6, [2; 2; 2; 2; 2; 0]) ], (24, 109, 3592, 1, 30, 3));
    ("same_gen/P_plw^s/w1", 21, [ (6, [2; 2; 2; 2; 2; 0]) ], (5, 41, 1312, 3, 30, 0));
    ("same_gen/P_plw^s/w4", 21, [ (10, [7; 4; 4; 4; 4; 2; 2; 2; 2; 0]) ], (5, 75, 2400, 3, 90, 0));
    ( "tc_path/P_gld/w1", 1830,
      [ (60, [59; 58; 57; 56; 55; 54; 53; 52; 51; 50; 49; 48; 47; 46; 45; 44; 43; 42; 41; 40; 39;
             38; 37; 36; 35; 34; 33; 32; 31; 30; 29; 28; 27; 26; 25; 24; 23; 22; 21; 20; 19; 18;
             17; 16; 15; 14; 13; 12; 11; 10; 9; 8; 7; 6; 5; 4; 3; 2; 1; 0]) ],
      (124, 1890, 60480, 0, 0, 0) );
    ( "tc_path/P_gld/w4", 1830,
      [ (60, [59; 58; 57; 56; 55; 54; 53; 52; 51; 50; 49; 48; 47; 46; 45; 44; 43; 42; 41; 40; 39;
             38; 37; 36; 35; 34; 33; 32; 31; 30; 29; 28; 27; 26; 25; 24; 23; 22; 21; 20; 19; 18;
             17; 16; 15; 14; 13; 12; 11; 10; 9; 8; 7; 6; 5; 4; 3; 2; 1; 0]) ],
      (124, 4827, 154464, 0, 0, 0) );
    ( "tc_path/P_plw^s/w1", 1830,
      [ (60, [59; 58; 57; 56; 55; 54; 53; 52; 51; 50; 49; 48; 47; 46; 45; 44; 43; 42; 41; 40; 39;
             38; 37; 36; 35; 34; 33; 32; 31; 30; 29; 28; 27; 26; 25; 24; 23; 22; 21; 20; 19; 18;
             17; 16; 15; 14; 13; 12; 11; 10; 9; 8; 7; 6; 5; 4; 3; 2; 1; 0]) ],
      (3, 1890, 60480, 1, 60, 0) );
    ( "tc_path/P_plw^s/w4", 1830,
      [ (60, [59; 58; 57; 56; 55; 54; 53; 52; 51; 50; 49; 48; 47; 46; 45; 44; 43; 42; 41; 40; 39;
             38; 37; 36; 35; 34; 33; 32; 31; 30; 29; 28; 27; 26; 25; 24; 23; 22; 21; 20; 19; 18;
             17; 16; 15; 14; 13; 12; 11; 10; 9; 8; 7; 6; 5; 4; 3; 2; 1; 0]) ],
      (3, 1935, 61920, 1, 180, 0) );
    ("tc_sparse_er/P_gld/w1", 46, [ (1, [0]) ], (6, 92, 2944, 0, 0, 0));
    ("tc_sparse_er/P_gld/w4", 46, [ (1, [0]) ], (6, 205, 6560, 0, 0, 0));
    ("tc_sparse_er/P_plw^s/w1", 46, [ (1, [0]) ], (3, 92, 2944, 1, 46, 0));
    ("tc_sparse_er/P_plw^s/w4", 46, [ (1, [0]) ], (3, 128, 4096, 1, 138, 0));
    ("tc_dense_er/P_gld/w1", 55, [ (1, [0]) ], (6, 110, 3520, 0, 0, 0));
    ("tc_dense_er/P_gld/w4", 55, [ (1, [0]) ], (6, 241, 7712, 0, 0, 0));
    ("tc_dense_er/P_plw^s/w1", 55, [ (1, [0]) ], (3, 110, 3520, 1, 55, 0));
    ("tc_dense_er/P_plw^s/w4", 55, [ (1, [0]) ], (3, 151, 4832, 1, 165, 0));
    ("shell_edges/P_gld/w1", 62, [ (8, [11; 12; 9; 9; 9; 2; 1; 0]) ], (23, 83, 2656, 2, 11, 16));
    ("shell_edges/P_gld/w4", 62, [ (8, [11; 12; 9; 9; 9; 2; 1; 0]) ], (23, 206, 6592, 2, 33, 3));
    ("shell_edges/P_plw^s/w1", 62, [ (8, [11; 12; 9; 9; 9; 2; 1; 0]) ], (7, 83, 2656, 3, 21, 0));
    ("shell_edges/P_plw^s/w4", 62, [ (8, [11; 12; 9; 9; 9; 2; 1; 0]) ], (7, 143, 4576, 3, 63, 0));
    ("shell_edges/P_plw^pg/w1", 62, [ (8, [11; 12; 9; 9; 9; 2; 1; 0]) ], (7, 83, 2656, 3, 21, 0));
    ("shell_edges/P_plw^pg/w4", 62, [ (8, [11; 12; 9; 9; 9; 2; 1; 0]) ], (7, 143, 4576, 3, 63, 0));
    ("shell_sparse_er/P_gld/w1", 43, [ (1, [0]) ], (9, 138, 4416, 2, 49, 0));
    ("shell_sparse_er/P_gld/w4", 43, [ (1, [0]) ], (9, 251, 8032, 2, 147, 0));
    ("shell_sparse_er/P_plw^s/w1", 43, [ (1, [0]) ], (7, 138, 4416, 3, 95, 0));
    ("shell_sparse_er/P_plw^s/w4", 43, [ (1, [0]) ], (7, 209, 6688, 3, 285, 0));
    ("shell_sparse_er/P_plw^pg/w1", 43, [ (1, [0]) ], (7, 138, 4416, 3, 95, 0));
    ("shell_sparse_er/P_plw^pg/w4", 43, [ (1, [0]) ], (7, 209, 6688, 3, 285, 0));
    ("shell_term_t0/auto/w1", 62, [ (8, [11; 12; 9; 9; 9; 2; 1; 0]) ], (8, 72, 2304, 1, 10, 0));
    ("shell_term_t0/auto/w4", 62, [ (8, [11; 12; 9; 9; 9; 2; 1; 0]) ], (8, 150, 4800, 1, 30, 0));
    ("cartesian_t0/auto/w1", 100, [  ], (3, 120, 5440, 1, 10, 0));
    ("cartesian_t0/auto/w4", 100, [  ], (3, 120, 5440, 1, 30, 0));
    ("cst_zero_arity/auto/w4", 173, [  ], (5, 360, 11456, 1, 3, 0));
    ("e_zero_arity/auto/w4", 10, [  ], (4, 24, 704, 1, 3, 0));
    ("gld_antijoin/P_gld/w1", 33, [ (6, [8; 6; 4; 3; 2; 0]) ], (24, 45, 1424, 0, 0, 1));
    ("gld_antijoin/P_gld/w4", 33, [ (6, [8; 6; 4; 3; 2; 0]) ], (24, 151, 4800, 0, 0, 0));
    ("gld_antijoin/P_plw^s/w1", 33, [ (6, [8; 6; 4; 3; 2; 0]) ], (3, 43, 1376, 2, 12, 0));
    ("gld_antijoin/P_plw^s/w4", 33, [ (6, [8; 6; 4; 3; 2; 0]) ], (3, 50, 1600, 2, 36, 0));
    ("gld_cartesian/P_gld/w1", 11, [ (2, [2; 0]) ], (8, 25, 696, 1, 2, 2));
    ("gld_cartesian/P_gld/w4", 11, [ (2, [2; 0]) ], (8, 38, 1008, 1, 6, 4));
    ("gld_cartesian/P_plw^s/w1", 11, [ (2, [2; 0]) ], (4, 21, 584, 1, 2, 0));
    ("gld_cartesian/P_plw^s/w4", 11, [ (2, [8; 0]) ], (4, 33, 872, 1, 6, 0));
    ("zero_arity_fix/P_gld/w1", 1, [ (1, [0]) ], (4, 21, 656, 1, 10, 0));
    ("zero_arity_fix/P_gld/w4", 1, [ (1, [0]) ], (4, 24, 704, 1, 30, 0));
    ("zero_arity_fix/P_plw^s/w1", 1, [ (1, [0]) ], (3, 11, 336, 1, 10, 0));
    ("zero_arity_fix/P_plw^s/w4", 1, [ (1, [0]) ], (3, 14, 384, 1, 30, 0));
    (* the factorized-probe cases, recorded on the executor whose probes
       expanded every match; the P_plw^s broadcast counts re-recorded
       once a factor join that expands broadcasts its two factors *)
("factor_a_inv_a/P_gld/w1", 384, [  ], (4, 504, 16128, 1, 60, 0));
    ("factor_a_inv_a/P_gld/w4", 384, [  ], (4, 823, 26336, 1, 180, 0));
    ("factor_a_inv_a/P_plw^s/w1", 384, [  ], (4, 504, 16128, 1, 60, 0));
    ("factor_a_inv_a/P_plw^s/w4", 384, [  ], (4, 823, 26336, 1, 180, 0));
    ( "factor_a_inv_a_closure_b_closure/P_gld/w1", 760,
      [ (7, [368; 312; 240; 168; 96; 32; 0]); (10, [21; 22; 22; 20; 18; 16; 11; 7; 2; 0]) ],
      (46, 1121, 35872, 3, 280, 1753) );
    ( "factor_a_inv_a_closure_b_closure/P_gld/w4", 760,
      [ (7, [368; 312; 240; 168; 96; 32; 0]); (10, [21; 22; 22; 20; 18; 16; 11; 7; 2; 0]) ],
      (46, 10252, 328064, 3, 840, 3505) );
    ( "factor_a_inv_a_closure_b_closure/P_plw^s/w1", 760,
      [ (7, [368; 312; 240; 168; 96; 32; 0]); (10, [21; 22; 22; 20; 18; 16; 11; 7; 2; 0]) ],
      (8, 1061, 33952, 5, 361, 0) );
    ( "factor_a_inv_a_closure_b_closure/P_plw^s/w4", 760,
      [ (7, [368; 312; 240; 168; 96; 32; 0]); (10, [21; 22; 22; 20; 18; 16; 11; 7; 2; 0]) ],
      (8, 1698, 54336, 5, 1083, 0) );
    ( "factor_key_filter/P_gld/w1", 136,
      [ (8, [23; 24; 21; 17; 16; 10; 4; 0]) ],
      (23, 277, 8864, 1, 60, 163) );
    ( "factor_key_filter/P_gld/w4", 136,
      [ (8, [23; 24; 21; 17; 16; 10; 4; 0]) ],
      (23, 1316, 42112, 1, 180, 133) );
    ( "factor_key_filter/P_plw^s/w1", 136,
      [ (8, [23; 24; 21; 17; 16; 10; 4; 0]) ],
      (3, 157, 5024, 2, 120, 0) );
    ( "factor_key_filter/P_plw^s/w4", 136,
      [ (8, [23; 24; 21; 17; 16; 10; 4; 0]) ],
      (3, 177, 5664, 2, 360, 0) );
    ("factor_key_kept/P_gld/w1", 392, [ (3, [169; 202; 0]) ], (13, 533, 17056, 1, 60, 579));
    ("factor_key_kept/P_gld/w4", 392, [ (3, [169; 202; 0]) ], (13, 1787, 57184, 1, 180, 567));
    ("factor_key_kept/P_plw^s/w1", 392, [ (3, [169; 202; 0]) ], (3, 413, 13216, 2, 120, 0));
    ( "factor_key_kept/P_plw^s/w4", 392,
      [ (5, [192; 867; 400; 64; 0]) ],
      (3, 1570, 50240, 2, 360, 0) );
    ( "factor_antijoin_after/P_gld/w1", 1508,
      [ (7, [340; 290; 222; 152; 88; 32; 0]) ],
      (30, 1691, 54088, 2, 120, 1612) );
    ( "factor_antijoin_after/P_gld/w4", 1508,
      [ (7, [340; 290; 222; 152; 88; 32; 0]) ],
      (30, 12105, 387312, 2, 360, 1612) );
    ( "factor_antijoin_after/P_plw^s/w1", 1508,
      [ (7, [340; 290; 222; 152; 88; 32; 0]) ],
      (5, 1628, 52096, 4, 183, 0) );
    ( "factor_antijoin_after/P_plw^s/w4", 1508,
      [ (7, [340; 290; 222; 152; 88; 32; 0]) ],
      (5, 2245, 71840, 4, 549, 0) );
    (* the factor-join lowering cases, recorded on the executor that
       probed every factor join's composition; the P_plw^s broadcast
       counts of hub, right_first and capture re-recorded once their
       factors were broadcast instead (selective keeps its composition) *)
    ("lower_hub/P_gld/w1", 900, [ (3, [320; 320; 0]) ], (13, 1020, 32640, 2, 80, 920));
    ("lower_hub/P_gld/w4", 900, [ (3, [320; 320; 0]) ], (13, 4605, 147360, 2, 240, 1480));
    ("lower_hub/P_plw^s/w1", 900, [ (3, [320; 320; 0]) ], (5, 980, 31360, 3, 120, 0));
    ("lower_hub/P_plw^s/w4", 900, [ (3, [320; 320; 0]) ], (5, 1396, 44672, 3, 360, 0));
    ( "lower_selective/P_gld/w1", 67,
      [ (11, [10; 9; 8; 7; 6; 5; 4; 3; 2; 1; 0]) ],
      (30, 116, 3712, 2, 24, 0) );
    ( "lower_selective/P_gld/w4", 67,
      [ (11, [10; 9; 8; 7; 6; 5; 4; 3; 2; 1; 0]) ],
      (30, 232, 7424, 2, 72, 0) );
    ( "lower_selective/P_plw^s/w1", 67,
      [ (11, [10; 9; 8; 7; 6; 5; 4; 3; 2; 1; 0]) ],
      (6, 104, 3328, 2, 24, 0) );
    ( "lower_selective/P_plw^s/w4", 67,
      [ (11, [10; 9; 8; 7; 6; 5; 4; 3; 2; 1; 0]) ],
      (6, 122, 3904, 2, 72, 0) );
    ("lower_right_first/P_gld/w1", 33, [ (3, [24; 4; 0]) ], (14, 88, 2816, 1, 15, 36));
    ("lower_right_first/P_gld/w4", 33, [ (3, [24; 4; 0]) ], (14, 338, 10816, 1, 45, 24));
    ("lower_right_first/P_plw^s/w1", 33, [ (3, [24; 4; 0]) ], (3, 38, 1216, 2, 35, 0));
    ("lower_right_first/P_plw^s/w4", 33, [ (3, [24; 4; 0]) ], (3, 41, 1312, 2, 105, 0));
    ("lower_capture/P_gld/w1", 900, [ (3, [320; 320; 0]) ], (13, 1020, 32640, 2, 80, 920));
    ("lower_capture/P_gld/w4", 900, [ (3, [320; 320; 0]) ], (13, 4605, 147360, 2, 240, 1480));
    ("lower_capture/P_plw^s/w1", 900, [ (3, [320; 320; 0]) ], (5, 980, 31360, 3, 120, 0));
    ("lower_capture/P_plw^s/w4", 900, [ (3, [320; 320; 0]) ], (5, 1396, 44672, 3, 360, 0));
  ]

let run_pinned ?force_plan ?(threshold = -1) ~workers name term tables =
  let key =
    Printf.sprintf "%s/%s/w%d" name
      (match force_plan with None -> "auto" | Some p -> Exec.plan_name p)
      workers
  in
  let cluster = Cluster.make ~workers () in
  let base = Exec.default_config cluster in
  let config =
    {
      base with
      force_plan;
      broadcast_threshold = (if threshold < 0 then base.Exec.broadcast_threshold else threshold);
    }
  in
  let ctx = Exec.session config tables in
  let r = Exec.run ctx term in
  check_rel (key ^ ": Mura.Eval agreement") (Mura.Eval.eval (Mura.Eval.env tables) term) r;
  let sigs =
    List.rev_map (fun (fr : Exec.fix_report) -> (fr.iterations, fr.deltas)) (Exec.report ctx).fixpoints
  in
  match List.find_opt (fun (k, _, _, _) -> String.equal k key) pins with
  | None ->
    (* print the run's pin row, for recording *)
    let a, b, c, d, e, f = counters (Exec.metrics ctx) in
    let ints l = String.concat "; " (List.map string_of_int l) in
    Alcotest.failf "no pin for %s; this run: (%S, %d, [ %s ], (%d, %d, %d, %d, %d, %d))" key key
      (Rel.cardinal r)
      (String.concat "; " (List.map (fun (i, ds) -> Printf.sprintf "(%d, [%s])" i (ints ds)) sigs))
      a b c d e f
  | Some (_, n, pinned_sigs, pinned_counters) ->
    check_int (key ^ ": result size") n (Rel.cardinal r);
    check_bool (key ^ ": iterations and delta curves") true (sigs = pinned_sigs);
    check_bool (key ^ ": communication counters") true
      (counters (Exec.metrics ctx) = pinned_counters)

let pin_matrix ?(plans = [ Exec.P_gld; Exec.P_plw_s ]) name term tables =
  List.iter
    (fun plan ->
      List.iter (fun workers -> run_pinned ~force_plan:plan ~workers name term tables) [ 1; 4 ])
    plans

(* --- EXPLAIN ANALYZE ------------------------------------------------- *)

(* an analyzed run: the plain run under a fresh tracer, its events folded
   into the annotated tree *)
let analyzed ?force_plan ?(tables = [ ("E", edges) ]) term =
  let ctx = session_on ?force_plan tables in
  let tr = Trace.make () in
  Trace.install tr;
  let r = Fun.protect ~finally:Trace.uninstall (fun () -> Exec.run ctx term) in
  (ctx, r, Exec.Analyze.tree ctx (Trace.events tr) term)

let run_counters ctx =
  let m = Exec.metrics ctx in
  (counters m, m.Metrics.supersteps, m.Metrics.stages)

let test_analyze_no_observable_effect () =
  List.iter
    (fun plan ->
      List.iter
        (fun term ->
          let plain = session ~force_plan:plan () in
          let r_plain = Exec.run plain term in
          let ctx, r_analyzed, _ = analyzed ~force_plan:plan term in
          check_rel "same result" r_plain r_analyzed;
          check_bool "same fixpoint reports" true
            ((Exec.report plain).fixpoints = (Exec.report ctx).fixpoints);
          check_bool "same counters" true (run_counters plain = run_counters ctx))
        [ closure_term; shell_term ])
    [ Exec.P_gld; Exec.P_plw_s; Exec.P_plw_pg ]

let test_analyze_root_actual () =
  List.iter
    (fun plan ->
      List.iter
        (fun term ->
          let _, result, tree = analyzed ~force_plan:plan term in
          check_bool "root actual rows = |result|" true
            (tree.Exec.Analyze.rows = Some (Rel.cardinal result));
          check_bool "root timed" true (tree.Exec.Analyze.ns > 0.);
          check_int "root evaluated once" 1 tree.Exec.Analyze.calls)
        [ closure_term; shell_term ])
    [ Exec.P_gld; Exec.P_plw_s; Exec.P_plw_pg ]

(* a Fix node reports its fix_report, and each recursive branch node is
   applied once per iteration, its rows summed over them *)
let test_analyze_deltas () =
  List.iter
    (fun plan ->
      let ctx, _, tree = analyzed ~force_plan:plan closure_term in
      match (Exec.report ctx).fixpoints with
      | [ fr ] ->
        check_int "one delta per iteration" fr.iterations (List.length fr.deltas);
        check_bool "terminating empty delta" true (List.nth fr.deltas (fr.iterations - 1) = 0);
        check_bool "fix node rows" true (tree.Exec.Analyze.rows = Some fr.result_size);
        check_int "fix node iterations" fr.iterations tree.Exec.Analyze.iterations;
        check_bool "fix node deltas" true (tree.Exec.Analyze.deltas = fr.deltas);
        (match tree.Exec.Analyze.children with
        | [ seed; branch ] ->
          check_bool "seed evaluated once" true (seed.Exec.Analyze.calls = 1);
          check_int "branch applied once per iteration" fr.iterations branch.Exec.Analyze.calls;
          check_bool "branch rows recorded" true (branch.Exec.Analyze.rows <> None)
        | l -> Alcotest.failf "expected seed and branch children, got %d" (List.length l))
      | l -> Alcotest.failf "expected one fixpoint report, got %d" (List.length l))
    [ Exec.P_gld; Exec.P_plw_s ]

(* P_plw^pg runs one local route: EXPLAIN names the local fixpoint each
   worker's database runs (its seed partition [__seed] unioned with the
   recursive branches), and the plain and analyzed runs both return
   Mura.Eval's relation *)
let test_analyze_plw_pg_local () =
  List.iter
    (fun term ->
      let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) term in
      let local =
        match term with
        | Term.Fix (x, body) ->
          let _, recs = Mura.Fcond.split ~var:x body in
          Term.to_string (Term.Fix (x, Term.union_all (Term.Rel "__seed" :: recs)))
        | _ -> Alcotest.fail "expected a fixpoint"
      in
      let explained = Exec.explain (session ~force_plan:Exec.P_plw_pg ()) term in
      check_bool "local fixpoint named" true
        (contains_sub explained ("local fixpoint on each worker's database: " ^ local));
      check_rel "plain run" expected (Exec.run (session ~force_plan:Exec.P_plw_pg ()) term);
      let _, traced, _ = analyzed ~force_plan:Exec.P_plw_pg term in
      check_rel "analyzed run" expected traced)
    (closure_term :: cst_branch_fixpoint :: zero_arity_fixpoints)

let test_analyze_render () =
  let _, _, tree = analyzed closure_term in
  let rendered =
    Exec.Analyze.render ~annot:(fun path -> if path = "0" then "est=42 err=2.00" else "") tree
  in
  check_bool "has actual rows" true (contains_sub rendered "rows=");
  check_bool "annot injected" true (contains_sub rendered "est=42 err=2.00");
  check_bool "has iteration counts" true (contains_sub rendered "iters=");
  check_bool "has delta curve" true (contains_sub rendered "deltas=[");
  check_bool "has per-branch calls" true (contains_sub rendered "calls=")

(* --- delta maintenance / iteration-shuffle dedup ---------------------- *)

(* The in-place accumulator and the map-side seen filter are pure
   optimisations: on every semi-naive plan and worker count the result
   matches the centralized oracle, and the delta curves and counters
   match their pins (each curve ends with its empty iteration). *)
let test_fused_parity () =
  pin_matrix "closure" closure_term [ ("E", edges) ];
  pin_matrix "same_gen" (Mura.Patterns.same_generation ()) [ ("E", edges) ]

let exec_run ?force_plan ?(workers = 4) term tables =
  let ctx = session_on ?force_plan ~workers tables in
  let result = Exec.run ctx term in
  (result, (Exec.report ctx).fixpoints, counters (Exec.metrics ctx))

(* a fixpoint whose very first iteration derives nothing new *)
let test_fused_empty_first_delta () =
  let self = rel [ "src"; "trg" ] [ [ 1; 1 ]; [ 2; 2 ] ] in
  List.iter
    (fun plan ->
      let r, reports, _ = exec_run ~force_plan:plan closure_term [ ("E", self) ] in
      check_rel "fixpoint of self-loops = E" self r;
      match reports with
      | [ fr ] ->
        check_int "terminates in one iteration" 1 fr.iterations;
        check_bool "first delta empty" true (fr.deltas = [ 0 ])
      | _ -> Alcotest.fail "expected exactly one fixpoint report")
    [ Exec.P_gld; Exec.P_plw_s ]

(* on P_gld the seen filter must drop re-derivations from the iteration
   shuffles (transitive closure re-derives pairs every round) without
   changing the result *)
let test_dedup_reduces_gld_shuffle () =
  let r, _, (_, _, _, _, _, dropped) =
    exec_run ~force_plan:Exec.P_gld closure_term [ ("E", edges) ]
  in
  check_rel "closure while counting" expected_closure r;
  check_bool "re-derivations dropped" true (dropped > 0)

(* --- compiled columnar execution ------------------------------------- *)

let test_counter_pins () =
  List.iter
    (fun (gname, g) -> pin_matrix ("tc_" ^ gname) closure_term [ ("E", g) ])
    [
      ("path", rel [ "src"; "trg" ] (List.init 60 (fun i -> [ i; i + 1 ])));
      ("sparse_er", er_graph ~n:40 ~m:60 ~seed:7);
      ("dense_er", er_graph ~n:18 ~m:90 ~seed:23);
    ]

(* every F_cond branch compiles: P_gld's shuffle antijoin co-partitions
   its constant side once, its cartesian join broadcasts the constant
   side once, and a zero-arity accumulator runs as width-0 batches *)
let test_compiled_branch_shapes () =
  pin_matrix "gld_antijoin" antijoin_fix [ ("E", edges); ("B", blocked) ];
  pin_matrix "gld_cartesian" cartesian_fix
    [ ("E", edges); ("S", rel [ "src"; "trg" ] [ [ 40; 41 ]; [ 42; 43 ] ]) ];
  pin_matrix "zero_arity_fix" zero_arity_fix [ ("E", edges) ]

(* the one-time compiler accepts the TC step shape and raises the tree
   walk's errors on shapes outside F_cond's normal form *)
let test_compiled_engagement () =
  let cluster = Cluster.make ~workers:2 () in
  let edges_schema = sch [ "src"; "trg" ] in
  let eval t = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) t in
  let compile recs =
    ignore
      (Physical.Pipeline.compile ~cluster ~var:"X" ~join_mode:`Broadcast ~x_schema:edges_schema
         ~exec_const:(fun ~path:_ t -> Distsim.Dds.of_rel cluster (eval t))
         ~eval_const:(fun ~path:_ t -> eval t)
         ~branch_path:(fun i -> "0." ^ string_of_int i)
         recs)
  in
  compile [ compose (Term.Var "X") (Term.Rel "E") ];
  let raises what recs =
    match compile recs with
    | () -> Alcotest.failf "%s must raise" what
    | exception Mura.Eval.Eval_error _ -> ()
  in
  raises "nested union" [ Term.Union (Term.Var "X", Term.Rel "E") ];
  raises "nested fixpoint" [ Mura.Patterns.closure (Term.Var "X") ];
  raises "foreign variable" [ compose (Term.Var "X") (Term.Var "Y") ];
  raises "branch without the variable" [ Term.Rel "E" ]

(* shapes that are not F_cond or not well-typed raise the same
   exceptions on every plan *)
let test_error_shapes () =
  let x = Term.Var "X" in
  let cases =
    [
      ("free variable", x, `Eval);
      ("unknown relation", Term.Rel "F", `Eval);
      ("unknown column", Term.Select (Pred.Eq_const ("zz", 1), Term.Rel "E"), `Schema);
      ("union schema mismatch", Term.Union (Term.Rel "E", Term.Rename ([ ("src", "a") ], Term.Rel "E")), `Schema);
      ("non-linear", Term.Fix ("X", Term.Union (Term.Rel "E", compose x x)), `Not_fcond);
      ("non-positive", Term.Fix ("X", Term.Union (Term.Rel "E", Term.Antijoin (Term.Rel "E", x))), `Not_fcond);
      ("foreign variable", Term.Fix ("X", Term.Union (Term.Rel "E", compose x (Term.Var "Y"))), `Eval);
      ( "nested fixpoint",
        Term.Fix ("X", Term.Union (Term.Rel "E", Term.Fix ("Y", Term.Union (x, compose (Term.Var "Y") (Term.Rel "E"))))),
        `Not_fcond );
      ("branch schema mismatch", Term.Fix ("X", Term.Union (Term.Rel "E", Term.Rename ([ ("trg", "z") ], x))), `Schema);
      ("branch typing", Term.Fix ("X", Term.Union (Term.Rel "E", Term.Select (Pred.Eq_const ("zz", 1), x))), `Schema);
    ]
  in
  List.iter
    (fun (name, term, expected) ->
      List.iter
        (fun force_plan ->
          let ctx = session_on ?force_plan ~workers:2 [ ("E", edges) ] in
          let got =
            match Exec.run ctx term with
            | _ -> `Ok
            | exception Mura.Eval.Eval_error _ -> `Eval
            | exception Mura.Fcond.Not_fcond _ -> `Not_fcond
            | exception Schema.Schema_error _ -> `Schema
          in
          check_bool (name ^ " raises its error") true (got = expected))
        [ None; Some Exec.P_gld; Some Exec.P_plw_s; Some Exec.P_plw_pg ])
    cases

let test_explain_exec_mode () =
  let ctx = session () in
  check_bool "execution mode shown" true
    (contains_sub (Exec.explain ctx closure_term) "Execution: compiled columnar")

(* --- compiled shell (whole-plan columnar execution) ------------------- *)

module Sh = Physical.Pipeline.Shell

(* results match the oracle and the counters their pins on all three
   fixpoint plans (P_plw^pg's local fixpoints running on each worker's
   database) and every worker count *)
let test_shell_parity () =
  List.iter
    (fun (gname, g) ->
      pin_matrix ~plans:[ Exec.P_gld; Exec.P_plw_s; Exec.P_plw_pg ] ("shell_" ^ gname) shell_term
        [ ("E", g) ])
    [ ("edges", edges); ("sparse_er", er_graph ~n:40 ~m:60 ~seed:7) ]

(* broadcast_threshold = 0 forces every shell join/antijoin onto the
   shuffle paths (including the above-threshold cartesian join) *)
let test_shell_shuffle_parity () =
  List.iter
    (fun (tname, term) ->
      List.iter
        (fun workers -> run_pinned ~threshold:0 ~workers (tname ^ "_t0") term [ ("E", edges) ])
        [ 1; 4 ])
    [ ("shell_term", shell_term); ("cartesian", cartesian_term) ]

(* a zero-arity subtree runs as width-0 batches: the result matches and
   the counters match their pin *)
let test_shell_zero_arity () =
  run_pinned ~workers:4 "e_zero_arity"
    (Term.Join (Term.Rel "E", Term.Project ([], Term.Rel "E")))
    [ ("E", edges) ]

(* each constant is distributed once: the counters match their pin *)
let test_shell_no_double_const_eval () =
  let big = er_graph ~n:50 ~m:200 ~seed:3 in
  run_pinned ~workers:4 "cst_zero_arity"
    (Term.Join (Term.Cst big, Term.Project ([], Term.Rel "E")))
    [ ("E", edges) ]

let test_shell_explain () =
  let ctx = session () in
  let t = Term.Select (Pred.Gt_const ("src", 2), Term.Project ([ "src" ], closure_term)) in
  let text = Exec.explain ctx t in
  check_bool "operators listed" true
    (contains_sub text "Filter [" && contains_sub text "Project [src] + Distinct");
  check_bool "fixpoint plan listed" true (contains_sub text "Fixpoint ");
  let ctx3 = session ~force_plan:Exec.P_plw_pg () in
  let text3 = Exec.explain ctx3 closure_term in
  check_bool "P_plw^pg local fixpoint" true
    (contains_sub text3 "local fixpoint on each worker's database: ");
  check_bool "P_plw^pg branch join" true (contains_sub text3 "Join (broadcast probe)");
  check_bool "P_plw^pg: no local-database note" false (contains_sub text3 "local database");
  (* a variable part names the lowering of its branch operators, never
     the shell's size rule *)
  let explained plan t = Exec.explain (session ~force_plan:plan ()) t in
  let has plan t needle = contains_sub (explained plan t) needle in
  let size_rule = "broadcast if a side" in
  check_bool "P_gld branch join" true
    (has Exec.P_gld closure_term "Join (co-partitioned probe on [");
  check_bool "P_plw^s branch join" true (has Exec.P_plw_s closure_term "Join (broadcast probe)");
  List.iter
    (fun plan ->
      check_bool (Exec.plan_name plan ^ ": no size rule") false (has plan closure_term size_rule))
    [ Exec.P_gld; Exec.P_plw_s; Exec.P_plw_pg ];
  check_bool "P_gld branch join without a shared column" true
    (has Exec.P_gld (List.hd zero_arity_fixpoints) "Join (broadcast probe: no shared column)");
  let step =
    Term.Antiproject
      ( [ "_k" ],
        Term.Join
          (Term.Rename ([ ("trg", "_k") ], Term.Var "X"), Term.Rename ([ ("src", "_k") ], Term.Rel "E"))
      )
  in
  let anti side = Term.Fix ("X", Term.Union (Term.Rel "E", Term.Antijoin (step, side))) in
  let by_src = anti (Term.Project ([ "src" ], Term.Rel "E")) in
  check_bool "P_gld branch antijoin" true
    (has Exec.P_gld by_src "AntiJoin (co-partitioned probe on [src])");
  check_bool "P_gld branch antijoin without a shared column" true
    (has Exec.P_gld (anti (Term.Project ([], Term.Rel "E"))) "AntiJoin (emptiness test: no shared column)");
  check_bool "P_plw^s branch antijoin" true (has Exec.P_plw_s by_src "AntiJoin (broadcast probe)");
  (* a filtered composition is no factor join: P_plw^s evaluates it on
     the driver and broadcasts the result *)
  let filtered =
    Mura.Patterns.closure
      (Term.Select (Pred.Gt_const ("src", 0), Mura.Patterns.compose (Term.Rel "E") (Term.Rel "E")))
  in
  check_bool "P_plw^s constant-side join" true
    (has Exec.P_plw_s filtered "Join (evaluated on the driver)")

(* capacity-hint audit: the batch paths presize every output, so the
   shell's materialize/union/to_dds never trigger an insert-time rehash *)
let test_compiled_batch_no_rehash () =
  let g = er_graph ~n:30 ~m:120 ~seed:11 in
  let cluster = Cluster.make ~workers:2 () in
  let d = Distsim.Dds.of_rel cluster g in
  let c0 = Sh.of_dds cluster d in
  Tset.reset_rehash_grows ();
  let m =
    Sh.materialize cluster (Sh.project [ "src" ] (Sh.filter (Pred.Lt_const ("src", 15)) c0))
  in
  ignore (Sh.to_dds cluster (Sh.union cluster m m));
  check_int "no insert-triggered rehash in shell materialize/union" 0 (Tset.rehash_grow_count ())

(* --- factorized probes ------------------------------------------------- *)

(* keyword-like relation A(src, trg): nodes 0-39, node i holding the
   keywords of position i mod 20 — so i and i + 20 have equal keyword
   sets (equal match groups under a/-a, one on each side of 19.5). The
   positions form blocks of three sharing keyword 100 + block; each
   block's first position also holds the next block's keyword, which
   chains the blocks (a long closure). Positions 17-19 share a hub
   keyword (a skewed group). *)
let kw_graph =
  rel [ "src"; "trg" ]
    (List.concat
       (List.init 40 (fun i ->
            let p = i mod 20 in
            [ [ i; 100 + (p / 3) ] ]
            @ (if p mod 3 = 0 then [ [ i; 101 + (p / 3) ] ] else [])
            @ if p >= 17 then [ [ i; 99 ] ] else [])))

let chain_graph =
  rel [ "src"; "trg" ]
    (List.init 15 (fun i -> [ i; i + 1 ]) @ List.init 6 (fun i -> [ 3 * i; i * 7 mod 40 ]))

let inv r = Term.Rename ([ ("src", "trg"); ("trg", "src") ], r)

(* a/-a: pairs of nodes sharing a keyword *)
let a_inv_a = Mura.Patterns.compose (Term.Rel "A") (inv (Term.Rel "A"))

(* seed ∪ X ⋈ a/-a on X.trg = _k, with [over] applied to the (src, _k,
   trg) join before it is cut back to (src, trg) *)
let step_fix ?(seed = a_inv_a) over =
  Term.Fix
    ( "X",
      Term.Union
        ( seed,
          over
            (Term.Join
               ( Term.Rename ([ ("trg", "_k") ], Term.Var "X"),
                 Term.Rename ([ ("src", "_k") ], a_inv_a) )) ) )

let factor_cases =
  [
    ("a_inv_a", a_inv_a);
    ( "a_inv_a_closure_b_closure",
      Mura.Patterns.compose (Mura.Patterns.closure a_inv_a)
        (Mura.Patterns.closure (Term.Rel "B")) );
    (* the filter reads the join key, so every input column stays live;
       it splits every class of equal groups *)
    ( "key_filter",
      step_fix ~seed:(Term.Rel "B") (fun j ->
          Term.Antiproject ([ "_k" ], Term.Select (Pred.Gt_const ("_k", 19), j))) );
    (* the key is kept and [src] dropped: factored on (_k, group) *)
    ( "key_kept",
      step_fix ~seed:(Term.Rel "B") (fun j ->
          Term.Rename ([ ("_k", "src") ], Term.Project ([ "_k"; "trg" ], j))) );
    (* an antijoin after the factored probe *)
    ( "antijoin_after",
      step_fix (fun j ->
          Term.Antijoin
            ( Term.Antiproject ([ "_k" ], j),
              Term.Rename ([ ("src", "trg") ], Term.Project ([ "src" ], Term.Rel "S")) )) );
  ]

let factor_tables =
  [ ("A", kw_graph); ("B", chain_graph); ("S", rel [ "src" ] [ [ 5 ]; [ 17 ]; [ 33 ] ]) ]

(* Results match Mura.Eval, and iterations, delta curves and
   communication counters match the pins (recorded on the unfactorized
   executor), on P_gld and P_plw^s with 1 and 4 workers. *)
let test_factorized_parity () =
  List.iter (fun (name, term) -> pin_matrix ("factor_" ^ name) term factor_tables) factor_cases

(* The (a/-a)+ branch's candidates (rows its chain emits into the dedup
   builder, summed over iterations): pinned, with the counts of the
   chain that expanded every match and of the chain that probed the
   composed a/-a beside it. A change that undoes the factorization or
   the factor probes brings the pin back up to one of them. *)
let test_factorized_candidates () =
  let term = Mura.Patterns.closure a_inv_a in
  let ctx, r, tree = analyzed ~force_plan:Exec.P_plw_s ~tables:factor_tables term in
  check_rel "closure = Mura.Eval" (Mura.Eval.eval (Mura.Eval.env factor_tables) term) r;
  match tree.Exec.Analyze.children with
  | [ _seed; branch ] ->
    check_int "branch applied once per iteration"
      (List.hd (Exec.report ctx).fixpoints).iterations branch.Exec.Analyze.calls;
    (* 15360 when every match expands, 5360 probing the composed a/-a *)
    check_int "branch candidates" 4268 (Option.value ~default:(-1) branch.Exec.Analyze.candidates)
  | l -> Alcotest.failf "expected seed and branch children, got %d" (List.length l)

(* --- factor probes ------------------------------------------------------- *)

(* H: 30 nodes over five keywords 100-104, nodes 0-9 also on a hub
   keyword 99. F, G: functions, so F/G never expands. S, B, C: B is
   many-to-one onto 0-2, C fans each of 0-2 out to five nodes. *)
let hub_graph =
  rel [ "src"; "trg" ]
    (List.init 30 (fun i -> [ i; 100 + (i mod 5) ]) @ List.init 10 (fun i -> [ i; 99 ]))

let lowering_tables =
  [
    ("H", hub_graph);
    ("F", rel [ "src"; "trg" ] (List.init 12 (fun i -> [ i; i + 1 ])));
    ("G", rel [ "src"; "trg" ] (List.init 13 (fun i -> [ i; 2 * i mod 13 ])));
    ("S", rel [ "src"; "trg" ] (List.init 5 (fun i -> [ i; i + 1 ])));
    ("B", rel [ "src"; "trg" ] (List.init 20 (fun k -> [ k; k mod 3 ])));
    ("C", rel [ "src"; "trg" ] (List.concat (List.init 3 (fun m -> List.init 5 (fun j -> [ m; ((7 * m) + (3 * j)) mod 20 ])))));
  ]

let h_inv_h = Mura.Patterns.compose (Term.Rel "H") (inv (Term.Rel "H"))

(* Each case with the lowering its P_plw^s factor join must name. *)
let lowering_cases =
  [
    (* co-keyword pairs through a hub keyword: the join expands *)
    ("hub", Mura.Patterns.closure h_inv_h, "factor probes: left then right factor");
    (* F/G is no larger than F: the composition is probed *)
    ( "selective",
      Mura.Patterns.closure (Mura.Patterns.compose (Term.Rel "F") (Term.Rel "G")),
      "composed probe: join sum" );
    (* X.trg = B.src, B.trg = C.src: the delta side shares _k with the
       right factor only, which must be probed first *)
    ( "right_first",
      Term.Fix
        ( "X",
          Term.Union
            ( Term.Rel "S",
              Term.Antiproject
                ( [ "_k" ],
                  Term.Join
                    ( Term.Rename ([ ("trg", "_k") ], Term.Var "X"),
                      Term.Antiproject
                        ( [ "_m" ],
                          Term.Join
                            ( Term.Rename ([ ("src", "_m") ], Term.Rel "C"),
                              Term.Rename ([ ("src", "_k"); ("trg", "_m") ], Term.Rel "B") ) ) ) ) ) ),
      "factor probes: right then left factor" );
    (* the delta side's join column _m is also the name of the inner
       column the factor join drops *)
    ( "capture",
      Term.Fix ("X", Term.Union (compose (Term.Rel "H") (inv (Term.Rel "H")), compose (Term.Var "X") (compose (Term.Rel "H") (inv (Term.Rel "H"))))),
      "factor probes: left then right factor" );
  ]

let rec find_lowering (n : Exec.Analyze.node) =
  match n.lowering with
  | Some l -> Some l
  | None -> List.find_map find_lowering n.children

(* Each case agrees with Mura.Eval and its pins on P_gld and P_plw^s with
   1 and 4 workers, and EXPLAIN and EXPLAIN ANALYZE name the lowering of
   its factor join. *)
let test_factor_lowering () =
  List.iter
    (fun (name, term, note) ->
      let key = "lower_" ^ name in
      pin_matrix key term lowering_tables;
      let explained = Exec.explain (session_on ~force_plan:Exec.P_plw_s lowering_tables) term in
      check_bool (name ^ ": EXPLAIN names the lowering") true (contains_sub explained note);
      let _, _, tree = analyzed ~force_plan:Exec.P_plw_s ~tables:lowering_tables term in
      check_bool (name ^ ": EXPLAIN ANALYZE names the lowering") true
        (match find_lowering tree with Some l -> contains_sub l note | None -> false))
    lowering_cases

(* --- one broadcast lowering for both P_plw plans ------------------------ *)

(* Forced P_plw^s and P_plw^pg differ only in the local evaluator: the
   same constant sides are evaluated and broadcast ([broadcasts] and
   [broadcast_records] equal), and every fixpoint reports the same
   iterations, delta curve and result size, on the closure, the factor
   cases, the factor-join lowering cases and Q1-Q49 (optimized, on the
   graphs of the harness's "Q1-Q49 agree with Mura.Eval"), with 1 and 4
   workers (4 only for Q1-Q49). *)
let test_plw_same_lowering () =
  let run plan ~workers term tables =
    let ctx = session_on ~force_plan:plan ~workers tables in
    let r = Exec.run ctx term in
    let m = Exec.metrics ctx in
    let fixes =
      List.map
        (fun (fr : Exec.fix_report) -> (fr.fix_path, fr.iterations, fr.deltas, fr.result_size))
        (Exec.report ctx).fixpoints
    in
    (r, (m.Metrics.broadcasts, m.Metrics.broadcast_records), fixes)
  in
  let check ~workers name term tables =
    let id = Printf.sprintf "%s/w%d" name workers in
    let r_s, b_s, f_s = run Exec.P_plw_s ~workers term tables in
    let r_pg, b_pg, f_pg = run Exec.P_plw_pg ~workers term tables in
    check_rel (id ^ ": same result") r_s r_pg;
    check_bool (id ^ ": same broadcasts and broadcast records") true (b_s = b_pg);
    check_bool (id ^ ": same iterations, deltas and result sizes") true (f_s = f_pg)
  in
  List.iter
    (fun workers ->
      check ~workers "closure" closure_term [ ("E", edges) ];
      List.iter (fun (name, term) -> check ~workers ("factor_" ^ name) term factor_tables) factor_cases;
      List.iter
        (fun (name, term, _) -> check ~workers ("lower_" ^ name) term lowering_tables)
        lowering_cases)
    [ 1; 4 ];
  let corpus graph specs =
    let tables = [ ("E", graph) ] in
    List.iter
      (fun (q : Harness.Queries.spec) ->
        let term = Rpq.Query.union_to_term (Rpq.Query.parse_union q.text) in
        check ~workers:4 q.id (Harness.Systems.optimize tables term) tables)
      specs
  in
  corpus (Graphgen.Yago_like.generate ~seed:1 ~scale:300 ()) Harness.Queries.yago;
  let u = Graphgen.Uniprot_like.generate ~seed:2 ~scale:300 () in
  corpus u (Harness.Queries.uniprot u)

let () =
  Alcotest.run "physical"
    [
      ( "analyze",
        [
          Alcotest.test_case "results bit-identical with analyze" `Quick
            test_analyze_no_observable_effect;
          Alcotest.test_case "root actual = result cardinality" `Quick test_analyze_root_actual;
          Alcotest.test_case "fixpoint deltas recorded" `Quick test_analyze_deltas;
          Alcotest.test_case "plw_pg local fixpoint" `Quick test_analyze_plw_pg_local;
          Alcotest.test_case "render" `Quick test_analyze_render;
        ] );
      ( "plans",
        [
          Alcotest.test_case "P_gld" `Quick (test_plan_agreement (Some Exec.P_gld));
          Alcotest.test_case "P_plw^s" `Quick (test_plan_agreement (Some Exec.P_plw_s));
          Alcotest.test_case "P_plw^pg" `Quick (test_plan_agreement (Some Exec.P_plw_pg));
          Alcotest.test_case "auto selection" `Quick (test_plan_agreement None);
          Alcotest.test_case "P_plw^s and P_plw^pg share the broadcast lowering" `Quick
            test_plw_same_lowering;
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
          Alcotest.test_case "counter pins" `Quick test_counter_pins;
          Alcotest.test_case "every F_cond branch compiles" `Quick test_compiled_branch_shapes;
          Alcotest.test_case "compiler engagement" `Quick test_compiled_engagement;
          Alcotest.test_case "error shapes keep their exceptions" `Quick test_error_shapes;
          Alcotest.test_case "explain shows execution mode" `Quick test_explain_exec_mode;
        ] );
      ( "compiled shell",
        [
          Alcotest.test_case "shell parity (all plans)" `Quick test_shell_parity;
          Alcotest.test_case "shuffle/cartesian shell parity" `Quick test_shell_shuffle_parity;
          Alcotest.test_case "zero-arity subtree compiles" `Quick test_shell_zero_arity;
          Alcotest.test_case "no double const evaluation" `Quick test_shell_no_double_const_eval;
          Alcotest.test_case "explain annotates subtrees" `Quick test_shell_explain;
          Alcotest.test_case "zero-rehash capacity audit" `Quick test_compiled_batch_no_rehash;
        ] );
      ( "factorized",
        [
          Alcotest.test_case "parity and pinned counters" `Quick test_factorized_parity;
          Alcotest.test_case "pinned candidates" `Quick test_factorized_candidates;
          Alcotest.test_case "factor-join lowering" `Quick test_factor_lowering;
        ] );
      ("properties", [ prop_all_plans_agree; prop_reach_all_plans; prop_random_terms_all_plans ]);
    ]
