(* Tests for the local (PostgreSQL stand-in) engine: the volcano executor
   and the recursive work-table loop, checked against the mura
   evaluator. *)

open Relation
module Term = Mura.Term

let sch = Schema.of_list
let rel schema rows = Rel.of_list (sch schema) rows

let check_rel msg expected actual =
  if not (Rel.equal expected actual) then
    Alcotest.failf "%s:@.expected %a@.got %a" msg Rel.pp_full expected Rel.pp_full actual

let edges = rel [ "src"; "trg" ] [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 2; 5 ]; [ 5; 1 ] ]

let db_with_edges () =
  let db = Localdb.Instance.create () in
  Localdb.Instance.register db "E" edges;
  db

let test_catalog () =
  let db = db_with_edges () in
  Alcotest.(check bool) "lookup" true (Localdb.Instance.lookup db "E" <> None);
  Localdb.Instance.unregister db "E";
  Alcotest.(check bool) "gone" true (Localdb.Instance.lookup db "E" = None)

let test_scan_filter () =
  let db = db_with_edges () in
  check_rel "select"
    (rel [ "src"; "trg" ] [ [ 2; 3 ]; [ 2; 5 ] ])
    (Localdb.Instance.query db (Term.Select (Pred.Eq_const ("src", 2), Term.Rel "E")))

let test_join_plan () =
  let db = db_with_edges () in
  let t =
    Term.Antiproject
      ( [ "m" ],
        Term.Join (Term.rename1 "trg" "m" (Term.Rel "E"), Term.rename1 "src" "m" (Term.Rel "E"))
      )
  in
  let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) t in
  check_rel "2-paths" expected (Localdb.Instance.query db t)

let test_union_antijoin () =
  let db = db_with_edges () in
  let rev = Term.Rename ([ ("src", "trg"); ("trg", "src") ], Term.Rel "E") in
  let t = Term.Union (Term.Rel "E", rev) in
  let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) t in
  check_rel "union" expected (Localdb.Instance.query db t);
  let anti = Term.Antijoin (Term.Rel "E", Term.Project ([ "src" ], rev)) in
  let expected_anti = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) anti in
  check_rel "antijoin" expected_anti (Localdb.Instance.query db anti)

let test_recursive_closure () =
  let db = db_with_edges () in
  let t = Mura.Patterns.closure (Term.Rel "E") in
  let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) t in
  check_rel "transitive closure" expected (Localdb.Instance.query db t)

let test_fix_inside_expression () =
  let db = db_with_edges () in
  (* filter applied on top of a fixpoint *)
  let t = Term.Select (Pred.Eq_const ("src", 1), Mura.Patterns.closure (Term.Rel "E")) in
  let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) t in
  check_rel "filtered closure" expected (Localdb.Instance.query db t)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_explain () =
  let db = db_with_edges () in
  let t =
    Term.Select
      (Pred.Eq_const ("src", 2), Term.Join (Term.Rel "E", Term.rename1 "src" "s2" (Term.Rel "E")))
  in
  let text = Localdb.Instance.explain db t in
  Alcotest.(check bool) "mentions HashJoin" true (contains text "HashJoin");
  Alcotest.(check bool) "mentions Filter" true (contains text "Filter");
  Alcotest.(check bool) "mentions SeqScan" true (contains text "SeqScan")

let test_rows_scanned_counts () =
  let db = db_with_edges () in
  Localdb.Plan.reset_rows_scanned ();
  ignore (Localdb.Instance.query db (Term.Rel "E"));
  Alcotest.(check bool) "rows counted" true (Localdb.Plan.rows_scanned () >= Rel.cardinal edges)

(* ------------------------------------------------------------------ *)
(* SQL layer                                                           *)
(* ------------------------------------------------------------------ *)

let sql_db () =
  let db = Localdb.Instance.create () in
  Localdb.Instance.register db "edge" edges;
  db

let run_sql db q = Localdb.Sql.query db q

let test_sql_select_where () =
  let db = sql_db () in
  check_rel "select *" edges (run_sql db "SELECT * FROM edge");
  check_rel "where" (Rel.select (Pred.Eq_const ("src", 2)) edges)
    (run_sql db "SELECT * FROM edge WHERE src = 2");
  check_rel "projection + alias"
    (Rel.rename [ ("src", "a") ] (Rel.project [ "src" ] edges))
    (run_sql db "SELECT src AS a FROM edge")

let test_sql_join () =
  let db = sql_db () in
  let expected =
    Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ])
      (Term.Antiproject
         ( [ "m" ],
           Term.Join (Term.rename1 "trg" "m" (Term.Rel "E"), Term.rename1 "src" "m" (Term.Rel "E"))
         ))
  in
  check_rel "two-hop join"
    (Rel.rename [ ("src", "x"); ("trg", "y") ] expected)
    (run_sql db
       "SELECT a.src AS x, b.trg AS y FROM edge a JOIN edge b ON a.trg = b.src")

let test_sql_union_subquery () =
  let db = sql_db () in
  let reversed = Rel.rename [ ("src", "trg"); ("trg", "src") ] edges in
  check_rel "union with subquery" (Rel.union edges reversed)
    (run_sql db
       "SELECT src, trg FROM edge UNION SELECT t.trg AS src, t.src AS trg FROM (SELECT * FROM edge) t")

let test_sql_recursive_cte () =
  let db = sql_db () in
  let expected =
    Rel.rename [ ("src", "x"); ("trg", "y") ]
      (Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) (Mura.Patterns.closure (Term.Rel "E")))
  in
  check_rel "WITH RECURSIVE transitive closure" expected
    (run_sql db
       "WITH RECURSIVE tc AS (SELECT src AS x, trg AS y FROM edge UNION SELECT tc.x, e.trg AS y \
        FROM tc JOIN edge e ON tc.y = e.src) SELECT * FROM tc")

let test_sql_errors () =
  let db = sql_db () in
  let expect_fail q =
    match run_sql db q with
    | (_ : Rel.t) -> Alcotest.failf "expected Sql_error for %S" q
    | exception Localdb.Sql.Sql_error _ -> ()
  in
  expect_fail "SELECT * FROM missing";
  expect_fail "SELECT nope FROM edge";
  expect_fail "SELECT src FROM edge WHERE";
  expect_fail "SELECT * FROM edge UNION SELECT src FROM edge";
  expect_fail
    "WITH RECURSIVE tc AS (SELECT tc.x AS x FROM tc UNION SELECT src AS x FROM edge) SELECT * FROM tc"

let test_to_sql_roundtrip () =
  let db = sql_db () in
  Localdb.Instance.register db "E" edges;
  let tenv = Mura.Typing.env [ ("E", Rel.schema edges); ("edge", Rel.schema edges) ] in
  let term = Term.Select (Pred.Eq_const ("src", 1), Mura.Patterns.closure (Term.Rel "E")) in
  let sql = Localdb.To_sql.of_term tenv term in
  let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", edges) ]) term in
  check_rel "mu-RA -> SQL -> result" expected (run_sql db sql)

(* random terms, half of them joining a zero-arity side (π[] or an
   antiprojection dropping every column) inside or outside a fixpoint:
   To_sql must reject those, not emit an empty select list *)
let term_or_zero_arity_gen =
  let open QCheck2.Gen in
  let side =
    oneofl [ Term.Project ([], Term.Rel "S"); Term.Antiproject ([ "src"; "trg" ], Term.Rel "S") ]
  in
  let zero_arity =
    map3
      (fun t side in_fix ->
        if in_fix then Term.Fix ("X", Term.Union (t, Term.Join (Term.Var "X", side)))
        else Term.Join (t, side))
      (Gen_terms.term_gen ()) side bool
  in
  pair (oneof [ Gen_terms.term_gen (); zero_arity ]) Gen_terms.env_gen

let prop_to_sql_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:80 ~name:"to_sql roundtrip ≡ mura on random terms"
       term_or_zero_arity_gen (fun (t, tables) ->
         let db = Localdb.Instance.create () in
         List.iter (fun (n, r) -> Localdb.Instance.register db n r) tables;
         let tenv = Mura.Typing.env (List.map (fun (n, r) -> (n, Rel.schema r)) tables) in
         let expected = Mura.Eval.eval (Mura.Eval.env tables) t in
         match Localdb.To_sql.of_term tenv t with
         | sql -> Rel.equal expected (Localdb.Sql.query db sql)
         | exception Localdb.To_sql.Unsupported _ -> true))

let random_graph_gen =
  let open QCheck2.Gen in
  let edge = pair (int_range 0 10) (int_range 0 10) in
  let+ edges = list_size (int_range 0 30) edge in
  Rel.of_tuples (sch [ "src"; "trg" ]) (List.map (fun (s, t) -> [| s; t |]) edges)

let prop_localdb_eq_mura =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"localdb ≡ mura on closures"
       QCheck2.Gen.(pair random_graph_gen random_graph_gen)
       (fun (e, s) ->
         let db = Localdb.Instance.create () in
         Localdb.Instance.register db "E" e;
         Localdb.Instance.register db "S" s;
         let t = Mura.Patterns.closure_from (Term.Rel "S") (Term.Rel "E") in
         let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", e); ("S", s) ]) t in
         Rel.equal expected (Localdb.Instance.query db t)))

let prop_localdb_same_generation =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50 ~name:"localdb ≡ mura on same-generation" random_graph_gen
       (fun e ->
         let db = Localdb.Instance.create () in
         Localdb.Instance.register db "E" e;
         let t = Mura.Patterns.same_generation () in
         let expected = Mura.Eval.eval (Mura.Eval.env [ ("E", e) ]) t in
         Rel.equal expected (Localdb.Instance.query db t)))

let prop_random_terms_localdb =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"random terms: localdb ≡ mura"
       Gen_terms.term_and_env_gen (fun (t, tables) ->
         let db = Localdb.Instance.create () in
         List.iter (fun (n, r) -> Localdb.Instance.register db n r) tables;
         Rel.equal (Mura.Eval.eval (Mura.Eval.env tables) t) (Localdb.Instance.query db t)))

let () =
  Alcotest.run "localdb"
    [
      ( "engine",
        [
          Alcotest.test_case "catalog" `Quick test_catalog;
          Alcotest.test_case "scan+filter" `Quick test_scan_filter;
          Alcotest.test_case "join" `Quick test_join_plan;
          Alcotest.test_case "union/antijoin" `Quick test_union_antijoin;
          Alcotest.test_case "rows scanned" `Quick test_rows_scanned_counts;
          Alcotest.test_case "explain" `Quick test_explain;
        ] );
      ( "recursion",
        [
          Alcotest.test_case "closure" `Quick test_recursive_closure;
          Alcotest.test_case "fix inside expression" `Quick test_fix_inside_expression;
        ] );
      ( "sql",
        [
          Alcotest.test_case "select/where" `Quick test_sql_select_where;
          Alcotest.test_case "join" `Quick test_sql_join;
          Alcotest.test_case "union/subquery" `Quick test_sql_union_subquery;
          Alcotest.test_case "recursive CTE" `Quick test_sql_recursive_cte;
          Alcotest.test_case "errors" `Quick test_sql_errors;
          Alcotest.test_case "to_sql roundtrip" `Quick test_to_sql_roundtrip;
          prop_to_sql_roundtrip;
        ] );
      ("properties", [ prop_localdb_eq_mura; prop_localdb_same_generation; prop_random_terms_localdb ]);
    ]
