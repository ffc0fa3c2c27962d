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
  Alcotest.(check bool) "unknown" true (Localdb.Instance.lookup db "F" = None)

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

(* A join whose right side reads no working table hashes it at its
   first open only: a second open (the next round of a work-table loop)
   probes the same table. A right side that reads the working table is
   re-read at every open. *)
let test_constant_build_side_once () =
  let pulled = ref 0 in
  let counting child =
    Localdb.Plan.Map
      ( (fun tu ->
          incr pulled;
          tu),
        child )
  in
  let work = ref (Tset.of_list [ [| 2 |]; [| 3 |] ]) in
  let plan right =
    Localdb.Plan.Hash_join
      (Localdb.Plan.join ~left:(Localdb.Plan.Work_table work) ~left_key:[| 0 |] ~right
         ~right_key:[| 0 |] ~merge:(fun l r -> [| l.(0); r.(1) |]))
  in
  let rows plan = List.sort compare (Tset.to_list (Localdb.Plan.run plan)) in
  let constant = plan (counting (Localdb.Plan.Scan edges)) in
  Alcotest.(check (list (array int))) "first open" [ [| 2; 3 |]; [| 2; 5 |]; [| 3; 4 |] ]
    (rows constant);
  work := Tset.of_list [ [| 5 |] ];
  Alcotest.(check (list (array int))) "second open sees the new working table" [ [| 5; 1 |] ]
    (rows constant);
  Alcotest.(check int) "each build-side row pulled once" (Rel.cardinal edges) !pulled;
  pulled := 0;
  let recursive = plan (counting (Localdb.Plan.Map ((fun tu -> [| tu.(0); tu.(0) |]), Localdb.Plan.Work_table work))) in
  ignore (Localdb.Plan.run recursive);
  ignore (Localdb.Plan.run recursive);
  Alcotest.(check int) "a working-table build side is re-read at every open" 2 !pulled

(* random terms, half of them joining a zero-arity side (π[] or an
   antiprojection dropping every column) inside or outside a fixpoint *)
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
    (QCheck2.Test.make ~count:100 ~name:"random terms: localdb ≡ mura" term_or_zero_arity_gen
       (fun (t, tables) ->
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
          Alcotest.test_case "explain" `Quick test_explain;
        ] );
      ( "recursion",
        [
          Alcotest.test_case "closure" `Quick test_recursive_closure;
          Alcotest.test_case "fix inside expression" `Quick test_fix_inside_expression;
          Alcotest.test_case "constant build side hashed once" `Quick
            test_constant_build_side_once;
        ] );
      ("properties", [ prop_localdb_eq_mura; prop_localdb_same_generation; prop_random_terms_localdb ]);
    ]
