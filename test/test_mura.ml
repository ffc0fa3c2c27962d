(* Tests for the mu-RA core: the paper's worked example (Sec. II),
   F_cond, the stabilizer, and semi-naive vs naive evaluation. *)

open Relation
open Mura

let sch = Schema.of_list
let rel schema rows = Rel.of_list (sch schema) rows
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_rel msg expected actual =
  if not (Rel.equal expected actual) then
    Alcotest.failf "%s:@.expected %a@.got %a" msg Rel.pp_full expected Rel.pp_full actual

(* The graph of Fig. 2 (reconstructed to match the X_1..X_4 iterations of
   Example 2 exactly). *)
let fig2_edges =
  rel [ "src"; "trg" ]
    [
      [ 1; 2 ]; [ 1; 4 ]; [ 10; 11 ]; [ 10; 13 ];
      [ 2; 3 ]; [ 4; 5 ]; [ 11; 5 ]; [ 13; 12 ]; [ 3; 6 ]; [ 5; 6 ];
    ]

let fig2_start = rel [ "src"; "trg" ] [ [ 1; 2 ]; [ 1; 4 ]; [ 10; 11 ]; [ 10; 13 ] ]

let fig2_env () = Eval.env [ ("E", fig2_edges); ("S", fig2_start) ]

(* mu(X = S ∪ pi~_c(rho_trg^c(X) ⋈ rho_src^c(E))) — Example 2. *)
let example2_term =
  Term.Fix
    ( "X",
      Term.Union
        ( Term.Rel "S",
          Term.Antiproject
            ( [ "c" ],
              Term.Join
                (Term.rename1 "trg" "c" (Term.Var "X"), Term.rename1 "src" "c" (Term.Rel "E"))
            ) ) )

let example2_expected =
  rel [ "src"; "trg" ]
    [
      [ 1; 2 ]; [ 1; 4 ]; [ 10; 11 ]; [ 10; 13 ];
      [ 1; 3 ]; [ 1; 5 ]; [ 10; 5 ]; [ 10; 12 ];
      [ 1; 6 ]; [ 10; 6 ];
    ]

let test_example1 () =
  (* pairs connected by a path of length 2 starting from S *)
  let t =
    Term.Antiproject
      ( [ "c" ],
        Term.Join (Term.rename1 "trg" "c" (Term.Rel "S"), Term.rename1 "src" "c" (Term.Rel "E"))
      )
  in
  check_rel "example 1"
    (rel [ "src"; "trg" ] [ [ 1; 3 ]; [ 1; 5 ]; [ 10; 5 ]; [ 10; 12 ] ])
    (Eval.eval (fig2_env ()) t)

let test_example2_semi_naive () =
  let stats = Eval.fresh_stats () in
  let result = Eval.eval ~stats (fig2_env ()) example2_term in
  check_rel "example 2 fixpoint" example2_expected result;
  (* X1 seeds, X2 and X3 add tuples, X4 detects the fixpoint *)
  check_int "iterations" 3 stats.iterations

let test_example2_naive () =
  check_rel "naive agrees" example2_expected (Eval.eval_naive (fig2_env ()) example2_term)

let test_typing () =
  let tenv =
    Typing.env [ ("E", sch [ "src"; "trg" ]); ("S", sch [ "src"; "trg" ]) ]
  in
  check_bool "example2 well-typed" true (Typing.well_typed tenv example2_term);
  let s = Typing.infer tenv example2_term in
  check_bool "schema src,trg" true (Schema.equal_names s (sch [ "src"; "trg" ]));
  (* ill-typed: union of different schemas *)
  check_bool "bad union" false
    (Typing.well_typed tenv (Term.Union (Term.Rel "E", Term.Project ([ "src" ], Term.Rel "E"))));
  (* unknown relation *)
  check_bool "unknown rel" false (Typing.well_typed tenv (Term.Rel "nope"));
  (* unbound variable *)
  check_bool "unbound var" false (Typing.well_typed tenv (Term.Var "X"))

let test_free_vars_subst () =
  (* X is bound by the Fix, so no free vars at top level *)
  Alcotest.(check (list string)) "no free vars at top" [] (Term.free_vars example2_term);
  Alcotest.(check (list string)) "free rels" [ "S"; "E" ] (Term.free_rels example2_term);
  let body = match example2_term with Term.Fix (_, b) -> b | _ -> assert false in
  Alcotest.(check (list string)) "body has X free" [ "X" ] (Term.free_vars body);
  let substituted = Term.subst "X" (Term.Rel "S") body in
  Alcotest.(check (list string)) "after subst" [] (Term.free_vars substituted)

let test_fcond_classification () =
  let open Term in
  let e = Rel "E" in
  (* not positive: mu(X = E ∪ (E ▷ X)) *)
  let not_positive = Fix ("X", Union (e, Antijoin (e, Var "X"))) in
  (* not linear: mu(X = E ∪ X ⋈ X) *)
  let not_linear = Fix ("X", Union (e, Join (Var "X", Var "X"))) in
  (* mutually recursive: mu(X = E ∪ mu(Y = X ∪ Y)) *)
  let mutual = Fix ("X", Union (e, Fix ("Y", Union (Var "X", Var "Y")))) in
  check_bool "ex2 ok" true (Result.is_ok (Fcond.check_term example2_term));
  check_bool "not positive" false (Result.is_ok (Fcond.check_term not_positive));
  check_bool "not linear" false (Result.is_ok (Fcond.check_term not_linear));
  check_bool "mutual" false (Result.is_ok (Fcond.check_term mutual));
  (* nested but legal: inner fixpoint does not mention X *)
  let ok_nested = Fix ("X", Union (Fix ("Y", Union (e, Var "Y")), Var "X")) in
  check_bool "legal nesting" true (Result.is_ok (Fcond.check_term ok_nested))

let test_decompose () =
  let body = match example2_term with Term.Fix (_, b) -> b | _ -> assert false in
  let r, phi = Fcond.decompose ~var:"X" body in
  check_bool "constant part is S" true (Term.equal r (Term.Rel "S"));
  check_bool "phi mentions X" true (Term.has_free_var "X" phi);
  (* a filter wrapped around the union distributes into both branches *)
  let filtered = Term.Select (Pred.Eq_const ("src", 1), body) in
  let consts, recs = Fcond.split ~var:"X" filtered in
  check_int "one constant branch" 1 (List.length consts);
  check_int "one recursive branch" 1 (List.length recs)

let test_stabilizer () =
  let tenv = Typing.env [ ("E", sch [ "src"; "trg" ]); ("S", sch [ "src"; "trg" ]) ] in
  let body = match example2_term with Term.Fix (_, b) -> b | _ -> assert false in
  Alcotest.(check (list string)) "src stable, trg not" [ "src" ]
    (Stabilizer.stable_columns tenv ~var:"X" body);
  (* reversed fixpoint: trg is stable instead *)
  let reversed =
    Term.Union
      ( Term.Rel "S",
        Term.Antiproject
          ( [ "c" ],
            Term.Join
              (Term.rename1 "trg" "c" (Term.Rel "E"), Term.rename1 "src" "c" (Term.Var "X")) ) )
  in
  Alcotest.(check (list string)) "reversed: trg stable" [ "trg" ]
    (Stabilizer.stable_columns tenv ~var:"X" reversed)

let test_stable_filter_push_identity () =
  (* Filtering on a stable column before or after the fixpoint agrees
     (the identity that justifies both filter pushing and P_plw
     repartitioning). *)
  let e = fig2_env () in
  let p = Pred.Eq_const ("src", 10) in
  let after = Rel.select p (Eval.eval e example2_term) in
  let pushed =
    match example2_term with
    | Term.Fix (x, Term.Union (r, phi)) -> Term.Fix (x, Term.Union (Term.Select (p, r), phi))
    | _ -> assert false
  in
  check_rel "push filter on stable column" after (Eval.eval e pushed)

let test_patterns_closure () =
  let e = Eval.env [ ("E", fig2_edges) ] in
  let tc = Eval.eval e (Patterns.closure (Term.Rel "E")) in
  let tc_rev = Eval.eval e (Patterns.closure_rev (Term.Rel "E")) in
  check_rel "closure = reversed closure" tc tc_rev;
  (* reachability facts *)
  check_bool "1 reaches 6" true (Rel.mem tc [| 1; 6 |]);
  check_bool "10 reaches 12" true (Rel.mem tc [| 10; 12 |]);
  check_bool "6 reaches nothing" false (Rel.exists (fun tu -> tu.(0) = 6) tc)
  [@@warning "-32"]

let test_patterns_reach () =
  let e = Eval.env [ ("E", fig2_edges) ] in
  let r = Eval.eval e (Patterns.reach (Value.of_int 10)) in
  check_rel "reach(10)"
    (rel [ "trg" ] [ [ 11 ]; [ 13 ]; [ 5 ]; [ 12 ]; [ 6 ] ])
    r

let test_patterns_same_generation () =
  (* tiny tree: 0 -> 1, 0 -> 2; 1 -> 3; 2 -> 4 *)
  let parent = rel [ "src"; "trg" ] [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 3 ]; [ 2; 4 ] ] in
  let e = Eval.env [ ("E", parent) ] in
  let sg = Eval.eval e (Patterns.same_generation ()) in
  check_bool "siblings" true (Rel.mem sg [| 1; 2 |]);
  check_bool "cousins" true (Rel.mem sg [| 3; 4 |]);
  check_bool "not cross-generation" false (Rel.mem sg [| 1; 4 |]);
  check_bool "reflexive pairs present" true (Rel.mem sg [| 1; 1 |])

let test_patterns_anbn () =
  let a = Value.of_string "a" and b = Value.of_string "b" in
  (* path: 0 -a-> 1 -a-> 2 -b-> 3 -b-> 4, plus 2 -b-> 5 *)
  let r =
    Rel.of_list (sch [ "src"; "pred"; "trg" ])
      [ [ 0; a; 1 ]; [ 1; a; 2 ]; [ 2; b; 3 ]; [ 3; b; 4 ]; [ 2; b; 5 ] ]
  in
  let e = Eval.env [ ("R", r) ] in
  let res = Eval.eval e (Patterns.anbn ~a:"a" ~b:"b" ()) in
  check_bool "a^1 b^1: (1,3)" true (Rel.mem res [| 1; 3 |]);
  check_bool "a^1 b^1: (1,5)" true (Rel.mem res [| 1; 5 |]);
  check_bool "a^2 b^2: (0,4)" true (Rel.mem res [| 0; 4 |]);
  check_bool "not a^2 b^1" false (Rel.mem res [| 0; 3 |])

(* ------------------------------------------------------------------ *)
(* Aggregate fixpoints (shortest paths)                                *)
(* ------------------------------------------------------------------ *)

let weighted_schema = sch [ "src"; "trg"; "weight" ]

(* Bellman-Ford oracle over edge lists *)
let oracle_shortest edges =
  let dist = Hashtbl.create 64 in
  List.iter
    (fun (s, t, w) ->
      match Hashtbl.find_opt dist (s, t) with
      | Some d when d <= w -> ()
      | _ -> Hashtbl.replace dist (s, t) w)
    edges;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun (s, m) d ->
        List.iter
          (fun (m', t, w) ->
            if m = m' then
              match Hashtbl.find_opt dist (s, t) with
              | Some d' when d' <= d + w -> ()
              | _ ->
                Hashtbl.replace dist (s, t) (d + w);
                changed := true)
          edges)
      (Hashtbl.copy dist)
  done;
  let r = Rel.create weighted_schema in
  Hashtbl.iter (fun (s, t) d -> ignore (Rel.add r [| s; t; d |])) dist;
  r

let test_shortest_paths () =
  let edges = [ (0, 1, 4); (1, 2, 1); (0, 2, 10); (2, 3, 2); (3, 0, 1); (1, 3, 9) ] in
  let erel = Rel.of_tuples weighted_schema (List.map (fun (s, t, w) -> [| s; t; w |]) edges) in
  let env = Eval.env [ ("E", erel) ] in
  let result = Agg.shortest_paths env ~edges:"E" in
  check_rel "all-pairs vs Bellman-Ford" (oracle_shortest edges) result;
  (* the cheap 0->2 route goes through 1: 4 + 1 = 5, not the direct 10 *)
  check_bool "relaxation found the shortcut" true (Rel.mem result [| 0; 2; 5 |]);
  let from0 = Agg.shortest_paths_from env ~edges:"E" ~source:(Value.of_int 0) in
  check_rel "single source"
    (rel [ "trg"; "weight" ] [ [ 1; 4 ]; [ 2; 5 ]; [ 3; 7 ]; [ 0; 8 ] ])
    from0

let weighted_graph_gen =
  let open QCheck2.Gen in
  let edge = triple (int_range 0 7) (int_range 0 7) (int_range 1 9) in
  let+ edges = list_size (int_range 1 20) edge in
  edges

let prop_shortest_paths_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120 ~name:"shortest paths ≡ Bellman-Ford"
       weighted_graph_gen (fun edges ->
         let erel =
           Rel.of_tuples weighted_schema (List.map (fun (s, t, w) -> [| s; t; w |]) edges)
         in
         let env = Eval.env [ ("E", erel) ] in
         Rel.equal (oracle_shortest edges) (Agg.shortest_paths env ~edges:"E")))

(* ------------------------------------------------------------------ *)
(* Random-term properties                                              *)
(* ------------------------------------------------------------------ *)

let random_graph_gen =
  let open QCheck2.Gen in
  let edge = pair (int_range 0 9) (int_range 0 9) in
  let+ edges = list_size (int_range 1 25) edge in
  Rel.of_tuples (sch [ "src"; "trg" ]) (List.map (fun (s, t) -> [| s; t |]) edges)

let qtest name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen prop)

let prop_semi_naive_eq_naive =
  qtest "semi-naive ≡ naive on closures"
    QCheck2.Gen.(pair random_graph_gen random_graph_gen)
    (fun (e, s) ->
      let env = Eval.env [ ("E", e); ("S", s) ] in
      let t = Patterns.closure_from (Term.Rel "S") (Term.Rel "E") in
      Rel.equal (Eval.eval env t) (Eval.eval_naive env t))

let prop_closure_direction_irrelevant =
  qtest "closure ≡ closure_rev" random_graph_gen (fun e ->
      let env = Eval.env [ ("E", e) ] in
      Rel.equal
        (Eval.eval env (Patterns.closure (Term.Rel "E")))
        (Eval.eval env (Patterns.closure_rev (Term.Rel "E"))))

let prop_prop3_union_split =
  (* Proposition 3: mu(X = R1 ∪ R2 ∪ phi) = mu(X = R1 ∪ phi) ∪ mu(X = R2 ∪ phi) *)
  qtest "Prop 3: constant-part union splits"
    QCheck2.Gen.(triple random_graph_gen random_graph_gen random_graph_gen)
    (fun (e, r1, r2) ->
      let env = Eval.env [ ("E", e); ("R1", r1); ("R2", r2) ] in
      let fix seed = Patterns.closure_from seed (Term.Rel "E") in
      let merged = fix (Term.Union (Term.Rel "R1", Term.Rel "R2")) in
      let split = Term.Union (fix (Term.Rel "R1"), fix (Term.Rel "R2")) in
      Rel.equal (Eval.eval env merged) (Eval.eval env split))

let prop_stable_column_filter_push =
  qtest "stabilizer soundness: filter pushes on stable column"
    QCheck2.Gen.(pair random_graph_gen (int_range 0 9))
    (fun (e, v) ->
      let env = Eval.env [ ("E", e) ] in
      let t = Patterns.closure (Term.Rel "E") in
      match t with
      | Term.Fix (x, Term.Union (r, phi)) ->
        let tenv = Typing.env [ ("E", sch [ "src"; "trg" ]) ] in
        let stable = Stabilizer.stable_columns tenv ~var:x (Term.Union (r, phi)) in
        List.for_all
          (fun c ->
            let p = Pred.Eq_const (c, v) in
            let after = Rel.select p (Eval.eval env t) in
            let pushed = Term.Fix (x, Term.Union (Term.Select (p, r), phi)) in
            Rel.equal after (Eval.eval env pushed))
          stable
      | _ -> false)

let prop_fixpoint_is_fixed =
  qtest "mu(X = body) is a fixed point of the body" random_graph_gen (fun e ->
      let env = Eval.env [ ("E", e) ] in
      let t = Patterns.closure (Term.Rel "E") in
      match t with
      | Term.Fix (x, body) ->
        let result = Eval.eval env t in
        let reapplied = Eval.eval ~vars:[ (x, result) ] env body in
        Rel.equal result reapplied
      | _ -> false)

let prop_random_terms_semi_naive =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"random terms: semi-naive ≡ naive"
       Gen_terms.term_and_env_gen (fun (t, tables) ->
         let env = Eval.env tables in
         Rel.equal (Eval.eval env t) (Eval.eval_naive env t)))

let prop_random_terms_typed =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"random terms are well-typed path relations"
       Gen_terms.term_and_env_gen (fun (t, tables) ->
         let tenv = Typing.env (List.map (fun (n, r) -> (n, Rel.schema r)) tables) in
         Schema.equal_names (Typing.infer tenv t) (sch [ "src"; "trg" ])
         && Result.is_ok (Fcond.check_term t)))

(* ---- Normal: canonical forms for cache keys ---- *)

let check_same_key msg a b =
  Alcotest.(check string) msg (Normal.key a) (Normal.key b)

let check_diff_key msg a b =
  check_bool msg false (Normal.key a = Normal.key b)

let test_normal_alpha () =
  (* alpha-renamed recursion variables share a key *)
  let body x = Term.Union (Term.Rel "E", Term.Join (Term.Var x, Term.Rel "E")) in
  check_same_key "alpha rename" (Term.Fix ("X", body "X")) (Term.Fix ("Y", body "Y"));
  (* nested binders, both renamed *)
  let nested a b =
    Term.Fix (a, Term.Union (Term.Fix (b, Term.Union (Term.Rel "E", Term.Var b)), Term.Var a))
  in
  check_same_key "nested alpha" (nested "X" "Y") (nested "P" "Q");
  (* distinct variables must stay distinct: a body that joins the inner
     variable is not the one that joins the outer *)
  let outer_inner inner_uses =
    Term.Fix
      ( "X",
        Term.Union
          (Term.Fix ("Y", Term.Union (Term.Rel "E", Term.Join (Term.Var inner_uses, Term.Rel "E"))),
           Term.Var "X") )
  in
  check_diff_key "inner vs outer var" (outer_inner "Y") (outer_inner "X")

let test_normal_commutative () =
  let a = Term.Rel "A" and b = Term.Rel "B" and c = Term.Rel "C" in
  check_same_key "union swap" (Term.Union (a, b)) (Term.Union (b, a));
  check_same_key "union chain reassoc"
    (Term.Union (a, Term.Union (b, c)))
    (Term.Union (Term.Union (c, b), a));
  check_same_key "join swap" (Term.Join (a, b)) (Term.Join (b, a));
  (* antijoin is not commutative; select predicates matter *)
  check_diff_key "antijoin not swapped" (Term.Antijoin (a, b)) (Term.Antijoin (b, a));
  check_diff_key "different operand" (Term.Union (a, b)) (Term.Union (a, c));
  check_diff_key "different predicate"
    (Term.Select (Pred.Eq_const ("src", 1), a))
    (Term.Select (Pred.Eq_const ("src", 2), a))

let test_normal_working_cols () =
  (* two independent translations of the same query allocate different
     fresh working columns and recursion variables — same key *)
  let t1 = Patterns.closure (Term.Rel "E") in
  let t2 = Patterns.closure (Term.Rel "E") in
  check_bool "fresh names differ" false (Term.equal t1 t2);
  check_same_key "repeated translation" t1 t2;
  let r1 = Patterns.reach 1 in
  let r2 = Patterns.reach 1 in
  check_same_key "repeated reach" r1 r2;
  check_diff_key "different source" (Patterns.reach 1) (Patterns.reach 2)

let test_normal_idempotent () =
  let terms =
    [
      Patterns.closure (Term.Rel "E");
      Patterns.reach 1;
      Patterns.same_generation ();
      Term.Union (Term.Rel "B", Term.Union (Term.Rel "A", Term.Rel "C"));
    ]
  in
  List.iter
    (fun t ->
      let n = Normal.normalize t in
      check_bool "normalize idempotent" true (Term.equal n (Normal.normalize n));
      Alcotest.(check string) "key stable" (Normal.key t) (Normal.key n))
    terms

let prop_normalize_preserves_semantics =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"normalize preserves denotation"
       Gen_terms.term_and_env_gen (fun (t, tables) ->
         let env = Eval.env tables in
         Rel.equal (Eval.eval env t) (Eval.eval env (Normal.normalize t))))

let () =
  Alcotest.run "mura"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "example 1 (2-paths)" `Quick test_example1;
          Alcotest.test_case "example 2 semi-naive" `Quick test_example2_semi_naive;
          Alcotest.test_case "example 2 naive" `Quick test_example2_naive;
        ] );
      ( "typing",
        [
          Alcotest.test_case "inference" `Quick test_typing;
          Alcotest.test_case "free vars / subst" `Quick test_free_vars_subst;
        ] );
      ( "fcond",
        [
          Alcotest.test_case "classification" `Quick test_fcond_classification;
          Alcotest.test_case "decompose" `Quick test_decompose;
        ] );
      ( "stabilizer",
        [
          Alcotest.test_case "stable columns" `Quick test_stabilizer;
          Alcotest.test_case "filter-push identity" `Quick test_stable_filter_push_identity;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "closure" `Quick test_patterns_closure;
          Alcotest.test_case "reach" `Quick test_patterns_reach;
          Alcotest.test_case "same generation" `Quick test_patterns_same_generation;
          Alcotest.test_case "anbn" `Quick test_patterns_anbn;
        ] );
      ( "aggregate fixpoints",
        [
          Alcotest.test_case "shortest paths" `Quick test_shortest_paths;
          prop_shortest_paths_oracle;
        ] );
      ( "normal",
        [
          Alcotest.test_case "alpha renaming" `Quick test_normal_alpha;
          Alcotest.test_case "commutative reordering" `Quick test_normal_commutative;
          Alcotest.test_case "working columns" `Quick test_normal_working_cols;
          Alcotest.test_case "idempotent" `Quick test_normal_idempotent;
          prop_normalize_preserves_semantics;
        ] );
      ( "properties",
        [
          prop_semi_naive_eq_naive;
          prop_closure_direction_irrelevant;
          prop_prop3_union_split;
          prop_stable_column_filter_push;
          prop_fixpoint_is_fixed;
          prop_random_terms_semi_naive;
          prop_random_terms_typed;
        ] );
    ]
