(* Tests for the MuRewriter: every rule is exercised on the query shape
   it targets, and property tests check that exploration only ever
   produces semantically equivalent plans. *)

open Relation
module Term = Mura.Term
module P = Mura.Patterns
module Shapes = Rewrite.Shapes
module Rules = Rewrite.Rules
module Engine = Rewrite.Engine

let sch = Schema.of_list
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_rel msg expected actual =
  if not (Rel.equal expected actual) then
    Alcotest.failf "%s:@.expected %a@.got %a" msg Rel.pp_full expected Rel.pp_full actual

let a = Value.of_string "a"
let b = Value.of_string "b"

let labelled =
  Rel.of_list (sch [ "src"; "pred"; "trg" ])
    [
      [ 0; a; 1 ]; [ 1; a; 2 ]; [ 2; a; 3 ];
      [ 3; b; 4 ]; [ 4; b; 5 ]; [ 1; b; 6 ]; [ 6; a; 2 ];
    ]

let tables = [ ("E", labelled) ]
let tenv = Mura.Typing.env [ ("E", sch [ "src"; "pred"; "trg" ]) ]
let env = Mura.Eval.env tables
let eval t = Mura.Eval.eval env t

let ea = P.edge "a"
let eb = P.edge "b"

let assert_equiv msg original rewritten =
  check_rel msg (eval original) (eval rewritten)

(* ------------------------------------------------------------------ *)
(* Shape recognition                                                   *)
(* ------------------------------------------------------------------ *)

let test_shapes_compose () =
  let c = Shapes.mk_compose ea eb in
  match Shapes.as_compose c with
  | Some { left; right; _ } ->
    check_bool "left" true (Term.equal left ea);
    check_bool "right" true (Term.equal right eb)
  | None -> Alcotest.fail "compose not recognised"

let test_shapes_closure () =
  (match Shapes.as_closure (P.closure ea) with
  | Some { base; dir = Shapes.Right } -> check_bool "base" true (Term.equal base ea)
  | _ -> Alcotest.fail "right closure not recognised");
  (match Shapes.as_closure (P.closure_rev ea) with
  | Some { dir = Shapes.Left; _ } -> ()
  | _ -> Alcotest.fail "left closure not recognised");
  (* a seeded fixpoint is not a pure closure *)
  check_bool "seeded is not closure" true
    (Shapes.as_closure (P.closure_from eb ea) = None);
  (match Shapes.as_seeded (P.closure_from eb ea) with
  | Some { seed; step; dir = Shapes.Right } ->
    check_bool "seed" true (Term.equal seed eb);
    check_bool "step" true (Term.equal step ea)
  | _ -> Alcotest.fail "seeded not recognised")

let branches_are expected t =
  List.equal Term.equal expected (Mura.Fcond.union_branches t)

(* mu(X = B1 ∪ .. ∪ Bn ∪ X∘B) and its relatives, built branch by branch *)
let fix_of branches =
  let x = Term.fresh_var () in
  Term.Fix (x, Term.union_all (branches (Term.Var x)))

let test_shapes_union_bodies () =
  let ab = Term.Union (ea, eb) in
  (* (a|b)+ = mu(X = a ∪ b ∪ X∘(a ∪ b)): three body branches *)
  (match Shapes.as_closure (P.closure ab) with
  | Some { base; dir = Shapes.Right } -> check_bool "base a ∪ b" true (branches_are [ ea; eb ] base)
  | _ -> Alcotest.fail "right union closure not recognised");
  (match Shapes.as_closure (P.closure_rev ab) with
  | Some { base; dir = Shapes.Left } -> check_bool "base a ∪ b" true (branches_are [ ea; eb ] base)
  | _ -> Alcotest.fail "left union closure not recognised");
  (* a union seed: mu(X = a ∪ b ∪ X∘a) *)
  let union_seed = fix_of (fun x -> [ ea; eb; Shapes.mk_compose x ea ]) in
  (match Shapes.as_seeded union_seed with
  | Some { seed; step; dir = Shapes.Right } ->
    check_bool "seed a ∪ b" true (branches_are [ ea; eb ] seed);
    check_bool "step a" true (Term.equal step ea);
    assert_equiv "union seed" union_seed (Shapes.mk_seeded Shapes.Right ~seed ~step)
  | _ -> Alcotest.fail "union seed not recognised");
  check_bool "union seed is not a closure" true (Shapes.as_closure union_seed = None);
  (* a union step: mu(X = a ∪ X∘a ∪ X∘b), and its left-appending mirror *)
  let union_step = fix_of (fun x -> [ ea; Shapes.mk_compose x ea; Shapes.mk_compose x eb ]) in
  (match Shapes.as_seeded union_step with
  | Some { seed; step; dir = Shapes.Right } ->
    check_bool "seed a" true (Term.equal seed ea);
    check_bool "step a ∪ b" true (branches_are [ ea; eb ] step);
    assert_equiv "union step" union_step (Shapes.mk_seeded Shapes.Right ~seed ~step)
  | _ -> Alcotest.fail "union step not recognised");
  let union_step_rev = fix_of (fun x -> [ eb; Shapes.mk_compose ea x; Shapes.mk_compose eb x ]) in
  (match Shapes.as_seeded union_step_rev with
  | Some { step; dir = Shapes.Left; _ } -> check_bool "step a ∪ b" true (branches_are [ ea; eb ] step)
  | _ -> Alcotest.fail "left union step not recognised");
  (* X∘b ∪ a∘X appends on both sides: the merged fixpoint, not seeded *)
  check_bool "mixed sides" true
    (Shapes.as_seeded (fix_of (fun x -> [ ea; Shapes.mk_compose x eb; Shapes.mk_compose ea x ]))
    = None);
  (* a recursive branch that is not a composition *)
  check_bool "non-composition recursive branch" true
    (Shapes.as_seeded
       (fix_of (fun x -> [ ea; Shapes.mk_compose x eb; Term.Select (Pred.Eq_const ("src", 0), x) ]))
    = None)

(* ------------------------------------------------------------------ *)
(* Individual rules                                                    *)
(* ------------------------------------------------------------------ *)

let rule_fires rule t = Rules.(rule.apply) tenv t <> []

let test_reverse_closure () =
  match Rules.(reverse_closure.apply) tenv (P.closure ea) with
  | [ reversed ] ->
    check_bool "direction flipped" true
      (match Shapes.as_closure reversed with Some { dir = Shapes.Left; _ } -> true | _ -> false);
    assert_equiv "reversal preserves semantics" (P.closure ea) reversed
  | _ -> Alcotest.fail "reverse did not fire once"

let test_push_filter_into_fix () =
  (* sigma_{src=0}(a+) : src is stable in the right-appending closure *)
  let t = Term.Select (Pred.Eq_const ("src", 0), P.closure ea) in
  (match Rules.(push_filter_into_fix.apply) tenv t with
  | [ pushed ] ->
    check_bool "filter disappeared from top" true
      (match pushed with Term.Fix _ -> true | _ -> false);
    assert_equiv "push filter src" t pushed
  | _ -> Alcotest.fail "expected one rewrite");
  (* trg is NOT stable: the rule must not fire directly *)
  let t2 = Term.Select (Pred.Eq_const ("trg", 5), P.closure ea) in
  check_bool "no unsound push" false (rule_fires Rules.push_filter_into_fix t2);
  (* ... but after reversal it is: exploration finds the pushed plan *)
  let plans = Engine.explore tenv t2 in
  let pushed_plan =
    List.exists
      (function
        | Term.Fix (_, body) -> (
          match Mura.Fcond.split ~var:"_probe" body with
          | _ -> Term.fix_count (Term.Fix ("_", body)) = 1
          | exception _ -> false)
        | _ -> false)
      plans
  in
  check_bool "reversal+push reachable" true pushed_plan;
  List.iter (fun p -> assert_equiv "explored plan equivalent" t2 p) plans

let test_push_join_into_fix () =
  (* b / a+ : concatenation to the left of a recursion (class C5) *)
  let t = Shapes.mk_compose eb (P.closure ea) in
  let rewrites = Rules.(push_join_into_fix.apply) tenv t in
  check_int "one rewrite" 1 (List.length rewrites);
  let pushed = List.hd rewrites in
  check_bool "result is a single fixpoint" true (Term.fix_count pushed = 1);
  assert_equiv "push join left-concat" t pushed;
  (* a+ / b : concatenation to the right (class C4) *)
  let t2 = Shapes.mk_compose (P.closure ea) eb in
  (match Rules.(push_join_into_fix.apply) tenv t2 with
  | [ pushed2 ] -> assert_equiv "push join right-concat" t2 pushed2
  | _ -> Alcotest.fail "expected one rewrite")

let test_merge_fixpoints () =
  (* a+/b+ : concatenation of recursions (class C6) *)
  let t = Shapes.mk_compose (P.closure ea) (P.closure eb) in
  let merged =
    match Rules.(merge_fixpoints.apply) tenv t with
    | [ m ] -> m
    | _ -> Alcotest.fail "merge did not fire once"
  in
  check_int "two fixpoints became one" 1 (Term.fix_count merged);
  assert_equiv "merge preserves semantics" t merged

let test_push_antiproject_into_fix () =
  (* ?y <- ?x a+ ?y : keep destinations only *)
  let t = Term.Antiproject ([ "src" ], P.closure ea) in
  (match Rules.(push_antiproject_into_fix.apply) tenv t with
  | [ pushed ] ->
    assert_equiv "push antiproject src" t pushed;
    (* the pushed fixpoint computes unary tuples *)
    check_bool "unary fixpoint" true
      (match pushed with
      | Term.Fix (_, _) -> Schema.arity (Mura.Typing.infer tenv pushed) = 1
      | _ -> false)
  | _ -> Alcotest.fail "expected one rewrite");
  let t2 = Term.Antiproject ([ "trg" ], P.closure_rev ea) in
  match Rules.(push_antiproject_into_fix.apply) tenv t2 with
  | [ pushed2 ] -> assert_equiv "push antiproject trg" t2 pushed2
  | _ -> Alcotest.fail "expected one rewrite"

(* Closed fixpoint subterms, outermost first. *)
let rec closed_fixes (t : Term.t) =
  let here = match t with Fix _ when Term.free_vars t = [] -> [ t ] | _ -> [] in
  let sub =
    match t with
    | Rel _ | Cst _ | Var _ -> []
    | Select (_, u) | Project (_, u) | Antiproject (_, u) | Rename (_, u) | Fix (_, u) ->
      closed_fixes u
    | Join (u, v) | Antijoin (u, v) | Union (u, v) -> closed_fixes u @ closed_fixes v
  in
  here @ sub

let rec selects_trg_3 (t : Term.t) =
  let rec in_pred (p : Pred.t) =
    match p with Eq_const ("trg", 3) -> true | And (p, q) -> in_pred p || in_pred q | _ -> false
  in
  match t with
  | Select (p, u) -> in_pred p || selects_trg_3 u
  | Rel _ | Cst _ | Var _ -> false
  | Project (_, u) | Antiproject (_, u) | Rename (_, u) | Fix (_, u) -> selects_trg_3 u
  | Join (u, v) | Antijoin (u, v) | Union (u, v) -> selects_trg_3 u || selects_trg_3 v

(* The fixpoint rules see (a|b)+ as the closure of a ∪ b. *)
let test_union_body_rules () =
  let ab_plus = P.closure (Term.Union (ea, eb)) in
  (match Rules.(reverse_closure.apply) tenv ab_plus with
  | [ reversed ] ->
    check_bool "direction flipped" true
      (match Shapes.as_closure reversed with Some { dir = Shapes.Left; _ } -> true | _ -> false);
    assert_equiv "reversal of (a|b)+" ab_plus reversed
  | _ -> Alcotest.fail "reverse did not fire once");
  let joined = Shapes.mk_compose eb ab_plus in
  (match Rules.(push_join_into_fix.apply) tenv joined with
  | [ pushed ] ->
    check_int "a single fixpoint" 1 (Term.fix_count pushed);
    assert_equiv "push join into (a|b)+" joined pushed
  | _ -> Alcotest.fail "push join did not fire once");
  let both = Shapes.mk_compose ab_plus (P.closure eb) in
  (match Rules.(merge_fixpoints.apply) tenv both with
  | [ merged ] ->
    check_int "two fixpoints became one" 1 (Term.fix_count merged);
    assert_equiv "merge (a|b)+ with b+" both merged
  | _ -> Alcotest.fail "merge did not fire once");
  (* ?x <- ?x (a b)+ 3: once reversed, sigma[trg=3] moves into every
     constant branch and none of the recursive ones *)
  let q = Rpq.Query.to_term (Rpq.Query.parse "?x <- ?x (a b)+ 3") in
  let plans = Engine.explore tenv q in
  let anchored (f : Term.t) =
    match f with
    | Fix (x, body) ->
      let consts, recs = Mura.Fcond.split ~var:x body in
      consts <> [] && List.for_all selects_trg_3 consts && not (List.exists selects_trg_3 recs)
    | _ -> false
  in
  check_bool "anchored plan explored" true
    (List.exists (fun p -> List.exists anchored (closed_fixes p)) plans);
  List.iter (fun p -> assert_equiv "explored plan equivalent" q p) plans

let test_select_antijoin_and_antiproject_merge () =
  (* select pushes through the left of an antijoin *)
  let t =
    Term.Select (Pred.Eq_const ("src", 0), Term.Antijoin (ea, Term.Project ([ "src" ], eb)))
  in
  (match Rules.(select_through_antijoin.apply) tenv t with
  | [ pushed ] -> assert_equiv "select through antijoin" t pushed
  | _ -> Alcotest.fail "expected one rewrite");
  (* cascaded antiprojections merge *)
  let t2 =
    Term.Antiproject ([ "src" ], Term.Antiproject ([ "trg" ], Term.Rel "E"))
  in
  match Rules.(antiproject_merge.apply) tenv t2 with
  | [ merged ] ->
    assert_equiv "antiproject merge" t2 merged;
    check_bool "single node" true
      (match merged with Term.Antiproject (c, Term.Rel "E") -> List.sort compare c = [ "src"; "trg" ] | _ -> false)
  | _ -> Alcotest.fail "expected one rewrite"

let test_classical_pushdowns () =
  let t =
    Term.Select
      ( Pred.Eq_const ("x", 0),
        Term.Rename ([ ("src", "x") ], Term.Antiproject ([ "pred" ], Term.Rel "E")) )
  in
  let plans = Engine.explore tenv t in
  check_bool "several plans" true (List.length plans > 1);
  List.iter (fun p -> assert_equiv "classical pushdown equivalence" t p) plans;
  (* at least one plan has the select directly on E *)
  let rec select_on_rel = function
    | Term.Select (_, Term.Rel _) -> true
    | Term.Select (_, u) | Term.Project (_, u) | Term.Antiproject (_, u) | Term.Rename (_, u) ->
      select_on_rel u
    | Term.Join (x, y) | Term.Antijoin (x, y) | Term.Union (x, y) ->
      select_on_rel x || select_on_rel y
    | Term.Fix (_, body) -> select_on_rel body
    | Term.Rel _ | Term.Var _ | Term.Cst _ -> false
  in
  check_bool "select pushed to the scan" true (List.exists select_on_rel plans)

(* ------------------------------------------------------------------ *)
(* End-to-end: UCRPQ -> rewrite -> best plan                           *)
(* ------------------------------------------------------------------ *)

let test_optimize_with_cost () =
  let stats = Cost.Stats.of_tables tables in
  let cost t = Cost.Estimate.cost stats t in
  (* C2-style query: filter to the right of a recursion *)
  let q = Rpq.Query.parse "?x <- ?x a+ 3" in
  let original = Rpq.Query.to_term q in
  let best = Engine.optimize ~cost tenv original in
  assert_equiv "optimized plan equivalent" original best;
  check_bool "optimization changed the plan" true (not (Term.equal best original));
  check_bool "optimized is at most as costly" true (cost best <= cost original)

let test_explore_bounded () =
  let t = Shapes.mk_compose (P.closure ea) (P.closure eb) in
  let plans = Engine.explore ~max_plans:5 tenv t in
  check_bool "bounded" true (List.length plans <= 5)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let random_labelled_gen =
  let open QCheck2.Gen in
  let edge = triple (int_range 0 7) (oneofl [ a; b ]) (int_range 0 7) in
  let+ edges = list_size (int_range 1 25) edge in
  Rel.of_tuples (sch [ "src"; "pred"; "trg" ])
    (List.map (fun (s, p, t) -> [| s; p; t |]) edges)

let query_pool =
  [
    "?x, ?y <- ?x a+ ?y";
    "?x <- ?x a+ 3";
    "?x <- 0 a+ ?x";
    "?x, ?y <- ?x a+/b ?y";
    "?x, ?y <- ?x b/a+ ?y";
    "?x, ?y <- ?x a+/b+ ?y";
    "?y <- ?x a+ ?y";
    "?x <- ?x a+ ?y";
    "?x, ?y <- ?x (a/-b)+ ?y";
    "?x, ?y <- ?x -a/(b/-b)+ ?y";
    "?x <- ?x (a b)+ 3";
    "?x <- 0 b/(a -b)+ ?x";
    "?x, ?y <- ?x (a b)+/b+ ?y";
    "?x, ?y <- ?x (a/-b b)+ ?y";
  ]

let prop_all_plans_equivalent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"every explored plan is equivalent"
       QCheck2.Gen.(pair random_labelled_gen (oneofl query_pool))
       (fun (g, qs) ->
         let term = Rpq.Query.to_term (Rpq.Query.parse qs) in
         let env = Mura.Eval.env [ ("E", g) ] in
         let expected = Mura.Eval.eval env term in
         let plans = Engine.explore ~max_plans:40 tenv term in
         List.for_all (fun p -> Rel.equal expected (Mura.Eval.eval env p)) plans))

let prop_optimized_equivalent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"optimized plan is equivalent"
       QCheck2.Gen.(pair random_labelled_gen (oneofl query_pool))
       (fun (g, qs) ->
         let term = Rpq.Query.to_term (Rpq.Query.parse qs) in
         let env = Mura.Eval.env [ ("E", g) ] in
         let stats = Cost.Stats.of_tables [ ("E", g) ] in
         let best = Engine.optimize ~max_plans:40 ~cost:(Cost.Estimate.cost stats) tenv term in
         Rel.equal (Mura.Eval.eval env term) (Mura.Eval.eval env best)))

let prop_random_terms_rewrites_sound =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"random terms: explored plans all equivalent"
       Gen_terms.term_and_env_gen (fun (t, tables) ->
         let tenv =
           Mura.Typing.env (List.map (fun (n, r) -> (n, Rel.schema r)) tables)
         in
         let env = Mura.Eval.env tables in
         let expected = Mura.Eval.eval env t in
         List.for_all
           (fun p -> Rel.equal expected (Mura.Eval.eval env p))
           (Engine.explore ~max_plans:25 tenv t)))

(* ------------------------------------------------------------------ *)
(* Dedup keys                                                          *)
(* ------------------------------------------------------------------ *)

(* Suffixes every internal working column and recursion variable: a
   bijective renaming that keeps them internal. *)
let rename_internal suffix t =
  let col c = if String.starts_with ~prefix:"_m" c then c ^ suffix else c in
  let var x = if String.starts_with ~prefix:"_X" x then x ^ suffix else x in
  let rec pred (p : Pred.t) : Pred.t =
    match p with
    | True -> True
    | Eq_const (c, v) -> Eq_const (col c, v)
    | Neq_const (c, v) -> Neq_const (col c, v)
    | Lt_const (c, v) -> Lt_const (col c, v)
    | Gt_const (c, v) -> Gt_const (col c, v)
    | Eq_col (a, b) -> Eq_col (col a, col b)
    | And (a, b) -> And (pred a, pred b)
    | Or (a, b) -> Or (pred a, pred b)
    | Not a -> Not (pred a)
  in
  let rec go (t : Term.t) : Term.t =
    match t with
    | Rel _ | Cst _ -> t
    | Var x -> Var (var x)
    | Select (p, u) -> Select (pred p, go u)
    | Project (c, u) -> Project (List.map col c, go u)
    | Antiproject (c, u) -> Antiproject (List.map col c, go u)
    | Rename (m, u) -> Rename (List.map (fun (o, n) -> (col o, col n)) m, go u)
    | Join (a, b) -> Join (go a, go b)
    | Antijoin (a, b) -> Antijoin (go a, go b)
    | Union (a, b) -> Union (go a, go b)
    | Fix (x, body) -> Fix (var x, go body)
  in
  go t

(* Single-node changes that make a different plan: a predicate constant,
   a predicate column, or the operator of a binary node. Applied at every
   position through the engine's own positional rewriting. *)
let mutate : Rules.rule =
  {
    name = "mutate";
    apply =
      (fun _ (t : Term.t) ->
        match t with
        | Select (Eq_const (c, v), u) ->
          [ Select (Eq_const (c, v + 1), u); Select (Eq_const (c ^ "'", v), u) ]
        | Join (a, b) -> [ Antijoin (a, b); Union (a, b) ]
        | Union (a, b) -> [ Join (a, b) ]
        | _ -> []);
  }

let prop_key_renaming =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"key: renaming internal names keeps the key"
       (Gen_terms.term_gen ()) (fun t ->
         String.equal (Engine.canonical_key t) (Engine.canonical_key (rename_internal "'" t))))

let prop_key_mutations =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"key: a changed constant, column or operator changes it"
       (Gen_terms.term_gen ()) (fun t ->
         let k = Engine.canonical_key t in
         List.for_all
           (fun m -> not (String.equal k (Engine.canonical_key m)))
           (Engine.apply_everywhere tenv mutate t)))

let test_key_literals () =
  let lit rows = Term.Cst (Rel.of_list (sch [ "src"; "trg" ]) rows) in
  let key = Engine.canonical_key in
  check_bool "equal-size literals share a key" true
    (String.equal (key (lit [ [ 0; 1 ] ])) (key (lit [ [ 2; 3 ] ])));
  check_bool "sizes differ" false
    (String.equal (key (lit [ [ 0; 1 ] ])) (key (lit [ [ 0; 1 ]; [ 2; 3 ] ])));
  let long = Rpq.Query.to_term (Rpq.Query.parse "?x, ?y <- ?x a+/b+ ?y") in
  check_bool "flat" false (String.contains (key long) '\n')

(* ------------------------------------------------------------------ *)
(* Corpus pin                                                          *)
(* ------------------------------------------------------------------ *)

(* For Q1-Q49 on fixed graphs (seed 2; Yago scale 1000, Uniprot scale
   1500): the number of plans [explore] records at the 120-plan cap the
   systems use, and the chosen plan's estimated cost printed with [%h],
   so bit for bit. They pin both the plan search and the cost model. *)
let corpus_pin =
  [
    ("Q1", 118, "0x1.174eae38e38e4p+15");
    ("Q2", 118, "0x1.239ee7be6ee2ap+15");
    ("Q3", 118, "0x1.1511cf8bd2a08p+15");
    ("Q4", 85, "0x1.cf442d5088cf4p+14");
    ("Q5", 118, "0x1.0afa571c71c72p+15");
    ("Q6", 118, "0x1.0ad0571c71c72p+15");
    ("Q7", 118, "0x1.0cb2ae38e38e4p+15");
    ("Q8", 52, "0x1.3b8dfb896c5d6p+14");
    ("Q9", 11, "0x1.0c9d5ce7dba17p+15");
    ("Q10", 39, "0x1.3b1c18eab7b52p+15");
    ("Q11", 120, "0x1.0e6b81231697fp+16");
    ("Q12", 3, "0x1.db6cp+14");
    ("Q13", 11, "0x1.4edfd5851854dp+15");
    ("Q14", 6, "0x1.36acd0e2ef24ap+17");
    ("Q15", 2, "0x1.1345f1c87f2d6p+16");
    ("Q16", 30, "0x1.1727438a90c78p+15");
    ("Q17", 70, "0x1.cfce5b78dc079p+14");
    ("Q18", 14, "0x1.3ed68715218efp+14");
    ("Q19", 22, "0x1.d658p+13");
    ("Q20", 120, "0x1.014d268dc5f26p+15");
    ("Q21", 2, "0x1.8610f1ae54d0bp+16");
    ("Q22", 11, "0x1.337af9ff81ca5p+14");
    ("Q23", 14, "0x1.f2f08c1cac47ep+16");
    ("Q24", 19, "0x1.d2f7e4e622bb2p+16");
    ("Q25", 11, "0x1.2128126756aafp+20");
    ("Q26", 3, "0x1.e28aa66e9ecf4p+14");
    ("Q27", 3, "0x1.58b9fbecfc4b1p+14");
    ("Q28", 3, "0x1.ff906eb3d06fp+15");
    ("Q29", 3, "0x1.511f4698136bcp+17");
    ("Q30", 3, "0x1.4145886a51a6dp+19");
    ("Q31", 11, "0x1.875f279d8af87p+19");
    ("Q32", 11, "0x1.2049bfa2b4292p+18");
    ("Q33", 33, "0x1.9646b3530d118p+21");
    ("Q34", 3, "0x1.5db56d18d6acp+17");
    ("Q35", 3, "0x1.53edfbecfc4b1p+14");
    ("Q36", 11, "0x1.091b5932c17b9p+13");
    ("Q37", 4, "0x1.23c35a39d4c34p+23");
    ("Q38", 38, "0x1.35f3dd105870bp+19");
    ("Q39", 57, "0x1.af57c9e6493a2p+16");
    ("Q40", 120, "0x1.c0f528c8f74bbp+16");
    ("Q41", 47, "0x1.d9aa589b1c6afp+13");
    ("Q42", 3, "0x1.71e1392b0cc2p+14");
    ("Q43", 2, "0x1.82e0d89d89d8ap+15");
    ("Q44", 3, "0x1.fa1f6288d87fdp+16");
    ("Q45", 19, "0x1.4674fc0a446c1p+13");
    ("Q46", 3, "0x1.f5c3951068b59p+14");
    ("Q47", 53, "0x1.c92ad5ba7be9dp+14");
    ("Q48", 104, "0x1.5c5c03c4e608fp+15");
    ("Q49", 19, "0x1.43de23df5031ap+14");
  ]

(* A join of two operands that each hold a closed fixpoint: both
   closures are materialised in full before they meet. *)
let rec joins_two_closures (t : Term.t) =
  match t with
  | Join (u, v) -> (closed_fixes u <> [] && closed_fixes v <> []) || joins_two_closures u || joins_two_closures v
  | Rel _ | Cst _ | Var _ -> false
  | Select (_, u) | Project (_, u) | Antiproject (_, u) | Rename (_, u) | Fix (_, u) ->
    joins_two_closures u
  | Antijoin (u, v) | Union (u, v) -> joins_two_closures u || joins_two_closures v

let test_corpus_pin () =
  let yago = Graphgen.Yago_like.generate ~seed:2 ~scale:1000 () in
  let uniprot = Graphgen.Uniprot_like.generate ~seed:2 ~scale:1500 () in
  let queries =
    List.map (fun s -> (s, yago)) Harness.Queries.yago
    @ List.map (fun s -> (s, uniprot)) (Harness.Queries.uniprot uniprot)
  in
  check_int "corpus size" (List.length corpus_pin) (List.length queries);
  List.iter2
    (fun ((spec : Harness.Queries.spec), g) (id, plans, cost) ->
      Alcotest.(check string) "query id" id spec.id;
      let tables = [ ("E", g) ] in
      let term = Rpq.Query.union_to_term (Rpq.Query.parse_union spec.text) in
      let tenv = Mura.Typing.env [ ("E", Rel.schema g) ] in
      check_int (id ^ " explored plans") plans
        (List.length (Engine.explore ~max_plans:120 tenv term));
      let best = Harness.Systems.optimize tables term in
      (* the Uniprot queries whose closures the model used to join *)
      if List.mem id [ "Q31"; "Q33" ] then
        check_bool (id ^ " chosen plan joins no two closures") false (joins_two_closures best);
      (* the (a|b)+ closures of Q47/Q48 are anchored, not built in full
         (38 856 tuples unanchored) *)
      if List.mem id [ "Q47"; "Q48" ] then
        List.iter
          (fun f ->
            let n = Rel.cardinal (Mura.Eval.eval (Mura.Eval.env tables) f) in
            if n >= 1000 then Alcotest.failf "%s: a closed fixpoint of %d tuples" id n)
          (closed_fixes best);
      Alcotest.(check string)
        (id ^ " chosen plan cost") cost
        (Printf.sprintf "%h" (Cost.Estimate.cost (Cost.Stats.of_tables tables) best)))
    queries corpus_pin

let () =
  Alcotest.run "rewrite"
    [
      ( "shapes",
        [
          Alcotest.test_case "compose" `Quick test_shapes_compose;
          Alcotest.test_case "closure/seeded" `Quick test_shapes_closure;
          Alcotest.test_case "union bodies" `Quick test_shapes_union_bodies;
        ] );
      ( "rules",
        [
          Alcotest.test_case "reverse closure" `Quick test_reverse_closure;
          Alcotest.test_case "push filter" `Quick test_push_filter_into_fix;
          Alcotest.test_case "push join" `Quick test_push_join_into_fix;
          Alcotest.test_case "merge fixpoints" `Quick test_merge_fixpoints;
          Alcotest.test_case "push antiproject" `Quick test_push_antiproject_into_fix;
          Alcotest.test_case "union-body closures" `Quick test_union_body_rules;
          Alcotest.test_case "classical pushdowns" `Quick test_classical_pushdowns;
          Alcotest.test_case "antijoin/antiproject rules" `Quick
            test_select_antijoin_and_antiproject_merge;
        ] );
      ( "engine",
        [
          Alcotest.test_case "optimize with cost" `Quick test_optimize_with_cost;
          Alcotest.test_case "bounded exploration" `Quick test_explore_bounded;
        ] );
      ( "properties",
        [ prop_all_plans_equivalent; prop_optimized_equivalent; prop_random_terms_rewrites_sound ]
      );
      ( "dedup key",
        [
          prop_key_renaming;
          prop_key_mutations;
          Alcotest.test_case "literals and layout" `Quick test_key_literals;
        ] );
      ( "corpus pin",
        [ Alcotest.test_case "Q1-Q49 plan counts and chosen costs" `Quick test_corpus_pin ] );
    ]
