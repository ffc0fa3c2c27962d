(* Tests for the cost estimator: sanity of cardinality estimates and the
   plan-ranking behaviour the rewriter relies on. *)

open Relation
module Term = Mura.Term
module P = Mura.Patterns
module Stats = Cost.Stats
module Estimate = Cost.Estimate

let sch = Schema.of_list
let check_bool = Alcotest.(check bool)

let a = Value.of_string "a"
let b = Value.of_string "b"

let chain n label start =
  List.init n (fun i -> [ start + i; label; start + i + 1 ])

let labelled =
  Rel.of_list (sch [ "src"; "pred"; "trg" ]) (chain 30 a 0 @ chain 10 b 100)

let tables = [ ("E", labelled) ]
let stats = Stats.of_tables tables

let test_stats_basics () =
  Alcotest.(check (option int)) "count" (Some 40) (Stats.count stats "E");
  Alcotest.(check (option int)) "distinct pred" (Some 2) (Stats.distinct stats "E" "pred");
  Alcotest.(check (option int)) "unknown rel" None (Stats.count stats "nope");
  Alcotest.(check (option int)) "unknown col" None (Stats.distinct stats "E" "zzz")

let test_select_estimate () =
  let whole = Estimate.cardinality stats (Term.Rel "E") in
  let filtered =
    Estimate.cardinality stats (Term.Select (Pred.Eq_const ("pred", a), Term.Rel "E"))
  in
  check_bool "filter shrinks" true (filtered < whole);
  check_bool "about half" true (filtered >= whole /. 4. && filtered <= whole)

let test_join_estimate () =
  let e2 =
    Term.Antiproject
      ( [ "m" ],
        Term.Join
          ( Term.rename1 "trg" "m" (Term.Antiproject ([ "pred" ], Term.Rel "E")),
            Term.rename1 "src" "m" (Term.Antiproject ([ "pred" ], Term.Rel "E")) ) )
  in
  let est = Estimate.cardinality stats e2 in
  check_bool "2-paths bounded" true (est >= 1. && est <= 40. *. 40.)

let test_fix_estimate_grows () =
  let base = Estimate.cardinality stats (P.edge "a") in
  let closure = Estimate.cardinality stats (P.closure (P.edge "a")) in
  check_bool "closure >= base" true (closure >= base);
  (* capped: not astronomically larger than the domain *)
  check_bool "closure capped" true (closure <= 1e9)

let test_ranking_filter_push () =
  (* pushed filter must be estimated cheaper than filtering afterwards *)
  let unpushed = Term.Select (Pred.Eq_const ("src", 0), P.closure (P.edge "a")) in
  let pushed =
    P.closure_from (Term.Select (Pred.Eq_const ("src", 0), P.edge "a")) (P.edge "a")
  in
  check_bool "pushed filter cheaper" true
    (Estimate.cost stats pushed < Estimate.cost stats unpushed)

let test_ranking_merge () =
  let joined = Rewrite.Shapes.mk_compose (P.closure (P.edge "a")) (P.closure (P.edge "b")) in
  let merged =
    Rewrite.Shapes.mk_merged ~first:(P.edge "a") ~second:(P.edge "b")
  in
  check_bool "merged fixpoint cheaper than join of closures" true
    (Estimate.cost stats merged < Estimate.cost stats joined)

(* --- slice statistics and the fixpoint cap ---------------------------- *)

let check_close msg expected actual = Alcotest.(check (float 1e-9)) msg expected actual

(* A label leaf, and a leaf with a second constant, are estimated with
   the exact count and distincts of the slice they select. *)
let test_slice_exact () =
  let exact p =
    let e = Estimate.term stats (Term.Select (p, Term.Rel "E")) in
    let slice = Rel.select p labelled in
    check_close (Pred.to_string p ^ " count") (float_of_int (Rel.cardinal slice)) e.card;
    List.iter
      (fun (c, d) -> check_close (Pred.to_string p ^ " " ^ c) (float_of_int d) (List.assoc c e.distincts))
      (Rel.distinct_counts slice)
  in
  exact (Pred.Eq_const ("pred", a));
  exact (Pred.Eq_const ("pred", b));
  exact (Pred.And (Pred.Eq_const ("pred", b), Pred.Eq_const ("src", 103)))

(* Over an input without statistics, [c = v] conjuncts pin their column
   to one value and [a = b] narrows both columns to the smaller domain. *)
let test_select_narrowing () =
  let x =
    { Estimate.card = 1000.; distincts = [ ("src", 10.); ("pred", 5.); ("trg", 40.) ] }
  in
  let est p = Estimate.term ~vars:[ ("X", x) ] stats (Term.Select (p, Term.Var "X")) in
  let d e c = List.assoc c e.Estimate.distincts in
  let both = est (Pred.And (Pred.Eq_const ("src", 3), Pred.Eq_const ("pred", a))) in
  check_close "src pinned under And" 1. (d both "src");
  check_close "pred pinned under And" 1. (d both "pred");
  check_close "trg only clamped" (Float.min 40. both.card) (d both "trg");
  let diag = est (Pred.Eq_col ("src", "trg")) in
  check_close "src narrowed" 10. (d diag "src");
  check_close "trg narrowed" 10. (d diag "trg")

let rec closed_fixes (t : Term.t) =
  let here = match t with Fix _ when Term.free_vars t = [] -> [ t ] | _ -> [] in
  here
  @
  match t with
  | Rel _ | Cst _ | Var _ -> []
  | Select (_, u) | Project (_, u) | Antiproject (_, u) | Rename (_, u) | Fix (_, u) ->
    closed_fixes u
  | Join (u, v) | Antijoin (u, v) | Union (u, v) -> closed_fixes u @ closed_fixes v

let prop_fix_within_domain =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"a fixpoint's estimate is within the product of its columns' domain bounds"
       Gen_terms.term_and_env_gen
       (fun (t, tables) ->
         let stats = Stats.of_tables tables in
         List.for_all
           (fun f ->
             let e = Estimate.term stats f in
             let domain = List.fold_left (fun acc (_, d) -> acc *. d) 1. e.distincts in
             e.distincts <> [] && e.card <= domain *. (1. +. 1e-9))
           (closed_fixes t)))

(* Shaped like Uniprot's [occurs]: many sources, few targets, so
   occurs/-occurs is much larger than either label. Seeding the second
   closure with the first, or merging the two, must be estimated
   cheaper than joining the two closures. *)
let test_ranking_occurs_shape () =
  let interacts = Value.of_string "interacts" and occurs = Value.of_string "occurs" in
  let g =
    Rel.of_list
      (sch [ "src"; "pred"; "trg" ])
      (List.init 150 (fun i -> [ i; interacts; ((i * 7) + 3) mod 200 ])
      @ List.init 180 (fun i -> [ i; occurs; 1000 + (i mod 6) ]))
  in
  let stats = Stats.of_tables [ ("E", g) ] in
  let i = P.edge "interacts" in
  let oo = P.compose (P.edge "occurs") (P.edge_inv "occurs") in
  let joined = Rewrite.Shapes.mk_compose (P.closure i) (P.closure oo) in
  let seeded =
    Rewrite.Shapes.mk_seeded Left ~seed:(Rewrite.Shapes.mk_compose i (P.closure oo)) ~step:i
  in
  let merged = Rewrite.Shapes.mk_merged ~first:i ~second:oo in
  let joined_cost = Estimate.cost stats joined in
  check_bool "seeded cheaper than the join of closures" true (Estimate.cost stats seeded < joined_cost);
  check_bool "merged cheaper than the join of closures" true (Estimate.cost stats merged < joined_cost)

let test_estimator_total () =
  (* the estimator must never raise, whatever the term *)
  let terms =
    [
      Term.Rel "unknown";
      Term.Var "X";
      Term.Fix ("X", Term.Var "X");
      Term.Union (Term.Rel "E", Term.Rel "E");
      Term.Antijoin (Term.Rel "E", Term.Rel "unknown");
      P.closure (P.edge "nolabel");
    ]
  in
  List.iter (fun t -> ignore (Estimate.cost stats t)) terms

let prop_estimates_positive =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"estimates are positive and finite"
       (QCheck2.Gen.oneofl
          [
            Term.Rel "E";
            P.edge "a";
            P.closure (P.edge "a");
            Rewrite.Shapes.mk_merged ~first:(P.edge "a") ~second:(P.edge "b");
            Term.Select (Pred.Eq_const ("src", 3), P.closure (P.edge "a"));
            Term.Antiproject ([ "src" ], P.closure (P.edge "a"));
          ])
       (fun t ->
         let c = Estimate.cost stats t and card = Estimate.cardinality stats t in
         c > 0. && card > 0. && Float.is_finite c && Float.is_finite card))

(* --- single-pass cost ------------------------------------------------ *)

(* The cost model written node by node: every operator's estimate is
   [Estimate.term] of its own subterm, computed on its own. *)
let rec reference_cost ?(vars = []) stats (t : Term.t) =
  let card u = (Estimate.term ~vars stats u).Estimate.card in
  let sub u = reference_cost ~vars stats u in
  match t with
  | Rel _ | Cst _ | Var _ -> card t
  (* a label leaf [σ_p(E)] is charged the scan of [E] and its exact slice,
     both of which [card] reads *)
  | Select (_, u) | Project (_, u) | Antiproject (_, u) | Rename (_, u) -> sub u +. card t
  | Join (a, b) | Antijoin (a, b) | Union (a, b) -> sub a +. sub b +. card t
  | Fix (x, body) ->
    let e = Estimate.term ~vars stats t in
    let consts, recs = Mura.Fcond.split ~var:x body in
    let c_init = List.fold_left (fun acc c -> acc +. sub c) 0. consts in
    let rec_work =
      List.fold_left (fun acc r -> acc +. reference_cost ~vars:((x, e) :: vars) stats r) 0. recs
    in
    let exchange =
      if Mura.Stabilizer.stable_among ~var:x (List.map fst e.distincts) recs = [] then
        e.card *. float_of_int (List.length recs)
      else 0.
    in
    c_init +. rec_work +. exchange +. e.card

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let agrees stats t = same_bits (Estimate.cost stats t) (reference_cost stats t)

(* Generated path terms, some under an antijoin or beside a literal so
   every operator occurs. *)
let shaped_term_gen =
  let open QCheck2.Gen in
  let lit = Term.Cst (Rel.of_list (sch [ "src"; "trg" ]) [ [ 0; 1 ]; [ 1; 2 ]; [ 1; 3 ] ]) in
  let* t = Gen_terms.term_gen () in
  oneofl [ t; Term.Antijoin (t, Term.Rel "S"); Term.Union (t, lit); Term.Project ([ "src" ], t) ]

let prop_cost_single_pass =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"single-pass cost = per-node reference, bit for bit"
       QCheck2.Gen.(pair shaped_term_gen Gen_terms.env_gen)
       (fun (t, tables) -> agrees (Stats.of_tables tables) t))

let test_cost_single_pass_corpus () =
  (* every plan the rewriter explores for the corpus queries *)
  let yago = Graphgen.Yago_like.generate ~seed:3 ~scale:300 () in
  let uniprot = Graphgen.Uniprot_like.generate ~seed:3 ~scale:300 () in
  List.iter
    (fun (g, specs) ->
      let stats = Stats.of_tables [ ("E", g) ] in
      let tenv = Mura.Typing.env [ ("E", Rel.schema g) ] in
      List.iter
        (fun (spec : Harness.Queries.spec) ->
          let term = Rpq.Query.union_to_term (Rpq.Query.parse_union spec.text) in
          List.iteri
            (fun i p -> check_bool (Printf.sprintf "%s plan %d" spec.id i) true (agrees stats p))
            (Rewrite.Engine.explore ~max_plans:120 tenv term))
        specs)
    [ (yago, Harness.Queries.yago); (uniprot, Harness.Queries.uniprot uniprot) ]

(* --- estimate-vs-actual feedback ------------------------------------- *)

module Feedback = Cost.Feedback

let check_float = Alcotest.(check (float 1e-9))

let test_q_error_properties () =
  check_float "exact" 1.0 (Feedback.q_error ~est:40. ~actual:40.);
  check_float "symmetric over" 4.0 (Feedback.q_error ~est:40. ~actual:10.);
  check_float "symmetric under" 4.0 (Feedback.q_error ~est:10. ~actual:40.);
  (* empty sides clamp to one tuple instead of dividing by zero *)
  check_float "zero actual" 40.0 (Feedback.q_error ~est:40. ~actual:0.);
  check_float "both empty" 1.0 (Feedback.q_error ~est:0. ~actual:0.)

let test_estimates_paths () =
  let term = Term.Select (Pred.Eq_const ("pred", a), Term.Rel "E") in
  let es = Feedback.estimates stats term in
  check_bool "root first" true
    (match es with { Feedback.path = "0"; _ } :: _ -> true | _ -> false);
  check_bool "child addressed 0.0" true
    (List.exists (fun (e : Feedback.estimate) -> e.path = "0.0" && e.label = "Rel E") es)

let test_exact_scan_q_error () =
  (* base-table scan estimate comes straight from the stats: q-error 1.0 *)
  let ms =
    Feedback.compare_actuals stats (Term.Rel "E")
      ~actuals:[ ("0", Rel.cardinal labelled) ]
  in
  check_float "scan q-error" 1.0 (Feedback.query_q_error ms)

let test_compare_actuals_ranking () =
  let term = Term.Union (Term.Rel "E", Term.Rel "E") in
  (* root actual matches the estimate poorly; children exactly *)
  let ms =
    Feedback.compare_actuals stats term
      ~actuals:[ ("0", 1); ("0.0", 40); ("0.1", 40) ]
  in
  check_bool "worst first" true
    (match ms with
    | worst :: rest ->
      worst.Feedback.m_path = "0"
      && List.for_all (fun (m : Feedback.mismatch) -> m.m_q <= worst.m_q) rest
    | [] -> false);
  check_bool "unreported nodes skipped" true
    (List.length
       (Feedback.compare_actuals stats term ~actuals:[ ("0.1", 40) ])
    = 1);
  check_bool "summary mentions worst node" true
    (let s = Feedback.summary ms in
     String.length s > 0);
  check_float "no actuals -> neutral q" 1.0 (Feedback.query_q_error [])

let test_check_plan_ordering () =
  let fired = ref [] in
  Feedback.ordering_hook := (fun msg -> fired := msg :: !fired);
  Fun.protect
    ~finally:(fun () -> Feedback.ordering_hook := fun _ -> ())
    (fun () ->
      check_bool "agreement -> None" true
        (Feedback.check_plan_ordering
           ~est_costs:[ ("p1", 1.); ("p2", 2.) ]
           ~actual_costs:[ ("p1", 0.1); ("p2", 0.4) ]
        = None);
      check_bool "no hook on agreement" true (!fired = []);
      check_bool "empty -> None" true
        (Feedback.check_plan_ordering ~est_costs:[] ~actual_costs:[] = None);
      let d =
        Feedback.check_plan_ordering
          ~est_costs:[ ("p1", 1.); ("p2", 2.) ]
          ~actual_costs:[ ("p1", 0.4); ("p2", 0.1) ]
      in
      check_bool "disagreement -> Some" true (d <> None);
      check_bool "hook fired" true (List.length !fired = 1))

let () =
  Alcotest.run "cost"
    [
      ( "stats",
        [ Alcotest.test_case "basics" `Quick test_stats_basics ] );
      ( "estimates",
        [
          Alcotest.test_case "select" `Quick test_select_estimate;
          Alcotest.test_case "slice statistics are exact" `Quick test_slice_exact;
          Alcotest.test_case "select narrows distincts" `Quick test_select_narrowing;
          prop_fix_within_domain;
          Alcotest.test_case "join" `Quick test_join_estimate;
          Alcotest.test_case "fixpoint" `Quick test_fix_estimate_grows;
          Alcotest.test_case "total" `Quick test_estimator_total;
          prop_estimates_positive;
          prop_cost_single_pass;
          Alcotest.test_case "single pass on corpus plans" `Quick test_cost_single_pass_corpus;
        ] );
      ( "ranking",
        [
          Alcotest.test_case "filter push" `Quick test_ranking_filter_push;
          Alcotest.test_case "merge fixpoints" `Quick test_ranking_merge;
          Alcotest.test_case "occurs-shaped closures" `Quick test_ranking_occurs_shape;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "q-error properties" `Quick test_q_error_properties;
          Alcotest.test_case "estimate paths" `Quick test_estimates_paths;
          Alcotest.test_case "exact scan" `Quick test_exact_scan_q_error;
          Alcotest.test_case "mismatch ranking" `Quick test_compare_actuals_ranking;
          Alcotest.test_case "plan ordering" `Quick test_check_plan_ordering;
        ] );
    ]
