(* Tests for the serving layer: result-cache hits skip the fixpoint
   entirely, cached results are bit-identical to uncached evaluation
   across fixpoint plans and worker counts, registration invalidates
   exactly the dependent entries, an edge batch invalidates only the
   entries whose selection keys it touches, the LRU byte budget evicts,
   admission is fair across sessions, and concurrent queries sharing a
   fixpoint subterm evaluate it exactly once. *)

open Relation
module Term = Mura.Term
module Patterns = Mura.Patterns
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

(* two chains joined through a cycle: several fixpoint iterations *)
let edges =
  rel [ "src"; "trg" ]
    [
      [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 5 ]; [ 5; 6 ];
      [ 10; 11 ]; [ 11; 12 ]; [ 12; 10 ];
      [ 3; 10 ]; [ 6; 1 ];
    ]

let edges2 = rel [ "src"; "trg" ] [ [ 1; 2 ]; [ 2; 3 ]; [ 7; 8 ] ]
let eval_on graph term = Mura.Eval.eval (Mura.Eval.env [ ("E", graph) ]) term

let make_serve ?max_inflight ?plan_cache_capacity ?result_cache_bytes ?force_plan ?(workers = 2)
    ?(graph = edges) () =
  let cluster = Cluster.make ~workers () in
  let config =
    match force_plan with
    | None -> None
    | Some _ -> Some { (Exec.default_config cluster) with Exec.force_plan }
  in
  let t =
    Serve.create ?max_inflight ?plan_cache_capacity ?result_cache_bytes ?config ~cluster ()
  in
  Serve.register t "E" graph;
  t

(* ---- result cache: repeat query skips the fixpoint ---- *)

let test_result_cache_hit () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q = Patterns.closure (Term.Rel "E") in
  let r1 = Serve.query t sn q in
  check_bool "first is a miss" false r1.Serve.result_hit;
  check_bool "first ran iterations" true (r1.Serve.iterations > 0);
  check_rel "first is correct" (eval_on edges q) r1.Serve.rel;
  (* metrics must stay flat across the hit: no stage runs at all *)
  let m = Cluster.metrics (Serve.cluster t) in
  let supersteps_before = m.Metrics.supersteps and stages_before = m.Metrics.stages in
  (* a fresh translation of the same query: different fresh names *)
  let r2 = Serve.query t sn (Patterns.closure (Term.Rel "E")) in
  check_bool "second is a hit" true r2.Serve.result_hit;
  check_int "second runs no iterations" 0 r2.Serve.iterations;
  check_int "no superstep ran" supersteps_before m.Metrics.supersteps;
  check_int "no stage ran" stages_before m.Metrics.stages;
  check_bool "identical result object" true (r1.Serve.rel == r2.Serve.rel);
  let s = Serve.stats t in
  check_int "one hit" 1 s.Serve.result_hits;
  check_int "one miss" 1 s.Serve.result_misses;
  Serve.shutdown t

(* unoptimized submissions share the entry with optimized ones *)
let test_optimize_flag_shares_entry () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q = Patterns.closure (Term.Rel "E") in
  let r1 = Serve.query ~optimize:false t sn q in
  let r2 = Serve.query t sn q in
  check_bool "hit across optimize flag" true r2.Serve.result_hit;
  check_rel "same contents" r1.Serve.rel r2.Serve.rel;
  Serve.shutdown t

(* ---- parity: cached results bit-identical across plans and workers ---- *)

let test_parity_across_plans () =
  let q () = Patterns.closure (Term.Rel "E") in
  let expected = eval_on edges (q ()) in
  List.iter
    (fun (force_plan, workers) ->
      let t = make_serve ?force_plan ~workers () in
      let sn = Serve.open_session t in
      let miss = Serve.query t sn (q ()) in
      let hit = Serve.query t sn (q ()) in
      check_bool "hit" true hit.Serve.result_hit;
      check_rel "uncached matches oracle" expected miss.Serve.rel;
      check_rel "cached matches uncached" miss.Serve.rel hit.Serve.rel;
      Serve.shutdown t)
    [
      (None, 1); (None, 4);
      (Some Exec.P_gld, 1); (Some Exec.P_gld, 4);
      (Some Exec.P_plw_s, 1); (Some Exec.P_plw_s, 4);
    ]

(* ---- plan cache ---- *)

let test_plan_cache () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  (* same query shape against different constants: distinct result keys,
     distinct plan keys — but an identical resubmission reuses the plan *)
  let r1 = Serve.query t sn (Patterns.reach 1) in
  check_bool "first optimizes" false r1.Serve.plan_hit;
  (* different query, then mutate the graph so the result entry dies but
     the plan entry (still valid? no — plans depend on stats) dies too *)
  let s1 = Serve.stats t in
  check_int "one plan miss" 1 s1.Serve.plan_misses;
  (* force an evaluation of the same normal form again by dropping only
     the result entry: register a different relation name *)
  Serve.register t "F" edges2;
  let r2 = Serve.query t sn (Patterns.reach 1) in
  (* the result entry survived (depends on E only), so this is a hit *)
  check_bool "result survives unrelated register" true r2.Serve.result_hit;
  Serve.shutdown t

(* ---- invalidation: register -> miss -> hit -> mutate -> miss ---- *)

let test_invalidation () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  let v0 = Serve.graph_version t in
  let r1 = Serve.query t sn (q ()) in
  check_bool "miss after register" false r1.Serve.result_hit;
  let r2 = Serve.query t sn (q ()) in
  check_bool "hit" true r2.Serve.result_hit;
  check_bool "identical object" true (r1.Serve.rel == r2.Serve.rel);
  (* mutate the graph *)
  Serve.register t "E" edges2;
  check_bool "version bumped" true (Serve.graph_version t > v0);
  let r3 = Serve.query t sn (q ()) in
  check_bool "miss after mutation" false r3.Serve.result_hit;
  check_rel "fresh result on new graph" (eval_on edges2 (q ())) r3.Serve.rel;
  let s = Serve.stats t in
  check_bool "entries were invalidated" true (s.Serve.invalidated > 0);
  let r4 = Serve.query t sn (q ()) in
  check_bool "hit again on new version" true r4.Serve.result_hit;
  Serve.shutdown t

(* ---- LRU eviction under a small byte budget ---- *)

let test_lru_eviction () =
  (* budget fits one closure result but not two *)
  let q k = Term.Select (Pred.Gt_const ("src", k), Patterns.closure (Term.Rel "E")) in
  let size =
    let r = eval_on edges (q 0) in
    64 + (Metrics.tuple_bytes 2 * Rel.cardinal r)
  in
  let t = make_serve ~result_cache_bytes:(size + (size / 4)) () in
  let sn = Serve.open_session t in
  ignore (Serve.query ~optimize:false t sn (q 0));
  ignore (Serve.query ~optimize:false t sn (q 1));
  let s = Serve.stats t in
  check_bool "evicted" true (s.Serve.evictions > 0);
  check_bool "budget respected" true (s.Serve.result_bytes <= size + (size / 4));
  (* q 0 was evicted (LRU): querying it again is a miss *)
  let r = Serve.query ~optimize:false t sn (q 0) in
  check_bool "evicted entry misses" false r.Serve.result_hit;
  (* while the most recent entry still hits after its own re-insertion *)
  let r' = Serve.query ~optimize:false t sn (q 0) in
  check_bool "reinserted entry hits" true r'.Serve.result_hit;
  Serve.shutdown t

let test_too_big_to_cache () =
  let t = make_serve ~result_cache_bytes:16 () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t sn (q ()));
  let r = Serve.query t sn (q ()) in
  check_bool "never cached" false r.Serve.result_hit;
  let s = Serve.stats t in
  check_int "nothing stored" 0 s.Serve.result_entries;
  check_int "no evictions" 0 s.Serve.evictions;
  Serve.shutdown t

(* ---- fairness ---- *)

let test_fair_pick () =
  let served = function 1 -> 1 | _ -> 0 in
  (* session 2 has been served less: it jumps the queue *)
  Alcotest.(check (option (pair int int)))
    "less-served session first"
    (Some (2, 4))
    (Serve.fair_pick ~served [ (1, 2); (1, 3); (2, 4) ]);
  (* equal service: FIFO by arrival *)
  Alcotest.(check (option (pair int int)))
    "fifo on ties"
    (Some (1, 2))
    (Serve.fair_pick ~served:(fun _ -> 0) [ (1, 2); (2, 3) ]);
  Alcotest.(check (option (pair int int))) "empty" None (Serve.fair_pick ~served [])

(* ---- concurrency: identical queries batch onto one evaluation ---- *)

let test_concurrent_identical_queries () =
  let t = make_serve ~max_inflight:1 () in
  let expected = eval_on edges (Patterns.closure (Term.Rel "E")) in
  let n = 4 in
  let domains =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            let sn = Serve.open_session ~name:(Printf.sprintf "client-%d" i) t in
            Serve.query t sn (Patterns.closure (Term.Rel "E"))))
  in
  let rs = List.map Domain.join domains in
  List.iter (fun (r : Serve.response) -> check_rel "every client correct" expected r.Serve.rel) rs;
  let s = Serve.stats t in
  check_int "all completed" n s.Serve.completed;
  check_int "one evaluation" 1 s.Serve.result_misses;
  check_int "everyone else reused it" (n - 1) (s.Serve.result_hits + s.Serve.shared_joins);
  Serve.shutdown t

(* ---- concurrency: distinct queries sharing a fixpoint subterm
   evaluate it exactly once (the acceptance criterion) ---- *)

let test_shared_fixpoint_batching () =
  let t = make_serve ~max_inflight:2 () in
  (* distinct whole queries, same closed fixpoint subterm when executed
     as written *)
  let qa = Patterns.closure (Term.Rel "E") in
  let qb = Term.Select (Pred.Gt_const ("src", 3), qa) in
  let da = Domain.spawn (fun () ->
      let sn = Serve.open_session t in
      Serve.query ~optimize:false t sn qa)
  in
  let db = Domain.spawn (fun () ->
      let sn = Serve.open_session t in
      Serve.query ~optimize:false t sn qb)
  in
  let ra = Domain.join da and rb = Domain.join db in
  check_rel "a correct" (eval_on edges qa) ra.Serve.rel;
  check_rel "b correct" (eval_on edges qb) rb.Serve.rel;
  let s = Serve.stats t in
  (* whatever the interleaving — b waited on a's in-flight fixpoint, or
     found it in the cache, or evaluated first and a reused it — the
     fixpoint ran exactly once. The reuse can surface as a fixpoint hit,
     a join onto the in-flight promise, or (when b finishes before a
     even starts resolving: a's whole term IS the shared fixpoint, and
     the fixpoint and result caches share one normal-key table) as a
     whole-result cache hit. *)
  check_int "exactly one fixpoint evaluation" 1 s.Serve.fix_evals;
  check_int "the other query reused it" 1
    (s.Serve.fix_hits + s.Serve.fix_shared + s.Serve.result_hits);
  Serve.shutdown t

(* the cluster-level guard cannot fire through the serve layer, even
   with several admitted evaluations from sessions on their own domains *)
let test_no_concurrent_dispatch_through_serve () =
  let t = make_serve ~max_inflight:3 ~workers:2 () in
  let queries =
    [
      Patterns.closure (Term.Rel "E");
      Term.Select (Pred.Gt_const ("src", 2), Patterns.closure (Term.Rel "E"));
      Term.Project ([ "src" ], Patterns.closure (Term.Rel "E"));
      Patterns.reach 1;
      Patterns.same_generation ();
    ]
  in
  let domains =
    List.map
      (fun q ->
        Domain.spawn (fun () ->
            let sn = Serve.open_session t in
            let r = Serve.query ~optimize:false t sn q in
            check_rel "correct under concurrency" (eval_on edges q) r.Serve.rel))
      queries
  in
  List.iter Domain.join domains;
  let s = Serve.stats t in
  check_int "all completed" (List.length queries) s.Serve.completed;
  check_int "none failed" 0 s.Serve.failed;
  Serve.shutdown t

(* ---- sessions and errors ---- *)

let test_session_lifecycle () =
  let t = make_serve () in
  let a = Serve.open_session ~name:"alice" t in
  let b = Serve.open_session t in
  check_bool "distinct ids" true (Serve.Session.id a <> Serve.Session.id b);
  Alcotest.(check string) "name kept" "alice" (Serve.Session.name a);
  Serve.close_session t a;
  (match Serve.query t a (Patterns.reach 1) with
  | _ -> Alcotest.fail "closed session accepted a query"
  | exception Invalid_argument _ -> ());
  (* failures propagate and are counted; the server survives *)
  (match Serve.query t b (Term.Rel "NOSUCH") with
  | _ -> Alcotest.fail "unknown relation did not fail"
  | exception _ -> ());
  let r = Serve.query t b (Patterns.reach 1) in
  check_rel "server still works" (eval_on edges (Patterns.reach 1)) r.Serve.rel;
  let s = Serve.stats t in
  check_int "failure counted" 1 s.Serve.failed;
  Serve.shutdown t;
  match Serve.query t b (Patterns.reach 1) with
  | _ -> Alcotest.fail "shut-down server accepted a query"
  | exception Invalid_argument _ -> ()

(* ---- updates: an edge batch invalidates, the next read recomputes ---- *)

let test_update_recomputes () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t sn (q ()));
  let ins = rel [ "src"; "trg" ] [ [ 6; 20 ]; [ 20; 21 ] ] in
  Serve.update ~inserts:ins t "E";
  let updated = Rel.union edges ins in
  check_rel "table updated" updated (Option.get (Serve.relation t "E"));
  let r = Serve.query t sn (q ()) in
  check_bool "post-update miss" false r.Serve.result_hit;
  check_bool "recomputed" true (r.Serve.iterations > 0);
  check_rel "recomputed result correct" (eval_on updated (q ())) r.Serve.rel;
  check_int "evaluated before and after the update" 2 (Serve.stats t).Serve.fix_evals;
  let r2 = Serve.query t sn (q ()) in
  check_bool "recomputed result is cached" true r2.Serve.result_hit;
  Serve.shutdown t

(* rapid successive batches with and without interleaved queries: every
   read after a batch sees all the batches before it *)
let test_rapid_update_batches () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t sn (q ()));
  let current = ref edges in
  let apply ?inserts ?deletes () =
    Serve.update ?inserts ?deletes t "E";
    (match deletes with Some d -> current := Rel.diff !current d | None -> ());
    match inserts with Some i -> current := Rel.union !current i | None -> ()
  in
  (* two batches, no query in between *)
  apply ~inserts:(rel [ "src"; "trg" ] [ [ 6; 20 ] ]) ();
  apply
    ~inserts:(rel [ "src"; "trg" ] [ [ 20; 21 ] ])
    ~deletes:(rel [ "src"; "trg" ] [ [ 1; 2 ] ])
    ();
  let r = Serve.query t sn (q ()) in
  check_bool "merged batches miss" false r.Serve.result_hit;
  check_rel "merged-batch result correct" (eval_on !current (q ())) r.Serve.rel;
  (* an edge inserted then deleted before any query nets out *)
  apply ~inserts:(rel [ "src"; "trg" ] [ [ 40; 41 ] ]) ();
  apply ~deletes:(rel [ "src"; "trg" ] [ [ 40; 41 ] ]) ();
  let r2 = Serve.query t sn (q ()) in
  check_rel "cancelling batches correct" (eval_on !current (q ())) r2.Serve.rel;
  (* sustained stream: every round recomputes *)
  for k = 0 to 4 do
    apply ~inserts:(rel [ "src"; "trg" ] [ [ 21 + k; 22 + k ] ]) ();
    let rk = Serve.query t sn (q ()) in
    check_bool "stream round misses" false rk.Serve.result_hit;
    check_rel "stream round correct" (eval_on !current (q ())) rk.Serve.rel
  done;
  check_int "one evaluation per read" 8 (Serve.stats t).Serve.fix_evals;
  Serve.shutdown t

(* updates racing in-flight queries: every response is a consistent
   snapshot (entirely-old or entirely-new), and once the stream settles
   the served result is the fresh one *)
let test_update_mid_evaluation () =
  let t = make_serve ~workers:2 () in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t (Serve.open_session t) (q ()));
  let ins = rel [ "src"; "trg" ] [ [ 6; 20 ]; [ 20; 21 ] ] in
  let old_expected = eval_on edges (q ())
  and new_expected = eval_on (Rel.union edges ins) (q ()) in
  let d =
    Domain.spawn (fun () ->
        let sn = Serve.open_session t in
        List.init 8 (fun _ -> Serve.query t sn (q ())))
  in
  Serve.update ~inserts:ins t "E";
  let rs = Domain.join d in
  List.iter
    (fun (r : Serve.response) ->
      check_bool "consistent snapshot" true
        (Rel.equal old_expected r.Serve.rel || Rel.equal new_expected r.Serve.rel))
    rs;
  let r = Serve.query t (Serve.open_session t) (q ()) in
  check_rel "settled result is fresh" new_expected r.Serve.rel;
  check_int "none failed" 0 (Serve.stats t).Serve.failed;
  Serve.shutdown t

(* full registration replaces the contents: the next read recomputes on
   the new graph, and later batches apply to it *)
let test_register_then_update () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t sn (q ()));
  Serve.register t "E" edges2;
  let r = Serve.query t sn (q ()) in
  check_bool "recomputed after register" false r.Serve.result_hit;
  check_rel "fresh graph result" (eval_on edges2 (q ())) r.Serve.rel;
  let ins = rel [ "src"; "trg" ] [ [ 3; 9 ] ] in
  Serve.update ~inserts:ins t "E";
  let r2 = Serve.query t sn (q ()) in
  check_rel "update on the new graph" (eval_on (Rel.union edges2 ins) (q ())) r2.Serve.rel;
  check_int "one evaluation per read" 3 (Serve.stats t).Serve.fix_evals;
  Serve.shutdown t

(* ---- predicate-granular invalidation: a batch drops only the entries
   whose σ-keys it touches ---- *)

let la = Value.of_string "a"
let lb = Value.of_string "b"
let labelled rows = rel [ "src"; "pred"; "trg" ] (List.map (fun (s, l, t) -> [ s; l; t ]) rows)

(* an a-cycle with a tail and a b-cycle sharing node 1 *)
let lgraph =
  labelled [ (1, la, 2); (2, la, 3); (3, la, 1); (3, la, 4); (1, lb, 5); (5, lb, 6); (6, lb, 1) ]

let ucrpq text = Rpq.Query.union_to_term (Rpq.Query.parse_union text)
let aplus () = ucrpq "?x, ?y <- ?x a+ ?y"

(* a+ joined with one b step: the closed a+ fixpoint under a shell
   that reads b *)
let aplus_b () = ucrpq "?x, ?z <- ?x a+ ?y, ?y b ?z"
let unfiltered () = Patterns.closure (Term.Antiproject ([ "pred" ], Term.Rel "E"))

let apply graph ?inserts ?deletes t =
  Serve.update ?inserts ?deletes t "E";
  let g = match deletes with Some d -> Rel.diff graph d | None -> graph in
  match inserts with Some i -> Rel.union g i | None -> g

let test_untouched_label_hits () =
  let t = make_serve ~graph:lgraph () in
  let sn = Serve.open_session t in
  ignore (Serve.query t sn (aplus ()));
  let g = apply lgraph ~inserts:(labelled [ (6, lb, 7); (2, lb, 5) ]) t in
  let r = Serve.query t sn (aplus ()) in
  check_bool "a+ survives a b insert" true r.Serve.result_hit;
  check_rel "hit equals the oracle" (eval_on g (aplus ())) r.Serve.rel;
  let g = apply g ~deletes:(labelled [ (5, lb, 6) ]) t in
  let r = Serve.query t sn (aplus ()) in
  check_bool "a+ survives a b delete" true r.Serve.result_hit;
  check_rel "hit equals the oracle after delete" (eval_on g (aplus ())) r.Serve.rel;
  Serve.shutdown t

let test_touched_label_misses () =
  let t = make_serve ~graph:lgraph () in
  let sn = Serve.open_session t in
  ignore (Serve.query t sn (aplus ()));
  let g = apply lgraph ~inserts:(labelled [ (4, la, 8) ]) t in
  let r = Serve.query t sn (aplus ()) in
  check_bool "an a insert misses" false r.Serve.result_hit;
  check_rel "insert result correct" (eval_on g (aplus ())) r.Serve.rel;
  let g = apply g ~deletes:(labelled [ (3, la, 1) ]) t in
  let r = Serve.query t sn (aplus ()) in
  check_bool "an a delete misses" false r.Serve.result_hit;
  check_rel "delete result correct" (eval_on g (aplus ())) r.Serve.rel;
  Serve.shutdown t

(* the whole-query entry reads b and dies; its a+ fixpoint does not *)
let test_fixpoint_survives_shell_change () =
  let t = make_serve ~graph:lgraph () in
  let sn = Serve.open_session t in
  ignore (Serve.query ~optimize:false t sn (aplus_b ()));
  let evals = (Serve.stats t).Serve.fix_evals in
  let g = apply lgraph ~inserts:(labelled [ (4, lb, 9) ]) t in
  let r = Serve.query ~optimize:false t sn (aplus_b ()) in
  check_bool "the shell's entry misses" false r.Serve.result_hit;
  check_bool "the cached fixpoint is reused" true (r.Serve.fix_hits > 0);
  check_int "no fixpoint re-evaluated" evals (Serve.stats t).Serve.fix_evals;
  check_rel "shell rerun correct" (eval_on g (aplus_b ())) r.Serve.rel;
  Serve.shutdown t

let test_unfiltered_read_always_invalidated () =
  let t = make_serve ~graph:lgraph () in
  let sn = Serve.open_session t in
  ignore (Serve.query t sn (unfiltered ()));
  let g = apply lgraph ~inserts:(labelled [ (6, lb, 7) ]) t in
  let r = Serve.query t sn (unfiltered ()) in
  check_bool "an unfiltered read misses on a b batch" false r.Serve.result_hit;
  check_rel "unfiltered result correct" (eval_on g (unfiltered ())) r.Serve.rel;
  let g = apply g ~deletes:(labelled [ (1, la, 2) ]) t in
  let r = Serve.query t sn (unfiltered ()) in
  check_bool "and on an a batch" false r.Serve.result_hit;
  check_rel "unfiltered result correct after delete" (eval_on g (unfiltered ())) r.Serve.rel;
  Serve.shutdown t

(* re-inserting a resident edge or deleting an absent one changes
   nothing: no entry dropped, even one that reads E unfiltered *)
let test_noop_tuples_invalidate_nothing () =
  let t = make_serve ~graph:lgraph () in
  let sn = Serve.open_session t in
  ignore (Serve.query t sn (aplus ()));
  ignore (Serve.query t sn (unfiltered ()));
  let s0 = Serve.stats t in
  Serve.update ~inserts:(labelled [ (1, la, 2) ]) ~deletes:(labelled [ (9, la, 9) ]) t "E";
  let s1 = Serve.stats t in
  check_int "version advances once" (s0.Serve.graph_version + 1) s1.Serve.graph_version;
  check_int "nothing invalidated" s0.Serve.invalidated s1.Serve.invalidated;
  check_bool "catalog unchanged" true (Rel.equal lgraph (Option.get (Serve.relation t "E")));
  check_bool "a+ still hits" true (Serve.query t sn (aplus ())).Serve.result_hit;
  check_bool "unfiltered still hits" true (Serve.query t sn (unfiltered ())).Serve.result_hit;
  (* the next a batch still invalidates, and the read sees exactly it *)
  let g = apply lgraph ~inserts:(labelled [ (4, la, 8) ]) t in
  let r = Serve.query t sn (aplus ()) in
  check_bool "an a batch misses" false r.Serve.result_hit;
  check_rel "recomputed result correct" (eval_on g (aplus ())) r.Serve.rel;
  Serve.shutdown t

let test_register_drops_key_entries () =
  let t = make_serve ~graph:lgraph () in
  let sn = Serve.open_session t in
  let bplus () = ucrpq "?x, ?y <- ?x b+ ?y" in
  ignore (Serve.query t sn (aplus ()));
  ignore (Serve.query t sn (bplus ()));
  let s = Serve.stats t in
  check_bool "entries cached" true (s.Serve.result_entries > 0 && s.Serve.plan_entries > 0);
  let g = labelled [ (1, la, 2); (2, la, 1); (2, lb, 3) ] in
  Serve.register t "E" g;
  let s = Serve.stats t in
  check_int "no result entry left" 0 s.Serve.result_entries;
  check_int "no plan left" 0 s.Serve.plan_entries;
  List.iter
    (fun q ->
      let r = Serve.query t sn (q ()) in
      check_bool "miss after register" false r.Serve.result_hit;
      check_rel "fresh result after register" (eval_on g (q ())) r.Serve.rel)
    [ aplus; bplus ];
  Serve.shutdown t

(* An update lands while an evaluation is on the cluster: the tracer's
   clock, read when the evaluation opens its first span, applies it. A
   b batch leaves the evaluation's a-keys current, so its result is
   stored; an a batch does not. *)
let test_unrelated_update_mid_evaluation () =
  let race batch =
    let t = make_serve ~graph:lgraph () in
    let sn = Serve.open_session t in
    let armed = ref true in
    let tr = Trace.make () in
    Trace.set_sim_clock tr (fun () ->
        if !armed then begin
          armed := false;
          Serve.update ~inserts:batch t "E"
        end;
        0.);
    Trace.install tr;
    let r = Fun.protect ~finally:Trace.uninstall (fun () -> Serve.query t sn (aplus ())) in
    check_bool "the update fired mid-evaluation" false !armed;
    check_rel "answered at the submission snapshot" (eval_on lgraph (aplus ())) r.Serve.rel;
    let g = Rel.union lgraph batch in
    let r' = Serve.query t sn (aplus ()) in
    check_rel "next answer is current" (eval_on g (aplus ())) r'.Serve.rel;
    Serve.shutdown t;
    r'.Serve.result_hit
  in
  check_bool "stored across a b update" true (race (labelled [ (6, lb, 7) ]));
  check_bool "not stored across an a update" false (race (labelled [ (4, la, 8) ]))

let test_dep_walk () =
  let deps = Alcotest.testable (fun ppf _ -> Format.pp_print_string ppf "<deps>") ( = ) in
  let e = Term.Rel "E" in
  let key = Serve.Dep.Key ("E", "pred", la) in
  Alcotest.check deps "σ[pred=a ∧ x](E) is a key" [ key ]
    (Serve.Dep.of_term
       (Term.Select (Pred.And (Pred.Eq_const ("pred", la), Pred.Gt_const ("src", 1)), e)));
  Alcotest.check deps "conjunct order does not matter" [ key ]
    (Serve.Dep.of_term
       (Term.Select (Pred.And (Pred.Neq_const ("src", 1), Pred.Eq_const ("pred", la)), e)));
  Alcotest.check deps "σ[Or](E) is relation-wide" [ Serve.Dep.Rel "E" ]
    (Serve.Dep.of_term
       (Term.Select (Pred.Or (Pred.Eq_const ("pred", la), Pred.Eq_const ("pred", lb)), e)));
  Alcotest.check deps "a rename under the σ is relation-wide" [ Serve.Dep.Rel "E" ]
    (Serve.Dep.of_term
       (Term.Select (Pred.Eq_const ("pred", la), Term.Rename ([ ("src", "s") ], e))));
  Alcotest.check deps "bare E is relation-wide" [ Serve.Dep.Rel "E" ] (Serve.Dep.of_term e);
  Alcotest.check deps "a translated a+ reads only its label" [ key ] (Serve.Dep.of_term (aplus ()))

(* Randomized differential check on a small Yago-like graph: Q1-Q24
   reads interleaved with seeded insert/delete batches over several
   predicates; every response equals the oracle on the current graph,
   and some first read after a batch is still a result hit. *)
let test_randomized_yago_differential () =
  let queries =
    Harness.Queries.yago
    |> List.filteri (fun i _ -> i < 24)
    |> List.map (fun s -> s.Harness.Queries.text)
    |> Array.of_list
  in
  let surviving = ref 0 in
  List.iter
    (fun seed ->
      let graph = Graphgen.Yago_like.generate ~seed ~scale:60 () in
      let rng = Graphgen.Rng.create seed in
      let t = make_serve ~workers:2 ~graph () in
      let sn = Serve.open_session t in
      let src = Schema.index_of (Rel.schema graph) "src" in
      let current = ref graph and version = ref 0 in
      let last_read = Array.make (Array.length queries) (-1) in
      for step = 1 to 90 do
        if step mod 6 = 0 then begin
          (* clone resident edges with rewired endpoints (any predicate);
             every other batch also deletes resident edges *)
          let resident = Array.of_list (Rel.to_list !current) in
          let pick () = resident.(Graphgen.Rng.int rng (Array.length resident)) in
          let ins = Rel.create (Rel.schema graph) in
          for _ = 1 to 3 do
            let tu = Array.copy (pick ()) in
            tu.(src) <- (pick ()).(src);
            ignore (Rel.add ins tu)
          done;
          let del =
            if step mod 12 = 0 then Some (Rel.of_tuples (Rel.schema graph) [ pick (); pick () ])
            else None
          in
          current := apply !current ~inserts:ins ?deletes:del t;
          incr version
        end
        else begin
          let q = Graphgen.Rng.int rng (Array.length queries) in
          let r = Serve.query_ucrpq t sn queries.(q) in
          let want = eval_on !current (ucrpq queries.(q)) in
          if not (Rel.equal want r.Serve.rel) then
            Alcotest.failf "seed %d step %d Q%d diverges from the oracle" seed step (q + 1);
          if r.Serve.result_hit && last_read.(q) >= 0 && last_read.(q) < !version then
            incr surviving;
          last_read.(q) <- !version
        end
      done;
      Serve.shutdown t)
    [ 1; 2; 3 ];
  check_bool "some cached result survived a batch" true (!surviving > 0)

let test_update_validation () =
  let t = make_serve () in
  let ins = rel [ "src"; "trg" ] [ [ 1; 2 ] ] in
  (match Serve.update ~inserts:ins t "NOSUCH" with
  | () -> Alcotest.fail "unknown relation accepted"
  | exception Invalid_argument _ -> ());
  (match Serve.update ~inserts:(rel [ "a"; "b"; "c" ] [ [ 1; 2; 3 ] ]) t "E" with
  | () -> Alcotest.fail "schema mismatch accepted"
  | exception Invalid_argument _ -> ());
  (match Serve.update t "E" with
  | () -> ()  (* empty update is a no-op, not an error *)
  | exception _ -> Alcotest.fail "empty update raised");
  Serve.shutdown t

(* [f ()] on another domain, failing the test if it has not returned
   within [seconds] (a query blocked on a stale promise never would) *)
let within ~seconds what f =
  let out = Atomic.make None in
  let d = Domain.spawn (fun () -> Atomic.set out (Some (try Ok (f ()) with e -> Error e))) in
  let give_up = Unix.gettimeofday () +. seconds in
  while Atomic.get out = None && Unix.gettimeofday () < give_up do
    Domain.cpu_relax ()
  done;
  match Atomic.get out with
  | None -> Alcotest.failf "%s did not return within %.0f s" what seconds
  | Some r -> (
    Domain.join d;
    match r with Ok v -> v | Error e -> raise e)

(* An evaluation that fails inside a cluster stage leaves the server
   consistent. An expired deadline fires in the absorb stage: the dedup
   builder's [Tset.add_cols] ticks it, and the closure of a 200-node
   chain derives far more than the 8192 rows between two amortised
   checks. *)
let test_stage_failure_recovers () =
  let chain = rel [ "src"; "trg" ] (List.init 199 (fun i -> [ i; i + 1 ])) in
  let t = make_serve ~workers:4 ~graph:chain () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  Deadline.set ~seconds_from_now:(-1.);
  (* align the amortised check: after the tick that raises here, the
     next check fires exactly 8192 ticks into the evaluation *)
  (try
     while true do
       Deadline.tick ()
     done
   with Deadline.Expired -> ());
  let failure = try ignore (Serve.query t sn (q ())); None with e -> Some e in
  Deadline.clear ();
  (match failure with
  | Some Deadline.Expired -> ()
  | Some e -> Alcotest.failf "unexpected failure: %s" (Printexc.to_string e)
  | None -> Alcotest.fail "the expired deadline did not fail the evaluation");
  let s = Serve.stats t in
  check_int "failure counted" 1 s.Serve.failed;
  check_int "no evaluation in flight" 0 s.Serve.inflight;
  check_int "nothing queued" 0 s.Serve.queued;
  check_bool "cluster idle" false (Cluster.busy (Serve.cluster t));
  let r = within ~seconds:30. "the resubmitted query" (fun () -> Serve.query t sn (q ())) in
  check_bool "evaluated afresh, not joined to the failed evaluation" false
    (r.Serve.shared || r.Serve.result_hit);
  check_rel "resubmitted result correct" (eval_on chain (q ())) r.Serve.rel;
  check_int "one completed" 1 (Serve.stats t).Serve.completed;
  Serve.shutdown t

let test_wait_accounting () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  ignore (Serve.query t sn (Patterns.closure (Term.Rel "E")));
  let h = Serve.wait_hist t in
  check_bool "wait recorded" true (Metrics.Hist.count h >= 1);
  let l = Serve.latency_hist t in
  check_bool "latency recorded" true (Metrics.Hist.count l >= 1);
  Serve.shutdown t

let () =
  Alcotest.run "serve"
    [
      ( "cache",
        [
          Alcotest.test_case "repeat query hits, zero iterations" `Quick test_result_cache_hit;
          Alcotest.test_case "optimize flag shares entry" `Quick test_optimize_flag_shares_entry;
          Alcotest.test_case "parity across plans and workers" `Quick test_parity_across_plans;
          Alcotest.test_case "plan cache" `Quick test_plan_cache;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "register/mutate cycle" `Quick test_invalidation;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "oversized results bypass" `Quick test_too_big_to_cache;
          Alcotest.test_case "untouched label keeps entry" `Quick test_untouched_label_hits;
          Alcotest.test_case "touched label misses" `Quick test_touched_label_misses;
          Alcotest.test_case "fixpoint survives shell change" `Quick
            test_fixpoint_survives_shell_change;
          Alcotest.test_case "unfiltered read always invalidated" `Quick
            test_unfiltered_read_always_invalidated;
          Alcotest.test_case "no-op tuples invalidate nothing" `Quick
            test_noop_tuples_invalidate_nothing;
          Alcotest.test_case "register drops key entries" `Quick test_register_drops_key_entries;
          Alcotest.test_case "unrelated update mid-evaluation" `Quick
            test_unrelated_update_mid_evaluation;
          Alcotest.test_case "dependency walk" `Quick test_dep_walk;
          Alcotest.test_case "randomized yago differential" `Quick
            test_randomized_yago_differential;
        ] );
      ( "admission",
        [
          Alcotest.test_case "fair pick" `Quick test_fair_pick;
          Alcotest.test_case "concurrent identical queries" `Quick test_concurrent_identical_queries;
          Alcotest.test_case "shared fixpoint batching" `Quick test_shared_fixpoint_batching;
          Alcotest.test_case "no concurrent dispatch" `Quick test_no_concurrent_dispatch_through_serve;
        ] );
      ( "updates",
        [
          Alcotest.test_case "update then recomputed query" `Quick test_update_recomputes;
          Alcotest.test_case "rapid successive batches" `Quick test_rapid_update_batches;
          Alcotest.test_case "update mid-evaluation" `Quick test_update_mid_evaluation;
          Alcotest.test_case "register then update" `Quick test_register_then_update;
          Alcotest.test_case "update validation" `Quick test_update_validation;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "lifecycle and failures" `Quick test_session_lifecycle;
          Alcotest.test_case "wait accounting" `Quick test_wait_accounting;
          Alcotest.test_case "failed stage recovers" `Quick test_stage_failure_recovers;
        ] );
    ]
