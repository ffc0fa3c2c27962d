(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. V) at laptop scale.

   Usage:
     dune exec bench/main.exe                 # every experiment
     dune exec bench/main.exe -- fig9 fig10   # a subset
     dune exec bench/main.exe -- --quick all  # smoke-test scales

   Experiments: table1 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
                ablation micro regret

   Absolute numbers differ from the paper (its testbed is a 4-machine
   Spark cluster; ours is a simulated cluster on one machine) — the
   comparisons of interest are the *relative* ones: which system wins,
   by what factor, and where engines fail. See EXPERIMENTS.md. *)

module Rel = Relation.Rel
module Term = Mura.Term
module S = Harness.Systems
module Q = Harness.Queries
module R = Harness.Runner
module G = Graphgen.Generators

let quick = ref false
let timeout = ref 60.
let sc full small = if !quick then small else full

(* shared fact budget for the memory-failure experiments: each engine
   fails honestly when ITS plan materialises more than this *)
let fact_budget () = sc 3_000_000 1_000_000
let myria_budget () = sc 400_000 60_000
let graphx_budget () = sc 2_000_000 200_000

let section name = Printf.printf "\n######## %s ########\n%!" name

let heading fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt

let tuples_col =
  ( "tuples",
    fun (o : S.outcome) ->
      match o with S.Success s -> string_of_int s.result_size | _ -> "-" )

(* Per-class geometric-mean summary, the aggregate behind the paper's
   per-class conclusions. Failures and timeouts are counted at the
   timeout value. *)
let class_summary ~systems (rows : R.row list) (specs : Q.spec list) =
  let time_of = function
    | S.Success s -> s.wall_s
    | S.Failed _ | S.Timeout _ -> !timeout
  in
  heading "\nper-class geometric mean of running times (s); failures counted as %gs:" !timeout;
  heading "%-6s %5s  %s" "class" "#q"
    (String.concat "  " (List.map (fun (s : S.system) -> Printf.sprintf "%18s" s.name) systems));
  List.iter
    (fun cls ->
      let in_class =
        List.filter_map
          (fun (q : Q.spec) ->
            if List.mem cls q.classes then
              List.find_opt
                (fun (r : R.row) ->
                  String.length r.label >= String.length q.id
                  && String.sub r.label 0 (String.length q.id) = q.id
                  && (String.length r.label = String.length q.id
                     || r.label.[String.length q.id] = ' '))
                rows
            else None)
          specs
      in
      if in_class <> [] then begin
        let geo name =
          let l =
            List.map
              (fun (r : R.row) ->
                match List.assoc_opt name r.cells with
                | Some o -> Float.log (Float.max 1e-4 (time_of o))
                | None -> 0.)
              in_class
          in
          Float.exp (List.fold_left ( +. ) 0. l /. float_of_int (List.length l))
        in
        heading "%-6s %5d  %s" (Q.class_name cls) (List.length in_class)
          (String.concat "  "
             (List.map (fun (s : S.system) -> Printf.sprintf "%18.3f" (geo s.name)) systems))
      end)
    [ Q.C1; Q.C2; Q.C3; Q.C4; Q.C5; Q.C6 ]

(* ------------------------------------------------------------------ *)
(* Table I: datasets (edges, nodes, TC size)                           *)
(* ------------------------------------------------------------------ *)

module Table1 = struct
  let count_nodes g =
    let seen = Hashtbl.create 1024 in
    Rel.iter
      (fun tu ->
        Hashtbl.replace seen tu.(0) ();
        Hashtbl.replace seen tu.(Array.length tu - 1) ())
      g;
    Hashtbl.length seen

  let tc_size g =
    let stats = Mura.Eval.fresh_stats () in
    let r =
      Mura.Eval.eval ~stats (Mura.Eval.env [ ("E", g) ]) (Mura.Patterns.closure (Term.Rel "E"))
    in
    Rel.cardinal r

  let run () =
    section "Table I — real and synthetic graphs (scaled 1:10)";
    let f = sc 1 4 in
    let rnd =
      [
        ("rnd_1k_0.004", 1000 / f, 0.004);
        ("rnd_1k_0.01", 1000 / f, 0.01);
        ("rnd_1k5_0.0067", 1500 / f, 0.0067);
        ("rnd_2k_0.005", 2000 / f, 0.005);
        ("rnd_800_0.05", 800 / f, 0.05);
      ]
    in
    heading "%-16s %10s %10s %14s" "dataset" "edges" "nodes" "TC size";
    List.iter
      (fun (name, nodes, p) ->
        let g = G.erdos_renyi ~seed:13 ~nodes ~p () in
        heading "%-16s %10d %10d %14d" name (Rel.cardinal g) (count_nodes g) (tc_size g))
      rnd;
    List.iter
      (fun (name, nodes) ->
        let g = G.random_tree ~seed:14 ~nodes () in
        heading "%-16s %10d %10d %14d" name (Rel.cardinal g) (count_nodes g) (tc_size g))
      [ ("tree_1k", 1000 / f); ("tree_15k", 15_000 / f) ];
    (* SNAP-like scale-free stand-ins (the paper's Facebook/DBLP rows) *)
    List.iter
      (fun (name, nodes) ->
        let g = G.preferential_attachment ~seed:16 ~nodes ~edges_per_node:2 () in
        heading "%-16s %10d %10d %14d" name (Rel.cardinal g) (count_nodes g) (tc_size g))
      [ ("pa_facebook_like", 2_000 / f); ("pa_dblp_like", 6_000 / f) ];
    List.iter
      (fun (name, scale) ->
        let g = Graphgen.Uniprot_like.generate ~seed:15 ~scale () in
        heading "%-16s %10d %10d %14s" name (Rel.cardinal g) (count_nodes g) "-")
      [
        ("uniprot_10k", 10_000 / f);
        ("uniprot_50k", 50_000 / f);
        ("uniprot_100k", 100_000 / f);
      ]
end

(* ------------------------------------------------------------------ *)
(* Yago experiments (Figs. 7 and 9)                                    *)
(* ------------------------------------------------------------------ *)

let yago_graph = lazy (Graphgen.Yago_like.generate ~seed:42 ~scale:(sc 8_000 1_000) ())

let yago_workloads picks =
  let g = Lazy.force yago_graph in
  List.filter_map
    (fun (q : Q.spec) ->
      if picks = [] || List.mem q.id picks then
        Some
          ( Printf.sprintf "%-4s [%s]" q.id (String.concat "," (List.map Q.class_name q.classes)),
            S.of_ucrpq g q.text )
      else None)
    Q.yago

module Fig7 = struct
  (* P_plw implementations compared: SetRDD vs local-database backend *)
  let run () =
    section "Fig. 7 — P_plw implementations (SetRDD vs local DB) on Yago";
    heading "graph: %d labelled edges, host_cores %d"
      (Rel.cardinal (Lazy.force yago_graph))
      (Domain.recommended_domain_count ());
    let systems = [ S.dist_mu_ra_plw `Setrdd; S.dist_mu_ra_plw `Postgres ] in
    let picks = [ "Q1"; "Q2"; "Q4"; "Q8"; "Q12"; "Q19"; "Q22"; "Q24" ] in
    let rows = R.run_matrix ~timeout_s:!timeout ~systems (yago_workloads picks) in
    R.print_table ~title:"running times (s)"
      ~columns:(List.map (fun (s : S.system) -> s.name) systems)
      rows;
    R.write_json ~name:"fig7" rows
end

module Fig9 = struct
  let run () =
    section "Fig. 9 — running times on Yago (25 queries, all systems)";
    heading "graph: %d labelled edges, timeout %gs" (Rel.cardinal (Lazy.force yago_graph)) !timeout;
    let systems =
      [
        S.centralized_mu_ra ();
        S.dist_mu_ra ~max_tuples:(fact_budget ()) ();
        S.dist_mu_ra_gld ~max_tuples:(fact_budget ()) ();
        S.bigdatalog ~max_facts:(fact_budget ()) ();
        S.graphx ~max_state:(graphx_budget ()) ();
      ]
    in
    let rows = R.run_matrix ~timeout_s:!timeout ~systems (yago_workloads []) in
    R.print_table ~title:"running times (s)" ~extra:[ tuples_col ]
      ~columns:(List.map (fun (s : S.system) -> s.name) systems)
      rows;
    R.write_json ~name:"fig9" rows;
    class_summary ~systems rows Q.yago
end

(* ------------------------------------------------------------------ *)
(* Fig. 10: concatenated closures a1+/.../an+                          *)
(* ------------------------------------------------------------------ *)

module Fig10 = struct
  let labels = List.init 10 (fun i -> Printf.sprintf "a%d" (i + 1))

  let run () =
    section "Fig. 10 — concatenated closures a1+/../an+";
    let nodes = sc 500 150 in
    let base = G.erdos_renyi ~seed:19 ~nodes ~p:(30. /. float_of_int nodes) () in
    let g = G.add_labels ~seed:20 ~labels base in
    heading "graph: %d nodes, %d labelled edges (10 labels)" nodes (Rel.cardinal g);
    let systems =
      [
        S.dist_mu_ra ~max_tuples:(fact_budget ()) ();
        S.centralized_mu_ra ();
        S.bigdatalog ~max_facts:(fact_budget ()) ();
        S.graphx ~max_state:(graphx_budget ()) ();
      ]
    in
    let workloads =
      List.filter_map
        (fun n ->
          if n >= 2 then
            let ls = List.filteri (fun i _ -> i < n) labels in
            Some (Printf.sprintf "n=%d" n, S.of_ucrpq g (Q.concat_closure ~labels:ls))
          else None)
        [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    in
    let rows = R.run_matrix ~timeout_s:!timeout ~systems workloads in
    R.print_table ~title:"running times (s)"
      ~columns:(List.map (fun (s : S.system) -> s.name) systems)
      rows;
    R.write_json ~name:"fig10" rows
end

(* ------------------------------------------------------------------ *)
(* Fig. 11: non-regular mu-RA queries vs BigDatalog                    *)
(* ------------------------------------------------------------------ *)

module Fig11 = struct
  let run () =
    section "Fig. 11 — mu-RA queries (a^n b^n, same generation, reach)";
    let systems = [ S.dist_mu_ra (); S.bigdatalog () ] in
    let t1 = G.random_tree ~seed:21 ~nodes:(sc 2_000 300) () in
    let t2 = G.random_tree ~seed:22 ~nodes:(sc 8_000 600) () in
    let er_nodes = sc 1_500 300 in
    let er = G.erdos_renyi ~seed:23 ~nodes:er_nodes ~p:(6. /. float_of_int er_nodes) () in
    let anbn_nodes = sc 800 200 in
    let anbn_graph =
      G.add_labels ~seed:24 ~labels:[ "a"; "b" ]
        (G.erdos_renyi ~seed:25 ~nodes:anbn_nodes ~p:(5. /. float_of_int anbn_nodes) ())
    in
    let workloads =
      [
        ("same_gen tree_2k", Q.same_generation_workload t1);
        ("same_gen tree_8k", Q.same_generation_workload t2);
        ("same_gen rnd_1k5", Q.same_generation_workload er);
        ("reach rnd_1k5", Q.reach_workload er (Relation.Value.of_int 0));
        ("reach tree_8k", Q.reach_workload t2 (Relation.Value.of_int 0));
        ("anbn rnd_800", Q.anbn_workload anbn_graph ~a:"a" ~b:"b");
      ]
    in
    let rows = R.run_matrix ~timeout_s:!timeout ~systems workloads in
    R.print_table ~title:"running times (s)"
      ~columns:(List.map (fun (s : S.system) -> s.name) systems)
      rows;
    R.write_json ~name:"fig11" rows
end

(* ------------------------------------------------------------------ *)
(* Fig. 12: Myria comparison on same generation                        *)
(* ------------------------------------------------------------------ *)

module Fig12 = struct
  let run () =
    section "Fig. 12 — Myria vs Dist-mu-RA on same generation";
    let systems = [ S.dist_mu_ra (); S.myria ~max_facts:(myria_budget ()) () ] in
    let workloads =
      [
        ("tree_1k", Q.same_generation_workload (G.random_tree ~seed:26 ~nodes:(sc 1_000 200) ()));
        ("tree_4k", Q.same_generation_workload (G.random_tree ~seed:27 ~nodes:(sc 4_000 400) ()));
        ( "rnd_1k_0.005",
          let n = sc 1_000 200 in
          Q.same_generation_workload (G.erdos_renyi ~seed:28 ~nodes:n ~p:(5. /. float_of_int n) ())
        );
      ]
    in
    let rows = R.run_matrix ~timeout_s:!timeout ~systems workloads in
    R.print_table ~title:"running times (s); 'fail' = memory budget exceeded"
      ~columns:(List.map (fun (s : S.system) -> s.name) systems)
      rows;
    R.write_json ~name:"fig12" rows
end

(* ------------------------------------------------------------------ *)
(* Uniprot experiments (Figs. 13, 14, 8)                               *)
(* ------------------------------------------------------------------ *)

let uniprot_workloads graph =
  List.map
    (fun (q : Q.spec) ->
      ( Printf.sprintf "%-4s [%s]" q.id (String.concat "," (List.map Q.class_name q.classes)),
        S.of_ucrpq graph q.text ))
    (Q.uniprot graph)

module Fig13 = struct
  let run () =
    section "Fig. 13 — running times on Uniprot (24 queries)";
    let g = Graphgen.Uniprot_like.generate ~seed:31 ~scale:(sc 15_000 2_500) () in
    heading "graph: %d labelled edges, timeout %gs" (Rel.cardinal g) !timeout;
    let systems =
      [
        S.dist_mu_ra ~max_tuples:(fact_budget ()) ();
        S.bigdatalog ~max_facts:(fact_budget ()) ();
        S.graphx ~max_state:(graphx_budget ()) ();
      ]
    in
    let rows = R.run_matrix ~timeout_s:!timeout ~systems (uniprot_workloads g) in
    R.print_table ~title:"running times (s)" ~extra:[ tuples_col ]
      ~columns:(List.map (fun (s : S.system) -> s.name) systems)
      rows;
    R.write_json ~name:"fig13" rows;
    class_summary ~systems rows (Q.uniprot g)
end

module Fig14 = struct
  let run () =
    section "Fig. 14 — Myria vs Dist-mu-RA on a small Uniprot graph";
    let g = Graphgen.Uniprot_like.generate ~seed:32 ~scale:(sc 4_000 1_000) () in
    heading "graph: %d labelled edges" (Rel.cardinal g);
    let systems = [ S.dist_mu_ra (); S.myria ~max_facts:(myria_budget ()) () ] in
    let rows = R.run_matrix ~timeout_s:!timeout ~systems (uniprot_workloads g) in
    R.print_table ~title:"running times (s); Myria fails when a closure exceeds its budget"
      ~columns:(List.map (fun (s : S.system) -> s.name) systems)
      rows;
    R.write_json ~name:"fig14" rows
end

module Fig8 = struct
  let run () =
    section "Fig. 8 — Uniprot scalability (Dist-mu-RA vs BigDatalog)";
    let systems =
      [
        S.dist_mu_ra ~max_tuples:(fact_budget ()) ();
        S.bigdatalog ~max_facts:(fact_budget ()) ();
      ]
    in
    let scales = [ sc 8_000 1_500; sc 15_000 2_500; sc 30_000 4_000 ] in
    let blocks =
      List.map
        (fun scale ->
          let g = Graphgen.Uniprot_like.generate ~seed:33 ~scale () in
          let rows = R.run_matrix ~timeout_s:!timeout ~systems (uniprot_workloads g) in
          R.write_json ~name:(Printf.sprintf "fig8_scale%d" scale) rows;
          (string_of_int (Rel.cardinal g) ^ " edges", rows))
        scales
    in
    R.print_series ~title:"running times per graph size" ~x_label:"graph" blocks;
    (* failure counts, the paper's headline for this figure *)
    List.iter
      (fun (x, rows) ->
        let failures name =
          List.length
            (List.filter
               (fun (r : R.row) ->
                 match List.assoc_opt name r.cells with
                 | Some (S.Failed _) | Some (S.Timeout _) -> true
                 | _ -> false)
               rows)
        in
        heading "%s: Dist-mu-RA failures %d/24, BigDatalog failures %d/24" x
          (failures "Dist-mu-RA") (failures "BigDatalog"))
      blocks
end

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

module Ablation = struct
  let rewriting () =
    heading "--- A1: logical rewriting on/off (per query class) ---";
    let systems = [ S.dist_mu_ra (); S.dist_mu_ra_unopt () ] in
    let picks = [ "Q9"; "Q22"; "Q24"; "Q19"; "Q1"; "Q13" ] in
    let rows = R.run_matrix ~timeout_s:!timeout ~systems (yago_workloads picks) in
    R.print_table ~title:"running times (s)"
      ~columns:(List.map (fun (s : S.system) -> s.name) systems)
      rows

  let partitioning () =
    heading "--- A2: stable-column repartitioning on/off (shuffle volume) ---";
    let nodes = sc 3_000 500 in
    let g = G.erdos_renyi ~seed:35 ~nodes ~p:(3. /. float_of_int nodes) () in
    let closure = Mura.Patterns.closure (Term.Rel "E") in
    let measure stable_partitioning =
      let cluster = Distsim.Cluster.make ~workers:4 () in
      let config =
        {
          (Physical.Exec.default_config cluster) with
          force_plan = Some Physical.Exec.P_plw_s;
          use_stable_partitioning = stable_partitioning;
        }
      in
      let ctx = Physical.Exec.session config [ ("E", g) ] in
      ignore (Physical.Exec.exec_dds ctx (Term.Rel "E"));
      let m = Distsim.Cluster.metrics cluster in
      let s0 = m.Distsim.Metrics.shuffles and r0 = m.Distsim.Metrics.shuffled_records in
      let t0 = Unix.gettimeofday () in
      let result = Physical.Exec.run ctx closure in
      let t = Unix.gettimeofday () -. t0 in
      (Rel.cardinal result, t, m.Distsim.Metrics.shuffles - s0, m.Distsim.Metrics.shuffled_records - r0)
    in
    let on_tuples, on_t, on_sh, on_rec = measure true in
    let off_tuples, off_t, off_sh, off_rec = measure false in
    heading "%-22s %10s %10s %10s %14s" "variant" "tuples" "time(s)" "shuffles" "records moved";
    heading "%-22s %10d %10.3f %10d %14d" "repartition by src" on_tuples on_t on_sh on_rec;
    heading "%-22s %10d %10.3f %10d %14d" "no repartitioning" off_tuples off_t off_sh off_rec

  let run () =
    section "Ablations (design choices of DESIGN.md)";
    rewriting ();
    partitioning ()
end

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (bechamel)                                         *)
(* ------------------------------------------------------------------ *)

module Micro = struct
  open Bechamel
  open Toolkit

  let chain_rel n =
    Rel.of_tuples
      (Relation.Schema.of_list [ "src"; "trg" ])
      (List.init n (fun i -> [| i; i + 1 |]))

  let tests () =
    let r1k = chain_rel 1000 in
    let r1k' = Rel.rename [ ("src", "trg"); ("trg", "nxt") ] (chain_rel 1000) in
    let er = G.erdos_renyi ~seed:40 ~nodes:400 ~p:0.01 () in
    let cluster = Distsim.Cluster.make ~workers:4 () in
    [
      Test.make ~name:"tset-add-10k"
        (Staged.stage (fun () ->
             let s = Relation.Tset.create () in
             for i = 0 to 9_999 do
               ignore (Relation.Tset.add s [| i; i * 7 |])
             done));
      Test.make ~name:"hash-join-1kx1k"
        (Staged.stage (fun () -> ignore (Rel.natural_join r1k r1k')));
      Test.make ~name:"closure-er400"
        (Staged.stage (fun () ->
             ignore
               (Mura.Eval.eval (Mura.Eval.env [ ("E", er) ])
                  (Mura.Patterns.closure (Term.Rel "E")))));
      Test.make ~name:"dds-repartition-1k"
        (Staged.stage (fun () ->
             ignore (Distsim.Dds.repartition ~by:[ "trg" ] (Distsim.Dds.of_rel ~by:[ "src" ] cluster r1k))));
      Test.make ~name:"localdb-closure-chain300"
        (Staged.stage (fun () ->
             let db = Localdb.Instance.create () in
             Localdb.Instance.register db "E" (chain_rel 300);
             ignore (Localdb.Instance.query db (Mura.Patterns.closure (Term.Rel "E")))));
      Test.make ~name:"trace-span-disabled"
        (Staged.stage (fun () ->
             ignore (Sys.opaque_identity (Trace.span Trace.disabled "noop" (fun () -> 42)))));
    ]

  (* Tracing must be free when disabled: a [Trace.span] through the
     disabled collector is one match and a closure call. Assert the
     per-call overhead over a bare closure call stays in the noise
     (generous bound — a regression to "always allocate an event"
     would be hundreds of ns). *)
  let zero_cost_assertion () =
    let n = 2_000_000 in
    let time f =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (f ()))
      done;
      Unix.gettimeofday () -. t0
    in
    let bare () = Sys.opaque_identity 42 in
    let spanned () = Trace.span Trace.disabled "noop" (fun () -> Sys.opaque_identity 42) in
    ignore (time bare);
    (* warm up *)
    let t_bare = time bare and t_span = time spanned in
    let per_call_ns = (t_span -. t_bare) /. float_of_int n *. 1e9 in
    heading "%-28s %12.1f ns/call overhead vs bare call" "trace-disabled-overhead" per_call_ns;
    if per_call_ns > 150. then
      failwith
        (Printf.sprintf "disabled tracing is not zero-cost: %.1f ns/call overhead" per_call_ns)

  let run () =
    section "Micro-benchmarks (bechamel: ns per run)";
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second (sc 1.0 0.25)) ~kde:(Some 10) () in
    List.iter
      (fun test ->
        let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
        let results = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.iter
          (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> heading "%-28s %12.0f ns/run" name est
            | _ -> heading "%-28s (no estimate)" name)
          results)
      (tests ());
    zero_cost_assertion ()
end

(* ------------------------------------------------------------------ *)
(* Shared micro-bench helpers                                          *)
(* ------------------------------------------------------------------ *)

(* A directed path 0 -> 1 -> ... -> n-1: many fixpoint iterations with a
   tiny frontier delta. *)
let path_graph n =
  Rel.of_tuples
    (Relation.Schema.of_list [ "src"; "trg" ])
    (List.init (n - 1) (fun i -> [| i; i + 1 |]))

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* micro_serve: the serving layer's caches vs a cache-less server      *)
(* ------------------------------------------------------------------ *)

(* Two servers over identical clusters run the same single-session query
   stream (the serve_mix reachability mix, each submission a fresh
   translation of the query): one with the plan and result caches
   disabled (zero budgets), one with the defaults. Every response is
   checked against the reference evaluator — the parity gate holds at
   every scale; at full scale the cached server must also beat the
   uncached one by 2x (repeat submissions are near-free) and must
   evaluate strictly fewer fixpoints. *)
module MicroServe = struct
  type run = {
    wall_s : float;
    completed : int;
    hit_rate : float;
    fix_evals : int;
    parity : bool;
  }


  let measure ~cached ~repeat graph =
    let cluster = Distsim.Cluster.make ~workers:4 () in
    let t =
      if cached then Serve.create ~cluster ()
      else
        (* the cache-less baseline must also disable incremental repair:
           a parked handle answers repeat submissions from its converged
           accumulator, which is exactly the reuse being benchmarked *)
        Serve.create ~plan_cache_capacity:0 ~result_cache_bytes:0 ~max_repair_handles:0
          ~cluster ()
    in
    Serve.register t "E" graph;
    let mix = Harness.Serve_mix.default_mix () in
    let env = Mura.Eval.env [ ("E", graph) ] in
    let expected = List.map (fun (l, mk) -> (l, Mura.Eval.eval env (mk ()))) mix in
    let sn = Serve.open_session t in
    let parity = ref true in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to repeat do
      List.iter
        (fun (l, mk) ->
          let r = Serve.query t sn (mk ()) in
          if not (Rel.equal (List.assoc l expected) r.Serve.rel) then parity := false)
        mix
    done;
    let wall_s = Unix.gettimeofday () -. t0 in
    let s = Serve.stats t in
    Serve.shutdown t;
    {
      wall_s;
      completed = s.Serve.completed;
      hit_rate =
        float_of_int (s.Serve.result_hits + s.Serve.shared_joins)
        /. float_of_int (max 1 s.Serve.completed);
      fix_evals = s.Serve.fix_evals;
      parity = !parity;
    }

  let run () =
    section "micro_serve — plan/result caching vs a cache-less server";
    let repeat = sc 20 3 in
    let er ~seed ~nodes ~deg =
      G.erdos_renyi ~seed ~nodes ~p:(float_of_int deg /. float_of_int nodes) ()
    in
    let workloads =
      [
        ("path", path_graph (sc 400 60));
        ("er", er ~seed:47 ~nodes:(sc 1500 150) ~deg:3);
      ]
    in
    heading "single session, %d submissions of the 3-query mix, 4 workers" repeat;
    heading "%-8s %8s %9s %12s %12s %9s %9s" "workload" "edges" "queries" "uncached(s)"
      "cached(s)" "hit rate" "fix evals";
    let rows =
      List.map
        (fun (wname, g) ->
          let base = measure ~cached:false ~repeat g in
          let fast = measure ~cached:true ~repeat g in
          heading "%-8s %8d %9d %12.3f %12.3f %8.0f%% %4d->%-4d" wname (Rel.cardinal g)
            fast.completed base.wall_s fast.wall_s (100. *. fast.hit_rate) base.fix_evals
            fast.fix_evals;
          (wname, Rel.cardinal g, base, fast))
        workloads
    in
    let total f = List.fold_left (fun acc (_, _, b, c) -> acc +. f b c) 0. rows in
    let total_base = total (fun b _ -> b.wall_s) and total_cached = total (fun _ c -> c.wall_s) in
    let speedup = total_base /. Float.max 1e-9 total_cached in
    heading "overall: uncached %.3fs, cached %.3fs (%.2fx)" total_base total_cached speedup;
    let oc = open_out "BENCH_serve.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let run_json r =
          Printf.sprintf
            "{\"wall_s\":%.6f,\"completed\":%d,\"hit_rate\":%.3f,\"fix_evals\":%d,\"parity\":%b}"
            r.wall_s r.completed r.hit_rate r.fix_evals r.parity
        in
        let row_json (wname, edges, base, fast) =
          Printf.sprintf
            "{\"workload\":\"%s\",\"edges\":%d,\"uncached\":%s,\"cached\":%s,\"speedup\":%.3f}"
            wname edges (run_json base) (run_json fast)
            (base.wall_s /. Float.max 1e-9 fast.wall_s)
        in
        Printf.fprintf oc
          "{\"name\":\"serve\",\"quick\":%b,\"repeat\":%d,\n\
           \"rows\":[%s],\n\
           \"total_uncached_wall_s\":%.6f,\"total_cached_wall_s\":%.6f,\"overall_speedup\":%.3f}\n"
          !quick repeat
          (String.concat ",\n" (List.map row_json rows))
          total_base total_cached speedup);
    heading "wrote BENCH_serve.json";
    (* hard gates: parity and work reduction always; wall-clock speedup
       only at full scale (quick workloads are too small for stable
       ratios) *)
    List.iter
      (fun (wname, _, base, fast) ->
        if not (base.parity && fast.parity) then
          failwith (Printf.sprintf "micro_serve: %s diverged from the reference results" wname);
        if fast.fix_evals >= base.fix_evals then
          failwith
            (Printf.sprintf "micro_serve: %s cached server did not reuse fixpoints (%d vs %d)"
               wname fast.fix_evals base.fix_evals))
      rows;
    if (not !quick) && speedup < 2.0 then
      failwith (Printf.sprintf "micro_serve: caching speedup below 2x (%.2fx)" speedup)
end

(* ------------------------------------------------------------------ *)
(* micro_telemetry: the ambient metrics registry on the serve mix.     *)
(*                                                                     *)
(* Three gates, the first two always on:                               *)
(*   - determinism: a single-session mix with telemetry on must report *)
(*     exactly the same server counters as with telemetry off, and     *)
(*     both must match the reference results (parity);                 *)
(*   - snapshot sanity: the registry snapshot of an instrumented run   *)
(*     must carry the serve series (submitted counter, cache counters, *)
(*     latency histogram) in both Prometheus text and JSON form, the   *)
(*     slow-query log must fill under a zero threshold, and sampling   *)
(*     every query must capture traces;                                *)
(*   - overhead (full scale only): best-of-N walls of the concurrent   *)
(*     mix, telemetry on vs off, within 2% (plus a 5 ms absolute       *)
(*     allowance — quick machines time in that noise band).            *)
(* ------------------------------------------------------------------ *)

module MicroTelemetry = struct
  module SM = Harness.Serve_mix


  let measure ?(telemetry = false) ?(sample = 0) ?(slow_ms = infinity) ~sessions ~repeat graph =
    if telemetry then Telemetry.install (Telemetry.make ()) else Telemetry.uninstall ();
    let config =
      {
        SM.default_config with
        SM.sessions;
        repeat;
        sample_every = sample;
        slow_threshold_ms = slow_ms;
      }
    in
    let r = SM.run config ~graph in
    Telemetry.uninstall ();
    r

  (* the deterministic server counters: sampling/slow-log accounting is
     deliberately excluded (only the instrumented run has any) *)
  let counters (s : Serve.stats) =
    [
      s.Serve.submitted;
      s.Serve.completed;
      s.Serve.failed;
      s.Serve.result_hits;
      s.Serve.shared_joins;
      s.Serve.result_misses;
      s.Serve.plan_hits;
      s.Serve.plan_misses;
      s.Serve.fix_evals;
      s.Serve.fix_hits;
      s.Serve.fix_shared;
    ]

  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0

  let run () =
    section "micro_telemetry — registry overhead, snapshot and slow-log sanity";
    let graph = path_graph (sc 400 60) in
    let repeat = sc 12 3 in
    (* determinism: one session is fully sequential, so every counter is
       reproducible — telemetry must not change any of them *)
    let off = measure ~sessions:1 ~repeat graph in
    let on = measure ~telemetry:true ~sample:1 ~slow_ms:0. ~sessions:1 ~repeat graph in
    let identical = counters off.SM.stats = counters on.SM.stats in
    heading "single session, %d mix submissions: counters identical with telemetry on: %b"
      repeat identical;
    if off.SM.parity_failures > 0 || on.SM.parity_failures > 0 then
      failwith "micro_telemetry: mix diverged from the reference results";
    if not identical then
      failwith "micro_telemetry: telemetry changed the server counters";
    (* snapshot sanity on the instrumented run *)
    let snap =
      match on.SM.telemetry with
      | Some s -> s
      | None -> failwith "micro_telemetry: instrumented run produced no registry snapshot"
    in
    let series = List.length snap.Telemetry.Snapshot.rows in
    (match Telemetry.Snapshot.value snap "serve_queries_submitted_total" with
    | Some v when int_of_float v = on.SM.stats.Serve.submitted -> ()
    | _ -> failwith "micro_telemetry: snapshot submitted counter does not match the server");
    let prom = Telemetry.Snapshot.to_prometheus snap in
    let json = Telemetry.Snapshot.to_json snap in
    List.iter
      (fun (where, hay, needle) ->
        if not (contains hay needle) then
          failwith (Printf.sprintf "micro_telemetry: %s exposition missing %s" where needle))
      [
        ("prometheus", prom, "# TYPE serve_queries_submitted_total counter");
        ("prometheus", prom, "serve_cache_total{cache=\"result\"");
        ("prometheus", prom, "serve_query_latency_ns_bucket");
        ("json", json, "\"serve_query_latency_ns\"");
        ("json", json, "\"buckets\"");
      ];
    if on.SM.stats.Serve.slow_queries = 0 then
      failwith "micro_telemetry: zero-threshold run logged no slow queries";
    if on.SM.traces_captured = 0 then
      failwith "micro_telemetry: sample-every-query run captured no traces";
    heading "snapshot: %d series; %d slow queries logged, %d traces captured" series
      on.SM.stats.Serve.slow_queries on.SM.traces_captured;
    (* overhead: concurrent mix, best-of-N walls on vs off *)
    let sessions = 4 and orepeat = sc 20 3 in
    let trials = sc 5 2 in
    (* interleave off/on trials so clock drift and cache warmup hit both
       sides equally; compare best-of-N walls *)
    let base = ref infinity and tele = ref infinity in
    for _ = 1 to trials do
      List.iter
        (fun (telemetry, b) ->
          let r = measure ~telemetry ~sessions ~repeat:orepeat graph in
          if r.SM.parity_failures > 0 then
            failwith "micro_telemetry: parity failure under concurrent load";
          if r.SM.wall_s < !b then b := r.SM.wall_s)
        [ (false, base); (true, tele) ]
    done;
    let base = !base and tele = !tele in
    let overhead = (tele -. base) /. Float.max 1e-9 base in
    heading "concurrent mix (%d sessions x %d repeats, best of %d): off %.3fs, on %.3fs (%+.1f%%)"
      sessions orepeat trials base tele (100. *. overhead);
    let oc = open_out "BENCH_telemetry.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\"name\":\"telemetry\",\"quick\":%b,\"repeat\":%d,\n\
           \"counters_identical\":%b,\"series\":%d,\"slow_queries\":%d,\"traces_captured\":%d,\n\
           \"off_wall_s\":%.6f,\"on_wall_s\":%.6f,\"overhead_frac\":%.4f,\"parity_failures\":%d}\n"
          !quick repeat identical series on.SM.stats.Serve.slow_queries on.SM.traces_captured
          base tele overhead
          (off.SM.parity_failures + on.SM.parity_failures));
    heading "wrote BENCH_telemetry.json";
    if (not !quick) && overhead > 0.02 && tele -. base > 0.005 then
      failwith
        (Printf.sprintf "micro_telemetry: registry overhead above 2%% (%.1f%%)"
           (100. *. overhead))
end

(* ------------------------------------------------------------------ *)
(* micro_incremental: fixpoint repair vs from-scratch recomputation    *)
(* ------------------------------------------------------------------ *)

(* Incremental fixpoint maintenance (Exec.Incr): establish a transitive
   closure, apply edge-insert and edge-delete batches, and compare the
   repaired result against a from-scratch evaluation of the updated
   graph. The parity matrix runs always (--quick included) across
   P_gld/P_plw^s and 1 and 4 workers — insert-then-resume and DRed
   delete-then-re-derive must both be identical to recomputing. At full scale on a multi-core host,
   repairing a small insert batch on the gate workload (a long path
   graph, where from-scratch convergence pays one iteration per hop)
   must be at least 5x faster than recomputation. *)
module MicroIncremental = struct
  let closure () = Mura.Patterns.closure (Term.Rel "E")

  (* [k] fresh edges over [g]'s node universe, deterministic *)
  let fresh_edges ~seed ~k g =
    let rng = Graphgen.Rng.create seed in
    let nodes = 1 + Rel.fold (fun tu m -> max m (max tu.(0) tu.(1))) g 0 in
    let out = Rel.create (Rel.schema g) in
    let attempts = ref 0 in
    while Rel.cardinal out < k && !attempts < k * 50 do
      incr attempts;
      let i = Graphgen.Rng.int rng nodes and j = Graphgen.Rng.int rng nodes in
      if i <> j && not (Rel.mem g [| i; j |]) then ignore (Rel.add out [| i; j |])
    done;
    out

  let resident_edges ~k g =
    let out = Rel.create (Rel.schema g) in
    (try
       Rel.iter
         (fun tu ->
           if Rel.cardinal out >= k then raise Exit;
           ignore (Rel.add out (Array.copy tu)))
         g
     with Exit -> ());
    out

  let eval_on tables term = Mura.Eval.eval (Mura.Eval.env tables) term

  type row = {
    plan : Physical.Exec.fixpoint_plan;
    workers : int;
    base_tuples : int;
    insert_iters : int;
    delete_iters : int;
    parity : bool;
  }

  let parity_row g plan ~workers =
    let cluster = Distsim.Cluster.make ~parallel:true ~workers () in
    let config = { (Physical.Exec.default_config cluster) with force_plan = Some plan } in
    let ins = fresh_edges ~seed:91 ~k:6 g in
    let del = resident_edges ~k:3 g in
    let h = Physical.Exec.Incr.establish config ~tables:[ ("E", g) ] (closure ()) in
    let base_tuples = Physical.Exec.Incr.size h in
    let parity0 = Rel.equal (Physical.Exec.Incr.result h) (eval_on [ ("E", g) ] (closure ())) in
    let g1 = Rel.union g ins in
    let r1, insert_iters =
      match Physical.Exec.Incr.update ~inserts:[ ("E", ins) ] h with
      | `Repaired (r, n) -> (r, n)
      | `Unsupported msg -> failwith ("micro_incremental: insert unsupported: " ^ msg)
    in
    let parity1 = Rel.equal r1 (eval_on [ ("E", g1) ] (closure ())) in
    let g2 = Rel.diff g1 del in
    let r2, delete_iters =
      match Physical.Exec.Incr.update ~deletes:[ ("E", del) ] h with
      | `Repaired (r, n) -> (r, n)
      | `Unsupported msg -> failwith ("micro_incremental: delete unsupported: " ^ msg)
    in
    let parity2 = Rel.equal r2 (eval_on [ ("E", g2) ] (closure ())) in
    Distsim.Cluster.shutdown cluster;
    {
      plan;
      workers;
      base_tuples;
      insert_iters;
      delete_iters;
      parity = parity0 && parity1 && parity2;
    }

  (* Gate: a small batch appended at the tail of the path (new nodes
     arriving — the streaming regime where the derived delta is small
     relative to the closure) repaired under P_gld, whose from-scratch
     evaluation pays one charged shuffle round per hop. *)
  let measure_gate ~n g =
    let ins = Rel.create (Rel.schema g) in
    for k = 0 to 4 do
      ignore (Rel.add ins [| n - 1 + k; n + k |])
    done;
    let g1 = Rel.union g ins in
    let cluster = Distsim.Cluster.make ~parallel:true ~workers:4 () in
    let config =
      { (Physical.Exec.default_config cluster) with force_plan = Some Physical.Exec.P_gld }
    in
    let h = Physical.Exec.Incr.establish config ~tables:[ ("E", g) ] (closure ()) in
    let repaired, repair_s =
      time (fun () ->
          match Physical.Exec.Incr.update ~inserts:[ ("E", ins) ] h with
          | `Repaired (r, _) -> r
          | `Unsupported msg -> failwith ("micro_incremental: gate unsupported: " ^ msg))
    in
    Distsim.Cluster.shutdown cluster;
    let cluster = Distsim.Cluster.make ~parallel:true ~workers:4 () in
    let config =
      { (Physical.Exec.default_config cluster) with force_plan = Some Physical.Exec.P_gld }
    in
    let ctx = Physical.Exec.session config [ ("E", g1) ] in
    let recomputed, recompute_s = time (fun () -> Physical.Exec.run ctx (closure ())) in
    Distsim.Cluster.shutdown cluster;
    (repair_s, recompute_s, Rel.equal repaired recomputed)

  let run () =
    section "micro_incremental — fixpoint repair vs from-scratch recomputation";
    let host_cores = Domain.recommended_domain_count () in
    let g =
      G.erdos_renyi ~seed:63 ~nodes:(sc 200 50) ~p:(3. /. float_of_int (sc 200 50)) ()
    in
    heading "er graph: %d edges; 6 inserts then 3 deletes per configuration" (Rel.cardinal g);
    heading "%-8s %7s %10s %12s %12s %7s" "plan" "workers" "tuples" "ins_iters" "del_iters"
      "parity";
    let rows =
      List.concat_map
        (fun plan ->
          List.map
            (fun workers ->
              let r = parity_row g plan ~workers in
              heading "%-8s %7d %10d %12d %12d %7b"
                (Physical.Exec.plan_name r.plan)
                r.workers r.base_tuples r.insert_iters r.delete_iters r.parity;
              r)
            [ 1; 4 ])
        [ Physical.Exec.P_gld; Physical.Exec.P_plw_s ]
    in
    let gate_n = sc 2000 200 in
    let gate = path_graph gate_n in
    let repair_s, recompute_s, gate_parity = measure_gate ~n:gate_n gate in
    let speedup = recompute_s /. Float.max 1e-9 repair_s in
    heading
      "gate: path-%d graph, 5 tail inserts, P_gld: repair %.3fs vs recompute %.3fs — %.1fx \
       (parity %b)"
      gate_n repair_s recompute_s speedup gate_parity;
    let oc = open_out "BENCH_incremental.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let row_json r =
          Printf.sprintf
            "{\"plan\":\"%s\",\"workers\":%d,\"base_tuples\":%d,\"insert_iterations\":%d,\"delete_iterations\":%d,\"parity\":%b}"
            (Physical.Exec.plan_name r.plan)
            r.workers r.base_tuples r.insert_iters r.delete_iters r.parity
        in
        Printf.fprintf oc
          "{\"name\":\"incremental\",\"quick\":%b,\"host_cores\":%d,\n\
           \"repair_s\":%.6f,\"recompute_s\":%.6f,\"speedup\":%.3f,\"gate_parity\":%b,\n\
           \"rows\":[%s]}\n"
          !quick host_cores repair_s recompute_s speedup gate_parity
          (String.concat ",\n" (List.map row_json rows)));
    heading "wrote BENCH_incremental.json";
    (* hard gates: parity always; the 5x repair speedup only at full
       scale on a host with real parallelism (quick scales are too
       small for stable ratios) *)
    List.iter
      (fun r ->
        if not r.parity then
          failwith
            (Printf.sprintf "micro_incremental: %s/%dw diverged from recomputation"
               (Physical.Exec.plan_name r.plan)
               r.workers))
      rows;
    if not gate_parity then failwith "micro_incremental: gate repair diverged";
    if (not !quick) && host_cores >= 2 && speedup < 5.0 then
      failwith (Printf.sprintf "micro_incremental: repair speedup %.2fx < 5x" speedup)
end

(* ------------------------------------------------------------------ *)
(* regret: every explored plan of Q1-Q49, run and checked               *)
(* ------------------------------------------------------------------ *)

module Regret = struct
  (* How good is the cost model's choice? For every corpus query, every
     plan [Rewrite.Engine.explore] records at the systems' 120-plan cap
     runs on the four-worker cluster of perfbench, and its relation must
     equal [Mura.Eval] of the chosen plan: a gate on every explored plan,
     not just the chosen one. Per plan the table keeps the estimated
     cost, the best-of-3 wall time and the deterministic counters
     (fixpoint iterations, shuffled records, result tuples). Regret is
     the chosen plan's time over the best plan's. Each closed fixpoint
     of the chosen plan also gets its estimated against its actual
     cardinality, and the q-errors are summarised per dataset. --quick
     runs the parity part only (one run per plan) on small graphs. *)

  module Exec = Physical.Exec
  module Cluster = Distsim.Cluster

  let max_plans = 120
  let workers = 4

  type status = Done of float (* best wall ms *) | Timed_out | Failed of string

  type plan_row = {
    est_cost : float;
    status : status;
    iterations : int;
    shuffled : int;
    tuples : int;
  }

  type query_row = {
    dataset : string;
    seed : int;
    id : string;
    plans : plan_row list;
    chosen : int;
    fixes : (float * int) list;  (** closed fixpoints of the chosen plan: estimate, actual *)
  }

  let graphs () =
    let yago seed scale = ("yago", seed, Graphgen.Yago_like.generate ~seed ~scale ()) in
    let uniprot seed scale = ("uniprot", seed, Graphgen.Uniprot_like.generate ~seed ~scale ()) in
    if !quick then [ yago 2 200; uniprot 2 300 ]
    else [ yago 2 1000; uniprot 2 1500; uniprot 3 1500 ]

  let specs dataset g =
    if dataset = "yago" then Q.yago else Q.uniprot g

  (* One run on a fresh session, as a cold perfbench read executes it. *)
  let run_once tables plan =
    let cluster = Cluster.make ~workers () in
    let ctx = Exec.session (Exec.default_config cluster) tables in
    let t0 = Unix.gettimeofday () in
    let rel = Exec.run ctx plan in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let iterations = List.fold_left (fun a f -> a + f.Exec.iterations) 0 (Exec.report ctx).fixpoints in
    (rel, ms, iterations, (Cluster.metrics cluster).Distsim.Metrics.shuffled_records)

  let run_plan ~runs ~timeout_s tables oracle est_cost plan =
    let rec go k best row =
      if k = runs then { row with status = Done best }
      else
        match
          Relation.Deadline.set ~seconds_from_now:timeout_s;
          Fun.protect ~finally:Relation.Deadline.clear (fun () -> run_once tables plan)
        with
        | rel, ms, iterations, shuffled ->
          if not (Rel.equal oracle rel) then failwith "regret: a plan disagrees with Mura.Eval";
          go (k + 1) (Float.min best ms)
            { row with iterations; shuffled; tuples = Rel.cardinal rel }
        | exception Relation.Deadline.Expired -> { row with status = Timed_out }
        | exception Exec.Resource_limit msg -> { row with status = Failed msg }
    in
    go 0 infinity { est_cost; status = Timed_out; iterations = 0; shuffled = 0; tuples = 0 }

  (* Closed fixpoint subterms, outermost first. *)
  let rec closed_fixes (t : Term.t) =
    let here = match t with Fix _ when Term.free_vars t = [] -> [ t ] | _ -> [] in
    let sub =
      match t with
      | Rel _ | Cst _ | Var _ -> []
      | Select (_, u) | Project (_, u) | Antiproject (_, u) | Rename (_, u) | Fix (_, u) ->
        closed_fixes u
      | Join (a, b) | Antijoin (a, b) | Union (a, b) -> closed_fixes a @ closed_fixes b
    in
    here @ sub

  let query ~runs ~timeout_s (dataset, seed, g) (spec : Q.spec) =
    let tables = [ ("E", g) ] in
    let term = Rpq.Query.union_to_term (Rpq.Query.parse_union spec.text) in
    let tenv = Mura.Typing.env [ ("E", Rel.schema g) ] in
    let plans = Rewrite.Engine.explore ~max_plans tenv term in
    let stats = Cost.Stats.of_tables tables in
    let costs = List.map (Cost.Estimate.cost stats) plans in
    (* the first cheapest plan, as [Rewrite.Engine.optimize] picks it *)
    let chosen, _ =
      List.fold_left
        (fun (bi, bc) (i, c) -> if c < bc then (i, c) else (bi, bc))
        (0, List.hd costs)
        (List.mapi (fun i c -> (i, c)) costs)
    in
    let best = List.nth plans chosen in
    let env = Mura.Eval.env tables in
    let oracle = Mura.Eval.eval env best in
    let rows =
      List.map2
        (fun p c ->
          try run_plan ~runs ~timeout_s tables oracle c p
          with Failure msg -> failwith (Printf.sprintf "%s (%s seed %d): %s" msg dataset seed spec.id))
        plans costs
    in
    let fixes =
      List.map
        (fun f -> (Cost.Estimate.cardinality stats f, Rel.cardinal (Mura.Eval.eval env f)))
        (closed_fixes best)
    in
    { dataset; seed; id = spec.id; plans = rows; chosen; fixes }

  let ms_of r = match r.status with Done ms -> Some ms | Timed_out | Failed _ -> None

  (* the fastest plan that finished *)
  let fastest q =
    List.fold_left
      (fun best r ->
        match (ms_of r, best) with
        | Some ms, Some (b, _) when ms >= b -> best
        | Some ms, _ -> Some (ms, r)
        | None, _ -> best)
      None q.plans

  (* chosen time over the fastest plan's time; [nan] when the chosen
     plan did not finish *)
  let regret q =
    match (ms_of (List.nth q.plans q.chosen), fastest q) with
    | Some ms, Some (best, _) -> ms /. best
    | _ -> Float.nan

  let q_errors rows dataset =
    List.concat_map
      (fun q ->
        if q.dataset <> dataset then []
        else
          List.map
            (fun (est, actual) -> Cost.Feedback.q_error ~est ~actual:(float_of_int actual))
            q.fixes)
      rows

  (* linear interpolation between closest ranks *)
  let quantile xs p =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n = 0 then Float.nan
    else
      let r = p *. float_of_int (n - 1) in
      let i = int_of_float r in
      let j = min (i + 1) (n - 1) in
      a.(i) +. ((r -. float_of_int i) *. (a.(j) -. a.(i)))

  let num f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

  let write_json rows =
    let plan_json r =
      let status, ms =
        match r.status with
        | Done ms -> ("ok", num ms)
        | Timed_out -> ("timeout", "null")
        | Failed msg -> (Printf.sprintf "failed: %s" (String.escaped msg), "null")
      in
      Printf.sprintf
        "{\"est_cost\":%s,\"status\":\"%s\",\"wall_ms\":%s,\"iterations\":%d,\"shuffled_records\":%d,\"tuples\":%d}"
        (num r.est_cost) status ms r.iterations r.shuffled r.tuples
    in
    let fix_json (est, actual) =
      Printf.sprintf "{\"est\":%s,\"actual\":%d}" (num est) actual
    in
    let query_json q =
      Printf.sprintf
        "{\"dataset\":\"%s\",\"seed\":%d,\"query\":\"%s\",\"chosen\":%d,\"regret\":%s,\n\
         \"fixpoints\":[%s],\n\"plans\":[%s]}"
        q.dataset q.seed q.id q.chosen (num (regret q))
        (String.concat "," (List.map fix_json q.fixes))
        (String.concat ",\n" (List.map plan_json q.plans))
    in
    let summary dataset =
      let qs = q_errors rows dataset in
      Printf.sprintf "\"%s\":{\"fixpoints\":%d,\"median\":%s,\"p90\":%s}" dataset
        (List.length qs) (num (quantile qs 0.5)) (num (quantile qs 0.9))
    in
    let oc = open_out "BENCH_regret.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\"name\":\"regret\",\"quick\":%b,\"host_cores\":%d,\"max_plans\":%d,\n\
           \"q_error\":{%s,%s},\n\"queries\":[\n%s]}\n"
          !quick (Domain.recommended_domain_count ()) max_plans (summary "yago")
          (summary "uniprot")
          (String.concat ",\n" (List.map query_json rows)))

  let run () =
    section "regret: every explored plan, cost model vs wall clock";
    let runs = if !quick then 1 else 3 and timeout_s = if !quick then 30. else 5. in
    heading "%-8s %4s %-5s %6s %7s %10s %10s %7s %12s %12s" "dataset" "seed" "query" "plans"
      "chosen" "chosen_ms" "best_ms" "regret" "chosen_cost" "best_cost";
    let rows =
      List.concat_map
        (fun ((dataset, seed, g) as graph) ->
          List.map
            (fun spec ->
              let q = query ~runs ~timeout_s graph spec in
              let chosen = List.nth q.plans q.chosen in
              let show = function Some ms -> Printf.sprintf "%.2f" ms | None -> "timeout" in
              let best_ms, best_cost =
                match fastest q with
                | Some (ms, r) -> (Some ms, Printf.sprintf "%.4g" r.est_cost)
                | None -> (None, "-")
              in
              heading "%-8s %4d %-5s %6d %7d %10s %10s %7s %12.4g %12s" dataset seed q.id
                (List.length q.plans) q.chosen (show (ms_of chosen)) (show best_ms)
                (num (regret q)) chosen.est_cost best_cost;
              q)
            (specs dataset g))
        (graphs ())
    in
    (* one line per graph: a rewriter change's effect on a whole pass *)
    List.iter
      (fun (dataset, seed) ->
        let qs = List.filter (fun q -> q.dataset = dataset && q.seed = seed) rows in
        let chosen_ms =
          List.fold_left
            (fun a q -> a +. Option.value ~default:Float.nan (ms_of (List.nth q.plans q.chosen)))
            0. qs
        in
        heading "%s seed %d: chosen plans %.2f ms in total, %d explored plans" dataset seed chosen_ms
          (List.fold_left (fun a q -> a + List.length q.plans) 0 qs))
      (List.fold_left
         (fun acc q -> if List.mem (q.dataset, q.seed) acc then acc else acc @ [ (q.dataset, q.seed) ])
         [] rows);
    List.iter
      (fun dataset ->
        let qs = q_errors rows dataset in
        heading "%s: %d closed fixpoints of chosen plans, q-error median %.2f p90 %.2f" dataset
          (List.length qs) (quantile qs 0.5) (quantile qs 0.9))
      [ "yago"; "uniprot" ];
    let timeouts =
      List.fold_left
        (fun a q -> a + List.length (List.filter (fun r -> ms_of r = None) q.plans))
        0 rows
    in
    heading "plans checked against Mura.Eval: %d (%d did not finish)"
      (List.fold_left (fun a q -> a + List.length q.plans) 0 rows)
      timeouts;
    write_json rows;
    heading "wrote BENCH_regret.json";
    (* at quick scale every plan must finish, so every plan is checked *)
    if !quick && timeouts > 0 then failwith "regret: plans did not finish at quick scale"
end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", Table1.run);
    ("fig7", Fig7.run);
    ("fig9", Fig9.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("fig12", Fig12.run);
    ("fig13", Fig13.run);
    ("fig14", Fig14.run);
    ("fig8", Fig8.run);
    ("ablation", Ablation.run);
    ("micro", Micro.run);
    ("micro_serve", MicroServe.run);
    ("micro_telemetry", MicroTelemetry.run);
    ("micro_incremental", MicroIncremental.run);
    ("regret", Regret.run);
  ]

let () =
  let requested = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--quick" -> quick := true
        | "--timeout" -> ()
        | arg when String.length arg > 10 && String.sub arg 0 10 = "--timeout=" ->
          timeout := float_of_string (String.sub arg 10 (String.length arg - 10))
        | "all" -> requested := List.map fst experiments @ !requested
        | name when List.mem_assoc name experiments -> requested := name :: !requested
        | other ->
          Printf.eprintf "unknown experiment %S (known: %s, all, --quick, --timeout=S)\n" other
            (String.concat " " (List.map fst experiments));
          exit 1)
    Sys.argv;
  let to_run = if !requested = [] then List.map fst experiments else List.rev !requested in
  if !quick then timeout := Float.min !timeout 5.;
  (* BENCH_TRACE=1 captures a Chrome trace per experiment, written next
     to the BENCH_*.json outputs, and prints the per-operator rollup. *)
  let tracing = Sys.getenv_opt "BENCH_TRACE" = Some "1" in
  let run_one name =
    if not tracing then (List.assoc name experiments) ()
    else begin
      Trace.install (Trace.make ());
      Fun.protect
        ~finally:(fun () ->
          let tr = Trace.get () in
          let file = Printf.sprintf "bench_trace_%s.json" name in
          Trace.Chrome.write tr file;
          Printf.printf "\ntrace: %d events written to %s (open in Perfetto)\n"
            (List.length (Trace.events tr))
            file;
          R.print_trace_rollup ();
          Trace.uninstall ())
        (List.assoc name experiments)
    end
  in
  let t0 = Unix.gettimeofday () in
  List.iter run_one to_run;
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
