module Schema = Relation.Schema
module Rel = Relation.Rel
module Tset = Relation.Tset
module Batch = Relation.Batch
module Join_index = Relation.Join_index
module Term = Mura.Term
module Fcond = Mura.Fcond
module Dds = Distsim.Dds
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics
module Sh = Pipeline.Shell

type fixpoint_plan = P_gld | P_plw_s | P_plw_pg

let plan_name = function P_gld -> "P_gld" | P_plw_s -> "P_plw^s" | P_plw_pg -> "P_plw^pg"
let pp_plan ppf p = Format.pp_print_string ppf (plan_name p)

type config = {
  cluster : Cluster.t;
  force_plan : fixpoint_plan option;
  broadcast_threshold : int;
  max_iterations : int;
  max_tuples : int;
  use_stable_partitioning : bool;
}

let default_config cluster =
  {
    cluster;
    force_plan = None;
    broadcast_threshold = 2_000_000;
    max_iterations = 100_000;
    max_tuples = 500_000_000;
    use_stable_partitioning = true;
  }

exception Resource_limit of string

type fix_report = {
  var : string;
  fix_path : string;
  plan : fixpoint_plan;
  stable : string list;
  partitioned_by : string list;
  iterations : int;
  result_size : int;
  deltas : int list;
}

type report = { mutable fixpoints : fix_report list }

type ctx = {
  config : config;
  tables : (string * Rel.t) list;
  cache : (string, Dds.t * Batch.t array Lazy.t) Hashtbl.t;
      (* distributed base relations, with the columnar view the shell
         scans (built on first use; chains never mutate their base
         batches, so the view is shared safely) *)
  rpt : report;
}

let session config tables =
  { config; tables; cache = Hashtbl.create 16; rpt = { fixpoints = [] } }

let child path i = path ^ "." ^ string_of_int i
let config_of ctx = ctx.config
let report ctx = ctx.rpt
let metrics ctx = Cluster.metrics ctx.config.cluster

let err fmt = Format.kasprintf (fun s -> raise (Mura.Eval.Eval_error s)) fmt

let too_large ctx n =
  if n > ctx.config.max_tuples then
    raise (Resource_limit (Printf.sprintf "dataset exceeds %d tuples" ctx.config.max_tuples))

let check_size ctx d =
  too_large ctx (Dds.cardinal d);
  d

let driver_env ctx = Mura.Eval.env ctx.tables
let typing_env ctx = Mura.Typing.env (List.map (fun (n, r) -> (n, Rel.schema r)) ctx.tables)
let keep_of_drop schema drop = List.filter (fun c -> not (List.mem c drop)) (Schema.cols schema)

let scan ctx n =
  match Hashtbl.find_opt ctx.cache n with
  | Some s -> s
  | None ->
    let rel = match List.assoc_opt n ctx.tables with Some r -> r | None -> err "unknown relation %S" n in
    let d = Dds.of_rel ctx.config.cluster rel in
    let s = (d, lazy (Sh.batches (Sh.of_dds ctx.config.cluster d))) in
    Hashtbl.replace ctx.cache n s;
    s

(* Per-worker index over a co-partitioned build side, built lazily:
   slot [w] is only ever touched by worker [w]'s chain. *)
let worker_index side ~shared ~payload_pos =
  let batches = Sh.batches side in
  let key_pos = Schema.positions (Sh.schema side) shared in
  let idxs = Array.make (Array.length batches) None in
  fun w ->
    match idxs.(w) with
    | Some i -> i
    | None ->
      let i = Join_index.of_batch ~key_pos ~payload_pos batches.(w) in
      idxs.(w) <- Some i;
      i

(* The P_plw^pg local fixpoint [Fix (var, __seed ∪ recursive branches)]:
   each worker registers its partition of the constant part as [__seed]
   and the broadcast relations as tables in its local database, and runs
   this term there ({!Localdb.Instance.query}, a work-table loop as
   PostgreSQL's WITH RECURSIVE). [run_plw_pg] and [explain] share it. *)
let local_seed = "__seed"
let local_term ~var recs = Term.Fix (var, Term.union_all (Term.Rel local_seed :: recs))

(* ------------------------------------------------------------------ *)
(* Distributed evaluation                                              *)
(* ------------------------------------------------------------------ *)

(* Every operator runs inside an ["op"] span carrying its term-tree path
   (root "0", child [i] of [p] is [p ^ "." ^ i], Fix children = constant
   branches then recursive ones in [Fcond.split] order — the convention
   shared with [Cost.Feedback]). A span whose node's output materializes
   inside it also carries the output [rows]; EXPLAIN ANALYZE is a fold of
   these spans ({!Analyze}).

   Non-fixpoint operators lower onto the fused batch chains of
   [Pipeline.Shell]: scans adopt cached columnar views, select / project
   / rename / join-probe accumulate as pending fused operators, and
   chains materialize only where values are observed (size decisions,
   exchanges, unions, collects), which is also where the tuple limit is
   enforced. *)

(* Whole-term entry: leaves evaluate to datasets directly. *)
let rec exec_any ctx ~path (term : Term.t) : Dds.t =
  match term with
  | Term.Rel _ | Term.Cst _ | Term.Var _ | Term.Fix _ ->
    Pipeline.op_span ~path (Pipeline.op_label term) @@ fun () ->
    let d = leaf ctx ~path term in
    Pipeline.set_rows (Dds.cardinal d);
    d
  | _ -> Sh.to_dds ctx.config.cluster (node ctx ~path ~mat:true term)

and leaf ctx ~path (term : Term.t) : Dds.t =
  check_size ctx
    (match term with
    | Term.Rel n -> fst (scan ctx n)
    | Term.Cst r -> Dds.of_rel ctx.config.cluster r
    | Term.Var x -> err "free recursive variable %S at top level" x
    | Term.Fix (x, body) -> exec_fix ctx ~path x body
    | _ -> assert false)

(* One operator lowered onto a chain. [mat] says the consumer observes
   the node's values, so the chain materializes inside this node's span
   (which then reports its rows); otherwise the node stays a pending
   fused operator of its consumer's chain. *)
and node ctx ~path ~mat (term : Term.t) : Sh.chain =
  Pipeline.op_span ~path (Pipeline.op_label term) @@ fun () ->
  let cluster = ctx.config.cluster in
  let kid ?(mat = false) i u = node ctx ~path:(child path i) ~mat u in
  let c =
    match term with
    | Term.Rel n ->
      let d, batches = scan ctx n in
      Sh.of_batches ~schema:(Dds.schema d) ~part:(Dds.partitioning d) (Lazy.force batches)
    | Term.Cst _ | Term.Var _ | Term.Fix _ -> Sh.of_dds cluster (leaf ctx ~path term)
    | Term.Select (p, u) ->
      Sh.filter p (kid 0 u)
    | Term.Project (keep, u) -> distinct ctx (Sh.project keep (kid 0 u))
    | Term.Antiproject (drop, u) ->
      let c = kid 0 u in
      distinct ctx (Sh.project (keep_of_drop (Sh.schema c) drop) c)
    | Term.Rename (m, u) -> Sh.rename_cols m (kid 0 u)
    | Term.Union (a, b) ->
      let a = kid ~mat:true 0 a in
      let b = kid ~mat:true 1 b in
      distinct ctx (materialize ctx (Sh.union cluster a b))
    | Term.Join (a, b) ->
      let a = kid ~mat:true 0 a in
      let b = kid ~mat:true 1 b in
      join ctx a b
    | Term.Antijoin (a, b) ->
      let a = kid ~mat:true 0 a in
      let b = kid ~mat:true 1 b in
      antijoin ctx a b
  in
  let c = if mat then materialize ctx c else c in
  if Sh.is_mat c then Pipeline.set_rows (Sh.rows c);
  c

(* Evaluate a subterm that is constant in the recursive variable, for
   broadcasting. Terms containing fixpoints are evaluated distributed
   (they can be large intermediate results); plain ones centrally. *)
and eval_const ctx ~path term =
  if Term.fix_count term > 0 then Dds.collect (exec_any ctx ~path term)
  else
    Pipeline.op_span ~path (Pipeline.op_label term) @@ fun () ->
    let r = Mura.Eval.eval (driver_env ctx) term in
    Pipeline.set_rows (Rel.cardinal r);
    r

and materialize ctx c =
  let c = Sh.materialize ctx.config.cluster c in
  too_large ctx (Sh.rows c);
  c

(* [Dds.repartition]'s no-op rule over a chain. *)
and repart_if ctx c ~by =
  if Dds.same_hashing (Sh.part c) (Dds.Hashed by) then c
  else Sh.repartition ctx.config.cluster c ~by

(* Global dedup: co-located set partitions are already distinct (and
   the chain stays pending — dedup happens at the next materialization);
   otherwise a charged exchange by the full schema. *)
and distinct ctx c =
  match Sh.part c with
  | Dds.Hashed _ -> c
  | Dds.Arbitrary ->
    let c = materialize ctx c in
    Sh.repartition ctx.config.cluster c ~by:(Schema.cols (Sh.schema c))

(* Size-based join strategy: broadcast the smaller side when it is at
   most [broadcast_threshold] tuples (collect + broadcast, then a fused
   probe from the other side, relaid out left-first), otherwise
   co-partition both sides by the shared columns and probe. *)
and join ctx sa sb : Sh.chain =
  let cluster = ctx.config.cluster in
  let sch_a = Sh.schema sa and sch_b = Sh.schema sb in
  let ca = Sh.rows sa and cb = Sh.rows sb in
  let threshold = ctx.config.broadcast_threshold in
  let bcast_probe side ~base_schema =
    (* driver-side collect + broadcast of [side], probed from every
       worker; with no shared column this is the broadcast cartesian *)
    let rel = Dds.collect (Sh.to_dds cluster side) in
    Dds.broadcast cluster rel;
    let rs = Rel.schema rel in
    let shared = Schema.common base_schema rs in
    let extra = List.filter (fun c -> not (Schema.mem base_schema c)) (Schema.cols rs) in
    let idx =
      Join_index.of_tset ~key_pos:(Schema.positions rs shared)
        ~payload_pos:(Schema.positions rs extra) (Rel.tuples rel)
    in
    (Schema.positions base_schema shared, List.length extra, (fun _ -> idx), rs)
  in
  if cb <= ca && cb <= threshold then begin
    let key_pos, width, index, rs = bcast_probe sb ~base_schema:sch_a in
    Sh.probe sa ~key_pos ~width ~out_schema:(Schema.append_distinct sch_a rs) ~index
  end
  else if ca < cb && ca <= threshold then begin
    (* broadcast [a], probe from [b] (b-first layout), then the fused
       relayout back to the conventional left-first layout *)
    let key_pos, width, index, rs = bcast_probe sa ~base_schema:sch_b in
    let bfirst = Schema.append_distinct sch_b rs in
    let afirst = Schema.append_distinct sch_a sch_b in
    let c = Sh.probe sb ~key_pos ~width ~out_schema:bfirst ~index in
    if Schema.equal_ordered bfirst afirst then c
    else Sh.set_part (Sh.reorder ~into:afirst c) Dds.Arbitrary
  end
  else
    match Schema.common sch_a sch_b with
    | [] ->
      (* cartesian over two above-threshold sides: rare and wide *)
      let d = Dds.join_shuffle (Sh.to_dds cluster sa) (Sh.to_dds cluster sb) in
      Sh.of_dds cluster (check_size ctx d)
    | shared ->
      let sa = repart_if ctx sa ~by:shared in
      let sb = repart_if ctx sb ~by:shared in
      let extra = List.filter (fun c -> not (Schema.mem sch_a c)) (Schema.cols sch_b) in
      let index = worker_index sb ~shared ~payload_pos:(Schema.positions sch_b extra) in
      Sh.set_part
        (Sh.probe sa ~key_pos:(Schema.positions sch_a shared) ~width:(List.length extra)
           ~out_schema:(Schema.append_distinct sch_a sch_b) ~index)
        (Dds.Hashed shared)

and antijoin ctx sa sb : Sh.chain =
  let cluster = ctx.config.cluster in
  let sch_a = Sh.schema sa and sch_b = Sh.schema sb in
  if Sh.rows sb <= ctx.config.broadcast_threshold then begin
    (* the broadcast is charged before the shared-column cases split *)
    let rel_b = Dds.collect (Sh.to_dds cluster sb) in
    Dds.broadcast cluster rel_b;
    let rs = Rel.schema rel_b in
    match Schema.common sch_a rs with
    | [] -> if Rel.is_empty rel_b then sa else Sh.empty_like sa
    | shared ->
      let idx =
        Join_index.of_tset ~key_pos:(Schema.positions rs shared) ~payload_pos:[||]
          (Rel.tuples rel_b)
      in
      Sh.antiprobe sa ~key_pos:(Schema.positions sch_a shared) ~index:(fun _ -> idx)
  end
  else begin
    match Schema.common sch_a sch_b with
    | [] -> if Sh.rows sb = 0 then sa else Sh.empty_like sa
    | shared ->
      let sa = repart_if ctx sa ~by:shared in
      let sb = repart_if ctx sb ~by:shared in
      let index = worker_index sb ~shared ~payload_pos:[||] in
      Sh.set_part
        (Sh.antiprobe sa ~key_pos:(Schema.positions sch_a shared) ~index)
        (Dds.Hashed shared)
  end

(* ------------------------------------------------------------------ *)
(* Fixpoint plans                                                      *)
(* ------------------------------------------------------------------ *)

and compile ctx ~var ~join_mode ~x_schema ~branch_path recs =
  Pipeline.compile ~cluster:ctx.config.cluster ~var ~join_mode ~x_schema
    ~exec_const:(fun ~path t -> exec_any ctx ~path t)
    ~eval_const:(fun ~path t -> eval_const ctx ~path t)
    ~branch_path recs

and exec_fix ctx ~path var body : Dds.t =
  let consts, recs = Fcond.split ~var body in
  let n_consts = List.length consts in
  (* child [i] of the Fix node: constant branches first, then the
     recursive ones, in [Fcond.split] order *)
  let branch_path i = child path (n_consts + i) in
  (match Fcond.(is_positive ~var body, is_linear ~var body, is_non_mutually_recursive ~var body)
   with
  | true, true, true -> ()
  | false, _, _ -> raise (Fcond.Not_fcond (Printf.sprintf "fixpoint on %s not positive" var))
  | _, false, _ -> raise (Fcond.Not_fcond (Printf.sprintf "fixpoint on %s not linear" var))
  | _, _, false -> raise (Fcond.Not_fcond (Printf.sprintf "fixpoint on %s mutually recursive" var)));
  match List.mapi (fun i c -> exec_any ctx ~path:(child path i) c) consts with
  | [] -> raise (Fcond.Not_fcond (Printf.sprintf "fixpoint on %s has no constant part" var))
  | d0 :: drest -> (
    let init = List.fold_left Dds.set_union_local d0 drest in
    match recs with
    | [] -> Dds.distinct init
    | _ ->
      let stable =
        try Mura.Stabilizer.stable_columns (typing_env ctx) ~var body
        with Mura.Typing.Type_error _ -> []
      in
      let plan =
        match ctx.config.force_plan with
        | Some p -> p
        | None -> if stable <> [] then P_plw_s else P_gld
      in
      let partitioned_by = if ctx.config.use_stable_partitioning then stable else [] in
      let result, iterations, deltas =
        Trace.span (Trace.get ()) ~cat:"fixpoint"
          ~attrs:
            [
              ("var", Trace.Str var);
              ("plan", Trace.Str (plan_name plan));
              ("stable", Trace.Str (String.concat "," stable));
            ]
          "fixpoint"
        @@ fun () ->
        match plan with
        | P_gld -> run_gld ctx ~var ~init ~recs ~branch_path
        | P_plw_s -> run_plw_s ctx ~var ~init ~recs ~stable:partitioned_by ~branch_path
        | P_plw_pg -> run_plw_pg ctx ~var ~body ~init ~stable:partitioned_by
      in
      ctx.rpt.fixpoints <-
        {
          var;
          fix_path = path;
          plan;
          stable;
          partitioned_by;
          iterations;
          result_size = Dds.cardinal result;
          deltas;
        }
        :: ctx.rpt.fixpoints;
      (let reg = Telemetry.get () in
       if Telemetry.enabled reg then begin
         let labels = [ ("plan", plan_name plan) ] in
         Telemetry.inc reg ~labels "exec_fixpoints_total";
         Telemetry.observe reg ~labels "exec_fixpoint_iterations" (float_of_int iterations);
         Telemetry.observe reg ~labels "exec_fixpoint_result_rows"
           (float_of_int (Dds.cardinal result))
       end);
      result)

(* P_gld: driver loop over distributed wide operations. The accumulated
   result is kept hash-partitioned by the full schema so that the
   per-iteration difference costs exactly one shuffle of the produced
   tuples (plus whatever the joins shuffle). A seen filter rides on the
   per-iteration repartition, dropping re-derived tuples map-side before
   they are bucketed or charged. *)
and run_gld ctx ~var ~init ~recs ~branch_path =
  let schema_cols = Schema.cols (Dds.schema init) in
  let cp = compile ctx ~var ~join_mode:`Shuffle ~x_schema:(Dds.schema init) ~branch_path recs in
  let seen = Dds.seen_filter ctx.config.cluster in
  let x0 = Dds.repartition ~seen ~by:schema_cols init in
  Pipeline.run cp ~var ~plan_label:"P_gld" ~x0 ~x0_private:(x0 != init)
    ~per_iter_by:(Some schema_cols) ~seen ~max_iterations:ctx.config.max_iterations
    ~max_tuples:ctx.config.max_tuples
    ~limit:(fun msg -> Resource_limit msg)
    ()

(* P_plw^s: repartition the constant part (by the stable columns when
   they exist), broadcast the variable part's relations once, then loop
   with narrow operations only. No distinct at the end when a stable
   repartitioning was applied (the local fixpoints are disjoint). *)
and run_plw_s ctx ~var ~init ~recs ~stable ~branch_path =
  let cp = compile ctx ~var ~join_mode:`Broadcast ~x_schema:(Dds.schema init) ~branch_path recs in
  let x0 = match stable with [] -> init | _ -> Dds.repartition ~by:stable init in
  let x, iterations, deltas =
    Pipeline.run cp ~var ~plan_label:"P_plw^s" ~x0 ~x0_private:(x0 != init) ~per_iter_by:None
      ~max_iterations:ctx.config.max_iterations ~max_tuples:ctx.config.max_tuples
      ~limit:(fun msg -> Resource_limit msg)
      ()
  in
  let result =
    match stable with
    | _ :: _ ->
      (* disjointness proof of Sec. IV-A2: no distinct needed; assert the
         partitioning fact for downstream operators *)
      Dds.map_partitions ~partitioning:(Dds.Hashed stable) ~schema:(Dds.schema x)
        (fun _ part -> part)
        x
    | [] -> Dds.distinct x
  in
  (result, iterations, deltas)

(* P_plw^pg: same distribution scheme; each worker runs its whole local
   fixpoint inside one mapPartitions call against its local database. *)
and run_plw_pg ctx ~var ~body ~init ~stable =
  let m = Cluster.metrics ctx.config.cluster in
  let init = match stable with [] -> init | _ -> Dds.repartition ~by:stable init in
  (* Broadcast every database relation the variable part mentions. *)
  let rels_needed = Term.free_rels body in
  let broadcast_tables =
    List.filter_map
      (fun n ->
        match List.assoc_opt n ctx.tables with
        | Some r ->
          let records = Rel.cardinal r * max 1 (Cluster.workers ctx.config.cluster - 1) in
          Metrics.record_broadcast m ~records;
          Trace.instant (Trace.get ()) ~cat:"shuffle"
            ~attrs:[ ("op", Trace.Str "plw_pg.table"); ("records", Trace.Int records) ]
            "broadcast";
          Some (n, r)
        | None -> None)
      rels_needed
  in
  Metrics.record_superstep m;
  let schema = Dds.schema init in
  let term = local_term ~var (snd (Fcond.split ~var body)) in
  let result =
    Trace.span (Trace.get ()) ~cat:"fixpoint"
      ~attrs:[ ("var", Trace.Str var); ("i", Trace.Int 1) ]
      "iteration"
    @@ fun () ->
    Dds.map_partitions ~op:"local_fixpoint"
      ~partitioning:(match stable with [] -> Dds.Arbitrary | _ -> Dds.Hashed stable)
      ~schema
      (fun _ part ->
        let db = Localdb.Instance.create () in
        List.iter (fun (n, r) -> Localdb.Instance.register db n r) broadcast_tables;
        Localdb.Instance.register db local_seed (Rel.of_tset schema (Tset.copy part));
        Rel.tuples (Rel.relayout schema (Localdb.Instance.query db term)))
      init
  in
  let result = match stable with [] -> Dds.distinct result | _ -> result in
  (result, 1, [])

let exec_dds ctx term = exec_any ctx ~path:"0" term
let run ctx term = Dds.collect (exec_dds ctx term)

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)
(* ------------------------------------------------------------------ *)

let explain ctx term =
  let buf = Buffer.create 256 in
  let tenv = typing_env ctx in
  let line indent fmt =
    Format.kasprintf
      (fun s ->
        Buffer.add_string buf (String.make (2 * indent) ' ');
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  (* join/antijoin path -> the lowering a fixpoint's variable part gives
     it (Pipeline.branch_notes; the factors of a P_plw^s factor join are
     evaluated on the driver, so the choice is the executor's) *)
  let lowerings = Hashtbl.create 4 in
  let rec go indent path (t : Term.t) =
    let kid i u = go (indent + 1) (child path i) u in
    match t with
    | Term.Rel n -> line indent "TableScan %s" n
    | Term.Cst r -> line indent "LocalRelation (%d tuples)" Rel.(cardinal r)
    | Term.Var x -> line indent "RecursiveRef %s" x
    | Term.Select (p, u) ->
      line indent "Filter [%s]" (Relation.Pred.to_string p);
      kid 0 u
    | Term.Project (c, u) ->
      line indent "Project [%s] + Distinct" (String.concat "," c);
      kid 0 u
    | Term.Antiproject (c, u) ->
      line indent "DropColumns [%s] + Distinct" (String.concat "," c);
      kid 0 u
    | Term.Rename (m, u) ->
      line indent "Rename [%s]" (String.concat "," (List.map (fun (o, n) -> o ^ "->" ^ n) m));
      kid 0 u
    | Term.Join (a, b) ->
      (match Hashtbl.find_opt lowerings path with
      | Some note -> line indent "Join (%s)" note
      | None ->
        line indent "Join (broadcast if a side <= %d tuples, else shuffle)"
          ctx.config.broadcast_threshold);
      kid 0 a;
      kid 1 b
    | Term.Antijoin (a, b) ->
      (match Hashtbl.find_opt lowerings path with
      | Some note -> line indent "AntiJoin (%s)" note
      | None -> line indent "AntiJoin (broadcast/shuffle by size)");
      kid 0 a;
      kid 1 b
    | Term.Union (a, b) ->
      line indent "Union + Distinct";
      kid 0 a;
      kid 1 b
    | Term.Fix (x, body) ->
      let stable =
        try Mura.Stabilizer.stable_columns tenv ~var:x body
        with Mura.Typing.Type_error _ | Fcond.Not_fcond _ -> []
      in
      let plan =
        match ctx.config.force_plan with
        | Some p -> p
        | None -> if stable <> [] then P_plw_s else P_gld
      in
      let partition_note =
        match (stable, ctx.config.use_stable_partitioning) with
        | [], _ -> "no stable column: final distinct required"
        | cols, true -> Printf.sprintf "repartition constant part by [%s]" (String.concat "," cols)
        | _, false -> "stable-column repartitioning disabled"
      in
      line indent "Fixpoint %s: plan=%s, stable=[%s], %s" x (plan_name plan)
        (String.concat "," stable) partition_note;
      (match Fcond.split ~var:x body with
      | consts, recs ->
        let n_consts = List.length consts in
        line (indent + 1) "constant part:";
        List.iteri (fun i c -> go (indent + 2) (child path i) c) consts;
        line (indent + 1) "variable part (%s):"
          (match plan with
          | P_gld -> "re-evaluated with shuffles each iteration"
          | P_plw_s -> "broadcast relations, narrow iterations"
          | P_plw_pg -> "shipped to per-worker local databases");
        List.iteri
          (fun i r ->
            let path = child path (n_consts + i) in
            let notes =
              match plan with
              | P_plw_pg -> List.map (fun p -> (p, "local database")) (Pipeline.join_paths ~path r)
              | P_gld | P_plw_s -> (
                try
                  Pipeline.branch_notes ~tenv ~eval:(Mura.Eval.eval (driver_env ctx)) ~var:x
                    ~x_schema:(Mura.Typing.infer tenv (Term.union_all consts))
                    ~join_mode:(if plan = P_gld then `Shuffle else `Broadcast)
                    ~path r
                with Mura.Typing.Type_error _ | Schema.Schema_error _ | Mura.Eval.Eval_error _ -> [])
            in
            List.iter (fun (p, note) -> Hashtbl.replace lowerings p note) notes)
          recs;
        List.iteri (fun i r -> go (indent + 2) (child path (n_consts + i)) r) recs;
        if plan = P_plw_pg then
          line (indent + 1) "local fixpoint on each worker's database: %s"
            (Term.to_string (local_term ~var:x recs))
      | exception Fcond.Not_fcond msg -> line (indent + 1) "! not F_cond: %s" msg)
  in
  line 0 "Execution: compiled columnar pipelines (fused batch operators)";
  go 0 "0" term;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE                                                     *)
(* ------------------------------------------------------------------ *)

module Analyze = struct
  type node = {
    path : string;
    label : string;
    rows : int option;
    candidates : int option;
    lowering : string option;
    ns : float;
    calls : int;
    plan : string option;
    iterations : int;
    deltas : int list;
    children : node list;
  }

  let term_children (t : Term.t) =
    match t with
    | Term.Rel _ | Term.Cst _ | Term.Var _ -> []
    | Term.Select (_, u) | Term.Project (_, u) | Term.Antiproject (_, u) | Term.Rename (_, u) ->
      [ u ]
    | Term.Join (a, b) | Term.Antijoin (a, b) | Term.Union (a, b) -> [ a; b ]
    | Term.Fix (x, body) -> (
      match Fcond.split ~var:x body with
      | consts, recs -> consts @ recs
      | exception Fcond.Not_fcond _ -> [])

  (* Fold the trace's ["op"] spans by node path: calls, inclusive time,
     rows and candidates summed over the spans that carry them, and the
     lowering a span names. *)
  let tree ctx (events : Trace.event list) term =
    let acc = Hashtbl.create 64 in
    let sum key (e : Trace.event) prev =
      match List.assoc_opt key e.attrs with
      | Some (Trace.Int n) -> Some (n + Option.value ~default:0 prev)
      | _ -> prev
    in
    List.iter
      (fun (e : Trace.event) ->
        match (e.kind, e.cat, List.assoc_opt "path" e.attrs) with
        | Trace.Span, "op", Some (Trace.Str p) ->
          let rows, candidates, lowering, ns, calls =
            Option.value ~default:(None, None, None, 0., 0) (Hashtbl.find_opt acc p)
          in
          let lowering =
            match List.assoc_opt "lowering" e.attrs with Some (Trace.Str l) -> Some l | _ -> lowering
          in
          Hashtbl.replace acc p
            ( sum "rows" e rows,
              sum "candidates" e candidates,
              lowering,
              ns +. (e.wall_dur_us *. 1e3),
              calls + 1 )
        | _ -> ())
      events;
    let rec go path (t : Term.t) =
      let rows, candidates, lowering, ns, calls =
        Option.value ~default:(None, None, None, 0., 0) (Hashtbl.find_opt acc path)
      in
      let plan, iterations, deltas =
        match t with
        | Term.Fix _ -> (
          match List.find_opt (fun r -> String.equal r.fix_path path) ctx.rpt.fixpoints with
          | Some r -> (Some (plan_name r.plan), r.iterations, r.deltas)
          | None -> (None, 0, []))
        | _ -> (None, 0, [])
      in
      {
        path;
        label = Pipeline.op_label t;
        rows;
        candidates;
        lowering;
        ns;
        calls;
        plan;
        iterations;
        deltas;
        children = List.mapi (fun i u -> go (child path i) u) (term_children t);
      }
    in
    go "0" term

  let render ?(annot = fun (_ : string) -> "") root =
    let buf = Buffer.create 512 in
    let pp_deltas ds =
      let n = List.length ds in
      let shown = if n > 16 then List.filteri (fun i _ -> i < 16) ds else ds in
      Printf.sprintf "[%s%s]"
        (String.concat ";" (List.map string_of_int shown))
        (if n > 16 then ";…" else "")
    in
    let rec go indent n =
      Buffer.add_string buf (String.make (2 * indent) ' ');
      Buffer.add_string buf n.label;
      Option.iter (Printf.bprintf buf " (%s)") n.lowering;
      (match n.rows with
      | None when n.calls = 0 ->
        (* evaluated inside an enclosing node (a fused branch chain or a
           driver-side constant): the nearest reporting ancestor carries
           the actuals *)
        Buffer.add_string buf " (folded into parent)"
      | None -> Buffer.add_string buf " (fused into parent)"
      | Some rows ->
        Printf.bprintf buf " rows=%d" rows;
        Option.iter (Printf.bprintf buf " candidates=%d") n.candidates;
        (match annot n.path with "" -> () | s -> Printf.bprintf buf " %s" s);
        Printf.bprintf buf " time=%.3fms" (n.ns /. 1e6);
        if n.calls > 1 then Printf.bprintf buf " calls=%d" n.calls);
      (match n.plan with Some p -> Printf.bprintf buf " plan=%s" p | None -> ());
      if n.iterations > 0 then
        Printf.bprintf buf " iters=%d deltas=%s" n.iterations (pp_deltas n.deltas);
      Buffer.add_char buf '\n';
      List.iter (go (indent + 1)) n.children
    in
    go 0 root;
    Buffer.contents buf
end
