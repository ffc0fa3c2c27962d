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

(* The P_plw^pg local plan, decided once on the driver from typing
   alone (nothing is evaluated): the local fixpoint [Fix (var, __seed ∪
   recursive branches)] ships to the per-worker databases as SQL text (a
   WITH RECURSIVE statement), as the paper's PostgreSQL backends receive
   it; a term outside the SQL dialect runs on the volcano executor, for
   the given reason. [run_plw_pg] and [explain] share this decision. *)
type local_plan = Sql of string | Volcano of string

let local_seed = "__seed"

let local_plan ~env ~var recs =
  let term = Term.Fix (var, Term.union_all (Term.Rel local_seed :: recs)) in
  match Localdb.To_sql.of_term (Mura.Typing.env env) term with
  | sql -> (term, Sql sql)
  | exception (Localdb.To_sql.Unsupported reason | Mura.Typing.Type_error reason) ->
    (term, Volcano reason)

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
  let local_term, plan =
    local_plan
      ~env:((local_seed, schema) :: List.map (fun (n, r) -> (n, Rel.schema r)) broadcast_tables)
      ~var
      (snd (Fcond.split ~var body))
  in
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
        let local_result =
          match plan with
          | Sql sql -> Localdb.Sql.query db sql
          | Volcano _ -> Localdb.Instance.query db local_term
        in
        Rel.tuples (Rel.relayout schema local_result))
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
  (* the P_plw^pg local plan: the same decision the executor takes *)
  let local_plan_line indent x body consts recs =
    let env =
      (local_seed, Mura.Typing.infer tenv (Term.union_all consts))
      :: List.filter_map
           (fun n -> Option.map (fun r -> (n, Rel.schema r)) (List.assoc_opt n ctx.tables))
           (Term.free_rels body)
    in
    match local_plan ~env ~var:x recs with
    | _, Sql _ -> line indent "local plan: SQL"
    | _, Volcano reason -> line indent "local plan: volcano (%s)" reason
  in
  let rec go indent (t : Term.t) =
    match t with
    | Term.Rel n -> line indent "TableScan %s" n
    | Term.Cst r -> line indent "LocalRelation (%d tuples)" Rel.(cardinal r)
    | Term.Var x -> line indent "RecursiveRef %s" x
    | Term.Select (p, u) ->
      line indent "Filter [%s]" (Relation.Pred.to_string p);
      go (indent + 1) u
    | Term.Project (c, u) ->
      line indent "Project [%s] + Distinct" (String.concat "," c);
      go (indent + 1) u
    | Term.Antiproject (c, u) ->
      line indent "DropColumns [%s] + Distinct" (String.concat "," c);
      go (indent + 1) u
    | Term.Rename (m, u) ->
      line indent "Rename [%s]" (String.concat "," (List.map (fun (o, n) -> o ^ "->" ^ n) m));
      go (indent + 1) u
    | Term.Join (a, b) ->
      line indent "Join (broadcast if a side <= %d tuples, else shuffle)"
        ctx.config.broadcast_threshold;
      go (indent + 1) a;
      go (indent + 1) b
    | Term.Antijoin (a, b) ->
      line indent "AntiJoin (broadcast/shuffle by size)";
      go (indent + 1) a;
      go (indent + 1) b
    | Term.Union (a, b) ->
      line indent "Union + Distinct";
      go (indent + 1) a;
      go (indent + 1) b
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
        line (indent + 1) "constant part:";
        List.iter (go (indent + 2)) consts;
        line (indent + 1) "variable part (%s):"
          (match plan with
          | P_gld -> "re-evaluated with shuffles each iteration"
          | P_plw_s -> "broadcast relations, narrow iterations"
          | P_plw_pg -> "shipped to per-worker local databases");
        List.iter (go (indent + 2)) recs;
        if plan = P_plw_pg then
          (try local_plan_line (indent + 1) x body consts recs
           with Mura.Typing.Type_error _ | Schema.Schema_error _ | Fcond.Not_fcond _ -> ())
      | exception Fcond.Not_fcond msg -> line (indent + 1) "! not F_cond: %s" msg)
  in
  line 0 "Execution: compiled columnar pipelines (fused batch operators)";
  line 0 "Exchange: %s, %d workers"
    (if Cluster.pooled_shuffle ctx.config.cluster then
       "two-phase pooled shuffle (map/merge on worker pool), adaptive per-stage mode"
     else "sequential driver-side")
    (Cluster.workers ctx.config.cluster);
  go 0 term;
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
     and rows and candidates summed over the spans that carry them. *)
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
          let rows, candidates, ns, calls =
            Option.value ~default:(None, None, 0., 0) (Hashtbl.find_opt acc p)
          in
          Hashtbl.replace acc p
            ( sum "rows" e rows,
              sum "candidates" e candidates,
              ns +. (e.wall_dur_us *. 1e3),
              calls + 1 )
        | _ -> ())
      events;
    let rec go path (t : Term.t) =
      let rows, candidates, ns, calls =
        Option.value ~default:(None, None, 0., 0) (Hashtbl.find_opt acc path)
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

(* ------------------------------------------------------------------ *)
(* Incremental fixpoint maintenance                                    *)
(* ------------------------------------------------------------------ *)

module Incr = struct
  exception Unsupported of string

  let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

  type handle = {
    i_config : config;
    i_var : string;
    i_body : Term.t;
    i_consts : Term.t list;
    i_recs : Term.t list;
    i_plan : fixpoint_plan;
    i_hash_cols : string list;  (* the accumulator's hash-partitioning key *)
    i_narrow : bool;  (* P_plw^s with stable columns: no per-iteration exchange *)
    i_report : fix_report list;  (* establishment-run fixpoint reports, innermost-first *)
    mutable i_tables : (string * Rel.t) list;
    mutable i_acc : Dds.t;  (* live converged accumulator; owned exclusively *)
    mutable i_resumes : int;
    mutable i_resume_iterations : int;
  }

  let result h = Dds.collect h.i_acc
  let size h = Dds.cardinal h.i_acc
  let tables h = h.i_tables
  let resumes h = h.i_resumes
  let resume_iterations h = h.i_resume_iterations
  let plan h = h.i_plan
  let establish_report h = h.i_report

  let establish config ~tables term =
    let var, body =
      match (term : Term.t) with
      | Fix (var, body) -> (var, body)
      | _ -> unsupported "not a fixpoint term"
    in
    if Term.free_vars term <> [] then unsupported "fixpoint term has free recursive variables";
    let ctx = session config tables in
    let acc = exec_any ctx ~path:"0" term in
    let consts, recs = Fcond.split ~var body in
    let stable =
      try Mura.Stabilizer.stable_columns (typing_env ctx) ~var body
      with Mura.Typing.Type_error _ -> []
    in
    let plan =
      match config.force_plan with
      | Some p -> p
      | None -> if stable <> [] then P_plw_s else P_gld
    in
    if plan = P_plw_pg then unsupported "P_plw^pg keeps no driver-side accumulator to resume";
    let partitioned_by = if config.use_stable_partitioning then stable else [] in
    let narrow = plan = P_plw_s && partitioned_by <> [] in
    let hash_cols = if narrow then partitioned_by else Schema.cols (Dds.schema acc) in
    (* membership probes during resume are partition-local, so the live
       accumulator must be hash-partitioned; the plans above already
       leave it that way and the repartition no-ops *)
    let acc =
      if Dds.same_hashing (Dds.partitioning acc) (Dds.Hashed hash_cols) then acc
      else Dds.repartition ~by:hash_cols acc
    in
    {
      i_config = config;
      i_var = var;
      i_body = body;
      i_consts = consts;
      i_recs = recs;
      i_plan = plan;
      i_hash_cols = hash_cols;
      i_narrow = narrow;
      i_report = ctx.rpt.fixpoints;
      i_tables = tables;
      i_acc = acc;
      i_resumes = 0;
      i_resume_iterations = 0;
    }

  let union_all = function
    | [] -> None
    | d :: rest -> Some (List.fold_left Dds.set_union_local d rest)

  (* Apply recursive branches (or differential summands) once to [d],
     compiled in broadcast mode — the delta constants inside are small. *)
  let apply_once ctx ~var ~path d terms =
    let branch_path i = path ^ "." ^ string_of_int i in
    Pipeline.apply
      (compile ctx ~var ~join_mode:`Broadcast ~x_schema:(Dds.schema d) ~branch_path terms)
      d

  (* Evaluate differential summands against the live accumulator: those
     mentioning the variable are applied once with [X := acc]; var-free
     ones evaluate as constant sides and are distributed. Returns their
     union, or [None] when there are no summands. *)
  let eval_summands ctx ~var ~acc summands =
    let recursive, constant = List.partition (Term.has_free_var var) summands in
    let applied = apply_once ctx ~var ~path:"incr" acc recursive in
    let constants =
      List.mapi
        (fun i s ->
          Dds.of_rel ctx.config.cluster (eval_const ctx ~path:("incr.cst." ^ string_of_int i) s))
        constant
    in
    union_all (applied @ constants)

  (* Resume the semi-naive loop from [(acc, fresh)] over the catalog in
     [ctx]: the from-scratch driver, entered with [?delta0]. *)
  let resume_loop h ctx ~acc ~fresh =
    let branch_path i = "incr.rec." ^ string_of_int i in
    let join_mode = if h.i_plan = P_gld then `Shuffle else `Broadcast in
    let plan_label = plan_name h.i_plan ^ "(resume)" in
    let seen = if h.i_narrow then None else Some (Dds.seen_filter h.i_config.cluster) in
    let per_iter_by = if h.i_narrow then None else Some h.i_hash_cols in
    let cp = compile ctx ~var:h.i_var ~join_mode ~x_schema:(Dds.schema acc) ~branch_path h.i_recs in
    Pipeline.run cp ~var:h.i_var ~plan_label ~x0:acc ~x0_private:true ~delta0:fresh ~per_iter_by
      ?seen ~max_iterations:h.i_config.max_iterations ~max_tuples:h.i_config.max_tuples
      ~limit:(fun msg -> Resource_limit msg)
      ()

  (* The narrow (stable-partitioned) loop can lose the partitioning label
     when branch outputs come back [Arbitrary]; physically every derived
     tuple stays on its premise's worker (the stable-column locality
     theorem of Sec. IV-A2), so re-assert the fact instead of paying an
     exchange. *)
  let assert_partitioning h d =
    if Dds.same_hashing (Dds.partitioning d) (Dds.Hashed h.i_hash_cols) then d
    else if h.i_narrow then
      Dds.map_partitions ~partitioning:(Dds.Hashed h.i_hash_cols) ~schema:(Dds.schema d)
        (fun _ part -> part)
        d
    else Dds.repartition ~by:h.i_hash_cols d

  (* DRed over-deletion: propagate deletions through the old rules,
     clipped to tuples actually in the accumulator. [ctx_old] reads the
     pre-update catalog. *)
  let over_delete h ctx_old ~deletes =
    let seed_terms =
      List.concat_map (Mura.Deriv.delta ~changed:deletes) (h.i_consts @ h.i_recs)
    in
    match eval_summands ctx_old ~var:h.i_var ~acc:h.i_acc seed_terms with
    | None -> None
    | Some seed ->
      let seed = Dds.repartition ~by:h.i_hash_cols seed in
      let o_acc = ref (Dds.set_inter_local seed h.i_acc) in
      if Dds.cardinal !o_acc = 0 then None
      else if h.i_recs = [] then Some !o_acc
      else begin
        let cp =
          compile ctx_old ~var:h.i_var ~join_mode:`Broadcast ~x_schema:(Dds.schema !o_acc)
            ~branch_path:(fun i -> "incr.del." ^ string_of_int i)
            h.i_recs
        in
        let delta = ref !o_acc in
        let iterations = ref 0 in
        let continue = ref true in
        while !continue do
          incr iterations;
          if !iterations > h.i_config.max_iterations then
            raise (Resource_limit "max iterations exceeded (DRed over-delete)");
          let produced = Option.get (union_all (Pipeline.apply cp !delta)) in
          let produced = Dds.repartition ~by:h.i_hash_cols produced in
          let produced = Dds.set_inter_local produced h.i_acc in
          let o', fresh = Dds.diff_union_in_place ~acc:!o_acc ~produced in
          if Dds.cardinal fresh = 0 then continue := false
          else begin
            o_acc := o';
            delta := fresh
          end
        done;
        Some !o_acc
      end

  let apply_table_updates tables ~inserts ~deletes =
    List.map
      (fun (name, r) ->
        let r = match List.assoc_opt name deletes with Some d -> Rel.diff r d | None -> r in
        let r = match List.assoc_opt name inserts with Some d -> Rel.union r d | None -> r in
        (name, r))
      tables

  let update ?(inserts = []) ?(deletes = []) h =
    (* trim the update to its effective part: inserts already present and
       deletions of absent tuples change nothing *)
    let effective deltas trim =
      List.filter_map
        (fun (name, d) ->
          match List.assoc_opt name h.i_tables with
          | None -> unsupported "update to unregistered relation %S" name
          | Some r ->
            if not (Schema.equal_names (Rel.schema r) (Rel.schema d)) then
              unsupported "update schema mismatch on %S" name;
            let d = trim d r in
            if Rel.is_empty d then None else Some (name, d))
        deltas
    in
    match
      let inserts = effective inserts (fun d r -> Rel.diff d r) in
      let deletes = effective deletes (fun d r -> Rel.inter d r) in
      let changed = List.map fst inserts @ List.map fst deletes in
      if changed = [] then `Repaired 0
      else begin
        (match Mura.Deriv.supported ~changed h.i_body with
        | Ok () -> ()
        | Error msg -> raise (Mura.Deriv.Unsupported msg));
        (* 1. over-delete through the old rules (DRed), before the catalog
           changes under us *)
        let x_under =
          if deletes = [] then None
          else begin
            let ctx_old = session h.i_config h.i_tables in
            match over_delete h ctx_old ~deletes with
            | None -> None
            | Some o -> Some (Dds.set_diff_local h.i_acc o)
          end
        in
        (* 2. switch to the new catalog *)
        let new_tables = apply_table_updates h.i_tables ~inserts ~deletes in
        let ctx_new = session h.i_config new_tables in
        (* 3. seed the resume frontier: for pure insertions, the
           differential of the body at [X := acc] (small — only
           delta-touching derivations); after deletions, a full
           re-derivation pass over the surviving accumulator *)
        let x0, seed =
          match x_under with
          | None ->
            let terms =
              List.concat_map (Mura.Deriv.delta ~changed:inserts) (h.i_consts @ h.i_recs)
            in
            (h.i_acc, eval_summands ctx_new ~var:h.i_var ~acc:h.i_acc terms)
          | Some x_under ->
            let consts =
              List.mapi (fun i c -> exec_any ctx_new ~path:("incr.cst." ^ string_of_int i) c)
                h.i_consts
            in
            let recs = apply_once ctx_new ~var:h.i_var ~path:"incr.rec" x_under h.i_recs in
            (x_under, union_all (consts @ recs))
        in
        let acc, iterations =
          match seed with
          | None -> (x0, 0)
          | Some seed ->
            let seed = Dds.repartition ~by:h.i_hash_cols seed in
            let acc', fresh = Dds.diff_union_in_place ~acc:x0 ~produced:seed in
            if Dds.cardinal fresh = 0 || h.i_recs = [] then (acc', 0)
            else
              let acc, iters, _deltas = resume_loop h ctx_new ~acc:acc' ~fresh in
              (acc, iters)
        in
        h.i_acc <- assert_partitioning h acc;
        h.i_tables <- new_tables;
        h.i_resumes <- h.i_resumes + 1;
        h.i_resume_iterations <- h.i_resume_iterations + iterations;
        (let reg = Telemetry.get () in
         if Telemetry.enabled reg then
           Telemetry.observe reg
             ~labels:[ ("plan", plan_name h.i_plan) ]
             "fixpoint_resume_iterations" (float_of_int iterations));
        `Repaired iterations
      end
    with
    | `Repaired iterations -> `Repaired (result h, iterations)
    | exception Mura.Deriv.Unsupported msg -> `Unsupported msg
    | exception Unsupported msg -> `Unsupported msg
end
