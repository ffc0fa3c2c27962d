module Schema = Relation.Schema
module Rel = Relation.Rel
module Tset = Relation.Tset
module Tuple = Relation.Tuple
module Pred = Relation.Pred
module Batch = Relation.Batch
module Index = Relation.Index
module Term = Mura.Term
module Fcond = Mura.Fcond
module Dds = Distsim.Dds
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics

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
  collect_actuals : bool;
  use_compiled_exec : bool;
}

let default_config cluster =
  {
    cluster;
    force_plan = None;
    broadcast_threshold = 2_000_000;
    max_iterations = 100_000;
    max_tuples = 500_000_000;
    use_stable_partitioning = true;
    collect_actuals = false;
    use_compiled_exec = true;
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

(* EXPLAIN ANALYZE accumulator of one term-tree node, keyed by node path
   (root "0", child [i] of [p] is [p ^ "." ^ i], Fix children = constant
   branches then recursive ones in [Fcond.split] order — the convention
   shared with [Localdb.Instance] and [Cost.Feedback]). For operators
   inside a fixpoint loop, rows/ns accumulate over every iteration and
   [o_count] records the number of applications. *)
type op_actual = { mutable o_rows : int; mutable o_ns : float; mutable o_count : int }

(* P_plw^pg local-plan actuals, aggregated across workers: rows are
   summed, time is the max over workers (they run in parallel), rounds
   is the max semi-naive round count. *)
type local_actual = {
  mutable l_rows : int;
  mutable l_ns : float;
  mutable l_rounds : int;
  mutable l_workers : int;
}

(* Shared cache of typing-only shell analyses ([Pipeline.Shell.analyze]
   results), keyed by the serialized term ([Mura.Normal.serialize]; not
   the rewriter's dedup key, which renames working columns the analysis
   refers to). A long-lived service passes one cache to every session it
   opens so a repeated query is analyzed once; the analysis depends only
   on the catalog's schemas, so the owner must drop the cache when those
   change. *)
type shell_cache = (string, Pipeline.Shell.static) Hashtbl.t

let shell_cache () : shell_cache = Hashtbl.create 64
let clear_shell_cache (c : shell_cache) = Hashtbl.reset c

type ctx = {
  config : config;
  tables : (string * Rel.t) list;
  cache : (string, Dds.t) Hashtbl.t;
  bcache : (string, Batch.t array) Hashtbl.t;
      (* columnar view of cached base relations, for the compiled shell *)
  shell_statics : shell_cache;
  rpt : report;
  actuals : (string, op_actual) Hashtbl.t option;
  local_actuals : (string, (string, local_actual) Hashtbl.t) Hashtbl.t;
      (* fix-node path -> local-plan path -> aggregate *)
  local_plans : (string, Term.t) Hashtbl.t;  (* fix-node path -> local term *)
  locals_mutex : Mutex.t;
}

let session ?shell_cache:sc config tables =
  {
    config;
    tables;
    cache = Hashtbl.create 16;
    bcache = Hashtbl.create 8;
    shell_statics = (match sc with Some c -> c | None -> Hashtbl.create 16);
    rpt = { fixpoints = [] };
    actuals = (if config.collect_actuals then Some (Hashtbl.create 64) else None);
    local_actuals = Hashtbl.create 4;
    local_plans = Hashtbl.create 4;
    locals_mutex = Mutex.create ();
  }

let child path i = path ^ "." ^ string_of_int i

let actual_of tbl path =
  match Hashtbl.find_opt tbl path with
  | Some a -> a
  | None ->
    let a = { o_rows = 0; o_ns = 0.; o_count = 0 } in
    Hashtbl.replace tbl path a;
    a

(* Meter one evaluation into the node's accumulator. [Dds.cardinal] is a
   driver-side fold over partition sizes: it moves no data and touches no
   metrics, so analyzed runs keep bit-identical results and counters. *)
let metered ctx path (card : 'a -> int) (f : unit -> 'a) : 'a =
  match ctx.actuals with
  | None -> f ()
  | Some tbl ->
    let t0 = Unix.gettimeofday () in
    let d = f () in
    let a = actual_of tbl path in
    a.o_ns <- a.o_ns +. ((Unix.gettimeofday () -. t0) *. 1e9);
    a.o_rows <- a.o_rows + card d;
    a.o_count <- a.o_count + 1;
    d
let config_of ctx = ctx.config
let report ctx = ctx.rpt
let metrics ctx = Cluster.metrics ctx.config.cluster

let err fmt = Format.kasprintf (fun s -> raise (Mura.Eval.Eval_error s)) fmt

let check_size ctx d =
  if Dds.cardinal d > ctx.config.max_tuples then
    raise (Resource_limit (Printf.sprintf "dataset exceeds %d tuples" ctx.config.max_tuples));
  d

let driver_env ctx = Mura.Eval.env ctx.tables
let typing_env ctx = Mura.Typing.env (List.map (fun (n, r) -> (n, Rel.schema r)) ctx.tables)

(* Narrow projection: keep the given columns; partitioning survives when
   the partitioning columns are all kept. *)
let project_narrow d keep =
  let schema = Dds.schema d in
  let out_schema = Schema.restrict schema keep in
  let pos = Schema.positions schema keep in
  let partitioning =
    match Dds.partitioning d with
    | Dds.Hashed cols when List.for_all (fun c -> List.mem c keep) cols -> Dds.Hashed cols
    | Dds.Hashed _ | Dds.Arbitrary -> Dds.Arbitrary
  in
  Dds.map_partitions ~op:"project" ~partitioning ~schema:out_schema
    (fun _ part ->
      let out = Tset.create ~capacity:(Tset.cardinal part) () in
      Tset.iter (fun tu -> ignore (Tset.add out (Tuple.project pos tu))) part;
      out)
    d

let keep_of_drop schema drop = List.filter (fun c -> not (List.mem c drop)) (Schema.cols schema)

(* Span label for one physical operator (trace category "op"): the
   per-operator rollup groups communication and stage time under these. *)
let op_label (t : Term.t) =
  match t with
  | Rel n -> "Rel " ^ n
  | Cst _ -> "Cst"
  | Var x -> "Var " ^ x
  | Select _ -> "Select"
  | Project _ -> "Project"
  | Antiproject _ -> "Antiproject"
  | Rename _ -> "Rename"
  | Join _ -> "Join"
  | Antijoin _ -> "Antijoin"
  | Union _ -> "Union"
  | Fix (x, _) -> "Fix " ^ x

(* Fallback telemetry: one counter, labelled by the static reason slug
   and the site that fell back (shell node, fixpoint branch, P_plw^pg
   local plan). *)
let tele_fallback ~reason ~site =
  let reg = Telemetry.get () in
  if Telemetry.enabled reg then
    Telemetry.inc reg ~labels:[ ("reason", reason); ("site", site) ] "pipeline_fallback_total"

(* Literal relations embedded in a term make its serialized key
   arbitrarily large (and the term transient), so such terms bypass the
   shell-static cache. *)
let rec has_cst : Term.t -> bool = function
  | Term.Cst _ -> true
  | Term.Rel _ | Term.Var _ -> false
  | Term.Select (_, u) | Term.Project (_, u) | Term.Antiproject (_, u) | Term.Rename (_, u)
  | Term.Fix (_, u) ->
    has_cst u
  | Term.Join (a, b) | Term.Antijoin (a, b) | Term.Union (a, b) -> has_cst a || has_cst b

(* A shell value: either still a columnar chain (per-worker batches plus
   pending fused operators) or an interpreter dataset produced by a
   per-subtree fallback. *)
type sval = S_chain of Pipeline.Shell.chain | S_dds of Dds.t

(* ------------------------------------------------------------------ *)
(* Distributed evaluation of non-recursive operators                   *)
(* ------------------------------------------------------------------ *)

module Sh = Pipeline.Shell

let shell_children = Sh.children_of

let rec exec_at ctx ~path (term : Term.t) : Dds.t =
  Trace.span (Trace.get ()) ~cat:"op" (op_label term) @@ fun () ->
  let d =
    metered ctx path Dds.cardinal @@ fun () ->
    let kids = List.mapi (fun i u -> exec_at ctx ~path:(child path i) u) (shell_children term) in
    interp_node ctx ~path term kids
  in
  check_size ctx d

(* One interpreted operator over already-evaluated children ([Fix], [Rel]
   and [Cst] are leaves here — the fixpoint drives its own recursion).
   Shared verbatim between the operator-at-a-time tree walk above and
   per-subtree fallbacks of the compiled shell, so both paths take the
   exact same size decisions and meter identically. *)
and interp_node ctx ~path (term : Term.t) (kids : Dds.t list) : Dds.t =
  match (term, kids) with
  | Rel n, [] -> (
    match Hashtbl.find_opt ctx.cache n with
    | Some d -> d
    | None ->
      let rel =
        match List.assoc_opt n ctx.tables with
        | Some r -> r
        | None -> err "unknown relation %S" n
      in
      let d = Dds.of_rel ctx.config.cluster rel in
      Hashtbl.replace ctx.cache n d;
      d)
  | Cst r, [] -> Dds.of_rel ctx.config.cluster r
  | Var x, _ -> err "free recursive variable %S at top level" x
  | Select (p, _), [ d ] -> Dds.filter p d
  | Project (keep, _), [ d ] -> Dds.distinct (project_narrow d keep)
  | Antiproject (drop, _), [ d ] -> Dds.distinct (project_narrow d (keep_of_drop (Dds.schema d) drop))
  | Rename (m, _), [ d ] -> Dds.rename m d
  | Join _, [ da; db ] ->
    let ca = Dds.cardinal da and cb = Dds.cardinal db in
    let threshold = ctx.config.broadcast_threshold in
    if cb <= ca && cb <= threshold then Dds.join_broadcast da (Dds.collect db)
    else if ca < cb && ca <= threshold then
      let joined = Dds.join_broadcast db (Dds.collect da) in
      (* keep the conventional left-first layout *)
      let out_schema = Schema.append_distinct (Dds.schema da) (Dds.schema db) in
      relayout_dds joined out_schema
    else Dds.join_shuffle da db
  | Antijoin _, [ da; db ] ->
    if Dds.cardinal db <= ctx.config.broadcast_threshold then
      Dds.antijoin_broadcast da (Dds.collect db)
    else Dds.antijoin_shuffle da db
  | Union _, [ da; db ] -> Dds.union_distinct da db
  | Fix (x, body), [] -> exec_fix ctx ~path x body
  | _ -> assert false

and relayout_dds d out_schema =
  if Schema.equal_ordered (Dds.schema d) out_schema then d
  else
    let perm = Schema.reorder_positions ~from:(Dds.schema d) ~into:out_schema in
    Dds.map_partitions ~op:"relayout" ~schema:out_schema
      (fun _ part ->
        let out = Tset.create ~capacity:(Tset.cardinal part) () in
        Tset.iter (fun tu -> ignore (Tset.add out (Tuple.project perm tu))) part;
        out)
      d

(* Evaluate a subterm that is constant in the recursive variable, for
   broadcasting. Terms containing fixpoints are evaluated distributed
   (they can be large intermediate results); plain ones centrally. *)
and eval_const ctx ~path term =
  if Term.fix_count term > 0 then Dds.collect (exec_any ctx ~path term)
  else metered ctx path Rel.cardinal (fun () -> Mura.Eval.eval (driver_env ctx) term)

(* ------------------------------------------------------------------ *)
(* Compiled shell execution                                            *)
(* ------------------------------------------------------------------ *)

(* The non-fixpoint shell around [Fix] nodes lowers onto the same fused
   batch chains as the recursive branches: scans adopt cached columnar
   views, select/project/rename/join-probe accumulate as pending fused
   operators, and materialization happens only where the interpreter
   observes values (size decisions, exchanges, collects). Supportability
   is decided by the typing-only [Pipeline.Shell.analyze] pass before
   anything is evaluated; an unsupported node interprets just itself
   ([interp_node]) over batch<->Tset bridges while its children stay
   compiled. Where the shell engages, results, partition contents,
   iteration counts and all communication counters are identical to the
   interpreter by construction; resource limits are enforced at
   materialization points instead of per node. *)

and shell_on ctx = ctx.config.use_compiled_exec && ctx.actuals = None

(* Whole-plan entry: the compiled shell when it applies, the interpreter
   otherwise. Leaves and bare fixpoints have no shell to compile — both
   paths are the same code, so skip the batch bridges. *)
and exec_any ctx ~path (term : Term.t) : Dds.t =
  if shell_on ctx then
    match term with
    | Term.Rel _ | Term.Cst _ | Term.Var _ | Term.Fix _ -> exec_at ctx ~path term
    | _ -> shell_dds ctx ~path term
  else exec_at ctx ~path term

and shell_static ctx (term : Term.t) : Sh.static =
  let analyze () =
    let tenv = typing_env ctx in
    Sh.analyze ~typing:(fun t -> Mura.Typing.infer tenv t) term
  in
  if has_cst term then analyze ()
  else begin
    let key = Mura.Normal.serialize term in
    match Hashtbl.find_opt ctx.shell_statics key with
    | Some st -> st
    | None ->
      if Hashtbl.length ctx.shell_statics >= 512 then Hashtbl.reset ctx.shell_statics;
      let st = analyze () in
      Hashtbl.replace ctx.shell_statics key st;
      st
  end

and shell_dds ctx ~path (term : Term.t) : Dds.t =
  shell_to_dds ctx (shell_exec ctx ~path (shell_static ctx term) term)

(* Materialize a chain, enforcing the tuple limit the interpreter checks
   per node. *)
and shell_mat ctx c =
  let c = Sh.materialize ctx.config.cluster c in
  if Sh.rows c > ctx.config.max_tuples then
    raise (Resource_limit (Printf.sprintf "dataset exceeds %d tuples" ctx.config.max_tuples));
  c

and shell_chain ctx = function
  | S_chain c -> c
  | S_dds d -> Sh.of_dds ctx.config.cluster d

and shell_to_dds ctx = function
  | S_dds d -> d
  | S_chain c -> Sh.to_dds ctx.config.cluster (shell_mat ctx c)

(* [Dds.repartition]'s no-op rule over a chain. *)
and shell_repart_if ctx c ~by =
  if Dds.same_hashing (Sh.part c) (Dds.Hashed by) then c
  else Sh.repartition ctx.config.cluster c ~by

(* [Dds.distinct] over a chain: co-located set partitions are already
   distinct (and the chain stays pending — dedup happens at the next
   materialization); otherwise a metered exchange by the full schema. *)
and shell_distinct ctx c =
  match Sh.part c with
  | Dds.Hashed _ -> S_chain c
  | Dds.Arbitrary ->
    let c = shell_mat ctx c in
    S_chain (Sh.repartition ctx.config.cluster c ~by:(Schema.cols (Sh.schema c)))

and shell_exec ctx ~path (st : Sh.static) (term : Term.t) : sval =
  Trace.span (Trace.get ()) ~cat:"op" (op_label term) @@ fun () ->
  let kid i =
    match (List.nth_opt st.Sh.s_children i, List.nth_opt (shell_children term) i) with
    | Some cst, Some u -> shell_exec ctx ~path:(child path i) cst u
    | _ -> assert false
  in
  match st.Sh.s_verdict with
  | Sh.Interp reason ->
    tele_fallback ~reason ~site:"shell";
    let kids =
      List.mapi (fun i _ -> shell_to_dds ctx (kid i)) (shell_children term)
    in
    S_dds (check_size ctx (interp_node ctx ~path term kids))
  | Sh.Compiled -> (
    match term with
    | Term.Var _ -> assert false (* [analyze] always interprets free variables *)
    | Term.Rel n ->
      (* metered scan through the session cache, plus a columnar view of
         the same partitions cached alongside (chains never mutate their
         base batches, so the view is shared safely) *)
      let d = interp_node ctx ~path term [] in
      let batches =
        match Hashtbl.find_opt ctx.bcache n with
        | Some b -> b
        | None ->
          let b = Sh.batches (Sh.of_dds ctx.config.cluster d) in
          Hashtbl.replace ctx.bcache n b;
          b
      in
      S_chain (Sh.of_batches ~schema:(Dds.schema d) ~part:(Dds.partitioning d) batches)
    | Term.Cst _ -> S_chain (Sh.of_dds ctx.config.cluster (interp_node ctx ~path term []))
    | Term.Fix (x, body) ->
      S_chain (Sh.of_dds ctx.config.cluster (check_size ctx (exec_fix ctx ~path x body)))
    | Term.Select (p, _) ->
      let c = shell_chain ctx (kid 0) in
      S_chain (Sh.filter (Pred.compile (Sh.schema c) p) c)
    | Term.Project (keep, _) ->
      let c = shell_chain ctx (kid 0) in
      shell_distinct ctx (Sh.project keep c)
    | Term.Antiproject (drop, _) ->
      let c = shell_chain ctx (kid 0) in
      shell_distinct ctx (Sh.project (keep_of_drop (Sh.schema c) drop) c)
    | Term.Rename (m, _) ->
      let c = shell_chain ctx (kid 0) in
      S_chain (Sh.rename_cols m c)
    | Term.Union _ ->
      let a = shell_mat ctx (shell_chain ctx (kid 0)) in
      let b = shell_mat ctx (shell_chain ctx (kid 1)) in
      shell_distinct ctx (shell_mat ctx (Sh.union ctx.config.cluster a b))
    | Term.Join _ ->
      let a = shell_mat ctx (shell_chain ctx (kid 0)) in
      let b = shell_mat ctx (shell_chain ctx (kid 1)) in
      shell_join ctx a b
    | Term.Antijoin _ ->
      let a = shell_mat ctx (shell_chain ctx (kid 0)) in
      let b = shell_mat ctx (shell_chain ctx (kid 1)) in
      shell_antijoin ctx a b)

(* Mirror of the interpreter's join: same size decisions, same broadcast
   and collect metering, same output layout and partitioning — but the
   probe side becomes a pending fused operator instead of a materialized
   intermediate. *)
and shell_join ctx sa sb : sval =
  let cluster = ctx.config.cluster in
  let sch_a = Sh.schema sa and sch_b = Sh.schema sb in
  let ca = Sh.rows sa and cb = Sh.rows sb in
  let threshold = ctx.config.broadcast_threshold in
  let bcast_probe rel =
    (* driver-side collect + broadcast of [rel], probed from every
       worker; with no shared column this is the broadcast cartesian *)
    let rs = Rel.schema rel in
    fun ~base_schema ->
      let shared = Schema.common base_schema rs in
      let extra = List.filter (fun c -> not (Schema.mem base_schema c)) (Schema.cols rs) in
      let extra_pos = Schema.positions rs extra in
      let probe =
        match shared with
        | [] ->
          let all = List.of_seq (Tset.to_seq (Rel.tuples rel)) in
          fun _w _key -> all
        | _ ->
          let idx = Index.build rs shared (Tset.to_seq (Rel.tuples rel)) in
          fun _w key -> Index.probe idx key
      in
      (Schema.positions base_schema shared, extra_pos, probe)
  in
  if cb <= ca && cb <= threshold then begin
    let rel_b = Dds.collect (Sh.to_dds cluster sb) in
    ignore (Dds.broadcast cluster rel_b);
    let key_pos, extra_pos, probe = bcast_probe rel_b ~base_schema:sch_a in
    let out_schema = Schema.append_distinct sch_a (Rel.schema rel_b) in
    S_chain (Sh.probe sa ~key_pos ~extra_pos ~out_schema ~probe)
  end
  else if ca < cb && ca <= threshold then begin
    (* broadcast [a], probe from [b] (b-first layout), then the fused
       relayout back to the conventional left-first layout *)
    let rel_a = Dds.collect (Sh.to_dds cluster sa) in
    ignore (Dds.broadcast cluster rel_a);
    let key_pos, extra_pos, probe = bcast_probe rel_a ~base_schema:sch_b in
    let bfirst = Schema.append_distinct sch_b (Rel.schema rel_a) in
    let afirst = Schema.append_distinct sch_a sch_b in
    let c = Sh.probe sb ~key_pos ~extra_pos ~out_schema:bfirst ~probe in
    if Schema.equal_ordered bfirst afirst then S_chain c
    else S_chain (Sh.set_part (Sh.reorder ~into:afirst c) Dds.Arbitrary)
  end
  else begin
    let shared = Schema.common sch_a sch_b in
    match shared with
    | [] ->
      (* cartesian over two above-threshold sides: rare and wide — hand
         the node to the interpreter *)
      tele_fallback ~reason:"cartesian_shuffle" ~site:"shell";
      let da = Sh.to_dds cluster sa and db = Sh.to_dds cluster sb in
      S_dds (check_size ctx (Dds.join_shuffle da db))
    | _ ->
      let sa = shell_repart_if ctx sa ~by:shared in
      let sb = shell_repart_if ctx sb ~by:shared in
      let out_schema = Schema.append_distinct sch_a sch_b in
      let extra = List.filter (fun c -> not (Schema.mem sch_a c)) (Schema.cols sch_b) in
      let extra_pos = Schema.positions sch_b extra in
      let b_batches = Sh.batches sb in
      (* per-worker build side, indexed lazily: slot [w] is only ever
         touched by worker [w]'s probe chain *)
      let idxs = Array.make (Array.length b_batches) None in
      let probe w key =
        let idx =
          match idxs.(w) with
          | Some i -> i
          | None ->
            let i = Index.build sch_b shared (Sh.batch_tuples b_batches.(w)) in
            idxs.(w) <- Some i;
            i
        in
        Index.probe idx key
      in
      S_chain
        (Sh.set_part
           (Sh.probe sa ~key_pos:(Schema.positions sch_a shared) ~extra_pos ~out_schema ~probe)
           (Dds.Hashed shared))
  end

and shell_antijoin ctx sa sb : sval =
  let cluster = ctx.config.cluster in
  let sch_a = Sh.schema sa and sch_b = Sh.schema sb in
  if Sh.rows sb <= ctx.config.broadcast_threshold then begin
    (* [Dds.antijoin_broadcast]: the broadcast is metered before the
       shared-column cases split *)
    let rel_b = Dds.collect (Sh.to_dds cluster sb) in
    ignore (Dds.broadcast cluster rel_b);
    let rs = Rel.schema rel_b in
    match Schema.common sch_a rs with
    | [] -> if Rel.is_empty rel_b then S_chain sa else S_chain (Sh.empty_like sa)
    | shared ->
      let idx = Index.build rs shared (Tset.to_seq (Rel.tuples rel_b)) in
      S_chain
        (Sh.antiprobe sa ~key_pos:(Schema.positions sch_a shared) ~mem:(fun _w key ->
             Index.mem idx key))
  end
  else begin
    match Schema.common sch_a sch_b with
    | [] -> if Sh.rows sb = 0 then S_chain sa else S_chain (Sh.empty_like sa)
    | shared ->
      let sa = shell_repart_if ctx sa ~by:shared in
      let sb = shell_repart_if ctx sb ~by:shared in
      let b_batches = Sh.batches sb in
      let b_key = Schema.positions sch_b shared in
      let keysets = Array.make (Array.length b_batches) None in
      let mem w key =
        let ks =
          match keysets.(w) with
          | Some k -> k
          | None ->
            let b = b_batches.(w) in
            let k = Tset.create ~capacity:(Batch.length b) () in
            Seq.iter (fun tu -> ignore (Tset.add k (Tuple.project b_key tu))) (Sh.batch_tuples b);
            keysets.(w) <- Some k;
            k
        in
        Tset.mem ks key
      in
      S_chain
        (Sh.set_part
           (Sh.antiprobe sa ~key_pos:(Schema.positions sch_a shared) ~mem)
           (Dds.Hashed shared))
  end

(* ------------------------------------------------------------------ *)
(* Recursive-branch compilation                                        *)
(* ------------------------------------------------------------------ *)

(* Compile a union-free recursive branch into a function of the delta.
   [join_mode] decides how joins against the constant side execute:
   `Broadcast (P_plw: metered once here, then narrow per iteration) or
   `Shuffle (P_gld: the constant side is distributed and pre-partitioned;
   the delta side is shuffled on every application). *)
and compile_branch ctx ~var ~join_mode ~path branch : Dds.t -> Dds.t =
  (* Per-iteration metering: each application of the compiled closure
     accumulates its output size and time at the node's path, so the
     annotated tree reports totals over all fixpoint iterations. *)
  let wrap path f =
    match ctx.actuals with None -> f | Some _ -> fun delta -> metered ctx path Dds.cardinal (fun () -> f delta)
  in
  let rec go ~path (t : Term.t) : Dds.t -> Dds.t =
    if not (Term.has_free_var var t) then begin
      match join_mode with
      | `Broadcast ->
        let r = eval_const ctx ~path t in
        let d = Dds.of_rel ctx.config.cluster r in
        fun _ -> d
      | `Shuffle ->
        let d = exec_any ctx ~path t in
        fun _ -> d
    end
    else
      wrap path
      @@
      match t with
      | Term.Var x when String.equal x var -> fun delta -> delta
      | Term.Var x -> err "foreign recursive variable %S in branch" x
      | Term.Select (p, u) ->
        let f = go ~path:(child path 0) u in
        fun delta -> Dds.filter p (f delta)
      | Term.Project (keep, u) ->
        let f = go ~path:(child path 0) u in
        fun delta -> project_narrow (f delta) keep
      | Term.Antiproject (drop, u) ->
        let f = go ~path:(child path 0) u in
        fun delta ->
          let d = f delta in
          project_narrow d (keep_of_drop (Dds.schema d) drop)
      | Term.Rename (m, u) ->
        let f = go ~path:(child path 0) u in
        fun delta -> Dds.rename m (f delta)
      | Term.Join (a, b) ->
        (* Linearity: exactly one side mentions the variable. The output
           layout (which side comes first) is irrelevant: set operations
           reconcile layouts by column name. *)
        let (recursive, rpath), (const, cpath) =
          if Term.has_free_var var a then ((a, child path 0), (b, child path 1))
          else ((b, child path 1), (a, child path 0))
        in
        let f = go ~path:rpath recursive in
        (match join_mode with
        | `Broadcast ->
          let probe = bcast_probe ctx ~path:cpath const in
          fun delta ->
            let left = f delta in
            Dds.join_bcast_prepared left (probe left)
        | `Shuffle ->
          let const_dds = exec_any ctx ~path:cpath const in
          (* memoize the co-partitioned constant side across iterations:
             Spark keeps shuffle files of the stable side too *)
          let prepared = ref None in
          fun delta ->
            let left = f delta in
            let shared = Schema.common (Dds.schema left) (Dds.schema const_dds) in
            let const_part =
              match !prepared with
              | Some d -> d
              | None ->
                let d =
                  match shared with
                  | [] -> const_dds
                  | _ -> Dds.repartition ~by:shared const_dds
                in
                prepared := Some d;
                d
            in
            Dds.join_shuffle left const_part)
      | Term.Antijoin (a, b) ->
        if Term.has_free_var var b then err "fixpoint on %s is not positive" var;
        let f = go ~path:(child path 0) a in
        (match join_mode with
        | `Broadcast ->
          let probe = bcast_probe ctx ~path:(child path 1) b in
          fun delta ->
            let left = f delta in
            Dds.antijoin_bcast_prepared left (probe left)
        | `Shuffle ->
          let const_dds = exec_any ctx ~path:(child path 1) b in
          fun delta -> Dds.antijoin_shuffle (f delta) const_dds)
      | Term.Union _ -> err "internal: union inside a normalised branch"
      | Term.Fix (x, _) -> err "internal: recursive variable %s under nested fixpoint %s" var x
      | Term.Rel _ | Term.Cst _ -> assert false (* constant, handled above *)
  in
  go ~path branch

(* Broadcast the constant side [const] once and return a probe-handle
   getter: the index over the broadcast side is built at the first
   iteration (the delta schema is loop-invariant) and reused by every
   later one. *)
and bcast_probe ctx ~path const : Dds.t -> Dds.prepared_bcast =
  let bc = Dds.broadcast ctx.config.cluster (eval_const ctx ~path const) in
  let prepared = ref None in
  fun left ->
    match !prepared with
    | Some p -> p
    | None ->
      let p = Dds.prepare_bcast ~for_schema:(Dds.schema left) bc in
      prepared := Some p;
      p

(* ------------------------------------------------------------------ *)
(* Fixpoint plans                                                      *)
(* ------------------------------------------------------------------ *)

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
        | P_plw_pg -> run_plw_pg ctx ~var ~body ~init ~stable:partitioned_by ~path
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

(* Shared semi-naive driver of P_gld and P_plw^s: produce (branch
   closures on the delta) -> check_size -> relayout -> per-iteration
   repartition ([per_iter]: the only step the two plans differ on — a
   shuffle for P_gld, the identity for P_plw^s) -> delta maintenance.

   Delta maintenance is one [Dds.diff_union_in_place] stage that mutates
   the accumulator's partitions in place. The accumulator must therefore
   be loop private — [x0_private] says whether the caller's initial
   repartition actually allocated fresh partitions; when it no-opped (so
   [x0] may alias a cached table), the loop takes a one-time defensive
   copy. *)
and run_semi_naive ctx ~var ~plan_label ~x0 ~x0_private ?delta0 ~branch_fns ~per_iter () =
  let m = Cluster.metrics ctx.config.cluster in
  let x = ref (if x0_private then x0 else Dds.copy_parts x0) in
  (* [delta0] resumes the loop with a given frontier (already absorbed
     into [x0] by the caller) — the incremental-maintenance entry *)
  let delta = ref (match delta0 with Some d -> d | None -> !x) in
  let iterations = ref 0 in
  let deltas = ref [] in
  let continue = ref true in
  while !continue do
    incr iterations;
    if !iterations > ctx.config.max_iterations then
      raise (Resource_limit (Printf.sprintf "max iterations exceeded (%s)" plan_label));
    Trace.span (Trace.get ()) ~cat:"fixpoint"
      ~attrs:[ ("var", Trace.Str var); ("i", Trace.Int !iterations) ]
      "iteration"
    @@ fun () ->
    Metrics.record_superstep m;
    let produced =
      match List.map (fun f -> f !delta) branch_fns with
      | [] -> assert false
      | d0 :: rest -> List.fold_left Dds.set_union_local d0 rest
    in
    let produced = check_size_dds ctx produced in
    let produced = relayout_dds produced (Dds.schema !x) in
    let produced = per_iter produced in
    let x', fresh = Dds.diff_union_in_place ~acc:!x ~produced in
    let fresh_n = Dds.cardinal fresh in
    deltas := fresh_n :: !deltas;
    if fresh_n = 0 then continue := false
    else begin
      x := check_size_dds ctx x';
      delta := fresh
    end
  done;
  (!x, !iterations, List.rev !deltas)

(* Try the compiled columnar core first ([Pipeline]): a static planning
   pass decides supportability before any constant side is evaluated, so
   a [None] fallback to the interpreted loop costs nothing and never
   double-meters. EXPLAIN ANALYZE forces the interpreter — per-operator
   actuals only exist on the operator-at-a-time path. *)
and compiled_pipeline ctx ~var ~join_mode ~init ~recs ~branch_path =
  if (not ctx.config.use_compiled_exec) || ctx.actuals <> None then None
  else begin
    let tenv = typing_env ctx in
    let typing t = Mura.Typing.infer tenv t in
    match
      Pipeline.compile ~cluster:ctx.config.cluster ~var ~join_mode ~x_schema:(Dds.schema init)
        ~typing
        ~exec_const:(fun ~path t -> exec_any ctx ~path t)
        ~eval_const:(fun ~path t -> eval_const ctx ~path t)
        ~branch_path recs
    with
    | Some cp -> Some cp
    | None ->
      (match Pipeline.reject_reason ~var ~join_mode ~typing ~x_schema:(Dds.schema init) recs with
      | Some reason -> tele_fallback ~reason ~site:"fix_branch"
      | None -> ());
      None
  end

(* P_gld: driver loop over distributed wide operations. The accumulated
   result is kept hash-partitioned by the full schema so that the
   per-iteration difference costs exactly one shuffle of the produced
   tuples (plus whatever the joins shuffle). A seen filter rides on the
   per-iteration repartition, dropping re-derived tuples map-side before
   they are bucketed or metered. *)
and run_gld ctx ~var ~init ~recs ~branch_path =
  let schema_cols = Schema.cols (Dds.schema init) in
  let compiled = compiled_pipeline ctx ~var ~join_mode:`Shuffle ~init ~recs ~branch_path in
  let seen = Dds.seen_filter ctx.config.cluster in
  let x0 = Dds.repartition ~seen ~by:schema_cols init in
  match compiled with
  | Some cp ->
    Pipeline.run cp ~var ~plan_label:"P_gld" ~x0 ~x0_private:(x0 != init)
      ~per_iter_by:(Some schema_cols) ~seen ~max_iterations:ctx.config.max_iterations
      ~max_tuples:ctx.config.max_tuples
      ~limit:(fun msg -> Resource_limit msg)
      ()
  | None ->
    let branch_fns =
      List.mapi
        (fun i b -> compile_branch ctx ~var ~join_mode:`Shuffle ~path:(branch_path i) b)
        recs
    in
    run_semi_naive ctx ~var ~plan_label:"P_gld" ~x0 ~x0_private:(x0 != init) ~branch_fns
      ~per_iter:(fun produced -> Dds.repartition ~seen ~by:schema_cols produced)
      ()

(* P_plw^s: repartition the constant part (by the stable columns when
   they exist), broadcast the variable part's relations once, then loop
   with narrow operations only. No distinct at the end when a stable
   repartitioning was applied (the local fixpoints are disjoint). *)
and run_plw_s ctx ~var ~init ~recs ~stable ~branch_path =
  let compiled = compiled_pipeline ctx ~var ~join_mode:`Broadcast ~init ~recs ~branch_path in
  let x0 = match stable with [] -> init | _ -> Dds.repartition ~by:stable init in
  let x, iterations, deltas =
    match compiled with
    | Some cp ->
      Pipeline.run cp ~var ~plan_label:"P_plw^s" ~x0 ~x0_private:(x0 != init) ~per_iter_by:None
        ~max_iterations:ctx.config.max_iterations ~max_tuples:ctx.config.max_tuples
        ~limit:(fun msg -> Resource_limit msg)
        ()
    | None ->
      let branch_fns =
        List.mapi
          (fun i b -> compile_branch ctx ~var ~join_mode:`Broadcast ~path:(branch_path i) b)
          recs
      in
      run_semi_naive ctx ~var ~plan_label:"P_plw^s" ~x0 ~x0_private:(x0 != init) ~branch_fns
        ~per_iter:(fun produced -> produced)
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
and run_plw_pg ctx ~var ~body ~init ~stable ~path =
  let m = Cluster.metrics ctx.config.cluster in
  let init = match stable with [] -> init | _ -> Dds.repartition ~by:stable init in
  let seed_name = "__seed" in
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
  let consts, recs_b = Fcond.split ~var body in
  ignore consts;
  let local_term = Term.Fix (var, Term.union_all (Term.Rel seed_name :: recs_b)) in
  Metrics.record_superstep m;
  let schema = Dds.schema init in
  (* the fixpoint is shipped to the local databases as SQL text (a WITH
     RECURSIVE statement), as the paper's PostgreSQL backend receives
     it; terms outside the SQL dialect fall back to direct plans.
     EXPLAIN ANALYZE forces the direct plans: the SQL engine exposes no
     per-operator counters, the volcano executor does. Both paths compute
     the same relation, so results are unchanged. *)
  let analyzing = ctx.actuals <> None in
  let local_env =
    (seed_name, schema) :: List.map (fun (n, r) -> (n, Rel.schema r)) broadcast_tables
  in
  (* compiled local path: a driver-side, typing-only lowering of the
     local fixpoint onto batch chains ([Localdb.Bexec]); every worker
     then runs the same compiled loop. The SQL and volcano executors
     stay as the oracle fallbacks (and EXPLAIN ANALYZE forces them —
     only the volcano path exposes per-operator counters). *)
  let bexec_plan =
    if analyzing || not ctx.config.use_compiled_exec then None
    else
      match Localdb.Bexec.plan ~env:local_env local_term with
      | Ok p -> Some p
      | Error reason ->
        tele_fallback ~reason ~site:"plw_pg_local";
        None
  in
  let sql_text =
    if analyzing || Option.is_some bexec_plan then None
    else
      let tenv = Mura.Typing.env local_env in
      match Localdb.To_sql.of_term tenv local_term with
      | sql -> Some sql
      | exception (Localdb.To_sql.Unsupported _ | Mura.Typing.Type_error _) -> None
  in
  if analyzing then Hashtbl.replace ctx.local_plans path local_term;
  let merge_local_actuals acts =
    Mutex.lock ctx.locals_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock ctx.locals_mutex) @@ fun () ->
    let tbl =
      match Hashtbl.find_opt ctx.local_actuals path with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 32 in
        Hashtbl.replace ctx.local_actuals path tbl;
        tbl
    in
    List.iter
      (fun (a : Localdb.Instance.actual) ->
        match Hashtbl.find_opt tbl a.path with
        | Some acc ->
          acc.l_rows <- acc.l_rows + a.rows;
          acc.l_ns <- Float.max acc.l_ns a.ns;
          acc.l_rounds <- max acc.l_rounds a.rounds;
          acc.l_workers <- acc.l_workers + 1
        | None ->
          Hashtbl.replace tbl a.path
            { l_rows = a.rows; l_ns = a.ns; l_rounds = a.rounds; l_workers = 1 })
      acts
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
        Localdb.Instance.register db seed_name (Rel.of_tset schema (Tset.copy part));
        let local_result =
          match bexec_plan with
          | Some p -> Rel.relayout schema (Localdb.Bexec.run p db)
          | None -> (
            match sql_text with
            | Some sql -> Relation.Rel.relayout schema (Localdb.Sql.query db sql)
            | None ->
              if analyzing then begin
                let r, acts = Localdb.Instance.query_analyzed db local_term in
                merge_local_actuals acts;
                r
              end
              else Localdb.Instance.query db local_term)
        in
        Rel.tuples local_result)
      init
  in
  let result = match stable with [] -> Dds.distinct result | _ -> result in
  (result, 1, [])

and check_size_dds ctx d = check_size ctx d

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
  let typing t = Mura.Typing.infer tenv t in
  (* Per-subtree shell verdicts (only when the compiled shell can engage):
     each node line carries [compiled] or [interpreted: reason]. *)
  let shell_st =
    if ctx.config.use_compiled_exec then
      match Pipeline.Shell.analyze ~typing term with
      | st -> Some st
      | exception _ -> None
    else None
  in
  let ann st =
    match st with
    | None -> ""
    | Some s -> (
      match s.Pipeline.Shell.s_verdict with
      | Pipeline.Shell.Compiled -> " [compiled]"
      | Pipeline.Shell.Interp r -> Printf.sprintf " [interpreted: %s]" r)
  in
  let kid st i =
    match st with
    | Some s -> List.nth_opt s.Pipeline.Shell.s_children i
    | None -> None
  in
  (* Per-branch fixpoint verdicts: same static passes the executor runs
     ([Pipeline.reject_reason] slugs for P_gld / P_plw^s branches,
     [Localdb.Bexec.plan] for the P_plw^pg local plan). *)
  let branch_lines indent x body plan consts recs =
    if not ctx.config.use_compiled_exec then ()
    else
      match plan with
      | P_plw_pg -> (
        let env =
          ("__seed", typing (Term.union_all consts))
          :: List.filter_map
               (fun n -> Option.map (fun r -> (n, Rel.schema r)) (List.assoc_opt n ctx.tables))
               (Term.free_rels body)
        in
        let local_term = Term.Fix (x, Term.union_all (Term.Rel "__seed" :: recs)) in
        match Localdb.Bexec.plan ~env local_term with
        | Ok _ -> line indent "local plan: compiled batch fixpoint"
        | Error r -> line indent "local plan: interpreted (%s)" r
        | exception _ -> line indent "local plan: interpreted (typing)")
      | P_gld | P_plw_s -> (
        let join_mode = match plan with P_gld -> `Shuffle | _ -> `Broadcast in
        match typing (Term.union_all consts) with
        | x_schema ->
          List.iteri
            (fun i b ->
              match Pipeline.branch_verdict ~var:x ~join_mode ~typing ~x_schema b with
              | Ok () -> line indent "branch %d: compiled" i
              | Error r -> line indent "branch %d: interpreted (%s)" i r)
            recs
        | exception _ -> ())
  in
  let rec go indent st (t : Term.t) =
    match t with
    | Term.Rel n -> line indent "TableScan %s%s" n (ann st)
    | Term.Cst r -> line indent "LocalRelation (%d tuples)%s" Rel.(cardinal r) (ann st)
    | Term.Var x -> line indent "RecursiveRef %s%s" x (ann st)
    | Term.Select (p, u) ->
      line indent "Filter [%s]%s" (Relation.Pred.to_string p) (ann st);
      go (indent + 1) (kid st 0) u
    | Term.Project (c, u) ->
      line indent "Project [%s] + Distinct%s" (String.concat "," c) (ann st);
      go (indent + 1) (kid st 0) u
    | Term.Antiproject (c, u) ->
      line indent "DropColumns [%s] + Distinct%s" (String.concat "," c) (ann st);
      go (indent + 1) (kid st 0) u
    | Term.Rename (m, u) ->
      line indent "Rename [%s]%s"
        (String.concat "," (List.map (fun (o, n) -> o ^ "->" ^ n) m))
        (ann st);
      go (indent + 1) (kid st 0) u
    | Term.Join (a, b) ->
      line indent "Join (broadcast if a side <= %d tuples, else shuffle)%s"
        ctx.config.broadcast_threshold (ann st);
      go (indent + 1) (kid st 0) a;
      go (indent + 1) (kid st 1) b
    | Term.Antijoin (a, b) ->
      line indent "AntiJoin (broadcast/shuffle by size)%s" (ann st);
      go (indent + 1) (kid st 0) a;
      go (indent + 1) (kid st 1) b
    | Term.Union (a, b) ->
      line indent "Union + Distinct%s" (ann st);
      go (indent + 1) (kid st 0) a;
      go (indent + 1) (kid st 1) b
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
        List.iter (go (indent + 2) None) consts;
        line (indent + 1) "variable part (%s):"
          (match plan with
          | P_gld -> "re-evaluated with shuffles each iteration"
          | P_plw_s -> "broadcast relations, narrow iterations"
          | P_plw_pg -> "shipped to per-worker local databases as SQL");
        List.iter (go (indent + 2) None) recs;
        (try branch_lines (indent + 1) x body plan consts recs
         with _ -> ())
      | exception Fcond.Not_fcond msg -> line (indent + 1) "! not F_cond: %s" msg)
  in
  line 0 "Execution: %s"
    (if ctx.config.use_compiled_exec then
       "compiled columnar pipelines (fused batch operators; interpreter fallback)"
     else "interpreted operator-at-a-time");
  line 0 "Exchange: %s, %d workers"
    (if Cluster.pooled_shuffle ctx.config.cluster then
       "two-phase pooled shuffle (map/merge on worker pool), adaptive per-stage mode"
     else "sequential driver-side")
    (Cluster.workers ctx.config.cluster);
  go 0 shell_st term;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE                                                     *)
(* ------------------------------------------------------------------ *)

module Analyze = struct
  type local_op = {
    l_path : string;
    l_label : string;
    l_rows_total : int;
    l_ns_max : float;
    l_rounds : int;
    l_workers : int;
  }

  type node = {
    path : string;
    label : string;
    rows : int;
    ns : float;
    calls : int;
    plan : string option;
    iterations : int;
    deltas : int list;
    local : local_op list;
    children : node list;
  }

  (* Numeric comparison of dotted node paths ("0.10" after "0.2"). *)
  let path_compare a b =
    let ints p = List.filter_map int_of_string_opt (String.split_on_char '.' p) in
    compare (ints a) (ints b)

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

  (* Path -> label map of a local-database plan, mirroring the path
     assignment of [Localdb.Instance.compile] (same convention, and like
     the instance it skips the Union nodes that [Fcond.split] dissolves). *)
  let rec term_labels acc path (t : Term.t) =
    let acc = (path, op_label t) :: acc in
    List.fold_left
      (fun (i, acc) u -> (i + 1, term_labels acc (child path i) u))
      (0, acc) (term_children t)
    |> snd

  let local_ops ctx fixpath =
    match Hashtbl.find_opt ctx.local_actuals fixpath with
    | None -> []
    | Some tbl ->
      let labels =
        match Hashtbl.find_opt ctx.local_plans fixpath with
        | Some t -> term_labels [] "0" t
        | None -> []
      in
      Hashtbl.fold
        (fun p (a : local_actual) acc ->
          {
            l_path = p;
            l_label = (match List.assoc_opt p labels with Some l -> l | None -> "?");
            l_rows_total = a.l_rows;
            l_ns_max = a.l_ns;
            l_rounds = a.l_rounds;
            l_workers = a.l_workers;
          }
          :: acc)
        tbl []
      |> List.sort (fun a b -> path_compare a.l_path b.l_path)

  let tree ctx term =
    let rec go path (t : Term.t) =
      let rows, ns, calls =
        match ctx.actuals with
        | Some tbl -> (
          match Hashtbl.find_opt tbl path with
          | Some a -> (a.o_rows, a.o_ns, a.o_count)
          | None -> (0, 0., 0))
        | None -> (0, 0., 0)
      in
      let plan, iterations, deltas =
        match t with
        | Term.Fix _ -> (
          match List.find_opt (fun r -> String.equal r.fix_path path) ctx.rpt.fixpoints with
          | Some r -> (Some (plan_name r.plan), r.iterations, r.deltas)
          | None -> (None, 0, []))
        | _ -> (None, 0, [])
      in
      let children =
        List.mapi (fun i u -> go (child path i) u) (term_children t)
      in
      {
        path;
        label = op_label t;
        rows;
        ns;
        calls;
        plan;
        iterations;
        deltas;
        local = (match t with Term.Fix _ -> local_ops ctx path | _ -> []);
        children;
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
      if n.calls = 0 then
        (* evaluated as part of an enclosing constant subterm: the
           nearest metered ancestor carries the actuals *)
        Buffer.add_string buf " (folded into parent)"
      else begin
        Printf.bprintf buf " rows=%d" n.rows;
        (match annot n.path with "" -> () | s -> Printf.bprintf buf " %s" s);
        Printf.bprintf buf " time=%.3fms" (n.ns /. 1e6);
        if n.calls > 1 then Printf.bprintf buf " calls=%d" n.calls
      end;
      (match n.plan with Some p -> Printf.bprintf buf " plan=%s" p | None -> ());
      if n.iterations > 0 then
        Printf.bprintf buf " iters=%d deltas=%s" n.iterations (pp_deltas n.deltas);
      Buffer.add_char buf '\n';
      List.iter
        (fun l ->
          Buffer.add_string buf (String.make ((2 * indent) + 2) ' ');
          Printf.bprintf buf "local %s [%s] rows=%d max_time=%.3fms" l.l_label l.l_path
            l.l_rows_total (l.l_ns_max /. 1e6);
          if l.l_rounds > 0 then Printf.bprintf buf " rounds=%d" l.l_rounds;
          Printf.bprintf buf " workers=%d" l.l_workers;
          Buffer.add_char buf '\n')
        n.local;
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

  (* Evaluate differential summands against the live accumulator: each
     summand is compiled like a recursive branch (broadcast mode — the
     delta constants inside are small) and applied with [delta := acc];
     var-free summands evaluate directly. Returns their union, or [None]
     when no summand can produce anything. *)
  let eval_summands ctx ~var ~acc summands =
    match
      List.mapi
        (fun i s -> compile_branch ctx ~var ~join_mode:`Broadcast ~path:("incr." ^ string_of_int i) s acc)
        summands
    with
    | [] -> None
    | d :: rest -> Some (List.fold_left Dds.set_union_local d rest)

  (* Resume the semi-naive loop from [(acc, fresh)] over the catalog in
     [ctx]: the compiled columnar core when it engages, the interpreted
     closures otherwise — exactly the from-scratch drivers, entered with
     [?delta0]. *)
  let resume_loop h ctx ~acc ~fresh =
    let branch_path i = "incr.rec." ^ string_of_int i in
    let join_mode = if h.i_plan = P_gld then `Shuffle else `Broadcast in
    let plan_label = plan_name h.i_plan ^ "(resume)" in
    let seen = if h.i_narrow then None else Some (Dds.seen_filter h.i_config.cluster) in
    let per_iter_by = if h.i_narrow then None else Some h.i_hash_cols in
    match compiled_pipeline ctx ~var:h.i_var ~join_mode ~init:acc ~recs:h.i_recs ~branch_path with
    | Some cp ->
      Pipeline.run cp ~var:h.i_var ~plan_label ~x0:acc ~x0_private:true ~delta0:fresh ~per_iter_by
        ?seen ~max_iterations:h.i_config.max_iterations ~max_tuples:h.i_config.max_tuples
        ~limit:(fun msg -> Resource_limit msg)
        ()
    | None ->
      let branch_fns =
        List.mapi
          (fun i b -> compile_branch ctx ~var:h.i_var ~join_mode ~path:(branch_path i) b)
          h.i_recs
      in
      let per_iter =
        match per_iter_by with
        | None -> fun produced -> produced
        | Some by -> fun produced -> Dds.repartition ?seen ~by produced
      in
      run_semi_naive ctx ~var:h.i_var ~plan_label ~x0:acc ~x0_private:true ~delta0:fresh
        ~branch_fns ~per_iter ()

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
      else begin
        let branch_fns =
          List.mapi
            (fun i b ->
              compile_branch ctx_old ~var:h.i_var ~join_mode:`Broadcast
                ~path:("incr.del." ^ string_of_int i) b)
            h.i_recs
        in
        let delta = ref !o_acc in
        let iterations = ref 0 in
        let continue = ref (branch_fns <> []) in
        while !continue do
          incr iterations;
          if !iterations > h.i_config.max_iterations then
            raise (Resource_limit "max iterations exceeded (DRed over-delete)");
          let produced =
            match List.map (fun f -> f !delta) branch_fns with
            | [] -> assert false
            | d0 :: rest -> List.fold_left Dds.set_union_local d0 rest
          in
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
            let recs =
              List.mapi
                (fun i b ->
                  compile_branch ctx_new ~var:h.i_var ~join_mode:`Broadcast
                    ~path:("incr.rec." ^ string_of_int i) b x_under)
                h.i_recs
            in
            let seed =
              match consts @ recs with
              | [] -> None
              | d :: rest -> Some (List.fold_left Dds.set_union_local d rest)
            in
            (x_under, seed)
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
