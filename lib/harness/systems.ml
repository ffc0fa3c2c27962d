module Rel = Relation.Rel
module Schema = Relation.Schema
module Term = Mura.Term
module Exec = Physical.Exec
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics

type workload = {
  graph : Rel.t;
  ucrpq : string option;
  mu_term : Term.t option;
  datalog : Datalog.Ast.program option;
}

let of_ucrpq graph text =
  let qs = Rpq.Query.parse_union text in
  {
    graph;
    ucrpq = Some text;
    mu_term = Some (Rpq.Query.union_to_term qs);
    datalog = Some (Datalog.Of_rpq.program_union qs);
  }

let of_mu ?datalog graph term = { graph; ucrpq = None; mu_term = Some term; datalog }

type success = {
  wall_s : float;
  sim_s : float;
  result_size : int;
  shuffles : int;
  shuffled_records : int;
  broadcast_records : int;
  supersteps : int;
}

type outcome = Success of success | Failed of string | Timeout of float

let pp_outcome ppf = function
  | Success s ->
    Format.fprintf ppf "%.3fs (%d tuples, %d shuffles, %d rec moved)" s.wall_s s.result_size
      s.shuffles s.shuffled_records
  | Failed msg -> Format.fprintf ppf "FAILED: %s" msg
  | Timeout t -> Format.fprintf ppf "TIMEOUT after %.1fs" t

type system = { name : string; short : string; run : timeout_s:float -> workload -> outcome }

let now () = Unix.gettimeofday ()

(* Wrap a runner body with failure capture and timeout accounting. [m] is
   the metric accumulator consulted for the communication columns. *)
let guarded ~timeout_s (m : Metrics.t option) body =
  let t0 = now () in
  Relation.Deadline.set ~seconds_from_now:timeout_s;
  let body () = Fun.protect ~finally:Relation.Deadline.clear body in
  match body () with
  | result_size ->
    let wall_s = now () -. t0 in
    if wall_s > timeout_s then Timeout wall_s
    else
      let zero = Metrics.create () in
      let m = Option.value ~default:zero m in
      Success
        {
          wall_s;
          sim_s = m.Metrics.sim_time_ns /. 1e9;
          result_size;
          shuffles = m.Metrics.shuffles;
          shuffled_records = m.Metrics.shuffled_records;
          broadcast_records = m.Metrics.broadcast_records;
          supersteps = m.Metrics.supersteps;
        }
  | exception Exec.Resource_limit msg -> Failed msg
  | exception Datalog.Dist.Engine_failure msg -> Failed msg
  | exception Pregel.Engine.Engine_failure msg -> Failed msg
  | exception Mura.Fcond.Not_fcond msg -> Failed ("not F_cond: " ^ msg)
  | exception Mura.Eval.Eval_error msg -> Failed ("eval: " ^ msg)
  | exception Mura.Typing.Type_error msg -> Failed ("typing: " ^ msg)
  | exception Rpq.Query.Translation_error msg -> Failed ("translation: " ^ msg)
  | exception Datalog.Eval.Eval_error msg -> Failed ("datalog: " ^ msg)
  | exception Relation.Deadline.Expired -> Timeout (now () -. t0)
  | exception Out_of_memory -> Failed "out of memory"

let require what = function
  | Some v -> v
  | None -> raise (Rpq.Query.Translation_error (Printf.sprintf "workload has no %s form" what))

(* logical optimization shared by all mu-RA systems *)
let optimize tables term =
  let tenv = Mura.Typing.env (List.map (fun (n, r) -> (n, Rel.schema r)) tables) in
  let stats = Cost.Stats.of_tables tables in
  Rewrite.Engine.optimize ~max_plans:120 ~cost:(Cost.Estimate.cost stats) tenv term

let run_physical ?(logical_opt = true) ?(stable_partitioning = true) ?max_tuples ~force_plan ~workers ~timeout_s w =
  let cluster = Cluster.make ~workers () in
  let default = Exec.default_config cluster in
  let config =
    {
      default with
      force_plan;
      use_stable_partitioning = stable_partitioning;
      max_tuples = Option.value ~default:default.Exec.max_tuples max_tuples;
    }
  in
  guarded ~timeout_s
    (Some (Cluster.metrics cluster))
    (fun () ->
      let term = require "mu-RA" w.mu_term in
      let tables = [ ("E", w.graph) ] in
      let best = if logical_opt then optimize tables term else term in
      let ctx = Exec.session config tables in
      Rel.cardinal (Exec.run ctx best))

let dist_mu_ra ?(workers = 4) ?max_tuples () =
  {
    name = "Dist-mu-RA";
    short = "dist";
    run = (fun ~timeout_s w -> run_physical ?max_tuples ~force_plan:None ~workers ~timeout_s w);
  }

let dist_mu_ra_gld ?(workers = 4) ?max_tuples () =
  {
    name = "Dist-mu-RA (P_gld)";
    short = "gld";
    run =
      (fun ~timeout_s w ->
        run_physical ?max_tuples ~force_plan:(Some Exec.P_gld) ~workers ~timeout_s w);
  }

let dist_mu_ra_plw ?(workers = 4) which =
  let plan, name, short =
    match which with
    | `Setrdd -> (Exec.P_plw_s, "Dist-mu-RA (P_plw^s)", "plw-s")
    | `Postgres -> (Exec.P_plw_pg, "Dist-mu-RA (P_plw^pg)", "plw-pg")
  in
  {
    name;
    short;
    run = (fun ~timeout_s w -> run_physical ~force_plan:(Some plan) ~workers ~timeout_s w);
  }

let dist_mu_ra_unopt ?(workers = 4) () =
  {
    name = "Dist-mu-RA (no rewriting)";
    short = "unopt";
    run =
      (fun ~timeout_s w ->
        run_physical ~logical_opt:false ~force_plan:None ~workers ~timeout_s w);
  }

let dist_mu_ra_unpartitioned ?(workers = 4) () =
  {
    name = "Dist-mu-RA (no repartitioning)";
    short = "unpart";
    run =
      (fun ~timeout_s w ->
        run_physical ~stable_partitioning:false ~force_plan:(Some Exec.P_plw_s) ~workers
          ~timeout_s w);
  }

let centralized_mu_ra () =
  {
    name = "Centralized mu-RA";
    short = "centr";
    run =
      (fun ~timeout_s w ->
        guarded ~timeout_s None (fun () ->
            let term = require "mu-RA" w.mu_term in
            let tables = [ ("E", w.graph) ] in
            let best = optimize tables term in
            let db = Localdb.Instance.create () in
            Localdb.Instance.register db "E" w.graph;
            Rel.cardinal (Localdb.Instance.query db best)));
  }

let datalog_db w = [ (Datalog.Of_rpq.edge_pred, w.graph) ]

let run_datalog ~mode ~magic ~workers ~max_facts ~timeout_s w =
  let cluster = Cluster.make ~workers () in
  guarded ~timeout_s
    (Some (Cluster.metrics cluster))
    (fun () ->
      let program = require "Datalog" w.datalog in
      let program = if magic then Datalog.Magic.specialize program else program in
      let config = { (Datalog.Dist.default_config ~mode cluster) with max_facts } in
      let result, _report = Datalog.Dist.run config (datalog_db w) program in
      Rel.cardinal result)

let bigdatalog ?(workers = 4) ?(max_facts = 20_000_000) () =
  {
    name = "BigDatalog";
    short = "bigdl";
    run =
      (fun ~timeout_s w ->
        run_datalog ~mode:Datalog.Dist.Bigdatalog ~magic:true ~workers ~max_facts ~timeout_s w);
  }

let myria ?(workers = 4) ?(max_facts = 500_000) () =
  {
    name = "Myria";
    short = "myria";
    run =
      (fun ~timeout_s w ->
        run_datalog ~mode:Datalog.Dist.Myria ~magic:false ~workers ~max_facts ~timeout_s w);
  }

(* GraphX: evaluate each atom with the Pregel NFA traversal, then join
   the atom results on the driver. *)
let run_graphx ~workers ~max_state ~timeout_s w =
  let cluster = Cluster.make ~workers () in
  guarded ~timeout_s
    (Some (Cluster.metrics cluster))
    (fun () ->
      let text = require "UCRPQ" (w.ucrpq) in
      let branches = Rpq.Query.parse_union text in
      let config = { (Pregel.Engine.default_config cluster) with max_state } in
      let g = Pregel.Engine.load config w.graph in
      let const_value c =
        match int_of_string_opt c with
        | Some n when n >= 0 -> n
        | Some _ | None -> Relation.Value.of_string c
      in
      let atom_rel (a : Rpq.Query.atom) =
        let source =
          match a.sub with Rpq.Query.Const c -> Some (const_value c) | Rpq.Query.Var _ -> None
        in
        let target =
          match a.obj with Rpq.Query.Const c -> Some (const_value c) | Rpq.Query.Var _ -> None
        in
        let rel, _stats = Pregel.Engine.eval_rpq ?source ?target g a.path in
        (* bind endpoints to variable columns, as Query2Mu does *)
        let rel, src_col =
          match a.sub with
          | Rpq.Query.Var x -> (Rel.rename [ ("src", x) ] rel, x)
          | Rpq.Query.Const _ -> (Rel.antiproject [ "src" ] rel, "")
        in
        match a.obj with
        | Rpq.Query.Var y when y = src_col ->
          Rel.antiproject [ "trg" ]
            (Rel.select (Relation.Pred.Eq_col (src_col, "trg")) rel)
        | Rpq.Query.Var y -> Rel.rename [ ("trg", y) ] rel
        | Rpq.Query.Const _ -> Rel.antiproject [ "trg" ] rel
      in
      let branch_result (q : Rpq.Query.t) =
        let joined =
          match List.map atom_rel q.atoms with
          | [] -> raise (Rpq.Query.Translation_error "no atoms")
          | first :: rest -> List.fold_left Rel.natural_join first rest
        in
        let bound = Rpq.Query.vars q in
        if List.length q.heads = List.length bound then joined else Rel.project q.heads joined
      in
      let result =
        match List.map branch_result branches with
        | [] -> raise (Rpq.Query.Translation_error "empty union")
        | first :: rest -> List.fold_left Rel.union first rest
      in
      Rel.cardinal result)

let graphx ?(workers = 4) ?(max_state = 2_000_000) () =
  {
    name = "GraphX";
    short = "graphx";
    run = (fun ~timeout_s w -> run_graphx ~workers ~max_state ~timeout_s w);
  }

let all () =
  [
    dist_mu_ra ();
    dist_mu_ra_gld ();
    centralized_mu_ra ();
    bigdatalog ();
    graphx ();
    myria ();
  ]
