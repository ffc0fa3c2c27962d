module Schema = Relation.Schema
module Tset = Relation.Tset
module Tuple = Relation.Tuple
module Rel = Relation.Rel
module Pred = Relation.Pred
module Term = Mura.Term
module Fcond = Mura.Fcond

type t = { catalog : (string, Rel.t) Hashtbl.t }

(* The bounds a work-table loop runs under. *)
type guard = { max_iterations : int; max_tuples : int; limit : string -> exn }

let unbounded = { max_iterations = max_int; max_tuples = max_int; limit = (fun m -> Failure m) }

let create () = { catalog = Hashtbl.create 16 }
let register db name rel = Hashtbl.replace db.catalog name rel
let lookup db name = Hashtbl.find_opt db.catalog name

let err fmt = Format.kasprintf (fun s -> raise (Mura.Eval.Eval_error s)) fmt

(* Compilation produces a plan and its output schema. Fixpoints are
   materialised during compilation with a work-table loop (as a
   PostgreSQL recursive CTE would be), so the enclosing plan sees them as
   plain scans. *)
let rec compile db vars (term : Term.t) : Plan.t * Schema.t =
  match term with
  | Rel n -> (
    match lookup db n with
    | Some rel -> (Plan.Scan rel, Rel.schema rel)
    | None -> err "localdb: unknown table %S" n)
  | Cst rel -> (Plan.Scan rel, Rel.schema rel)
  | Var x -> (
    match List.assoc_opt x vars with
    | Some (cell, schema) -> (Plan.Work_table cell, schema)
    | None -> err "localdb: unbound recursive variable %S" x)
  | Select (p, u) ->
    let child, schema = compile db vars u in
    (Plan.Filter (Pred.compile schema p, child), schema)
  | Project (keep, u) ->
    let child, schema = compile db vars u in
    let out = Schema.restrict schema keep in
    let pos = Schema.positions schema keep in
    (Plan.Distinct (Plan.Map (Tuple.project pos, child)), out)
  | Antiproject (drop, u) ->
    let child, schema = compile db vars u in
    let out = Schema.minus schema drop in
    let pos = Schema.positions schema (Schema.cols out) in
    (Plan.Distinct (Plan.Map (Tuple.project pos, child)), out)
  | Rename (m, u) ->
    let child, schema = compile db vars u in
    (child, Schema.rename m schema)
  | Join (a, b) ->
    let left, ls = compile db vars a in
    let right, rs = compile db vars b in
    let shared = Schema.common ls rs in
    let out = Schema.append_distinct ls rs in
    let extra = List.filter (fun c -> not (Schema.mem ls c)) (Schema.cols rs) in
    let extra_pos = Schema.positions rs extra in
    let merge lt rt = Tuple.concat lt (Tuple.project extra_pos rt) in
    let join =
      Plan.join ~left ~left_key:(Schema.positions ls shared) ~right
        ~right_key:(Schema.positions rs shared) ~merge
    in
    (Plan.Hash_join join, out)
  | Antijoin (a, b) ->
    let left, ls = compile db vars a in
    let right, rs = compile db vars b in
    let shared = Schema.common ls rs in
    let join =
      Plan.join ~left ~left_key:(Schema.positions ls shared) ~right
        ~right_key:(Schema.positions rs shared) ~merge:(fun lt _ -> lt)
    in
    (Plan.Hash_anti join, ls)
  | Union (a, b) ->
    let pa, sa = compile db vars a in
    let pb, sb = compile db vars b in
    if not (Schema.equal_names sa sb) then
      err "localdb: union of incompatible schemas %s vs %s" (Schema.to_string sa)
        (Schema.to_string sb);
    let pb' =
      if Schema.equal_ordered sa sb then pb
      else Plan.Map (Tuple.project (Schema.reorder_positions ~from:sb ~into:sa), pb)
    in
    (Plan.Distinct (Plan.Append [ pa; pb' ]), sa)
  | Fix (x, body) ->
    let rel, _ = run_fix db ~guard:unbounded vars x body in
    (Plan.Scan rel, Rel.schema rel)

(* A fixpoint's relation and the per-round fresh counts of its loop. *)
and run_fix db ~guard vars x body =
  let consts, recs = Fcond.split ~var:x body in
  match consts with
  | [] -> raise (Fcond.Not_fcond (Printf.sprintf "fixpoint on %s has no constant part" x))
  | _ ->
    let init_sets, schemas =
      List.split
        (List.map
           (fun c ->
             let p, s = compile db vars c in
             (Plan.run p, s))
           consts)
    in
    let schema = List.hd schemas in
    let all = Tset.create () in
    List.iter2
      (fun set s ->
        if Schema.equal_ordered s schema then ignore (Tset.add_all all set)
        else
          let perm = Schema.reorder_positions ~from:s ~into:schema in
          Tset.iter (fun tu -> ignore (Tset.add all (Tuple.project perm tu))) set)
      init_sets schemas;
    let deltas =
      match recs with
      | [] -> []
      | _ ->
        let work = ref (Tset.copy all) in
        let vars' = (x, (work, schema)) :: vars in
        (* compile the recursive branches once; cursors re-open per round *)
        let rec_plans =
          List.map
            (fun branch ->
              let p, s = compile db vars' branch in
              if Schema.equal_ordered s schema then p
              else Plan.Map (Tuple.project (Schema.reorder_positions ~from:s ~into:schema), p))
            recs
        in
        Plan.recursive_union ~name:x ~max_iterations:guard.max_iterations
          ~max_tuples:guard.max_tuples ~limit:guard.limit ~all ~work rec_plans
    in
    (Rel.of_tset schema all, deltas)

let query db term =
  Trace.span (Trace.get ()) ~cat:"localdb" "localdb.query" @@ fun () ->
  let plan, schema = compile db [] term in
  Rel.of_tset schema (Plan.run plan)

let fixpoint db ~max_iterations ~max_tuples ~limit (term : Term.t) =
  Trace.span (Trace.get ()) ~cat:"localdb" "localdb.query" @@ fun () ->
  match term with
  | Fix (x, body) -> run_fix db ~guard:{ max_iterations; max_tuples; limit } [] x body
  | _ -> invalid_arg "Localdb.Instance.fixpoint: not a fixpoint"

let explain db term =
  let plan, _schema = compile db [] term in
  Format.asprintf "%a" Plan.pp plan
