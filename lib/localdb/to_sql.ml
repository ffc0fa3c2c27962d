module Schema = Relation.Schema
module Value = Relation.Value
module Pred = Relation.Pred
module Term = Mura.Term
module Typing = Mura.Typing
module Fcond = Mura.Fcond

exception Unsupported of string

let fail fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

type st = { mutable ctes : (string * string) list; mutable counter : int }

let fresh st prefix =
  let n = st.counter in
  st.counter <- n + 1;
  Printf.sprintf "%s%d" prefix n

let literal v = if Value.is_symbol v then Printf.sprintf "'%s'" (Value.to_string v) else string_of_int v

let rec pred_sql alias (p : Pred.t) =
  match p with
  | True -> "1 = 1"
  | Eq_const (c, v) -> Printf.sprintf "%s.%s = %s" alias c (literal v)
  | Eq_col (a, b) -> Printf.sprintf "%s.%s = %s.%s" alias a alias b
  | And (a, b) -> Printf.sprintf "%s AND %s" (pred_sql alias a) (pred_sql alias b)
  | Neq_const _ | Lt_const _ | Gt_const _ | Or _ | Not _ ->
    fail "predicate %s not expressible in the local SQL dialect" (Pred.to_string p)

(* Every generated query selects its columns explicitly, in schema
   order, so UNION branches line up. Returns the SELECT text. *)
let rec select_of st tenv vars (t : Term.t) : string =
  let schema = Typing.infer ~vars tenv t in
  let cols = Schema.cols schema in
  if cols = [] then fail "zero-arity relations are not expressible in SQL text (empty select list)";
  match t with
  | Rel n -> Printf.sprintf "SELECT %s FROM %s" (String.concat ", " cols) n
  | Var x ->
    (* recursive variables are bound to CTE names *)
    Printf.sprintf "SELECT %s FROM %s" (String.concat ", " cols) x
  | Cst _ -> fail "constant relations are not expressible in SQL text"
  | Select (p, u) ->
    let a = fresh st "t" in
    Printf.sprintf "SELECT %s FROM (%s) %s WHERE %s"
      (String.concat ", " (List.map (fun c -> a ^ "." ^ c) cols))
      (select_of st tenv vars u) a (pred_sql a p)
  | Project (keep, u) ->
    let a = fresh st "t" in
    Printf.sprintf "SELECT %s FROM (%s) %s"
      (String.concat ", " (List.map (fun c -> a ^ "." ^ c) keep))
      (select_of st tenv vars u) a
  | Antiproject (_, u) ->
    let a = fresh st "t" in
    Printf.sprintf "SELECT %s FROM (%s) %s"
      (String.concat ", " (List.map (fun c -> a ^ "." ^ c) cols))
      (select_of st tenv vars u) a
  | Rename (m, u) ->
    let a = fresh st "t" in
    let inner_schema = Typing.infer ~vars tenv u in
    let select_list =
      List.map
        (fun c ->
          match List.assoc_opt c m with
          | Some fresh_name -> Printf.sprintf "%s.%s AS %s" a c fresh_name
          | None -> a ^ "." ^ c)
        (Schema.cols inner_schema)
    in
    Printf.sprintf "SELECT %s FROM (%s) %s" (String.concat ", " select_list)
      (select_of st tenv vars u) a
  | Join (l, r) ->
    let la = fresh st "t" and ra = fresh st "t" in
    let ls = Typing.infer ~vars tenv l and rs = Typing.infer ~vars tenv r in
    let shared = Schema.common ls rs in
    let out =
      List.map (fun c -> la ^ "." ^ c) (Schema.cols ls)
      @ List.filter_map
          (fun c -> if Schema.mem ls c then None else Some (ra ^ "." ^ c))
          (Schema.cols rs)
    in
    let on_clause =
      match shared with
      | [] -> ""
      | _ ->
        " ON "
        ^ String.concat " AND "
            (List.map (fun c -> Printf.sprintf "%s.%s = %s.%s" la c ra c) shared)
    in
    Printf.sprintf "SELECT %s FROM (%s) %s JOIN (%s) %s%s" (String.concat ", " out)
      (select_of st tenv vars l) la (select_of st tenv vars r) ra on_clause
  | Union (a, b) ->
    (* both branches select the same columns in [cols] order *)
    let project_to branch =
      let al = fresh st "t" in
      Printf.sprintf "SELECT %s FROM (%s) %s"
        (String.concat ", " (List.map (fun c -> al ^ "." ^ c) cols))
        (select_of st tenv vars branch) al
    in
    Printf.sprintf "%s UNION %s" (project_to a) (project_to b)
  | Antijoin _ -> fail "antijoin is not expressible in the local SQL dialect"
  | Fix (x, body) ->
    let consts, recs = Fcond.split ~var:x body in
    (match consts with
    | [] -> fail "fixpoint without constant part"
    | _ -> ());
    let cte = fresh st "fix" in
    let seed =
      match List.map (select_of st tenv vars) consts with
      | [ s ] -> s
      | ss -> String.concat " UNION " ss
    in
    (* the recursion variable becomes a reference to the CTE itself,
       typed as a relation of the fixpoint's schema *)
    let tenv' = Typing.env_add tenv cte schema in
    let rec_branches =
      List.map (fun b -> select_of st tenv' vars (Term.subst x (Term.Rel cte) b)) recs
    in
    let body_sql = String.concat " UNION " (seed :: rec_branches) in
    st.ctes <- (cte, body_sql) :: st.ctes;
    Printf.sprintf "SELECT %s FROM %s" (String.concat ", " cols) cte

let of_term tenv t =
  let st = { ctes = []; counter = 0 } in
  let main = select_of st tenv [] t in
  match st.ctes with
  | [] -> main
  | ctes ->
    let defs =
      List.rev_map (fun (name, body) -> Printf.sprintf "%s AS (%s)" name body) ctes
    in
    Printf.sprintf "WITH RECURSIVE %s %s" (String.concat ", " defs) main
