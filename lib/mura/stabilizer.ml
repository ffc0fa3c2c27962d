module Schema = Relation.Schema

(* Where the columns of a term come from, as the columns of [var] they
   copy unchanged: [(c, c')] when output column [c] holds the value the
   generating tuple of [var] had at [c']. Every other output column is
   opaque. The analysis mirrors schema inference; tracking only the
   copied columns needs no schemas. Joins prefer a copied origin on
   shared columns (both sides hold the same value there); unions keep
   the origins both branches agree on. *)
let rec copies ~var ~cols (t : Term.t) =
  match t with
  | Var x when String.equal x var -> List.map (fun c -> (c, c)) cols
  | Var _ | Rel _ | Cst _ | Fix _ -> []
  | Select (_, u) | Antijoin (u, _) -> copies ~var ~cols u
  | Project (keep, u) -> List.filter (fun (c, _) -> List.mem c keep) (copies ~var ~cols u)
  | Antiproject (drop, u) -> List.filter (fun (c, _) -> not (List.mem c drop)) (copies ~var ~cols u)
  | Rename (mapping, u) ->
    List.map
      (fun (c, o) -> match List.assoc_opt c mapping with Some fresh -> (fresh, o) | None -> (c, o))
      (copies ~var ~cols u)
  | Join (a, b) ->
    let ma = copies ~var ~cols a in
    ma @ List.filter (fun (c, _) -> not (List.mem_assoc c ma)) (copies ~var ~cols b)
  | Union (a, b) ->
    let mb = copies ~var ~cols b in
    List.filter (fun (c, o) -> List.assoc_opt c mb = Some o) (copies ~var ~cols a)

let stable_among ~var cols recs =
  List.fold_left
    (fun stable branch ->
      match stable with
      | [] -> []
      | _ :: _ ->
        let m = copies ~var ~cols branch in
        List.filter (fun c -> List.assoc_opt c m = Some c) stable)
    cols recs

let stable_columns tenv ~var body =
  match Fcond.split ~var body with
  | [], _ -> raise (Fcond.Not_fcond (Printf.sprintf "fixpoint on %s has no constant part" var))
  | c0 :: _, recs -> stable_among ~var (Schema.cols (Typing.infer tenv c0)) recs
