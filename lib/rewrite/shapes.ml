open Mura
module P = Patterns

type composition = { left : Term.t; right : Term.t; mid : string }

(* a ∘ b = pi~_m(rho_trg->m(a) |><| rho_src->m(b)). The Join may have its
   arguments in either order. *)
let as_compose (t : Term.t) : composition option =
  match t with
  | Antiproject ([ m ], Join (x, y)) ->
    let side_renames_to target u =
      match (u : Term.t) with
      | Rename ([ (col, m') ], inner) when m' = m && col = target -> Some inner
      | _ -> None
    in
    let left_of u = side_renames_to P.trg u in
    let right_of u = side_renames_to P.src u in
    (match (left_of x, right_of y) with
    | Some a, Some b -> Some { left = a; right = b; mid = m }
    | _ -> (
      match (left_of y, right_of x) with
      | Some a, Some b -> Some { left = a; right = b; mid = m }
      | _ -> None))
  | _ -> None

let mk_compose a b = P.compose a b

type closure_dir = Right | Left
type closure = { base : Term.t; dir : closure_dir }
type seeded = { seed : Term.t; step : Term.t; dir : closure_dir }

(* mu(X = R1 ∪ .. ∪ Rn ∪ X∘B1 ∪ .. ∪ X∘Bm) = mu(X = (R1 ∪ .. ∪ Rn) ∪ X∘(B1 ∪ .. ∪ Bm)):
   composition distributes over union. Every recursive branch must append
   to the same side; mixed sides are the merged fixpoint. *)
let as_seeded (t : Term.t) : seeded option =
  match t with
  | Fix (x, body) -> (
    let consts, recs =
      List.partition (fun b -> not (Term.has_free_var x b)) (Fcond.union_branches body)
    in
    let appended branch =
      match as_compose branch with
      | Some { left = Term.Var v; right; mid = _ } when v = x && not (Term.has_free_var x right) ->
        Some (Right, right)
      | Some { left; right = Term.Var v; mid = _ } when v = x && not (Term.has_free_var x left) ->
        Some (Left, left)
      | _ -> None
    in
    match (consts, List.filter_map appended recs) with
    | _ :: _, ((dir, _) :: _ as steps)
      when List.compare_lengths steps recs = 0 && List.for_all (fun (d, _) -> d = dir) steps ->
      Some { seed = Term.union_all consts; step = Term.union_all (List.map snd steps); dir }
    | _ -> None)
  | _ -> None

let as_closure t =
  match as_seeded t with
  | Some { seed; step; dir }
    when List.equal Term.equal (Fcond.union_branches seed) (Fcond.union_branches step) ->
    Some { base = step; dir }
  | Some _ | None -> None

let mk_seeded dir ~seed ~step =
  let x = Term.fresh_var () in
  let rec_branch =
    match dir with
    | Right -> mk_compose (Term.Var x) step
    | Left -> mk_compose step (Term.Var x)
  in
  Term.Fix (x, Term.Union (seed, rec_branch))

let mk_closure dir base = mk_seeded dir ~seed:base ~step:base

(* A+ ∘ B+ = mu(X = A∘B ∪ A∘X ∪ X∘B) *)
let mk_merged ~first ~second =
  let x = Term.fresh_var () in
  Term.Fix
    ( x,
      Term.Union
        ( Term.Union (mk_compose first second, mk_compose first (Term.Var x)),
          mk_compose (Term.Var x) second ) )
