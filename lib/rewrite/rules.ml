open Mura
module Pred = Relation.Pred
module Schema = Relation.Schema
module P = Patterns

type rule = { name : string; apply : Typing.env -> Term.t -> Term.t list }

let schema_of tenv t =
  match Typing.infer tenv t with
  | s -> Some s
  | exception (Typing.Type_error _ | Fcond.Not_fcond _ | Schema.Schema_error _) -> None

(* ------------------------------------------------------------------ *)
(* Classical pushdowns                                                  *)
(* ------------------------------------------------------------------ *)

let select_merge =
  {
    name = "select-merge";
    apply =
      (fun _ t ->
        match t with
        | Term.Select (p, Term.Select (q, u)) -> [ Term.Select (Pred.And (p, q), u) ]
        | _ -> []);
  }

let select_through_rename =
  {
    name = "select/rename";
    apply =
      (fun _ t ->
        match t with
        | Term.Select (p, Term.Rename (m, u)) ->
          let back = List.map (fun (o, n) -> (n, o)) m in
          [ Term.Rename (m, Term.Select (Pred.rename back p, u)) ]
        | _ -> []);
  }

let select_through_antiproject =
  {
    name = "select/antiproject";
    apply =
      (fun _ t ->
        match t with
        | Term.Select (p, Term.Antiproject (c, u)) when
            List.for_all (fun col -> not (List.mem col c)) (Pred.columns p) ->
          [ Term.Antiproject (c, Term.Select (p, u)) ]
        | _ -> []);
  }

let select_through_project =
  {
    name = "select/project";
    apply =
      (fun _ t ->
        match t with
        | Term.Select (p, Term.Project (c, u)) -> [ Term.Project (c, Term.Select (p, u)) ]
        | _ -> []);
  }

let select_through_join =
  {
    name = "select/join";
    apply =
      (fun tenv t ->
        match t with
        | Term.Select (p, Term.Join (a, b)) -> (
          let cols = Pred.columns p in
          match (schema_of tenv a, schema_of tenv b) with
          | Some sa, Some sb ->
            let into_a =
              if List.for_all (Schema.mem sa) cols then
                [ Term.Join (Term.Select (p, a), b) ]
              else []
            in
            let into_b =
              if List.for_all (Schema.mem sb) cols then
                [ Term.Join (a, Term.Select (p, b)) ]
              else []
            in
            into_a @ into_b
          | _ -> [])
        | _ -> []);
  }

let select_through_antijoin =
  {
    name = "select/antijoin";
    apply =
      (fun _ t ->
        match t with
        | Term.Select (p, Term.Antijoin (a, b)) -> [ Term.Antijoin (Term.Select (p, a), b) ]
        | _ -> []);
  }

let antiproject_merge =
  {
    name = "antiproject-merge";
    apply =
      (fun _ t ->
        match t with
        | Term.Antiproject (c1, Term.Antiproject (c2, u)) -> [ Term.Antiproject (c1 @ c2, u) ]
        | _ -> []);
  }

let select_through_union =
  {
    name = "select/union";
    apply =
      (fun _ t ->
        match t with
        | Term.Select (p, Term.Union (a, b)) ->
          [ Term.Union (Term.Select (p, a), Term.Select (p, b)) ]
        | _ -> []);
  }

(* ------------------------------------------------------------------ *)
(* Fixpoint rules                                                       *)
(* ------------------------------------------------------------------ *)

(* sigma_p(mu(X = R ∪ phi)) -> mu(X = sigma_p(R) ∪ phi)
   when every column of p is stable. *)
let push_filter_into_fix =
  {
    name = "push-filter-into-fix";
    apply =
      (fun tenv t ->
        match t with
        | Term.Select (p, Term.Fix (x, body)) -> (
          match Stabilizer.stable_columns tenv ~var:x body with
          | stable when List.for_all (fun c -> List.mem c stable) (Pred.columns p) -> (
            match Fcond.split ~var:x body with
            | consts, recs when consts <> [] ->
              let consts' = List.map (fun c -> Term.Select (p, c)) consts in
              [ Term.Fix (x, Term.union_all (consts' @ recs)) ]
            | _ -> [])
          | _ -> []
          | exception (Typing.Type_error _ | Fcond.Not_fcond _) -> [])
        | _ -> []);
  }

(* B+ evaluated left-to-right <-> right-to-left (pure closures only:
   reversal of a *seeded* fixpoint changes its meaning). *)
let reverse_closure =
  {
    name = "reverse-closure";
    apply =
      (fun _ t ->
        match Shapes.as_closure t with
        | Some { base; dir = Shapes.Right } -> [ Shapes.mk_closure Shapes.Left base ]
        | Some { base; dir = Shapes.Left } -> [ Shapes.mk_closure Shapes.Right base ]
        | None -> []);
  }

(* J ∘ B+ -> mu(X = J∘B ∪ X∘B) and B+ ∘ J -> mu(X = B∘J ∪ B∘X). *)
let push_join_into_fix =
  {
    name = "push-join-into-fix";
    apply =
      (fun _ t ->
        match Shapes.as_compose t with
        | Some { left; right; mid = _ } -> (
          let from_right =
            match Shapes.as_closure right with
            | Some { base; dir = _ } when Term.free_vars left = [] ->
              [ Shapes.mk_seeded Shapes.Right ~seed:(Shapes.mk_compose left base) ~step:base ]
            | _ -> []
          in
          let from_left =
            match Shapes.as_closure left with
            | Some { base; dir = _ } when Term.free_vars right = [] ->
              [ Shapes.mk_seeded Shapes.Left ~seed:(Shapes.mk_compose base right) ~step:base ]
            | _ -> []
          in
          from_right @ from_left)
        | None -> []);
  }

(* A+ ∘ B+ -> mu(X = A∘B ∪ A∘X ∪ X∘B). *)
let merge_fixpoints =
  {
    name = "merge-fixpoints";
    apply =
      (fun _ t ->
        match Shapes.as_compose t with
        | Some { left; right; mid = _ } -> (
          match (Shapes.as_closure left, Shapes.as_closure right) with
          | Some { base = a; _ }, Some { base = b; _ } ->
            [ Shapes.mk_merged ~first:a ~second:b ]
          | _ -> [])
        | None -> []);
  }

(* pi~_src(mu(X = R ∪ X∘B)) -> unary fixpoint over the reached targets;
   symmetric on the left-appending side. *)
let unary_step_right step =
  (* Y has column trg; Y' = { t' | t in Y, step(t, t') } *)
  let m = Term.fresh_col () in
  fun x -> Term.Antiproject ([ m ], Term.Join (Term.rename1 P.trg m x, Term.rename1 P.src m step))

let unary_step_left step =
  (* Y has column src; Y' = { s | step(s, m), m in Y } *)
  let m = Term.fresh_col () in
  fun x -> Term.Antiproject ([ m ], Term.Join (Term.rename1 P.trg m step, Term.rename1 P.src m x))

let push_antiproject_into_fix =
  {
    name = "push-antiproject-into-fix";
    apply =
      (fun _ t ->
        match t with
        | Term.Antiproject ([ dropped ], inner) -> (
          match Shapes.as_seeded inner with
          | Some { seed; step; dir = Shapes.Right } when dropped = P.src ->
            let x = Term.fresh_var () in
            [
              Term.Fix
                ( x,
                  Term.Union
                    (Term.Antiproject ([ P.src ], seed), unary_step_right step (Term.Var x)) );
            ]
          | Some { seed; step; dir = Shapes.Left } when dropped = P.trg ->
            let x = Term.fresh_var () in
            [
              Term.Fix
                ( x,
                  Term.Union
                    (Term.Antiproject ([ P.trg ], seed), unary_step_left step (Term.Var x)) );
            ]
          | _ -> [])
        | _ -> []);
  }

let all =
  [
    select_merge;
    select_through_rename;
    select_through_antiproject;
    select_through_project;
    select_through_join;
    select_through_antijoin;
    antiproject_merge;
    select_through_union;
    push_filter_into_fix;
    reverse_closure;
    push_join_into_fix;
    merge_fixpoints;
    push_antiproject_into_fix;
  ]
