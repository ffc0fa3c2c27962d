module Pred = Relation.Pred
module R = Relation.Rel

type t =
  | Rel of string
  | Var of string
  | Cst of R.t
  | Select of Pred.t * t
  | Project of string list * t
  | Antiproject of string list * t
  | Rename of (string * string) list * t
  | Join of t * t
  | Antijoin of t * t
  | Union of t * t
  | Fix of string * t

let select p t = if p = Pred.True then t else Select (p, t)

let union_all = function
  | [] -> invalid_arg "Term.union_all: empty"
  | t :: rest -> List.fold_left (fun acc u -> Union (acc, u)) t rest

let join_all = function
  | [] -> invalid_arg "Term.join_all: empty"
  | t :: rest -> List.fold_left (fun acc u -> Join (acc, u)) t rest

let rename1 old fresh t = Rename ([ (old, fresh) ], t)

let dedup l =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.replace seen x ();
        true
      end)
    l

let free_rels t =
  let rec go = function
    | Rel n -> [ n ]
    | Var _ | Cst _ -> []
    | Select (_, u) | Project (_, u) | Antiproject (_, u) | Rename (_, u) -> go u
    | Join (a, b) | Antijoin (a, b) | Union (a, b) -> go a @ go b
    | Fix (_, body) -> go body
  in
  dedup (go t)

let free_vars t =
  let rec go bound = function
    | Var x -> if List.mem x bound then [] else [ x ]
    | Rel _ | Cst _ -> []
    | Select (_, u) | Project (_, u) | Antiproject (_, u) | Rename (_, u) -> go bound u
    | Join (a, b) | Antijoin (a, b) | Union (a, b) -> go bound a @ go bound b
    | Fix (x, body) -> go (x :: bound) body
  in
  dedup (go [] t)

let has_free_var x t = List.mem x (free_vars t)

let rec subst x replacement = function
  | Var y when String.equal x y -> replacement
  | (Var _ | Rel _ | Cst _) as t -> t
  | Select (p, u) -> Select (p, subst x replacement u)
  | Project (c, u) -> Project (c, subst x replacement u)
  | Antiproject (c, u) -> Antiproject (c, subst x replacement u)
  | Rename (m, u) -> Rename (m, subst x replacement u)
  | Join (a, b) -> Join (subst x replacement a, subst x replacement b)
  | Antijoin (a, b) -> Antijoin (subst x replacement a, subst x replacement b)
  | Union (a, b) -> Union (subst x replacement a, subst x replacement b)
  | Fix (y, body) when String.equal x y -> Fix (y, body)
  | Fix (y, body) -> Fix (y, subst x replacement body)

let rec bound_vars = function
  | Var _ | Rel _ | Cst _ -> []
  | Select (_, u) | Project (_, u) | Antiproject (_, u) | Rename (_, u) -> bound_vars u
  | Join (a, b) | Antijoin (a, b) | Union (a, b) -> bound_vars a @ bound_vars b
  | Fix (x, body) -> x :: bound_vars body

let rename_var x y t =
  if has_free_var y t || List.mem y (bound_vars t) then
    invalid_arg (Printf.sprintf "Term.rename_var: %s occurs in term" y);
  subst x (Var y) t

let rec size = function
  | Rel _ | Var _ | Cst _ -> 1
  | Select (_, u) | Project (_, u) | Antiproject (_, u) | Rename (_, u) -> 1 + size u
  | Join (a, b) | Antijoin (a, b) | Union (a, b) -> 1 + size a + size b
  | Fix (_, body) -> 1 + size body

let rec fix_count = function
  | Rel _ | Var _ | Cst _ -> 0
  | Select (_, u) | Project (_, u) | Antiproject (_, u) | Rename (_, u) -> fix_count u
  | Join (a, b) | Antijoin (a, b) | Union (a, b) -> fix_count a + fix_count b
  | Fix (_, body) -> 1 + fix_count body

let rec equal a b =
  match (a, b) with
  | Rel x, Rel y | Var x, Var y -> String.equal x y
  | Cst r, Cst s -> R.equal r s
  | Select (p, u), Select (q, v) -> Pred.equal p q && equal u v
  | Project (c, u), Project (d, v) | Antiproject (c, u), Antiproject (d, v) ->
    c = d && equal u v
  | Rename (m, u), Rename (n, v) -> m = n && equal u v
  | Join (u1, u2), Join (v1, v2)
  | Antijoin (u1, u2), Antijoin (v1, v2)
  | Union (u1, u2), Union (v1, v2) ->
    equal u1 v1 && equal u2 v2
  | Fix (x, u), Fix (y, v) -> String.equal x y && equal u v
  | ( ( Rel _ | Var _ | Cst _ | Select _ | Project _ | Antiproject _ | Rename _ | Join _
      | Antijoin _ | Union _ | Fix _ ),
      _ ) ->
    false

let col_counter = ref 0

let fresh_col () =
  let c = Printf.sprintf "_m%d" !col_counter in
  incr col_counter;
  c

let var_counter = ref 0

let fresh_var () =
  let v = Printf.sprintf "_X%d" !var_counter in
  incr var_counter;
  v

let rec pp ppf = function
  | Rel n -> Format.pp_print_string ppf n
  | Var x -> Format.fprintf ppf "%s" x
  | Cst r -> Format.fprintf ppf "<const:%d>" (R.cardinal r)
  | Select (p, u) -> Format.fprintf ppf "σ[%a](%a)" Pred.pp p pp u
  | Project (c, u) -> Format.fprintf ppf "π[%s](%a)" (String.concat "," c) pp u
  | Antiproject (c, u) -> Format.fprintf ppf "π̃[%s](%a)" (String.concat "," c) pp u
  | Rename (m, u) ->
    let pairs = List.map (fun (o, n) -> o ^ "→" ^ n) m in
    Format.fprintf ppf "ρ[%s](%a)" (String.concat "," pairs) pp u
  | Join (a, b) -> Format.fprintf ppf "(%a ⋈ %a)" pp a pp b
  | Antijoin (a, b) -> Format.fprintf ppf "(%a ▷ %a)" pp a pp b
  | Union (a, b) -> Format.fprintf ppf "(%a ∪ %a)" pp a pp b
  | Fix (x, body) -> Format.fprintf ppf "μ(%s = %a)" x pp body

let to_string t = Format.asprintf "%a" pp t
