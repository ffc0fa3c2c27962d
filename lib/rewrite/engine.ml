open Mura
module Pred = Relation.Pred

(* ------------------------------------------------------------------ *)
(* Canonical keys                                                      *)
(* ------------------------------------------------------------------ *)

let is_internal_col c = String.length c >= 2 && c.[0] = '_' && c.[1] = 'm'
let is_internal_var v = String.length v >= 2 && v.[0] = '_' && v.[1] = 'X'

(* Canonical names "<prefix><i>", built once for the usual small [i]. *)
let canonical_names prefix =
  let pre = Array.init 64 (fun i -> prefix ^ string_of_int i) in
  fun i -> if i < Array.length pre then pre.(i) else prefix ^ string_of_int i

let col_name = canonical_names "_m"
let var_name = canonical_names "_X"

(* Internal names are renumbered in first-occurrence order, so two plans
   share a key exactly when a bijective renaming of their working columns
   and recursion variables makes them equal. The renamed term is then
   written flat by [Normal.serialize], except that a literal relation
   stands in as a relation named after its cardinality: literals are
   never rewritten, and keying them by size keeps the key as cheap as
   the rest of the term. *)
let canonical_key t =
  (* A plan has a handful of internal names: association lists beat
     hash tables here. *)
  let rename names canonical is_internal x =
    if not (is_internal x) then x
    else
      match List.assoc_opt x !names with
      | Some x' -> x'
      | None ->
        let x' = canonical (List.length !names) in
        names := (x, x') :: !names;
        x'
  in
  let col = rename (ref []) col_name is_internal_col
  and var = rename (ref []) var_name is_internal_var in
  let rec pred p =
    match (p : Pred.t) with
    | True -> Pred.True
    | Eq_const (c, v) -> Eq_const (col c, v)
    | Neq_const (c, v) -> Neq_const (col c, v)
    | Lt_const (c, v) -> Lt_const (col c, v)
    | Gt_const (c, v) -> Gt_const (col c, v)
    | Eq_col (a, b) -> Eq_col (col a, col b)
    | And (a, b) -> And (pred a, pred b)
    | Or (a, b) -> Or (pred a, pred b)
    | Not a -> Not (pred a)
  in
  let rec go (t : Term.t) : Term.t =
    match t with
    | Rel _ -> t
    | Cst r -> Rel ("<const:" ^ string_of_int (Relation.Rel.cardinal r) ^ ">")
    | Var x -> Var (var x)
    | Select (p, u) -> Select (pred p, go u)
    | Project (c, u) -> Project (List.map col c, go u)
    | Antiproject (c, u) -> Antiproject (List.map col c, go u)
    | Rename (m, u) -> Rename (List.map (fun (o, n) -> (col o, col n)) m, go u)
    | Join (a, b) -> Join (go a, go b)
    | Antijoin (a, b) -> Antijoin (go a, go b)
    | Union (a, b) -> Union (go a, go b)
    | Fix (x, body) -> Fix (var x, go body)
  in
  Normal.serialize (go t)

(* ------------------------------------------------------------------ *)
(* Positional application                                              *)
(* ------------------------------------------------------------------ *)

let apply_everywhere tenv (rule : Rules.rule) t =
  let results = ref [] in
  let rec go rebuild (t : Term.t) =
    List.iter (fun t' -> results := rebuild t' :: !results) (rule.apply tenv t);
    match t with
    | Rel _ | Var _ | Cst _ -> ()
    | Select (p, u) -> go (fun u' -> rebuild (Term.Select (p, u'))) u
    | Project (c, u) -> go (fun u' -> rebuild (Term.Project (c, u'))) u
    | Antiproject (c, u) -> go (fun u' -> rebuild (Term.Antiproject (c, u'))) u
    | Rename (m, u) -> go (fun u' -> rebuild (Term.Rename (m, u'))) u
    | Join (a, b) ->
      go (fun a' -> rebuild (Term.Join (a', b))) a;
      go (fun b' -> rebuild (Term.Join (a, b'))) b
    | Antijoin (a, b) ->
      go (fun a' -> rebuild (Term.Antijoin (a', b))) a;
      go (fun b' -> rebuild (Term.Antijoin (a, b'))) b
    | Union (a, b) ->
      go (fun a' -> rebuild (Term.Union (a', b))) a;
      go (fun b' -> rebuild (Term.Union (a, b'))) b
    | Fix (x, body) -> go (fun b' -> rebuild (Term.Fix (x, b'))) body
  in
  go (fun t -> t) t;
  !results

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

let explore ?(rules = Rules.all) ?(max_plans = 200) tenv t =
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let frontier = Queue.create () in
  (* Once [max_plans] plans are recorded no candidate can be, so the
     search stops there instead of rewriting the rest of the frontier. *)
  let full () = Hashtbl.length seen >= max_plans in
  let visit t =
    if not (full ()) then begin
      let key = canonical_key t in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        order := t :: !order;
        Queue.add t frontier
      end
    end
  in
  visit t;
  while not (Queue.is_empty frontier || full ()) do
    let current = Queue.pop frontier in
    List.iter
      (fun rule -> if not (full ()) then List.iter visit (apply_everywhere tenv rule current))
      rules
  done;
  List.rev !order

let optimize ?rules ?max_plans ~cost tenv t =
  let plans = explore ?rules ?max_plans tenv t in
  match plans with
  | [] -> t
  | p0 :: rest ->
    let best = ref p0 and best_cost = ref (cost p0) in
    List.iter
      (fun p ->
        let c = cost p in
        if c < !best_cost then begin
          best := p;
          best_cost := c
        end)
      rest;
    !best
