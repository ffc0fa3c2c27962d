module Pred = Relation.Pred
module Term = Mura.Term
module Fcond = Mura.Fcond

type est = { card : float; distincts : (string * float) list }

let assumed_depth = 20
let default_card = 1000.
let dcount e c = match List.assoc_opt c e.distincts with Some d -> Float.max d 1. | None -> 1.

(* Rescale per-column distinct counts after the cardinality changed: a
   column cannot have more distinct values than tuples. *)
let clamp e = { e with distincts = List.map (fun (c, d) -> (c, Float.min d e.card)) e.distincts }

let rec selectivity e (p : Pred.t) =
  match p with
  | True -> 1.
  | Eq_const (c, _) -> 1. /. dcount e c
  | Neq_const (c, _) -> 1. -. (1. /. dcount e c)
  | Lt_const _ | Gt_const _ -> 0.33
  | Eq_col (a, b) -> 1. /. Float.max (dcount e a) (dcount e b)
  | And (a, b) -> selectivity e a *. selectivity e b
  | Or (a, b) ->
    let sa = selectivity e a and sb = selectivity e b in
    Float.min 1. (sa +. sb -. (sa *. sb))
  | Not a -> 1. -. selectivity e a

let default = { card = default_card; distincts = [] }

(* A base relation's estimate, read straight from its statistics. *)
let rel_estimate stats n =
  match Stats.find stats n with
  | Some r ->
    let card = float_of_int (max r.count 1) in
    let distincts =
      List.map
        (fun col ->
          ( col,
            match List.assoc_opt col r.distincts with
            | Some d -> float_of_int (max d 1)
            | None -> Float.max 1. (card /. 10.) ))
        (Relation.Schema.cols r.schema)
    in
    { card; distincts }
  | None -> default

let cst_estimate r =
  let card = float_of_int (max (Relation.Rel.cardinal r) 1) in
  {
    card;
    distincts =
      List.map (fun (c, d) -> (c, float_of_int (max 1 d))) (Relation.Rel.distinct_counts r);
  }

let select_estimate p e =
  let sel = Float.max 1e-9 (selectivity e p) in
  let distincts =
    List.map
      (fun (c, d) ->
        match p with
        | Pred.Eq_const (c', _) when c = c' -> (c, 1.)
        | _ -> (c, d))
      e.distincts
  in
  clamp { card = Float.max 1. (e.card *. sel); distincts }

let keep_estimate keep e =
  let kept = List.filter (fun (c, _) -> keep c) e.distincts in
  let domain = List.fold_left (fun acc (_, d) -> acc *. d) 1. kept in
  clamp { card = Float.min e.card domain; distincts = kept }

let rename_estimate m e =
  {
    e with
    distincts =
      List.map
        (fun (c, d) -> match List.assoc_opt c m with Some fresh -> (fresh, d) | None -> (c, d))
        e.distincts;
  }

let join_estimate ea eb =
  let shared = List.filter (fun (c, _) -> List.mem_assoc c eb.distincts) ea.distincts in
  let denom = List.fold_left (fun acc (c, da) -> acc *. Float.max da (dcount eb c)) 1. shared in
  let card = Float.max 1. (ea.card *. eb.card /. Float.max 1. denom) in
  let merged =
    ea.distincts @ List.filter (fun (c, _) -> not (List.mem_assoc c ea.distincts)) eb.distincts
  in
  clamp { card; distincts = merged }

let antijoin_estimate ea = clamp { ea with card = Float.max 1. (ea.card *. 0.5) }

let union_estimate ea eb =
  let merged = List.map (fun (c, d) -> (c, Float.max d (dcount eb c))) ea.distincts in
  clamp { card = ea.card +. eb.card; distincts = merged }

(* One node of a plan: its estimate, its total cost, and whether it
   contains a fixpoint. *)
type node = { est : est; cost : float; has_fix : bool }

let leaf est = { est; cost = est.card; has_fix = false }

(* A single bottom-up pass: every operator's estimate is computed once,
   from its operands' estimates, and its cost added to theirs. *)
let rec walk ~vars stats (t : Term.t) : node =
  match t with
  | Rel n -> leaf (rel_estimate stats n)
  | Cst r -> leaf (cst_estimate r)
  | Var x -> leaf (match List.assoc_opt x vars with Some e -> e | None -> default)
  | Select (p, u) -> unary (walk ~vars stats u) (select_estimate p)
  | Project (keep, u) -> unary (walk ~vars stats u) (keep_estimate (fun c -> List.mem c keep))
  | Antiproject (drop, u) ->
    unary (walk ~vars stats u) (keep_estimate (fun c -> not (List.mem c drop)))
  | Rename (m, u) -> unary (walk ~vars stats u) (rename_estimate m)
  | Join (a, b) ->
    let na = walk ~vars stats a and nb = walk ~vars stats b in
    let n = binary na nb (join_estimate na.est nb.est) in
    (* Joining two recursive results is the worst case for a distributed
       engine: both closures must be fully materialised and shuffled.
       Penalising it steers the planner towards merged or seeded
       fixpoints, as Dist-mu-RA's plan selection does. *)
    if na.has_fix && nb.has_fix then { n with cost = n.cost +. (5. *. (na.est.card +. nb.est.card)) }
    else n
  | Antijoin (a, b) ->
    let na = walk ~vars stats a and nb = walk ~vars stats b in
    binary na nb (antijoin_estimate na.est)
  | Union (a, b) ->
    let na = walk ~vars stats a and nb = walk ~vars stats b in
    binary na nb (union_estimate na.est nb.est)
  | Fix (x, body) ->
    let consts, recs = Fcond.split ~var:x body in
    let cs = List.map (walk ~vars stats) consts in
    let est = fix_estimate ~vars stats x (List.map (fun c -> c.est) cs) recs in
    let c_init = List.fold_left (fun acc c -> acc +. c.cost) 0. cs in
    (* Semi-naive accounting: over the whole run the variable part is
       applied to each delta once, and the deltas sum to the result —
       so the total recursive work is one application of the variable
       part to the final fixpoint, not depth-many applications. *)
    let rec_work =
      List.fold_left (fun acc r -> acc +. (walk ~vars:((x, est) :: vars) stats r).cost) 0. recs
    in
    { est; cost = c_init +. rec_work +. est.card; has_fix = true }

and unary nu f =
  let est = f nu.est in
  { est; cost = nu.cost +. est.card; has_fix = nu.has_fix }

and binary na nb est =
  { est; cost = na.cost +. nb.cost +. est.card; has_fix = na.has_fix || nb.has_fix }

(* The fixpoint's estimate from its constant branches' estimates. The
   variable branches are walked once more, with the variable bound to
   the constant part, to measure the one-step growth ratio. *)
and fix_estimate ~vars stats x consts recs =
  match consts with
  | [] -> default
  | _ -> (
    let e0 =
      List.fold_left
        (fun acc e ->
          {
            card = acc.card +. e.card;
            distincts =
              (match acc.distincts with
              | [] -> e.distincts
              | _ -> List.map (fun (col, d) -> (col, Float.max d (dcount e col))) acc.distincts);
          })
        { card = 0.; distincts = [] }
        consts
    in
    let e0 = { e0 with card = Float.max 1. e0.card } in
    match recs with
    | [] -> e0
    | _ ->
      (* one-step growth ratio of the variable part applied to the
         constant part *)
      let step =
        List.fold_left
          (fun acc r -> acc +. (walk ~vars:((x, e0) :: vars) stats r).est.card)
          0. recs
      in
      let ratio = Float.max 0.1 (step /. e0.card) in
      let sum_growth =
        if Float.abs (ratio -. 1.) < 0.01 then e0.card *. float_of_int assumed_depth
        else e0.card *. (((ratio ** float_of_int assumed_depth) -. 1.) /. (ratio -. 1.))
      in
      (* cap by the domain product of the output columns *)
      let domain = List.fold_left (fun acc (_, d) -> acc *. Float.max d 2.) 1. e0.distincts in
      let domain =
        (* distinct counts of the constant part underestimate the
           reachable domain; widen by the expansion *)
        Float.max domain (e0.card *. 100.)
      in
      let card = Float.min sum_growth domain in
      clamp { card = Float.max e0.card card; distincts = e0.distincts })

let term ?(vars = []) stats t = (walk ~vars stats t).est
let cardinality stats t = (term stats t).card
let cost stats t = (walk ~vars:[] stats t).cost
