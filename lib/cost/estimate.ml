module Pred = Relation.Pred
module Term = Mura.Term
module Fcond = Mura.Fcond

type est = Stats.est = { card : float; distincts : (string * float) list }

let assumed_depth = 20
let default_card = 1000.
let dcount e c = match List.assoc_opt c e.distincts with Some d -> Float.max d 1. | None -> 1.

(* Rescale per-column distinct counts after the cardinality changed: a
   column cannot have more distinct values than tuples. *)
let clamp e =
  if List.for_all (fun (_, d) -> d <= e.card) e.distincts then e
  else { e with distincts = List.map (fun (c, d) -> (c, Float.min d e.card)) e.distincts }

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

let rel_estimate stats n =
  match Stats.find stats n with Some r -> Stats.est_of_counts r.count r.distincts | None -> default

let cst_estimate r = Stats.est_of_counts (Relation.Rel.cardinal r) (Relation.Rel.distinct_counts r)

(* A selection over an input without statistics of its own. The
   predicate's conjuncts narrow columns: [c = v] leaves one value in
   [c], [a = b] leaves [a] and [b] the smaller of their two domains. *)
let select_estimate p e =
  let sel = Float.max 1e-9 (selectivity e p) in
  let rec narrow ds (p : Pred.t) =
    match p with
    | Eq_const (c, _) -> List.map (fun (c', d) -> if c = c' then (c', 1.) else (c', d)) ds
    | Eq_col (a, b) -> (
      match (List.assoc_opt a ds, List.assoc_opt b ds) with
      | Some da, Some db ->
        let m = Float.min da db in
        List.map (fun (c, d) -> if c = a || c = b then (c, m) else (c, d)) ds
      | _ -> ds)
    | And (x, y) -> narrow (narrow ds x) y
    | _ -> ds
  in
  clamp { card = Float.max 1. (e.card *. sel); distincts = narrow e.distincts p }

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

(* [n] tuples drawn uniformly over [d] values hit [d (1 - e^(-n/d))] of
   them; [hits n d] is that share. *)
let hits n d = 1. -. exp (-.n /. d)

(* Joins assume containment: on a shared column, every value of the side
   with fewer values is found on the other side. The shared column keeps
   the smaller count; each side keeps the share of its tuples whose
   shared values find a partner, and its other columns shrink to the
   values those tuples hit. *)
let join_estimate ea eb =
  let shared = List.filter (fun (c, _) -> List.mem_assoc c eb.distincts) ea.distincts in
  let denom = List.fold_left (fun acc (c, da) -> acc *. Float.max da (dcount eb c)) 1. shared in
  let card = Float.max 1. (ea.card *. eb.card /. Float.max 1. denom) in
  let narrow e other =
    let kept =
      List.fold_left (fun acc (c, _) -> acc *. Float.min 1. (dcount other c /. dcount e c)) 1. shared
    in
    fun (c, d) ->
      if List.mem_assoc c shared then (c, Float.min d (dcount other c))
      else if kept < 1. then (c, d *. hits (kept *. e.card) d /. hits e.card d)
      else (c, d)
  in
  let merged =
    List.map (narrow ea eb) ea.distincts
    @ List.filter_map
        (fun ((c, _) as cd) -> if List.mem_assoc c shared then None else Some (narrow eb ea cd))
        eb.distincts
  in
  clamp { card; distincts = merged }

let antijoin_estimate ea = clamp { ea with card = Float.max 1. (ea.card *. 0.5) }

let union_estimate ea eb =
  let merged = List.map (fun (c, d) -> (c, Float.max d (dcount eb c))) ea.distincts in
  clamp { card = ea.card +. eb.card; distincts = merged }

(* One node of a plan: its estimate and its total cost. *)
type node = { est : est; cost : float }

let leaf est = { est; cost = est.card }

(* A single bottom-up pass: every operator's estimate is computed once,
   from its operands' estimates, and its cost added to theirs. *)
let rec walk ~vars stats (t : Term.t) : node =
  match t with
  | Rel n -> leaf (rel_estimate stats n)
  | Cst r -> leaf (cst_estimate r)
  | Var x -> leaf (match List.assoc_opt x vars with Some e -> e | None -> default)
  | Select (p, (Rel n as u)) -> (
    (* the leaf every RPQ label translates to: measured, not guessed *)
    match (Stats.count stats n, Stats.slice stats n p) with
    | Some count, Some est ->
      (* charged as [unary] would: the scan of [n], then the slice *)
      { est; cost = float_of_int (max count 1) +. est.card }
    | _ -> unary (walk ~vars stats u) (select_estimate p))
  | Select (p, u) -> unary (walk ~vars stats u) (select_estimate p)
  | Project (keep, u) -> unary (walk ~vars stats u) (keep_estimate (fun c -> List.mem c keep))
  | Antiproject (drop, u) ->
    unary (walk ~vars stats u) (keep_estimate (fun c -> not (List.mem c drop)))
  | Rename (m, u) -> unary (walk ~vars stats u) (rename_estimate m)
  | Join (a, b) ->
    let na = walk ~vars stats a and nb = walk ~vars stats b in
    binary na nb (join_estimate na.est nb.est)
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
    (* Without a stable column the executor runs the fixpoint as P_gld,
       which repartitions every delta once per recursive branch: the
       deltas sum to the result. *)
    let exchange =
      match Mura.Stabilizer.stable_among ~var:x (List.map fst est.distincts) recs with
      | [] -> est.card *. float_of_int (List.length recs)
      | _ :: _ -> 0.
    in
    { est; cost = c_init +. rec_work +. exchange +. est.card }

and unary nu f =
  let est = f nu.est in
  { est; cost = nu.cost +. est.card }

and binary na nb est = { est; cost = na.cost +. nb.cost +. est.card }

(* The fixpoint's estimate from its constant branches' estimates. The
   variable branches are walked once more, with the variable bound to
   the constant part, to measure the one-step growth ratio and the
   columns' domain bounds. *)
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
      (* one application of the variable part to the constant part *)
      let steps = List.map (fun r -> (walk ~vars:((x, e0) :: vars) stats r).est) recs in
      let step = List.fold_left (fun acc e -> acc +. e.card) 0. steps in
      let ratio = Float.max 0.1 (step /. e0.card) in
      let sum_growth =
        if Float.abs (ratio -. 1.) < 0.01 then e0.card *. float_of_int assumed_depth
        else e0.card *. (((ratio ** float_of_int assumed_depth) -. 1.) /. (ratio -. 1.))
      in
      (* Every value of an output column is in the constant part or made
         by the variable part, so each column's reachable domain is
         bounded by the larger of the two; the fixpoint is capped by
         the product of those bounds, which become its distincts. *)
      let bounds =
        List.map
          (fun (col, d) -> (col, List.fold_left (fun acc e -> Float.max acc (dcount e col)) d steps))
          e0.distincts
      in
      let domain =
        match bounds with
        | [] ->
          (* nothing known of the columns: as if each step added the seed *)
          e0.card *. float_of_int assumed_depth
        | _ -> List.fold_left (fun acc (_, d) -> acc *. d) 1. bounds
      in
      clamp { card = Float.max 1. (Float.min domain (Float.max e0.card sum_growth)); distincts = bounds })

let term ?(vars = []) stats t = (walk ~vars stats t).est
let cardinality stats t = (term stats t).card
let cost stats t = (walk ~vars:[] stats t).cost
