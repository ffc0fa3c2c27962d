module Pred = Relation.Pred
module Rel = Relation.Rel
module Schema = Relation.Schema
module Tuple = Relation.Tuple

(* Canonical bound-variable names are keyed by binder {e depth}, not by
   a left-to-right counter: the name a [Fix] binds depends only on how
   many binders enclose it, so sibling subterms can be reordered by the
   AC sort below without disturbing the numbering (a pre-order counter
   would renumber across siblings and make the sort order-sensitive).
   Nested binders always differ in depth, so canonical names never
   shadow each other; scoping is still resolved through [env]. *)
let canon_var depth = "%" ^ string_of_int depth

let rec flatten_union = function
  | Term.Union (a, b) -> flatten_union a @ flatten_union b
  | t -> [ t ]

let rec flatten_join = function
  | Term.Join (a, b) -> flatten_join a @ flatten_join b
  | t -> [ t ]

(* ------------------------------------------------------------------ *)
(* Injective serialization                                             *)
(* ------------------------------------------------------------------ *)

(* Decimal digits written straight into the buffer: [string_of_int]
   goes through the C formatter, which dominates short keys. *)
let rec int buf n =
  if n < 0 && n <> min_int then begin
    Buffer.add_char buf '-';
    int buf (-n)
  end
  else if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    if n >= 10 then int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  end

let str buf s =
  int buf (String.length s);
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let strs buf l =
  int buf (List.length l);
  Buffer.add_char buf '[';
  List.iter (str buf) l;
  Buffer.add_char buf ']'

(* A predicate on one column and a constant: [tag(<col><value>)]. *)
let cmp buf tag c v =
  Buffer.add_string buf tag;
  str buf c;
  int buf v;
  Buffer.add_char buf ')'

let rec pred buf (p : Pred.t) =
  match p with
  | Pred.True -> Buffer.add_char buf 't'
  | Pred.Eq_const (c, v) -> cmp buf "e(" c v
  | Pred.Neq_const (c, v) -> cmp buf "n(" c v
  | Pred.Eq_col (c, d) ->
    Buffer.add_string buf "c(";
    str buf c;
    str buf d;
    Buffer.add_char buf ')'
  | Pred.Lt_const (c, v) -> cmp buf "l(" c v
  | Pred.Gt_const (c, v) -> cmp buf "g(" c v
  | Pred.And (a, b) ->
    Buffer.add_string buf "&(";
    pred buf a;
    pred buf b;
    Buffer.add_char buf ')'
  | Pred.Or (a, b) ->
    Buffer.add_string buf "|(";
    pred buf a;
    pred buf b;
    Buffer.add_char buf ')'
  | Pred.Not a ->
    Buffer.add_string buf "!(";
    pred buf a;
    Buffer.add_char buf ')'

(* [Cst] relations are serialized by contents (schema plus sorted tuple
   rows), not by cardinality: two distinct constant relations must never
   share a cache key. Constants in queries are small (translated query
   endpoints, seed sets), so the sort is cheap. *)
let cst buf r =
  strs buf (Schema.cols (Rel.schema r));
  let rows = List.sort Tuple.compare (Rel.to_list r) in
  int buf (List.length rows);
  Buffer.add_char buf '{';
  List.iter
    (fun tu ->
      Array.iter
        (fun v ->
          int buf v;
          Buffer.add_char buf ',')
        tu;
      Buffer.add_char buf ';')
    rows;
  Buffer.add_char buf '}'

let rec term buf (t : Term.t) =
  match t with
  | Term.Rel n ->
    Buffer.add_char buf 'R';
    str buf n
  | Term.Var x ->
    Buffer.add_char buf 'V';
    str buf x
  | Term.Cst r ->
    Buffer.add_char buf 'C';
    cst buf r
  | Term.Select (p, u) ->
    Buffer.add_string buf "S(";
    pred buf p;
    term buf u;
    Buffer.add_char buf ')'
  | Term.Project (c, u) ->
    Buffer.add_string buf "P(";
    strs buf c;
    term buf u;
    Buffer.add_char buf ')'
  | Term.Antiproject (c, u) ->
    Buffer.add_string buf "A(";
    strs buf c;
    term buf u;
    Buffer.add_char buf ')'
  | Term.Rename (m, u) ->
    Buffer.add_string buf "N(";
    strs buf (List.concat_map (fun (o, n) -> [ o; n ]) m);
    term buf u;
    Buffer.add_char buf ')'
  | Term.Join (a, b) ->
    Buffer.add_string buf "J(";
    term buf a;
    term buf b;
    Buffer.add_char buf ')'
  | Term.Antijoin (a, b) ->
    Buffer.add_string buf "D(";
    term buf a;
    term buf b;
    Buffer.add_char buf ')'
  | Term.Union (a, b) ->
    Buffer.add_string buf "U(";
    term buf a;
    term buf b;
    Buffer.add_char buf ')'
  | Term.Fix (x, body) ->
    Buffer.add_string buf "F(";
    str buf x;
    term buf body;
    Buffer.add_char buf ')'

let serialize t =
  let buf = Buffer.create 256 in
  term buf t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

let sort_operands ops =
  List.map (fun t -> (serialize t, t)) ops
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map snd

(* Working-column canonicalization. [Term.fresh_col] hands every
   translation a new ["_m<n>"] name, so two parses of one query text
   produce terms that differ only in join-plumbing column names — they
   must share a cache key. The ["_m"] prefix is reserved (user schemas
   must not use it, term.mli), so every such name is internal plumbing:
   renaming all of them simultaneously with one bijection preserves
   every name-equality in the term (natural joins included) and touches
   no base-relation column. Names are numbered by first appearance in a
   pre-order walk, which makes structurally identical terms (the
   repeated-parse case) agree exactly. *)
let is_working c = String.length c >= 2 && c.[0] = '_' && c.[1] = 'm'

let canon_working_cols t =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  let note c =
    if is_working c && not (Hashtbl.mem seen c) then begin
      Hashtbl.add seen c ();
      order := c :: !order
    end
  in
  let rec note_pred (p : Pred.t) =
    match p with
    | Pred.True -> ()
    | Pred.Eq_const (c, _) | Pred.Neq_const (c, _) | Pred.Lt_const (c, _) | Pred.Gt_const (c, _)
      -> note c
    | Pred.Eq_col (c, d) ->
      note c;
      note d
    | Pred.And (a, b) | Pred.Or (a, b) ->
      note_pred a;
      note_pred b
    | Pred.Not a -> note_pred a
  in
  let rec collect (t : Term.t) =
    match t with
    | Term.Rel _ | Term.Var _ -> ()
    | Term.Cst r -> List.iter note (Schema.cols (Rel.schema r))
    | Term.Select (p, u) ->
      note_pred p;
      collect u
    | Term.Project (cs, u) | Term.Antiproject (cs, u) ->
      List.iter note cs;
      collect u
    | Term.Rename (m, u) ->
      List.iter
        (fun (a, b) ->
          note a;
          note b)
        m;
      collect u
    | Term.Join (a, b) | Term.Antijoin (a, b) | Term.Union (a, b) ->
      collect a;
      collect b
    | Term.Fix (_, b) -> collect b
  in
  collect t;
  let mapping = List.mapi (fun i c -> (c, "_m" ^ string_of_int i)) (List.rev !order) in
  if mapping = [] || List.for_all (fun (o, n) -> o = n) mapping then t
  else begin
    let col c = match List.assoc_opt c mapping with Some n -> n | None -> c in
    let rec pmap (p : Pred.t) : Pred.t =
      match p with
      | Pred.True -> p
      | Pred.Eq_const (c, v) -> Pred.Eq_const (col c, v)
      | Pred.Neq_const (c, v) -> Pred.Neq_const (col c, v)
      | Pred.Lt_const (c, v) -> Pred.Lt_const (col c, v)
      | Pred.Gt_const (c, v) -> Pred.Gt_const (col c, v)
      | Pred.Eq_col (c, d) -> Pred.Eq_col (col c, col d)
      | Pred.And (a, b) -> Pred.And (pmap a, pmap b)
      | Pred.Or (a, b) -> Pred.Or (pmap a, pmap b)
      | Pred.Not a -> Pred.Not (pmap a)
    in
    let rec go (t : Term.t) : Term.t =
      match t with
      | Term.Rel _ | Term.Var _ -> t
      | Term.Cst r ->
        let m =
          List.filter (fun (o, _) -> List.mem o (Schema.cols (Rel.schema r))) mapping
        in
        if m = [] then t else Term.Cst (Rel.rename m r)
      | Term.Select (p, u) -> Term.Select (pmap p, go u)
      | Term.Project (cs, u) -> Term.Project (List.map col cs, go u)
      | Term.Antiproject (cs, u) -> Term.Antiproject (List.map col cs, go u)
      | Term.Rename (m, u) -> Term.Rename (List.map (fun (a, b) -> (col a, col b)) m, go u)
      | Term.Join (a, b) -> Term.Join (go a, go b)
      | Term.Antijoin (a, b) -> Term.Antijoin (go a, go b)
      | Term.Union (a, b) -> Term.Union (go a, go b)
      | Term.Fix (x, b) -> Term.Fix (x, go b)
    in
    go t
  end

let normalize t =
  let t = canon_working_cols t in
  let rec go depth env (t : Term.t) : Term.t =
    match t with
    | Term.Rel _ | Term.Cst _ -> t
    | Term.Var x -> (
      match List.assoc_opt x env with Some n -> Term.Var n | None -> t)
    | Term.Select (p, u) -> Term.Select (p, go depth env u)
    | Term.Project (c, u) -> Term.Project (c, go depth env u)
    | Term.Antiproject (c, u) -> Term.Antiproject (c, go depth env u)
    | Term.Rename (m, u) -> Term.Rename (m, go depth env u)
    | Term.Antijoin (a, b) -> Term.Antijoin (go depth env a, go depth env b)
    | Term.Union _ ->
      Term.union_all (sort_operands (List.map (go depth env) (flatten_union t)))
    | Term.Join _ ->
      Term.join_all (sort_operands (List.map (go depth env) (flatten_join t)))
    | Term.Fix (x, body) ->
      let nx = canon_var depth in
      Term.Fix (nx, go (depth + 1) ((x, nx) :: env) body)
  in
  go 0 [] t

let key t = Digest.to_hex (Digest.string (serialize (normalize t)))
