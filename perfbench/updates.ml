(* The seeded edge-update stream: each batch inserts [inserts_per_batch]
   resident edges cloned with rewired endpoints (source of one edge and
   target of another of the same predicate, so node kinds stay plausible)
   and, every [delete_every]-th batch, deletes [deletes_per_batch] random
   resident edges so the delete path runs too. *)

module Rel = Relation.Rel
module Schema = Relation.Schema
module Rng = Graphgen.Rng

let inserts_per_batch = 4
let deletes_per_batch = 2
let delete_every = 3

type batch = { inserts : Rel.t; deletes : Rel.t option }

type t = {
  rng : Rng.t;
  schema : Schema.t;
  src : int;
  pred : int;
  trg : int;
  by_pred : (int, Relation.Tuple.t array) Hashtbl.t;  (** endpoints to rewire from *)
  mutable resident : Relation.Tuple.t array;  (** current edges, first [n] live *)
  mutable n : int;
  pos : (Relation.Tuple.t, int) Hashtbl.t;  (** edge -> index in [resident] *)
  mutable batches : int;
}

let create ~seed graph =
  let schema = Rel.schema graph in
  let resident = Array.of_list (Rel.to_list graph) in
  let pos = Hashtbl.create (2 * Array.length resident) in
  Array.iteri (fun i tu -> Hashtbl.replace pos tu i) resident;
  let pred = Schema.index_of schema "pred" in
  let groups = Hashtbl.create 32 in
  Array.iter
    (fun tu -> Hashtbl.replace groups tu.(pred) (tu :: Option.value ~default:[] (Hashtbl.find_opt groups tu.(pred))))
    resident;
  let by_pred = Hashtbl.create 32 in
  Hashtbl.iter (fun p l -> Hashtbl.replace by_pred p (Array.of_list (List.rev l))) groups;
  {
    rng = Rng.create seed;
    schema;
    src = Schema.index_of schema "src";
    pred;
    trg = Schema.index_of schema "trg";
    by_pred;
    resident;
    n = Array.length resident;
    pos;
    batches = 0;
  }

let add t tu =
  if t.n = Array.length t.resident then
    t.resident <- Array.append t.resident (Array.make (max 16 t.n) tu);
  t.resident.(t.n) <- tu;
  Hashtbl.replace t.pos tu t.n;
  t.n <- t.n + 1

let remove t tu =
  let i = Hashtbl.find t.pos tu in
  let last = t.resident.(t.n - 1) in
  t.resident.(i) <- last;
  Hashtbl.replace t.pos last i;
  Hashtbl.remove t.pos tu;
  t.n <- t.n - 1

let next t =
  t.batches <- t.batches + 1;
  let deletes =
    if t.batches mod delete_every <> 0 then None
    else begin
      let d = Rel.create t.schema in
      while Rel.cardinal d < deletes_per_batch do
        ignore (Rel.add d t.resident.(Rng.int t.rng t.n))
      done;
      Rel.iter (remove t) d;
      Some d
    end
  in
  let inserts = Rel.create t.schema in
  while Rel.cardinal inserts < inserts_per_batch do
    let a = t.resident.(Rng.int t.rng t.n) in
    let same = Hashtbl.find t.by_pred a.(t.pred) in
    let tu = Array.copy a in
    tu.(t.src) <- (Rng.pick t.rng same).(t.src);
    tu.(t.trg) <- (Rng.pick t.rng same).(t.trg);
    if tu.(t.src) <> tu.(t.trg) && not (Hashtbl.mem t.pos tu) then begin
      ignore (Rel.add inserts tu);
      add t tu
    end
  done;
  { inserts; deletes }

(* The graph after [b], as [Serve.update] computes it: deletes first. *)
let apply graph b =
  let g = match b.deletes with Some d -> Rel.diff graph d | None -> graph in
  Rel.union g b.inserts
