(* The reference answers, computed outside every timed region by the
   centralized semi-naive evaluator ([Mura.Eval]).

   On the initial graph (version 0) the reference evaluates the query as
   translated, with no rewriting, so it also checks the plan the rewriter
   chose: the system under test runs that plan. On later graph versions it
   evaluates, centrally, the plan the rewriter chose for version 0 — the
   translation's own evaluation is too slow to repeat per version (seconds
   for Q9, Q25 and Q33) — which still checks distributed execution, the
   caches and incremental repair on every version. *)

module Rel = Relation.Rel

let term_of text = Rpq.Query.union_to_term (Rpq.Query.parse_union text)

type t = {
  base : Rel.t;  (** version 0 *)
  plans : (string, Mura.Term.t) Hashtbl.t;
  memo : (int * string, Common.digest) Hashtbl.t;
}

let create base = { base; plans = Hashtbl.create 32; memo = Hashtbl.create 256 }

let plan t text =
  match Hashtbl.find_opt t.plans text with
  | Some p -> p
  | None ->
    let p = Harness.Systems.optimize [ ("E", t.base) ] (term_of text) in
    Hashtbl.add t.plans text p;
    p

(* The reference digest of [text] on [graph], which is graph version
   [version] (0 must be the base graph). *)
let expected t ~version graph text =
  match Hashtbl.find_opt t.memo (version, text) with
  | Some d -> d
  | None ->
    let term = if version = 0 then term_of text else plan t text in
    let d = Common.digest (Mura.Eval.eval (Mura.Eval.env [ ("E", graph) ]) term) in
    Hashtbl.add t.memo (version, text) d;
    d

(* Responses whose digest differs from the reference. *)
let mismatches t ~version graph responses =
  List.fold_left
    (fun bad (text, got) ->
      if Common.digest_equal (expected t ~version graph text) got then bad else bad + 1)
    0 responses
