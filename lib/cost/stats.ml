module Rel = Relation.Rel
module Schema = Relation.Schema
module Pred = Relation.Pred

type rel_stats = { count : int; distincts : (string * int) list }
type est = { card : float; distincts : (string * float) list }

let est_of_counts count distincts =
  {
    card = float_of_int (max count 1);
    distincts = List.map (fun (c, d) -> (c, float_of_int (max d 1))) distincts;
  }

type t = {
  tables : (string * (Rel.t * rel_stats Lazy.t)) list;
      (** whole-relation statistics are gathered on first use: a plan
          whose every scan is a slice never needs them *)
  slices : (string * Pred.t, est) Hashtbl.t;
      (** measured slices, keyed structurally by relation and predicate *)
}

let of_rel rel = { count = Rel.cardinal rel; distincts = Rel.distinct_counts rel }

let of_tables tables =
  {
    tables = List.map (fun (name, rel) -> (name, (rel, lazy (of_rel rel)))) tables;
    slices = Hashtbl.create 16;
  }

let find stats name = Option.map (fun (_, s) -> Lazy.force s) (List.assoc_opt name stats.tables)
let count stats name = Option.map (fun (rel, _) -> Rel.cardinal rel) (List.assoc_opt name stats.tables)
let distinct stats name col =
  Option.bind (find stats name) (fun r -> List.assoc_opt col r.distincts)

let slice stats name p =
  match Hashtbl.find_opt stats.slices (name, p) with
  | Some s -> Some s
  | None -> (
    match List.assoc_opt name stats.tables with
    | None -> None
    | Some (rel, _) -> (
      match Rel.select_counts p rel with
      | count, distincts ->
        let s = est_of_counts count distincts in
        Hashtbl.add stats.slices (name, p) s;
        Some s
      | exception Schema.Schema_error _ -> None))
