module Rel = Relation.Rel
module Schema = Relation.Schema

type rel_stats = { count : int; distincts : (string * int) list; schema : Schema.t }
type t = (string * rel_stats) list

let of_tables tables =
  List.map
    (fun (name, rel) ->
      let distincts = Rel.distinct_counts rel in
      (name, { count = Rel.cardinal rel; distincts; schema = Rel.schema rel }))
    tables

let find stats name = List.assoc_opt name stats
let count stats name = Option.map (fun r -> r.count) (find stats name)
let distinct stats name col =
  Option.bind (find stats name) (fun r -> List.assoc_opt col r.distincts)
