module Rel = Relation.Rel
module Schema = Relation.Schema
module Tset = Relation.Tset
module Batch = Relation.Batch
module Dds = Distsim.Dds
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics

(* Grouped reductions as fused batch folds: each worker folds its
   partition column-at-a-time into per-group partials (one pass over the
   batch's unboxed columns, no per-row tuple allocation), the partials
   are exchanged by the group key (the only charged communication — the
   classic combiner pattern), and a second local fold merges them. The
   input is made distinct first so the reduction is over the tuple set,
   independently of how duplicates were partitioned. *)
let group_fold ~key ~out_col ~seed ~combine d =
  let d = Dds.distinct d in
  let schema = Dds.schema d in
  let kpos = Schema.positions schema key in
  let nk = Array.length kpos in
  let out_schema = Schema.of_list (key @ [ out_col ]) in
  (* partials carry the producing worker's id: the exchange is over tuple
     SETS, so two workers computing an equal partial for the same group
     (e.g. both count 1) would otherwise collapse into one tuple and
     undercount the merge *)
  let part_schema = Schema.of_list (key @ [ "__worker"; out_col ]) in
  let fold_tbl tbl k v =
    match Hashtbl.find_opt tbl k with
    | Some v0 -> Hashtbl.replace tbl k (combine v0 v)
    | None -> Hashtbl.add tbl k v
  in
  let partials =
    Dds.map_partitions ~op:"group_partial" ~schema:part_schema
      (fun w part ->
        let b = Batch.of_tset ~arity:(Schema.arity schema) part in
        let cols = Batch.cols b in
        let tbl = Hashtbl.create (max 16 (Batch.length b / 4)) in
        for row = 0 to Batch.length b - 1 do
          let k = Array.make nk 0 in
          for i = 0 to nk - 1 do
            k.(i) <- cols.(kpos.(i)).(row)
          done;
          fold_tbl tbl k (seed cols row)
        done;
        let out = Tset.create ~capacity:(Hashtbl.length tbl) () in
        Hashtbl.iter (fun k v -> ignore (Tset.add out (Array.append k [| w; v |]))) tbl;
        out)
      d
  in
  let merged = Dds.repartition ~by:key partials in
  let final =
    Dds.map_partitions ~op:"group_merge" ~partitioning:(Dds.Hashed key) ~schema:out_schema
      (fun _ part ->
        let tbl = Hashtbl.create (max 16 (Tset.cardinal part)) in
        Tset.iter (fun tu -> fold_tbl tbl (Array.sub tu 0 nk) tu.(nk + 1)) part;
        let out = Tset.create ~capacity:(Hashtbl.length tbl) () in
        Hashtbl.iter (fun k v -> ignore (Tset.add out (Array.append k [| v |]))) tbl;
        out)
      merged
  in
  Dds.collect final

let group_count _cluster ~key d =
  group_fold ~key ~out_col:"count" ~seed:(fun _ _ -> 1) ~combine:( + ) d

let group_min _cluster ~key ~value d =
  let vpos =
    match Schema.positions (Dds.schema d) [ value ] with
    | [| p |] -> p
    | _ -> assert false
  in
  group_fold ~key ~out_col:value ~seed:(fun cols row -> cols.(vpos).(row)) ~combine:min d

let canon = Schema.of_list [ "src"; "trg"; "weight" ]

let shortest_paths cluster edges =
  let edges = Rel.relayout canon edges in
  let seeds = Dds.of_rel ~by:[ "src" ] cluster edges in
  let m = Cluster.metrics cluster in
  Metrics.record_broadcast m
    ~records:(Rel.cardinal edges * max 1 (Cluster.workers cluster - 1));
  Metrics.record_superstep m;
  let result =
    Dds.map_partitions ~partitioning:(Dds.Hashed [ "src" ]) ~schema:canon
      (fun _ part ->
        let env = Mura.Eval.env [ ("E", edges) ] in
        Rel.tuples
          (Mura.Agg.shortest_paths_seeded env ~edges:"E"
             ~seeds:(Rel.of_tset canon (Tset.copy part))))
      seeds
  in
  Dds.collect result
