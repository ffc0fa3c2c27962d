(** Distributed aggregate fixpoints: weighted shortest paths with the
    P_plw distribution scheme.

    The relaxation step never changes a path's source, so [src] is stable
    in the sense of Sec. IV-A2: hash-partitioning the seed arcs by [src]
    makes the per-worker min-fixpoints disjoint — each worker owns all
    (and only) the paths of its sources, the edge relation is broadcast
    once, and no min-merge across workers is needed. *)

val shortest_paths : Distsim.Cluster.t -> Relation.Rel.t -> Relation.Rel.t
(** [shortest_paths cluster edges] — all-pairs shortest path weights for
    a (src, trg, weight) relation, computed with per-worker local
    min-fixpoints. Communication is charged on the cluster. *)

val group_count : Distsim.Cluster.t -> key:string list -> Distsim.Dds.t -> Relation.Rel.t
(** [group_count cluster ~key d] — per-group tuple counts over the
    distinct tuples of [d], schema [key @ ["count"]]. Executes as fused
    batch folds: per-worker column-at-a-time partials, one charged
    exchange of the partials by [key], a local merge fold. *)

val group_min :
  Distsim.Cluster.t -> key:string list -> value:string -> Distsim.Dds.t -> Relation.Rel.t
(** [group_min cluster ~key ~value d] — per-group minimum of column
    [value], schema [key @ [value]]; same fused two-phase fold. *)
