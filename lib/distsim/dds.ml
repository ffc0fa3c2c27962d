module Schema = Relation.Schema
module Tset = Relation.Tset
module Tuple = Relation.Tuple
module Rel = Relation.Rel
module Pred = Relation.Pred
module Batch = Relation.Batch

type partitioning = Arbitrary | Hashed of string list

type t = {
  cluster : Cluster.t;
  schema : Schema.t;
  parts : Tset.t array;
  partitioning : partitioning;
}

let cluster d = d.cluster
let schema d = d.schema
let partitioning d = d.partitioning
let num_partitions d = Array.length d.parts
let partition d i = d.parts.(i)
let partition_sizes d = Array.map Tset.cardinal d.parts
let cardinal d = Array.fold_left (fun acc p -> acc + Tset.cardinal p) 0 d.parts

let same_hashing a b =
  match (a, b) with Hashed x, Hashed y -> x = y | (Arbitrary | Hashed _), _ -> false

let target_of ~positions ~workers tu =
  if workers = 1 then 0 else Tuple.hash_positions positions tu mod workers

(* Charged communication, mirrored into the ambient tracer: every
   shuffle/broadcast becomes a point event attributed (via the open-span
   stack) to the operator and fixpoint iteration that caused it. *)
let meter_shuffle cluster ~op ~records ~bytes =
  Metrics.record_shuffle (Cluster.metrics cluster) ~records ~bytes;
  Trace.instant (Trace.get ()) ~cat:"shuffle"
    ~attrs:[ ("op", Trace.Str op); ("records", Trace.Int records); ("bytes", Trace.Int bytes) ]
    "shuffle"

let meter_broadcast cluster ~op ~records =
  Metrics.record_broadcast (Cluster.metrics cluster) ~records;
  Trace.instant (Trace.get ()) ~cat:"shuffle"
    ~attrs:[ ("op", Trace.Str op); ("records", Trace.Int records) ]
    "broadcast"

(* Partition statistics after a stage produced fresh partitions: sizes
   always feed the cluster's skew histograms (O(workers), each cardinal
   is O(1)); the max/mean skew attributes are only attached to the
   enclosing span when tracing is on. *)
let record_skew ?cluster tr parts =
  (match cluster with
  | None -> ()
  | Some c ->
    let m = Cluster.metrics c in
    Array.iteri (fun w p -> Metrics.record_partition_size m ~worker:w ~records:(Tset.cardinal p)) parts);
  if Trace.enabled tr then begin
    let sizes = Array.map Tset.cardinal parts in
    let total = Array.fold_left ( + ) 0 sizes in
    let mx = Array.fold_left max 0 sizes in
    let mean = float_of_int total /. float_of_int (max 1 (Array.length sizes)) in
    Trace.set_attr tr "out_records" (Trace.Int total);
    Trace.set_attr tr "max_partition" (Trace.Int mx);
    Trace.set_attr tr "skew"
      (Trace.Float (if mean > 0. then float_of_int mx /. mean else 1.))
  end

(* Map-side seen filter for iteration shuffles: [routed.(src).(dst)] holds
   every tuple source worker [src] already sent to destination [dst] in an
   earlier exchange through this filter. A re-derived tuple is dropped
   before it enters the shuffle — safe inside a semi-naive loop because
   anything routed earlier was unioned into the accumulator then, so the
   diff would discard it anyway; fresh sets (and thus the fixpoint) are
   unchanged while shuffle records/bytes shrink. *)
type seen_filter = { seen_routed : Tset.t array array; mutable seen_dropped : int }

let seen_filter cluster =
  let w = Cluster.workers cluster in
  { seen_routed = Array.init w (fun _ -> Array.init w (fun _ -> Tset.create ()));
    seen_dropped = 0 }

let seen_dropped f = f.seen_dropped

(* The exchange: route every partition on the driver. Returns fresh
   partitions, the number of tuples that changed worker, and the number
   dropped by the seen filter. Partitions are presized to the mean
   post-exchange size (skewed partitions still resize). *)
let exchange ?seen parts ~positions ~workers =
  let total = Array.fold_left (fun acc p -> acc + Tset.cardinal p) 0 parts in
  let fresh = Array.init workers (fun _ -> Tset.create ~capacity:((total / workers) + 1) ()) in
  let moved = ref 0 and dropped = ref 0 in
  Array.iteri
    (fun w p ->
      let keep =
        match seen with
        | None -> fun _ _ _ -> true
        | Some f -> fun t tu h -> Tset.add_hashed f.seen_routed.(w).(t) tu h
      in
      Tset.iter
        (fun tu ->
          let h = if Array.length tu = 0 then 0 else Tuple.hash tu in
          let t = target_of ~positions ~workers tu in
          if keep t tu h then begin
            if t <> w then incr moved;
            ignore (Tset.add_hashed fresh.(t) tu h)
          end
          else incr dropped)
        p)
    parts;
  (fresh, !moved, !dropped)

let of_rel ?by cluster rel =
  let tr = Trace.get () in
  Trace.span tr ~cat:"dds" "dds.of_rel" @@ fun () ->
  let workers = Cluster.workers cluster in
  let schema = Rel.schema rel in
  let parts =
    Array.init workers (fun _ -> Tset.create ~capacity:((Rel.cardinal rel / workers) + 1) ())
  in
  (match by with
  | Some cols ->
    let positions = Schema.positions schema cols in
    Rel.iter (fun tu -> ignore (Tset.add parts.(target_of ~positions ~workers tu) tu)) rel
  | None ->
    let w = ref 0 in
    Rel.iter
      (fun tu ->
        ignore (Tset.add parts.(!w) tu);
        w := (!w + 1) mod workers)
      rel);
  let records = Rel.cardinal rel in
  meter_shuffle cluster ~op:"of_rel" ~records
    ~bytes:(records * Metrics.tuple_bytes (Schema.arity schema));
  record_skew ~cluster tr parts;
  {
    cluster;
    schema;
    parts;
    partitioning = (match by with Some cols -> Hashed cols | None -> Arbitrary);
  }

let empty cluster schema =
  {
    cluster;
    schema;
    parts = Array.init (Cluster.workers cluster) (fun _ -> Tset.create ());
    partitioning = Hashed (Schema.cols schema);
  }

let collect d =
  let tr = Trace.get () in
  Trace.span tr ~cat:"dds" "dds.collect" @@ fun () ->
  let out = Tset.create ~capacity:(cardinal d) () in
  Array.iter (fun p -> ignore (Tset.add_all out p)) d.parts;
  let records = Tset.cardinal out in
  meter_shuffle d.cluster ~op:"collect" ~records
    ~bytes:(records * Metrics.tuple_bytes (Schema.arity d.schema));
  Rel.of_tset d.schema out

let map_partitions ?(op = "map_partitions") ?(partitioning = Arbitrary) ~schema f d =
  let tr = Trace.get () in
  Trace.span tr ~cat:"dds" ("dds." ^ op) @@ fun () ->
  let parts = Cluster.run_stage d.cluster (fun w -> f w d.parts.(w)) in
  record_skew ~cluster:d.cluster tr parts;
  { d with schema; parts; partitioning }

let filter p d =
  let keep = Pred.compile d.schema p in
  map_partitions ~op:"filter" ~partitioning:d.partitioning ~schema:d.schema
    (fun _ part ->
      let out = Tset.create ~capacity:(Tset.cardinal part) () in
      Tset.iter (fun tu -> if keep tu then ignore (Tset.add out tu)) part;
      out)
    d

let rename mapping d =
  let schema = Schema.rename mapping d.schema in
  let partitioning =
    match d.partitioning with
    | Arbitrary -> Arbitrary
    | Hashed cols ->
      Hashed
        (List.map
           (fun c -> match List.assoc_opt c mapping with Some fresh -> fresh | None -> c)
           cols)
  in
  { d with schema; partitioning }

let relayout_set ~from ~into part =
  if Schema.equal_ordered from into then part
  else begin
    let perm = Schema.reorder_positions ~from ~into in
    let out = Tset.create ~capacity:(Tset.cardinal part) () in
    Tset.iter (fun tu -> ignore (Tset.add out (Tuple.project perm tu))) part;
    out
  end

(* Size attributes for the narrow set-op spans: input cardinal on the
   driver, output sizes via [record_skew] without [~cluster] (trace attrs
   only — these ops never fed the partition-size histograms, and the
   pinned counters of the physical tests keep it that way). *)
let records_in_attr tr a b =
  if Trace.enabled tr then Trace.set_attr tr "records_in" (Trace.Int (cardinal a + cardinal b))

let set_union_local a b =
  if num_partitions a <> num_partitions b then invalid_arg "Dds.set_union_local: partition counts";
  let tr = Trace.get () in
  Trace.span tr ~cat:"dds" "dds.union_local" @@ fun () ->
  records_in_attr tr a b;
  let parts =
    Cluster.run_stage a.cluster (fun w ->
        let rhs = relayout_set ~from:b.schema ~into:a.schema b.parts.(w) in
        let out = Tset.copy_with_capacity a.parts.(w) (Tset.cardinal a.parts.(w) + Tset.cardinal rhs) in
        ignore (Tset.add_all out rhs);
        out)
  in
  record_skew tr parts;
  let partitioning =
    if same_hashing a.partitioning b.partitioning then a.partitioning else Arbitrary
  in
  { a with parts; partitioning }

let set_diff_local a b =
  if num_partitions a <> num_partitions b then invalid_arg "Dds.set_diff_local: partition counts";
  let tr = Trace.get () in
  Trace.span tr ~cat:"dds" "dds.diff_local" @@ fun () ->
  records_in_attr tr a b;
  let parts =
    Cluster.run_stage a.cluster (fun w ->
        let rhs = relayout_set ~from:b.schema ~into:a.schema b.parts.(w) in
        let out = Tset.create ~capacity:(Tset.cardinal a.parts.(w)) () in
        Tset.iter (fun tu -> if not (Tset.mem rhs tu) then ignore (Tset.add out tu)) a.parts.(w);
        out)
  in
  record_skew tr parts;
  { a with parts }

(* Per-partition natural join, indexing the smaller side (semi-naive
   loops join a small delta against a large stable relation). *)
let local_join_sets ~left_schema ~right_schema left right =
  let shared = Schema.common left_schema right_schema in
  let extra_cols = List.filter (fun c -> not (Schema.mem left_schema c)) (Schema.cols right_schema) in
  let extra_pos = Schema.positions right_schema extra_cols in
  let out = Tset.create ~capacity:(max (Tset.cardinal left) 16) () in
  let emit lt rt = ignore (Tset.add out (Tuple.concat lt (Tuple.project extra_pos rt))) in
  (match shared with
  | [] -> Tset.iter (fun lt -> Tset.iter (fun rt -> emit lt rt) right) left
  | _ ->
    if Tset.cardinal right <= Tset.cardinal left then begin
      let idx = Relation.Index.build right_schema shared (Tset.to_seq right) in
      let l_key = Schema.positions left_schema shared in
      Tset.iter (fun lt -> List.iter (emit lt) (Relation.Index.probe idx (Tuple.project l_key lt))) left
    end
    else begin
      let idx = Relation.Index.build left_schema shared (Tset.to_seq left) in
      let r_key = Schema.positions right_schema shared in
      Tset.iter
        (fun rt -> List.iter (fun lt -> emit lt rt) (Relation.Index.probe idx (Tuple.project r_key rt)))
        right
    end);
  out

let broadcast cluster rel =
  meter_broadcast cluster ~op:"broadcast" ~records:(Rel.cardinal rel * max 1 (Cluster.workers cluster - 1))

let repartition ?seen ~by d =
  if same_hashing d.partitioning (Hashed by) then d
  else begin
    let tr = Trace.get () in
    Trace.span tr ~cat:"dds" "dds.repartition" @@ fun () ->
    let workers = Cluster.workers d.cluster in
    let positions = Schema.positions d.schema by in
    let parts, moved, dropped = exchange ?seen d.parts ~positions ~workers in
    (match seen with
    | None -> ()
    | Some f ->
      f.seen_dropped <- f.seen_dropped + dropped;
      Metrics.record_dedup_dropped (Cluster.metrics d.cluster) ~records:dropped;
      if Trace.enabled tr then Trace.set_attr tr "dedup_dropped" (Trace.Int dropped));
    meter_shuffle d.cluster ~op:"repartition" ~records:moved
      ~bytes:(moved * Metrics.tuple_bytes (Schema.arity d.schema));
    record_skew ~cluster:d.cluster tr parts;
    { d with parts; partitioning = Hashed by }
  end

let distinct d =
  match d.partitioning with
  | Hashed _ -> d (* co-located and partitions are sets: already distinct *)
  | Arbitrary -> repartition ~by:(Schema.cols d.schema) d

let join_shuffle a b =
  Trace.span (Trace.get ()) ~cat:"dds" "dds.join_shuffle" @@ fun () ->
  let shared = Schema.common a.schema b.schema in
  match shared with
  | [] ->
    (* Cartesian: collect and broadcast the smaller side, then join
       narrowly against the other side's partitions, emitting tuples in
       the a-first output layout. *)
    let out_schema = Schema.append_distinct a.schema b.schema in
    if cardinal a <= cardinal b then begin
      let small = collect a in
      broadcast a.cluster small;
      let left = Rel.tuples small in
      let n_left = Tset.cardinal left in
      map_partitions ~op:"join_bcast" ~schema:out_schema
        (fun _ part ->
          let out = Tset.create ~capacity:(max (Tset.cardinal part * n_left) 16) () in
          Tset.iter
            (fun bt -> Tset.iter (fun at -> ignore (Tset.add out (Tuple.concat at bt))) left)
            part;
          out)
        b
    end
    else begin
      let small = collect b in
      broadcast a.cluster small;
      let right = Rel.tuples small in
      map_partitions ~op:"join_bcast" ~partitioning:a.partitioning ~schema:out_schema
        (fun _ part -> local_join_sets ~left_schema:a.schema ~right_schema:b.schema part right)
        a
    end
  | _ ->
    let a' = repartition ~by:shared a in
    let b' = repartition ~by:shared b in
    let out_schema = Schema.append_distinct a.schema b.schema in
    let parts =
      Cluster.run_stage a.cluster (fun w ->
          local_join_sets ~left_schema:a.schema ~right_schema:b.schema a'.parts.(w) b'.parts.(w))
    in
    record_skew ~cluster:a.cluster (Trace.get ()) parts;
    { a with schema = out_schema; parts; partitioning = Hashed shared }

let antijoin_shuffle a b =
  Trace.span (Trace.get ()) ~cat:"dds" "dds.antijoin_shuffle" @@ fun () ->
  let shared = Schema.common a.schema b.schema in
  match shared with
  | [] ->
    if cardinal b = 0 then a
    else map_partitions ~partitioning:a.partitioning ~schema:a.schema (fun _ _ -> Tset.create ()) a
  | _ ->
    let a' = repartition ~by:shared a in
    let b' = repartition ~by:shared b in
    let key = Schema.positions a.schema shared in
    let b_key = Schema.positions b.schema shared in
    let parts =
      Cluster.run_stage a.cluster (fun w ->
          let keys = Tset.create ~capacity:(Tset.cardinal b'.parts.(w)) () in
          Tset.iter (fun tu -> ignore (Tset.add keys (Tuple.project b_key tu))) b'.parts.(w);
          let out = Tset.create ~capacity:(Tset.cardinal a'.parts.(w)) () in
          Tset.iter
            (fun tu -> if not (Tset.mem keys (Tuple.project key tu)) then ignore (Tset.add out tu))
            a'.parts.(w);
          out)
    in
    record_skew ~cluster:a.cluster (Trace.get ()) parts;
    { a with parts; partitioning = Hashed shared }

let union_distinct a b = distinct (set_union_local a b)

(* ------------------------------------------------------------------ *)
(* Columnar batch exchange (compiled execution core)                   *)
(* ------------------------------------------------------------------ *)

(* Wrap already-distributed partitions (e.g. a compiled fixpoint's
   accumulator) as a dataset. No data moves and nothing is charged: the
   partitions are adopted where they are. *)
let of_partitions cluster ~schema ~partitioning parts =
  if Array.length parts <> Cluster.workers cluster then
    invalid_arg "Dds.of_partitions: partition count <> workers";
  { cluster; schema; parts; partitioning }

(* Map side for source worker [w]: route every row of its batch into
   [workers] destination batches. Same targets as [exchange]
   ([Tuple.hash_positions] of the key columns mod workers), same moved
   count (kept rows whose destination differs from the source), same
   seen-filter semantics (full-tuple hash into the per-src-per-dst
   matrix, via the column-wise probe so dropped rows allocate nothing).
   When the key columns are the whole schema in order the stored hash
   column is the routing hash — no per-row hashing at all. *)
let route_batch_one ?seen ~positions ~workers ~identity w (b : Batch.t) =
  let n = Batch.length b in
  let arity = Batch.arity b in
  let buckets =
    Array.init workers (fun _ -> Batch.create ~capacity:((n / workers) + 1) ~arity ())
  in
  let cols = Batch.cols b in
  let keep =
    match seen with
    | None -> fun _ _ _ -> true
    | Some f -> fun t row h -> Tset.add_cols f.seen_routed.(w).(t) cols ~row ~hash:h
  in
  let moved = ref 0 and dropped = ref 0 in
  for i = 0 to n - 1 do
    let h = Batch.hash b i in
    let t =
      if workers = 1 then 0
      else (if identity then h else Batch.hash_positions b positions i) mod workers
    in
    if keep t i h then begin
      if t <> w then incr moved;
      Batch.push_row buckets.(t) b i
    end
    else incr dropped
  done;
  (buckets, !moved, !dropped)

(* Reduce side for destination [t]: merge incoming buckets in source
   order through a presized dedup builder, reusing the map-side hashes,
   producing a duplicate-free partition without growing any table. *)
let merge_batch_buckets ~workers ~arity routed t =
  let incoming = ref 0 in
  for src = 0 to workers - 1 do
    incoming := !incoming + Batch.length routed.(src).(t)
  done;
  let bld = Batch.Builder.create ~capacity:!incoming ~arity () in
  let scratch = Batch.Builder.scratch bld in
  for src = 0 to workers - 1 do
    let b = routed.(src).(t) in
    let cols = Batch.cols b in
    for i = 0 to Batch.length b - 1 do
      for c = 0 to arity - 1 do
        Array.unsafe_set scratch c (Array.unsafe_get (Array.unsafe_get cols c) i)
      done;
      ignore (Batch.Builder.add_scratch bld (Batch.hash b i))
    done
  done;
  Batch.Builder.batch bld

let is_identity_routing positions arity =
  Array.length positions = arity
  &&
  let ok = ref true in
  Array.iteri (fun i p -> if p <> i then ok := false) positions;
  !ok

(* Exchange of per-worker column batches on the driver; the compiled
   twin of [exchange], with identical moved/dropped accounting. Returns
   the fresh per-destination batches, the moved count and the seen-filter
   drop count. Output partitions are duplicate-free batches ordered by
   source worker then row — the same multiset a Tset exchange would
   produce. *)
let exchange_batches ?seen batches ~positions ~workers =
  let arity = Batch.arity batches.(0) in
  let identity = is_identity_routing positions arity in
  let routed = Array.make workers [||] in
  let moved = ref 0 and dropped = ref 0 in
  Array.iteri
    (fun w b ->
      let buckets, m, d = route_batch_one ?seen ~positions ~workers ~identity w b in
      routed.(w) <- buckets;
      moved := !moved + m;
      dropped := !dropped + d)
    batches;
  let fresh = Array.init workers (merge_batch_buckets ~workers ~arity routed) in
  (fresh, !moved, !dropped)

(* Charged batch repartition: the compiled twin of [repartition] once the
   caller has decided the exchange is not a no-op (same [same_hashing]
   rule, applied against the tracked partitioning). Meters the shuffle,
   the dedup drops and the output partition sizes exactly as
   [repartition] does. *)
let repartition_batches ?seen cluster batches ~schema ~by =
  let tr = Trace.get () in
  Trace.span tr ~cat:"dds" "dds.repartition" @@ fun () ->
  let workers = Cluster.workers cluster in
  let positions = Schema.positions schema by in
  let fresh, moved, dropped = exchange_batches ?seen batches ~positions ~workers in
  (match seen with
  | None -> ()
  | Some f ->
    f.seen_dropped <- f.seen_dropped + dropped;
    Metrics.record_dedup_dropped (Cluster.metrics cluster) ~records:dropped;
    if Trace.enabled tr then Trace.set_attr tr "dedup_dropped" (Trace.Int dropped));
  meter_shuffle cluster ~op:"repartition" ~records:moved
    ~bytes:(moved * Metrics.tuple_bytes (Schema.arity schema));
  let m = Cluster.metrics cluster in
  Array.iteri (fun w b -> Metrics.record_partition_size m ~worker:w ~records:(Batch.length b)) fresh;
  if Trace.enabled tr then begin
    let sizes = Array.map Batch.length fresh in
    let total = Array.fold_left ( + ) 0 sizes in
    let mx = Array.fold_left max 0 sizes in
    let mean = float_of_int total /. float_of_int (max 1 (Array.length sizes)) in
    Trace.set_attr tr "out_records" (Trace.Int total);
    Trace.set_attr tr "max_partition" (Trace.Int mx);
    Trace.set_attr tr "skew" (Trace.Float (if mean > 0. then float_of_int mx /. mean else 1.))
  end;
  fresh
