(* Compiled columnar execution core: the distributed executor.

   [compile] lowers the union-free recursive branches of a fixpoint into
   fused operator pipelines over {!Relation.Batch} column blocks, [run]
   drives the semi-naive loop over them and [apply] applies them once.
   Each branch becomes an alternating list of fused segments (closure
   chains that stream a partition column-at-a-time through
   select/project/rename/join-probe without materialising intermediate
   [Tuple.t] rows) and exchange points (charged batch repartitions).
   [Shell] lowers the non-fixpoint operators around [Fix] nodes onto the
   same chains.

   Metering contract, checked against pinned counters and [Mura.Eval]
   by the physical test suite:
   - broadcast joins and antijoins evaluate their constant side once,
     at compile time, and meter one broadcast of it; in shuffle mode a
     join with no shared column does the same with the collected
     constant side;
   - shuffle joins and antijoins distribute the constant side at
     compile time and co-partition it by the join columns on the first
     application only ([Dds.repartition]'s no-op rule applies); the
     delta side is exchanged on every application unless it is already
     hashed by those columns;
   - the per-iteration exchange of P_gld carries the seen filter.

   Every emitted row is hashed once; exchange routing, merging and
   accumulator absorption reuse the stored hash column, and the index
   over a constant join side is built once per fixpoint per worker. *)

module Schema = Relation.Schema
module Rel = Relation.Rel
module Tset = Relation.Tset
module Tuple = Relation.Tuple
module Batch = Relation.Batch
module Pred = Relation.Pred
module Join_index = Relation.Join_index
module Term = Mura.Term
module Dds = Distsim.Dds
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics

let child path i = path ^ "." ^ string_of_int i
let err fmt = Format.kasprintf (fun s -> raise (Mura.Eval.Eval_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Operator spans                                                      *)
(* ------------------------------------------------------------------ *)

(* Span label of one physical operator (trace category "op"). *)
let op_label (t : Term.t) =
  match t with
  | Rel n -> "Rel " ^ n
  | Cst _ -> "Cst"
  | Var x -> "Var " ^ x
  | Select _ -> "Select"
  | Project _ -> "Project"
  | Antiproject _ -> "Antiproject"
  | Rename _ -> "Rename"
  | Join _ -> "Join"
  | Antijoin _ -> "Antijoin"
  | Union _ -> "Union"
  | Fix (x, _) -> "Fix " ^ x

let op_span ~path label f =
  Trace.span (Trace.get ()) ~cat:"op" ~attrs:[ ("path", Trace.Str path) ] label f

let set_rows n =
  let tr = Trace.get () in
  if Trace.enabled tr then Trace.set_attr tr "rows" (Trace.Int n)

(* Rows a span's fused chains emitted into their dedup builders. *)
let set_candidates n =
  let tr = Trace.get () in
  if Trace.enabled tr then Trace.set_attr tr "candidates" (Trace.Int n)

(* ------------------------------------------------------------------ *)
(* Row-level operators of a fused segment                              *)
(* ------------------------------------------------------------------ *)

(* One operator of a fused chain, acting on a scratch row (an [int
   array] laid out per the operator's input schema — which makes it a
   valid [Tuple.t], so compiled predicates apply directly). [R_probe]
   and [R_antiprobe] read a per-worker {!Join_index} whose payload is
   the appended columns; broadcast indexes are shared by all workers,
   shuffle-side indexes are built lazily per worker over the
   co-partitioned constant side. *)
type rop =
  | R_filter of { pred : Tuple.t -> bool; cols : int array (* positions it reads *) }
  | R_project of int array  (* new scratch = old scratch at these positions *)
  | R_probe of {
      key_pos : int array;  (* shared columns, positions in the input scratch *)
      width : int;  (* appended columns: the index's payload width *)
      index : int -> Join_index.t;  (* worker -> index *)
    }
  | R_antiprobe of { key_pos : int array; index : int -> Join_index.t }

let filter_rop schema p =
  let pred = Pred.compile schema p in
  R_filter { pred; cols = Schema.positions schema (Pred.columns p) }

(* Atoms of a lowered branch, before fusion: row operators (each with
   its output schema and partitioning transfer) separated by exchange
   points. [rop = None] marks schema-only steps (rename). *)
type atom =
  | A_rop of {
      rop : rop option;
      out_schema : Schema.t;
      ptrans : Dds.partitioning -> Dds.partitioning;
    }
  | A_exch of { by : string list; schema : Schema.t }

(* A fused pass: the output batch and its candidate count — the rows the
   chain emitted into its dedup builder. *)
type runner = Batch.t -> Batch.t * int

type step =
  | Fuse of {
      runners : runner array;  (* one fused pass per worker *)
      ptrans : Dds.partitioning -> Dds.partitioning;
    }
  | Exch of { by : string list; schema : Schema.t }

type branch = {
  steps : step list;
  out_schema : Schema.t;  (* schema of the branch's output batches *)
  prepares : (unit -> unit) list;
      (* idempotent driver-side setup run before every application: the
         once-per-fixpoint co-partitioning of shuffle-mode constant
         sides (charged on its first run) *)
  path : string;  (* term-tree path of the branch node, for its op span *)
  label : string;
}

type t = {
  cluster : Cluster.t;
  x_schema : Schema.t;
  arity : int;
  branches : branch list;
}

(* ------------------------------------------------------------------ *)
(* Lowering pass: evaluate constant sides, build atoms                  *)
(* ------------------------------------------------------------------ *)

let extra_of left_schema right_schema =
  let extra = List.filter (fun c -> not (Schema.mem left_schema c)) (Schema.cols right_schema) in
  (extra, Schema.positions right_schema extra)

let rename_partitioning m (p : Dds.partitioning) : Dds.partitioning =
  match p with
  | Dds.Arbitrary -> Dds.Arbitrary
  | Dds.Hashed cols ->
    Dds.Hashed
      (List.map (fun c -> match List.assoc_opt c m with Some fresh -> fresh | None -> c) cols)

let project_partitioning keep (p : Dds.partitioning) : Dds.partitioning =
  match p with
  | Dds.Hashed cols when List.for_all (fun c -> List.mem c keep) cols -> Dds.Hashed cols
  | Dds.Hashed _ | Dds.Arbitrary -> Dds.Arbitrary

(* A constant side co-partitioned by [shared], for shuffle-mode joins
   and antijoins: [prepare] repartitions it on its first run only (the
   exchange is charged once per fixpoint, unless [Dds.repartition]
   no-ops), and worker [w]'s index over its partition is built lazily by
   [w]'s own stage, then reused by every later application. *)
let copartitioned ~workers ~shared ~payload_pos const_dds =
  let part = ref None in
  let idxs = Array.make workers None in
  let prepare () = if !part = None then part := Some (Dds.repartition ~by:shared const_dds) in
  let key_pos = Schema.positions (Dds.schema const_dds) shared in
  let index w =
    match idxs.(w) with
    | Some i -> i
    | None ->
      let cp = match !part with Some d -> d | None -> assert false in
      let i = Join_index.of_tset ~key_pos ~payload_pos (Dds.partition cp w) in
      idxs.(w) <- Some i;
      i
  in
  (prepare, index)

(* Lower one recursive branch. Constant sides are evaluated in term
   order, recursive side first, so errors surface as they would in a
   tree walk: a foreign variable or a nested fixpoint is an
   [Eval_error], a typing failure raises where the operator needs the
   missing column. *)
let lower_branch ~cluster ~var ~join_mode ~x_schema ~exec_const ~eval_const ~path branch :
    atom list * Schema.t * (unit -> unit) list =
  let workers = Cluster.workers cluster in
  let prepares = ref [] in
  let row rop out_schema ptrans = A_rop { rop = Some rop; out_schema; ptrans } in
  (* broadcast probe over a driver-side constant relation, charged once;
     the immutable index is shared by every worker domain (with no
     shared column it is the broadcast cartesian) *)
  let bcast_join sr rel =
    Dds.broadcast cluster rel;
    let rs = Rel.schema rel in
    let shared = Schema.common sr rs in
    let out = Schema.append_distinct sr rs in
    let _, extra_pos = extra_of sr rs in
    let idx =
      Join_index.of_tset ~key_pos:(Schema.positions rs shared) ~payload_pos:extra_pos
        (Rel.tuples rel)
    in
    let probe =
      R_probe
        {
          key_pos = Schema.positions sr shared;
          width = Array.length extra_pos;
          index = (fun _ -> idx);
        }
    in
    (row probe out Fun.id, out)
  in
  let rec go ~path (t : Term.t) : atom list * Schema.t =
    match t with
    | Term.Var x when String.equal x var -> ([], x_schema)
    | Term.Var x -> err "foreign recursive variable %S in branch" x
    | Term.Select (p, u) ->
      let atoms, s = go ~path:(child path 0) u in
      (atoms @ [ row (filter_rop s p) s Fun.id ], s)
    | Term.Project (keep, u) ->
      let atoms, s = go ~path:(child path 0) u in
      let out = Schema.restrict s keep in
      (atoms @ [ row (R_project (Schema.positions s keep)) out (project_partitioning keep) ], out)
    | Term.Antiproject (drop, u) ->
      let atoms, s = go ~path:(child path 0) u in
      let keep = List.filter (fun c -> not (List.mem c drop)) (Schema.cols s) in
      let out = Schema.restrict s keep in
      (atoms @ [ row (R_project (Schema.positions s keep)) out (project_partitioning keep) ], out)
    | Term.Rename (m, u) ->
      let atoms, s = go ~path:(child path 0) u in
      let out = Schema.rename m s in
      (atoms @ [ A_rop { rop = None; out_schema = out; ptrans = rename_partitioning m } ], out)
    | Term.Join (a, b) -> (
      (* linearity: exactly one side mentions the variable *)
      let (recursive, rpath), (const, cpath) =
        if Term.has_free_var var a then ((a, child path 0), (b, child path 1))
        else ((b, child path 1), (a, child path 0))
      in
      let atoms, sr = go ~path:rpath recursive in
      match join_mode with
      | `Broadcast ->
        let atom, out = bcast_join sr (eval_const ~path:cpath const) in
        (atoms @ [ atom ], out)
      | `Shuffle -> (
        let const_dds = exec_const ~path:cpath const in
        let cs = Dds.schema const_dds in
        match Schema.common sr cs with
        | [] ->
          let atom, out = bcast_join sr (Dds.collect const_dds) in
          (atoms @ [ atom ], out)
        | shared ->
          let out = Schema.append_distinct sr cs in
          let _, payload_pos = extra_of sr cs in
          let prepare, index = copartitioned ~workers ~shared ~payload_pos const_dds in
          prepares := prepare :: !prepares;
          let probe =
            R_probe
              { key_pos = Schema.positions sr shared; width = Array.length payload_pos; index }
          in
          (atoms @ [ A_exch { by = shared; schema = sr }; row probe out Fun.id ], out)))
    | Term.Antijoin (a, b) -> (
      if Term.has_free_var var b then err "fixpoint on %s is not positive" var;
      let atoms, sr = go ~path:(child path 0) a in
      let bpath = child path 1 in
      let antiprobe shared index =
        row (R_antiprobe { key_pos = Schema.positions sr shared; index }) sr Fun.id
      in
      match join_mode with
      | `Broadcast ->
        let rel = eval_const ~path:bpath b in
        Dds.broadcast cluster rel;
        let rs = Rel.schema rel in
        let shared = Schema.common sr rs in
        let idx =
          Join_index.of_tset ~key_pos:(Schema.positions rs shared) ~payload_pos:[||]
            (Rel.tuples rel)
        in
        (atoms @ [ antiprobe shared (fun _ -> idx) ], sr)
      | `Shuffle -> (
        let const_dds = exec_const ~path:bpath b in
        match Schema.common sr (Dds.schema const_dds) with
        | [] ->
          (* no shared column: all of the left side when the right one is
             empty, nothing otherwise — an index with one empty key or
             none *)
          let keys = Tset.create () in
          if Dds.cardinal const_dds > 0 then ignore (Tset.add keys [||]);
          let idx = Join_index.of_tset ~key_pos:[||] ~payload_pos:[||] keys in
          (atoms @ [ antiprobe [] (fun _ -> idx) ], sr)
        | shared ->
          let prepare, index = copartitioned ~workers ~shared ~payload_pos:[||] const_dds in
          prepares := prepare :: !prepares;
          (atoms @ [ A_exch { by = shared; schema = sr }; antiprobe shared index ], sr)))
    | Term.Union _ -> err "internal: union inside a normalised branch"
    | Term.Fix (x, _) -> err "internal: recursive variable %s under nested fixpoint %s" var x
    | Term.Rel _ | Term.Cst _ -> err "internal: recursive branch without %s" var
  in
  let atoms, out_schema = go ~path branch in
  (atoms, out_schema, List.rev !prepares)

(* ------------------------------------------------------------------ *)
(* Fusion: group consecutive row operators into one closure chain       *)
(* ------------------------------------------------------------------ *)

(* Build the fused pass of one worker: load each input row into the
   entry scratch, run the closure chain, and let the chain's tail emit
   surviving rows into a presized dedup builder. The chain is compiled
   once into nested closures, each operator owning its output scratch
   (and probe key) array; these live for the whole fixpoint, so running
   the chain on a row allocates nothing. The builder is fresh per
   invocation and becomes the output batch; the pass also answers its
   candidate count, the rows emitted into the builder.

   Compiling the chain also computes liveness: each operator learns
   which columns of its input scratch the rest of the chain reads. A
   probe whose input has a column dead after it (typically the join key
   an antiproject drops next) is factorized: two input rows that agree
   on the live columns and meet groups with equal payload sets (one
   canonical id) would expand into the same downstream rows, so a
   per-application seen set keyed by (live columns, canonical id) lets
   each such pair expand once. The output is a set, so only duplicates
   are skipped, and the first occurrence of every output row keeps its
   place in the batch. *)
let no_index = Join_index.of_tset ~key_pos:[||] ~payload_pos:[||] (Tset.create ())

let mark live pos = Array.iter (fun p -> live.(p) <- true) pos

let build_runner ~w ~in_arity ~out_arity (rops : rop list) : runner =
  let builder = ref (Batch.Builder.create ~capacity:0 ~arity:out_arity ()) in
  let candidates = ref 0 in
  (* per-application setup, given the input rows: resolve the worker's
     indexes, clear seen sets *)
  let setups = ref [] in
  let emit scratch =
    incr candidates;
    let bld = !builder in
    let s = Batch.Builder.scratch bld in
    Array.blit scratch 0 s 0 out_arity;
    ignore (Batch.Builder.add_scratch bld (Batch.hash_row s))
  in
  (* [chain scratch rops] is the row closure over [scratch] and the
     liveness of [scratch]'s columns *)
  let rec chain scratch = function
    | [] -> ((fun () -> emit scratch), Array.make (Array.length scratch) true)
    | R_filter { pred; cols } :: rest ->
      let next, live = chain scratch rest in
      mark live cols;
      ((fun () -> if pred scratch then next ()), live)
    | R_project pos :: rest ->
      let n = Array.length pos in
      let out = Array.make n 0 in
      let next, live_out = chain out rest in
      let live = Array.make (Array.length scratch) false in
      Array.iteri (fun i p -> if live_out.(i) then live.(p) <- true) pos;
      ( (fun () ->
          for i = 0 to n - 1 do
            out.(i) <- scratch.(pos.(i))
          done;
          next ()),
        live )
    | R_probe { key_pos; width; index } :: rest ->
      let base = Array.length scratch in
      let out = Array.make (base + width) 0 in
      let next, live_out = chain out rest in
      let dead = List.filter (fun i -> not live_out.(i)) (List.init base Fun.id) in
      let live = Array.sub live_out 0 base in
      mark live key_pos;
      let idx = ref no_index and payload = ref [||] in
      let expand g =
        Array.blit scratch 0 out 0 base;
        let p = !payload in
        for r = Join_index.start !idx g to Join_index.stop !idx g - 1 do
          let o = r * width in
          for j = 0 to width - 1 do
            out.(base + j) <- p.(o + j)
          done;
          next ()
        done
      in
      (* factorized (when some column is dead): a seen set over (live
         input columns, canonical id) *)
      let live_base =
        Array.of_list (List.filter (fun i -> not (List.mem i dead)) (List.init base Fun.id))
      in
      let nl = Array.length live_base in
      let seen = Batch.Builder.create ~capacity:0 ~arity:(nl + 1) () in
      let key = Batch.Builder.scratch seen in
      let canon = ref [||] and factor = ref false in
      setups :=
        (fun n ->
          idx := index w;
          (* canonical ids cost a pass over the index: worth it once an
             application probes about as many rows as the index has
             groups, and free after that *)
          factor := dead <> [] && (Join_index.has_canon !idx || n >= Join_index.groups !idx);
          if !factor then begin
            canon := Join_index.canon !idx;
            Batch.Builder.clear seen
          end;
          payload := Join_index.payload !idx)
        :: !setups;
      (* When every dead column is a key column, distinct input rows that
         agree on the live columns meet distinct groups, so a group whose
         payload set is unique (negative canonical id) never repeats a
         pair. A one-row group costs no more to expand than to look up.
         Both expand without the seen set. *)
      let key_dead_only = List.for_all (fun i -> Array.mem i key_pos) dead in
      ( (fun () ->
          let g = Join_index.find !idx scratch key_pos in
          if g >= 0 then
            if
              (not !factor)
              || Join_index.stop !idx g - Join_index.start !idx g < 2
              || (key_dead_only && !canon.(g) < 0)
            then expand g
            else begin
              for i = 0 to nl - 1 do
                key.(i) <- scratch.(live_base.(i))
              done;
              key.(nl) <- !canon.(g);
              if Batch.Builder.add_scratch seen (Batch.hash_row key) then expand g
            end),
        live )
    | R_antiprobe { key_pos; index } :: rest ->
      let next, live = chain scratch rest in
      mark live key_pos;
      let idx = ref no_index in
      setups := (fun _ -> idx := index w) :: !setups;
      ((fun () -> if not (Join_index.mem !idx scratch key_pos) then next ()), live)
  in
  let scratch0 = Array.make in_arity 0 in
  let run, _ = chain scratch0 rops in
  let setups = !setups in
  fun input ->
    let n = Batch.length input in
    List.iter (fun f -> f n) setups;
    builder := Batch.Builder.create ~capacity:n ~arity:out_arity ();
    candidates := 0;
    let cols = Batch.cols input in
    for row = 0 to n - 1 do
      for c = 0 to in_arity - 1 do
        scratch0.(c) <- cols.(c).(row)
      done;
      run ()
    done;
    (Batch.Builder.batch !builder, !candidates)

let fuse_atoms ~cluster ~x_schema atoms : step list =
  let workers = Cluster.workers cluster in
  let rec group in_schema = function
    | [] -> []
    | A_exch { by; schema } :: rest -> Exch { by; schema } :: group schema rest
    | A_rop _ :: _ as l ->
      let rec collect rops ptrans out_schema = function
        | A_rop { rop; out_schema = os; ptrans = pt } :: rest ->
          let rops = match rop with Some r -> r :: rops | None -> rops in
          collect rops (fun p -> pt (ptrans p)) os rest
        | rest -> (List.rev rops, ptrans, out_schema, rest)
      in
      let rops, ptrans, out_schema, rest = collect [] Fun.id in_schema l in
      let in_arity = Schema.arity in_schema and out_arity = Schema.arity out_schema in
      let step =
        match rops with
        | [] when in_arity = out_arity ->
          (* schema-only segment (pure renames): the batch passes through *)
          Fuse { runners = Array.make workers (fun b -> (b, 0)); ptrans }
        | _ ->
          let runners = Array.init workers (fun w -> build_runner ~w ~in_arity ~out_arity rops) in
          Fuse { runners; ptrans }
      in
      step :: group out_schema rest
  in
  group x_schema atoms

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compile ~cluster ~var ~join_mode ~x_schema ~exec_const ~eval_const ~branch_path recs : t =
  let branches =
    List.mapi
      (fun i b ->
        let path = branch_path i in
        let atoms, out_schema, prepares =
          lower_branch ~cluster ~var ~join_mode ~x_schema ~exec_const ~eval_const ~path b
        in
        { steps = fuse_atoms ~cluster ~x_schema atoms; out_schema; prepares; path; label = op_label b })
      recs
  in
  { cluster; x_schema; arity = Schema.arity x_schema; branches }

(* ------------------------------------------------------------------ *)
(* Semi-naive driver over batches                                       *)
(* ------------------------------------------------------------------ *)

let total_rows (bs : Batch.t array) = Array.fold_left (fun acc b -> acc + Batch.length b) 0 bs

(* Run one fused stage on every worker: the output batches and the
   stage's candidate count. *)
let run_fused cluster (runners : runner array) (bs : Batch.t array) =
  let outs = Cluster.run_stage cluster (fun w -> runners.(w) bs.(w)) in
  (Array.map fst outs, Array.fold_left (fun acc (_, c) -> acc + c) 0 outs)

(* One application of a branch, inside the branch node's op span; the
   span's rows are the branch output and its candidates the rows its
   chains emitted (both summed over a fixpoint's iterations when the
   trace is folded by path). *)
let apply_branch cluster br (delta : Batch.t array) (delta_part : Dds.partitioning) :
    Batch.t array * Dds.partitioning =
  op_span ~path:br.path br.label @@ fun () ->
  List.iter (fun p -> p ()) br.prepares;
  let candidates = ref 0 in
  let bs, part =
    List.fold_left
      (fun (bs, part) step ->
        match step with
        | Exch { by; schema } ->
          if Dds.same_hashing part (Dds.Hashed by) then (bs, part)
          else (Dds.repartition_batches cluster bs ~schema ~by, Dds.Hashed by)
        | Fuse { runners; ptrans } ->
          let bs, c = run_fused cluster runners bs in
          candidates := !candidates + c;
          (bs, ptrans part))
      (delta, delta_part) br.steps
  in
  set_rows (total_rows bs);
  set_candidates !candidates;
  (bs, part)

let batches_of ~arity d =
  Array.init (Dds.num_partitions d) (fun w -> Batch.of_tset ~arity (Dds.partition d w))

let apply t d =
  match t.branches with
  | [] -> []
  | branches ->
    let delta = batches_of ~arity:t.arity d in
    List.map
      (fun br ->
        let bs, part = apply_branch t.cluster br delta (Dds.partitioning d) in
        Dds.of_partitions t.cluster ~schema:br.out_schema ~partitioning:part
          (Cluster.run_stage t.cluster (fun w -> Batch.to_tset bs.(w))))
      branches

(* Union the branch outputs into accumulator layout: per partition, a
   presized dedup builder over every branch's rows, permuted into
   [x_schema] order (reusing stored hashes when the permutation is the
   identity). Partitioning: the pairwise [same_hashing] fold over the
   branch partitionings, kept only when the first branch is already in
   accumulator order (as [Dds.set_union_local] followed by a relayout
   would label it). *)
let union_branches ~x_schema ~arity (outs : (Batch.t array * Dds.partitioning * Schema.t) list)
    cluster : Batch.t array * Dds.partitioning =
  match outs with
  | [] -> assert false
  | [ (bs, part, schema) ] when Schema.equal_ordered schema x_schema -> (bs, part)
  | (_, part0, schema0) :: rest ->
    let perms =
      List.map
        (fun (bs, _, schema) ->
          let perm = Schema.reorder_positions ~from:schema ~into:x_schema in
          let identity = ref true in
          Array.iteri (fun i p -> if p <> i then identity := false) perm;
          (bs, perm, !identity))
        outs
    in
    let merged =
      Cluster.run_stage cluster (fun w ->
          let cap = List.fold_left (fun acc (bs, _, _) -> acc + Batch.length bs.(w)) 0 perms in
          let bld = Batch.Builder.create ~capacity:cap ~arity () in
          let scratch = Batch.Builder.scratch bld in
          List.iter
            (fun (bs, perm, identity) ->
              let b = bs.(w) in
              let cols = Batch.cols b and hashes = Batch.hashes b in
              for row = 0 to Batch.length b - 1 do
                for c = 0 to arity - 1 do
                  scratch.(c) <- cols.(perm.(c)).(row)
                done;
                let h = if identity then hashes.(row) else Batch.hash_row scratch in
                ignore (Batch.Builder.add_scratch bld h)
              done)
            perms;
          Batch.Builder.batch bld)
    in
    let u_part =
      List.fold_left
        (fun p (_, p', _) -> if Dds.same_hashing p p' then p else Dds.Arbitrary)
        part0 rest
    in
    let final = if Schema.equal_ordered schema0 x_schema then u_part else Dds.Arbitrary in
    (merged, final)

let run t ~var ~plan_label ~x0 ~x0_private ?delta0 ~per_iter_by ?seen ~max_iterations ~max_tuples
    ~limit () : Dds.t * int * int list =
  let cluster = t.cluster in
  let workers = Cluster.workers cluster in
  let m = Cluster.metrics cluster in
  let arity = t.arity in
  let check_rows n =
    if n > max_tuples then
      raise (limit (Printf.sprintf "dataset exceeds %d tuples" max_tuples))
  in
  let acc =
    Array.init workers (fun w ->
        let p = Dds.partition x0 w in
        if x0_private then p else Tset.copy p)
  in
  let acc_part = ref (Dds.partitioning x0) in
  (* resume entry point: [delta0] restarts the loop with a given frontier
     (already absorbed into [x0] by the caller) instead of the whole
     accumulator — the incremental-maintenance path *)
  let d0 = match delta0 with Some d -> d | None -> x0 in
  let delta = ref (batches_of ~arity d0) in
  let delta_part = ref (Dds.partitioning d0) in
  let iterations = ref 0 in
  let deltas = ref [] in
  let continue = ref true in
  while !continue do
    incr iterations;
    if !iterations > max_iterations then
      raise (limit (Printf.sprintf "max iterations exceeded (%s)" plan_label));
    Trace.span (Trace.get ()) ~cat:"fixpoint"
      ~attrs:[ ("var", Trace.Str var); ("i", Trace.Int !iterations) ]
      "iteration"
    @@ fun () ->
    Metrics.record_superstep m;
    let outs =
      List.map
        (fun br ->
          let bs, part = apply_branch cluster br !delta !delta_part in
          (bs, part, br.out_schema))
        t.branches
    in
    let produced, produced_part = union_branches ~x_schema:t.x_schema ~arity outs cluster in
    check_rows (total_rows produced);
    let produced, produced_part =
      match per_iter_by with
      | None -> (produced, produced_part)
      | Some by ->
        if Dds.same_hashing produced_part (Dds.Hashed by) then (produced, produced_part)
        else (Dds.repartition_batches ?seen cluster produced ~schema:t.x_schema ~by, Dds.Hashed by)
    in
    (* absorb: one probe per produced row against the accumulator,
       reusing the stored hash; fresh rows become the next delta *)
    let fresh =
      Cluster.run_stage cluster (fun w ->
          let b = produced.(w) in
          let n = Batch.length b in
          Tset.reserve acc.(w) (Tset.cardinal acc.(w) + n);
          let out = Batch.create ~capacity:(max 1 n) ~arity () in
          let cols = Batch.cols b and hashes = Batch.hashes b in
          for row = 0 to n - 1 do
            if Tset.add_cols acc.(w) cols ~row ~hash:hashes.(row) then Batch.push_row out b row
          done;
          out)
    in
    acc_part := (if Dds.same_hashing !acc_part produced_part then !acc_part else Dds.Arbitrary);
    let fresh_n = total_rows fresh in
    deltas := fresh_n :: !deltas;
    if fresh_n = 0 then continue := false
    else begin
      check_rows (Array.fold_left (fun a p -> a + Tset.cardinal p) 0 acc);
      delta := fresh;
      delta_part := produced_part
    end
  done;
  ( Dds.of_partitions cluster ~schema:t.x_schema ~partitioning:!acc_part acc,
    !iterations,
    List.rev !deltas )

(* ------------------------------------------------------------------ *)
(* Whole-plan shell compilation                                        *)
(* ------------------------------------------------------------------ *)

(* The non-fixpoint shell around [Fix] nodes compiles to the same fused
   chains as the recursive branches: [Exec] lowers each operator onto a
   [chain] — per-worker batches plus a pending [rop] list — and
   materializes only where values are observed (join/antijoin size
   decisions, exchanges, unions, the root). *)
module Shell = struct
  (* A shell value: per-worker batches with a pending fused-operator
     suffix. [c_rehash] tracks whether any pending op changes row
     content (project/probe) — if not, materialization preserves rows
     and reuses their stored hashes, and needs no dedup (the base
     partitions are already sets). *)
  type chain = {
    c_base : Batch.t array;
    c_base_schema : Schema.t;
    c_rops : rop list;  (* pending, in application order *)
    c_schema : Schema.t;  (* schema after the pending ops *)
    c_part : Dds.partitioning;
    c_rehash : bool;
  }

  let of_batches ~schema ~part base =
    {
      c_base = base;
      c_base_schema = schema;
      c_rops = [];
      c_schema = schema;
      c_part = part;
      c_rehash = false;
    }

  let of_dds cluster d =
    let arity = Schema.arity (Dds.schema d) in
    let base = Cluster.run_stage cluster (fun w -> Batch.of_tset ~arity (Dds.partition d w)) in
    of_batches ~schema:(Dds.schema d) ~part:(Dds.partitioning d) base

  let schema c = c.c_schema
  let part c = c.c_part
  let set_part c p = { c with c_part = p }
  let is_mat c = c.c_rops = []

  let rows c =
    assert (is_mat c);
    total_rows c.c_base

  let batches c =
    assert (is_mat c);
    c.c_base

  let empty_like c =
    let arity = Schema.arity c.c_schema in
    of_batches ~schema:c.c_schema ~part:c.c_part
      (Array.map (fun _ -> Batch.create ~capacity:1 ~arity ()) c.c_base)

  (* Pending-op fusers. Positions are relative to [c_schema] (the schema
     after the already-pending ops), so fused suffixes compose. *)
  let filter p c = { c with c_rops = c.c_rops @ [ filter_rop c.c_schema p ] }

  let rename_cols m c =
    { c with c_schema = Schema.rename m c.c_schema; c_part = rename_partitioning m c.c_part }

  let project keep c =
    let pos = Schema.positions c.c_schema keep in
    {
      c with
      c_rops = c.c_rops @ [ R_project pos ];
      c_schema = Schema.restrict c.c_schema keep;
      c_part = project_partitioning keep c.c_part;
      c_rehash = true;
    }

  let probe ~key_pos ~width ~out_schema ~index c =
    {
      c with
      c_rops = c.c_rops @ [ R_probe { key_pos; width; index } ];
      c_schema = out_schema;
      c_rehash = true;
    }

  let antiprobe ~key_pos ~index c =
    { c with c_rops = c.c_rops @ [ R_antiprobe { key_pos; index } ] }

  let reorder ~into c =
    if Schema.equal_ordered c.c_schema into then c
    else
      let perm = Schema.reorder_positions ~from:c.c_schema ~into in
      { c with c_rops = c.c_rops @ [ R_project perm ]; c_schema = into; c_rehash = true }

  (* Content-preserving pass (filters/antiprobes only): surviving rows
     are copied verbatim with their stored hashes; the output stays
     duplicate-free because the base partitions are sets. *)
  let run_keep ~w ~arity (rops : rop list) (b : Batch.t) : Batch.t =
    let scratch = Array.make arity 0 in
    let preds =
      List.map
        (function
          | R_filter { pred; _ } -> fun () -> pred scratch
          | R_antiprobe { key_pos; index } ->
            let idx = index w in
            fun () -> not (Join_index.mem idx scratch key_pos)
          | R_project _ | R_probe _ -> assert false)
        rops
    in
    let n = Batch.length b in
    let out = Batch.create ~capacity:(max 1 n) ~arity () in
    let cols = Batch.cols b in
    for row = 0 to n - 1 do
      for c = 0 to arity - 1 do
        scratch.(c) <- cols.(c).(row)
      done;
      if List.for_all (fun p -> p ()) preds then Batch.push_row out b row
    done;
    out

  (* A rehashing chain runs through [build_runner] and reports its
     candidates on the enclosing span. *)
  let materialize cluster c =
    if is_mat c then c
    else begin
      let in_arity = Schema.arity c.c_base_schema in
      let out_arity = Schema.arity c.c_schema in
      let outs =
        if not c.c_rehash then
          Cluster.run_stage cluster (fun w -> run_keep ~w ~arity:in_arity c.c_rops c.c_base.(w))
        else begin
          let runners =
            Array.init (Array.length c.c_base) (fun w ->
                build_runner ~w ~in_arity ~out_arity c.c_rops)
          in
          let outs, candidates = run_fused cluster runners c.c_base in
          set_candidates candidates;
          outs
        end
      in
      { c with c_base = outs; c_base_schema = c.c_schema; c_rops = []; c_rehash = false }
    end

  (* Charged batch repartition; the caller applies the [same_hashing]
     no-op rule, mirroring [Dds.repartition]. *)
  let repartition cluster c ~by =
    let c = materialize cluster c in
    {
      c with
      c_base = Dds.repartition_batches cluster c.c_base ~schema:c.c_schema ~by;
      c_part = Dds.Hashed by;
    }

  (* Per-worker union into the left chain's layout through a presized
     dedup builder, mirroring [Dds.set_union_local]: stored hashes are
     reused on the left side (and on the right when the permutation is
     the identity), and the output partitioning follows the
     [same_hashing] fold. *)
  let union cluster a b =
    let a = materialize cluster a and b = materialize cluster b in
    let arity = Schema.arity a.c_schema in
    let perm = Schema.reorder_positions ~from:b.c_schema ~into:a.c_schema in
    let identity = ref true in
    Array.iteri (fun i p -> if p <> i then identity := false) perm;
    let identity = !identity in
    let merged =
      Cluster.run_stage cluster (fun w ->
          let ba = a.c_base.(w) and bb = b.c_base.(w) in
          let bld =
            Batch.Builder.create ~capacity:(Batch.length ba + Batch.length bb) ~arity ()
          in
          let scratch = Batch.Builder.scratch bld in
          let acols = Batch.cols ba and ahash = Batch.hashes ba in
          for row = 0 to Batch.length ba - 1 do
            for c = 0 to arity - 1 do
              scratch.(c) <- acols.(c).(row)
            done;
            ignore (Batch.Builder.add_scratch bld ahash.(row))
          done;
          let bcols = Batch.cols bb and bhash = Batch.hashes bb in
          for row = 0 to Batch.length bb - 1 do
            for c = 0 to arity - 1 do
              scratch.(c) <- bcols.(perm.(c)).(row)
            done;
            let h = if identity then bhash.(row) else Batch.hash_row scratch in
            ignore (Batch.Builder.add_scratch bld h)
          done;
          Batch.Builder.batch bld)
    in
    let part = if Dds.same_hashing a.c_part b.c_part then a.c_part else Dds.Arbitrary in
    of_batches ~schema:a.c_schema ~part merged

  let to_dds cluster c =
    let c = materialize cluster c in
    let parts = Cluster.run_stage cluster (fun w -> Batch.to_tset c.c_base.(w)) in
    Dds.of_partitions cluster ~schema:c.c_schema ~partitioning:c.c_part parts
end
