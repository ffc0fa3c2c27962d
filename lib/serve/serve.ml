module Term = Mura.Term
module Normal = Mura.Normal
module Rel = Relation.Rel
module Schema = Relation.Schema
module Pred = Relation.Pred
module Exec = Physical.Exec
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics
module Hist = Metrics.Hist

let now_ns () = Unix.gettimeofday () *. 1e9

module Session = struct
  type t = { id : int; name : string; mutable closed : bool }

  let id s = s.id
  let name s = s.name
end

(* What a cached computation reads of the catalog. A read guarded by
   [σ[c = v ∧ …](R)] depends only on the tuples of [R] whose column [c]
   holds [v], i.e. on [Key (R, c, v)]; any other occurrence of [R]
   depends on all of it. *)
module Dep = struct
  type t = Rel of string | Key of string * string * Relation.Value.t

  let rel = function Rel r | Key (r, _, _) -> r

  let rec eq_conjunct = function
    | Pred.Eq_const (c, v) -> Some (c, v)
    | Pred.And (a, b) -> ( match eq_conjunct a with Some _ as k -> k | None -> eq_conjunct b)
    | _ -> None

  let of_term term =
    let deps = ref [] in
    let add d = if not (List.mem d !deps) then deps := d :: !deps in
    let rec walk = function
      | Term.Rel r -> add (Rel r)
      | Term.Select (p, Term.Rel r) ->
        add (match eq_conjunct p with Some (c, v) -> Key (r, c, v) | None -> Rel r)
      | Term.Var _ | Term.Cst _ -> ()
      | Term.Select (_, u) | Term.Project (_, u) | Term.Antiproject (_, u) | Term.Rename (_, u)
      | Term.Fix (_, u) ->
        walk u
      | Term.Join (a, b) | Term.Antijoin (a, b) | Term.Union (a, b) ->
        walk a;
        walk b
    in
    walk term;
    List.rev !deps
end

(* A one-shot promise: the first evaluator to need a piece of work
   registers one; everyone else blocks on it. Failures propagate so a
   crashed owner never strands its waiters. *)
type promise = {
  pm : Mutex.t;
  pc : Condition.t;
  mutable state : [ `Pending | `Done of Rel.t | `Failed of exn ];
  p_deps : Dep.t list;  (* what the computation reads *)
}

let promise_make deps =
  { pm = Mutex.create (); pc = Condition.create (); state = `Pending; p_deps = deps }

let promise_fulfill p st =
  Mutex.lock p.pm;
  p.state <- st;
  Condition.broadcast p.pc;
  Mutex.unlock p.pm

let promise_await p =
  Mutex.lock p.pm;
  while (match p.state with `Pending -> true | _ -> false) do
    Condition.wait p.pc p.pm
  done;
  let st = p.state in
  Mutex.unlock p.pm;
  match st with `Done r -> r | `Failed e -> raise e | `Pending -> assert false

(* Remove our own registration [v] of [key] from [tbl] — unless an
   invalidation purged it and a later evaluator installed a fresh one. *)
let unpublish tbl key v =
  match Hashtbl.find_opt tbl key with Some v' when v' == v -> Hashtbl.remove tbl key | _ -> ()

type centry = {
  c_rel : Rel.t;
  c_deps : Dep.t list;
  c_bytes : int;
  mutable c_last_use : int;
}

type pentry = { pl_term : Term.t; pl_deps : Dep.t list; mutable pl_last_use : int }

type pending = { q_session : int; q_seq : int; mutable q_admitted : bool }

(* Forensic record of a query that breached the slow threshold. *)
type slow_query = {
  sq_query : int;
  sq_session : string;
  sq_key : string;  (* normalized term key *)
  sq_plans : string list;  (* fixpoint plans chosen, evaluation order *)
  sq_iterations : int;
  sq_stages : int;
  sq_straggler_mean : float;  (* mean per-stage max/median worker-time ratio *)
  sq_wait_ns : float;
  sq_total_ns : float;
  sq_plan_hit : bool;
  sq_result_hit : bool;
  sq_shared : bool;
  sq_fix_hits : int;
  sq_sampled : bool;  (* a full trace was captured for this query *)
}

(* A sampled query's captured trace (events carrying its query id). *)
type query_trace = {
  qt_query : int;
  qt_session : string;
  qt_key : string;
  qt_events : Trace.event list;
}

(* A live incremental-repair handle: the converged accumulator of a
   cached fixpoint, kept resident on the workers after the cache entry
   itself is invalidated by an [update] that hits one of its
   dependencies. That update's delta is parked here; the next miss
   replays it through [Exec.Incr.update] — paying only the differential
   resume — instead of recomputing from scratch. Batches that hit none
   of its dependencies change no tuple the fixpoint reads, so the handle
   ignores them.

   Pending deltas are a net (inserts, deletes) pair per relation with
   delete-before-insert apply semantics. Folding an arriving batch
   (i, d) into the net (I, D) preserves arrival order:
   I' = (I \ d) ∪ i and D' = (D \ i) ∪ d — a tuple's final presence is
   decided by the last batch that mentions it. *)
type rhandle = {
  r_handle : Exec.Incr.handle;
  r_deps : Dep.t list;
  mutable r_ins : (string * Rel.t) list;  (* pending net inserts *)
  mutable r_del : (string * Rel.t) list;  (* pending net deletes *)
  mutable r_last_use : int;
}

type t = {
  cluster : Cluster.t;
  exec_config : Exec.config;
  max_inflight : int;
  plan_capacity : int;
  cache_budget : int;
  max_plans : int;
  lock : Mutex.t;  (* guards every mutable field below *)
  admit_cond : Condition.t;
  cluster_lock : Mutex.t;
      (* serializes actual cluster execution segments; never held while
         waiting on a promise or on admission *)
  mutable tbl : (string * Rel.t) list;
  mutable version : int;
  versions : (Dep.t, int) Hashtbl.t;
      (* dependency -> version of the last update that changed it; a
         [Key] no in-flight evaluation can consult any more is pruned *)
  registered : (string, int) Hashtbl.t;  (* name -> version at last register *)
  mutable snapshots : int list;  (* catalog versions of the evaluations in flight *)
  sessions : (int, Session.t) Hashtbl.t;
  served : (int, int) Hashtbl.t;  (* session id -> evaluations admitted so far *)
  mutable next_session : int;
  mutable next_seq : int;
  mutable pending : pending list;  (* arrival order *)
  mutable inflight : int;
  plan_cache : (string, pentry) Hashtbl.t;
  result_cache : (string, centry) Hashtbl.t;
  mutable cache_bytes : int;
  max_repair_handles : int;  (* 0 disables incremental repair *)
  repair_frac : float;  (* pending-delta / base-size fallback threshold *)
  repair : (string, rhandle) Hashtbl.t;  (* fix normal key -> live handle *)
  q_promises : (string, promise) Hashtbl.t;
      (* whole-query in-flight evaluations, by normal key of the input *)
  f_promises : (string, promise) Hashtbl.t;
      (* in-flight fixpoint subterms, by normal key of the Fix term. Kept
         separate from [q_promises]: a query that IS a closed fixpoint
         registers its whole-query promise under the same key its own
         fixpoint resolution will look up — one shared table would make
         the owner wait on itself *)
  mutable clock : int;  (* LRU use counter *)
  wait_h : Hist.t;
  latency_h : Hist.t;
  mutable closed : bool;
  (* telemetry: query ids, trace sampling, slow-query log *)
  mutable next_query : int;  (* query ids, assigned at submission *)
  sampler : Telemetry.Sampler.t;
  qtracer : Trace.t option;
      (* server-owned tracer for sampled queries; installed as the
         ambient tracer only while sampled evaluations are in flight and
         only when no user tracer is active *)
  mutable capture_refs : int;  (* sampled evaluations in flight *)
  trace_capacity : int;
  mutable traces : query_trace list;  (* newest first, bounded *)
  slow_capacity : int;
  mutable slow_log : slow_query list;  (* newest first, bounded *)
  (* counters *)
  mutable c_submitted : int;
  mutable c_completed : int;
  mutable c_failed : int;
  mutable c_result_hits : int;
  mutable c_shared_joins : int;
  mutable c_result_misses : int;
  mutable c_plan_hits : int;
  mutable c_plan_misses : int;
  mutable c_fix_evals : int;
  mutable c_fix_hits : int;
  mutable c_fix_shared : int;
  mutable c_invalidated : int;
  mutable c_evictions : int;
  mutable c_slow : int;
  mutable c_traces : int;
  mutable c_repaired : int;
  mutable c_repair_fallbacks : int;
}

let create ?(max_inflight = 1) ?(plan_cache_capacity = 128)
    ?(result_cache_bytes = 64 * 1024 * 1024) ?(max_plans = 120) ?(sample_every = 0)
    ?(slow_threshold_ms = infinity) ?(slow_log_capacity = 64) ?(max_repair_handles = 32)
    ?(repair_max_delta_frac = 0.5) ?config ~cluster () =
  if max_inflight < 1 then invalid_arg "Serve.create: max_inflight < 1";
  if max_repair_handles < 0 then invalid_arg "Serve.create: max_repair_handles < 0";
  if repair_max_delta_frac < 0. then invalid_arg "Serve.create: repair_max_delta_frac < 0";
  let exec_config =
    match config with
    | Some c -> { c with Exec.cluster }
    | None -> Exec.default_config cluster
  in
  let qtracer =
    if sample_every > 0 then begin
      let qtr = Trace.make () in
      (* wire the simulated clock like Cluster.make does for --trace, so
         captured per-query traces are deterministic in sequential mode *)
      Trace.set_sim_clock qtr (fun () -> (Cluster.metrics cluster).Metrics.sim_time_ns);
      Some qtr
    end
    else None
  in
  {
    cluster;
    exec_config;
    max_inflight;
    plan_capacity = plan_cache_capacity;
    cache_budget = result_cache_bytes;
    max_plans;
    lock = Mutex.create ();
    admit_cond = Condition.create ();
    cluster_lock = Mutex.create ();
    tbl = [];
    version = 0;
    versions = Hashtbl.create 64;
    registered = Hashtbl.create 16;
    snapshots = [];
    sessions = Hashtbl.create 16;
    served = Hashtbl.create 16;
    next_session = 0;
    next_seq = 0;
    pending = [];
    inflight = 0;
    plan_cache = Hashtbl.create 64;
    result_cache = Hashtbl.create 64;
    cache_bytes = 0;
    max_repair_handles;
    repair_frac = repair_max_delta_frac;
    repair = Hashtbl.create 16;
    q_promises = Hashtbl.create 16;
    f_promises = Hashtbl.create 16;
    clock = 0;
    wait_h = Hist.create ();
    latency_h = Hist.create ();
    closed = false;
    next_query = 0;
    sampler =
      Telemetry.Sampler.make ~slow_threshold_ns:(slow_threshold_ms *. 1e6) ~every:sample_every ();
    qtracer;
    capture_refs = 0;
    trace_capacity = 32;
    traces = [];
    slow_capacity = max 0 slow_log_capacity;
    slow_log = [];
    c_submitted = 0;
    c_completed = 0;
    c_failed = 0;
    c_result_hits = 0;
    c_shared_joins = 0;
    c_result_misses = 0;
    c_plan_hits = 0;
    c_plan_misses = 0;
    c_fix_evals = 0;
    c_fix_hits = 0;
    c_fix_shared = 0;
    c_invalidated = 0;
    c_evictions = 0;
    c_slow = 0;
    c_traces = 0;
    c_repaired = 0;
    c_repair_fallbacks = 0;
  }

let cluster t = t.cluster

(* ------------------------------------------------------------------ *)
(* Telemetry feed (ambient registry; strict no-ops when disabled)      *)
(* ------------------------------------------------------------------ *)

let tele_cache ~cache event =
  let r = Telemetry.get () in
  if Telemetry.enabled r then
    Telemetry.inc r ~labels:[ ("cache", cache); ("event", event) ] "serve_cache_total"

let tele_done ~outcome ~session_name ~wait_ns ~latency_ns =
  let r = Telemetry.get () in
  if Telemetry.enabled r then begin
    Telemetry.inc r ~labels:[ ("outcome", outcome) ] "serve_queries_total";
    Telemetry.observe r ~labels:[ ("session", session_name) ] "serve_query_latency_ns" latency_ns;
    if wait_ns > 0. then Telemetry.observe r "serve_admission_wait_ns" wait_ns
  end

let tele_repair ~ns =
  let r = Telemetry.get () in
  if Telemetry.enabled r then begin
    Telemetry.inc r "serve_cache_repaired_total";
    Telemetry.observe r "serve_repair_ns" ns
  end

let tele_repair_fallback ~reason =
  let r = Telemetry.get () in
  if Telemetry.enabled r then
    Telemetry.inc r ~labels:[ ("reason", reason) ] "serve_repair_fallback_total"

(* gauges of the admission queue and result cache; [t.lock] held *)
let tele_gauges t =
  let r = Telemetry.get () in
  if Telemetry.enabled r then begin
    Telemetry.set r "serve_inflight" (float_of_int t.inflight);
    Telemetry.set r "serve_queued" (float_of_int (List.length t.pending));
    Telemetry.set r "serve_result_cache_bytes" (float_of_int t.cache_bytes);
    Telemetry.set r "serve_result_cache_entries" (float_of_int (Hashtbl.length t.result_cache))
  end

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Mutex.unlock t.lock;
  Cluster.shutdown t.cluster

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let open_session ?(name = "") t =
  Mutex.lock t.lock;
  t.next_session <- t.next_session + 1;
  let id = t.next_session in
  let name = if name = "" then Printf.sprintf "session-%d" id else name in
  let s = { Session.id; name; closed = false } in
  Hashtbl.replace t.sessions id s;
  Mutex.unlock t.lock;
  s

let close_session t (s : Session.t) =
  Mutex.lock t.lock;
  s.Session.closed <- true;
  Hashtbl.remove t.sessions s.Session.id;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Catalog and invalidation                                            *)
(* ------------------------------------------------------------------ *)

(* Nothing [deps] names changed after catalog version [v0]: a
   dependency last changed with the last update that hit it or the last
   [register] of its relation, whichever is later. *)
let fresh t ~v0 deps =
  let find tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  List.for_all (fun d -> max (find t.versions d) (find t.registered (Dep.rel d)) <= v0) deps

(* With [t.lock] held: drop the cached results (and plans, if [plans]),
   in-flight promises and repair handles that read a dependency [hit]
   selects. A hit handle survives if [absorb] takes the change on as
   pending work. Dropping a promise only stops new waiters from joining
   an evaluation over the old contents; its owner still fulfills it for
   the waiters that attached before. *)
let invalidate t ~hit ~plans ~absorb =
  (* drop each binding that reads a hit dependency and that [drop] lets go *)
  let sweep tbl deps drop =
    Hashtbl.filter_map_inplace
      (fun _ e -> if List.exists hit (deps e) && drop e then None else Some e)
      tbl
  in
  let counted _ =
    t.c_invalidated <- t.c_invalidated + 1;
    true
  in
  sweep t.result_cache
    (fun e -> e.c_deps)
    (fun e ->
      t.cache_bytes <- t.cache_bytes - e.c_bytes;
      counted e);
  if plans then sweep t.plan_cache (fun e -> e.pl_deps) counted;
  sweep t.q_promises (fun p -> p.p_deps) (fun _ -> true);
  sweep t.f_promises (fun p -> p.p_deps) (fun _ -> true);
  sweep t.repair (fun h -> h.r_deps) (fun h -> not (absorb h))

(* A full replacement hits every dependency on [name] and severs the
   delta chain: a handle's catalog has no net delta to the new contents,
   so its handles are dropped. *)
let register t name rel =
  Mutex.lock t.lock;
  t.version <- t.version + 1;
  Hashtbl.replace t.registered name t.version;
  t.tbl <- (name, rel) :: List.remove_assoc name t.tbl;
  invalidate t ~hit:(fun d -> Dep.rel d = name) ~plans:true ~absorb:(fun _ -> false);
  Mutex.unlock t.lock

(* Fold an arriving (inserts, deletes) batch for [name] into the net
   pending pair, preserving arrival order (see [rhandle]). *)
let merge_pending ~name ~ins ~del (pi, pd) =
  let fold pending ~minus ~plus =
    let rest = List.remove_assoc name pending in
    let r =
      match List.assoc_opt name pending with
      | Some p -> Rel.union (Rel.diff p minus) plus
      | None -> plus
    in
    if Rel.is_empty r then rest else (name, r) :: rest
  in
  (fold pi ~minus:del ~plus:ins, fold pd ~minus:ins ~plus:del)

(* Register an edge-batch update to [name]. Only the net change counts:
   inserts not already resident and resident deletes. It hits
   [Dep.Rel name] and, for every column [c] of every changed tuple,
   [Dep.Key (name, c, tuple.(c))]. The cached results that read a hit
   dependency are dropped (they must never be served stale) — but their
   live repair handles absorb the delta as pending work instead of being
   forgotten, so the next miss on such a fixpoint pays only the
   differential resume. Plan-cache entries survive: a rewritten term
   stays semantically valid under any catalog contents. *)
let update ?inserts ?deletes t name =
  Mutex.lock t.lock;
  match List.assoc_opt name t.tbl with
  | None ->
    Mutex.unlock t.lock;
    invalid_arg (Printf.sprintf "Serve.update: unknown relation %s" name)
  | Some base ->
    let check what = function
      | Some r when not (Schema.equal_names (Rel.schema r) (Rel.schema base)) ->
        Mutex.unlock t.lock;
        invalid_arg (Printf.sprintf "Serve.update: %s schema mismatch for %s" what name)
      | _ -> ()
    in
    check "insert" inserts;
    check "delete" deletes;
    t.version <- t.version + 1;
    let none = Rel.create (Rel.schema base) in
    let ins = match inserts with Some i -> Rel.diff i base | None -> none in
    let del =
      match deletes with
      | Some d -> Rel.diff (Rel.inter d base) (Option.value inserts ~default:none)
      | None -> none
    in
    if not (Rel.is_empty ins && Rel.is_empty del) then begin
      let kept = if Rel.is_empty del then base else Rel.diff base del in
      let updated = if Rel.is_empty ins then kept else Rel.union kept ins in
      t.tbl <- (name, updated) :: List.remove_assoc name t.tbl;
      (* every freshness check to come runs at a snapshot no older than
         [oldest], so a key version at or below it can be forgotten *)
      let oldest = List.fold_left min t.version t.snapshots in
      Hashtbl.filter_map_inplace
        (fun d v -> match d with Dep.Key _ when v <= oldest -> None | _ -> Some v)
        t.versions;
      let hit = Hashtbl.create 16 in
      let touch r =
        let cols = Schema.to_array (Rel.schema r) in
        Rel.iter
          (fun tu -> Array.iteri (fun i c -> Hashtbl.replace hit (Dep.Key (name, c, tu.(i))) ()) cols)
          r
      in
      touch ins;
      touch del;
      Hashtbl.replace hit (Dep.Rel name) ();
      Hashtbl.iter (fun d () -> Hashtbl.replace t.versions d t.version) hit;
      invalidate t ~hit:(Hashtbl.mem hit) ~plans:false ~absorb:(fun h ->
          let pi, pd = merge_pending ~name ~ins ~del (h.r_ins, h.r_del) in
          h.r_ins <- pi;
          h.r_del <- pd;
          true)
    end;
    Mutex.unlock t.lock

let graph_version t =
  Mutex.lock t.lock;
  let v = t.version in
  Mutex.unlock t.lock;
  v

let relation t name =
  Mutex.lock t.lock;
  let r = List.assoc_opt name t.tbl in
  Mutex.unlock t.lock;
  r

let tables t =
  Mutex.lock t.lock;
  let l = t.tbl in
  Mutex.unlock t.lock;
  l

(* ------------------------------------------------------------------ *)
(* Result cache (LRU over a byte budget)                               *)
(* ------------------------------------------------------------------ *)

let rel_bytes rel =
  let arity = List.length (Schema.cols (Rel.schema rel)) in
  64 + (Metrics.tuple_bytes arity * Rel.cardinal rel)

(* all cache helpers run with [t.lock] held *)

let cache_find t key =
  match Hashtbl.find_opt t.result_cache key with
  | Some e ->
    t.clock <- t.clock + 1;
    e.c_last_use <- t.clock;
    Some e.c_rel
  | None -> None

(* the least-recently-used binding of [tbl] *)
let lru_victim tbl last_use =
  Hashtbl.fold
    (fun k e acc ->
      match acc with Some (_, e') when last_use e' <= last_use e -> acc | _ -> Some (k, e))
    tbl None

let evict_lru t =
  match lru_victim t.result_cache (fun e -> e.c_last_use) with
  | None -> t.cache_bytes <- 0
  | Some (k, e) ->
    Hashtbl.remove t.result_cache k;
    t.cache_bytes <- t.cache_bytes - e.c_bytes;
    t.c_evictions <- t.c_evictions + 1

(* Cache a result computed against the catalog as of version [v0] —
   unless one of its dependencies changed since (the result would be
   stale) or it alone exceeds the whole budget. *)
let cache_store t ~key ~deps ~v0 rel =
  if fresh t ~v0 deps && not (Hashtbl.mem t.result_cache key) then begin
    let bytes = rel_bytes rel in
    if bytes <= t.cache_budget then begin
      t.clock <- t.clock + 1;
      Hashtbl.replace t.result_cache key
        { c_rel = rel; c_deps = deps; c_bytes = bytes; c_last_use = t.clock };
      t.cache_bytes <- t.cache_bytes + bytes;
      while t.cache_bytes > t.cache_budget do
        evict_lru t
      done
    end
  end

(* ------------------------------------------------------------------ *)
(* Plan cache (LRU over an entry count)                                *)
(* ------------------------------------------------------------------ *)

let plan_find t key =
  match Hashtbl.find_opt t.plan_cache key with
  | Some e ->
    t.clock <- t.clock + 1;
    e.pl_last_use <- t.clock;
    Some e.pl_term
  | None -> None

let plan_store t key term deps =
  if not (Hashtbl.mem t.plan_cache key) then begin
    t.clock <- t.clock + 1;
    Hashtbl.replace t.plan_cache key { pl_term = term; pl_deps = deps; pl_last_use = t.clock };
    while Hashtbl.length t.plan_cache > t.plan_capacity do
      Option.iter
        (fun (k, _) -> Hashtbl.remove t.plan_cache k)
        (lru_victim t.plan_cache (fun e -> e.pl_last_use))
    done
  end

(* ------------------------------------------------------------------ *)
(* Fair admission                                                      *)
(* ------------------------------------------------------------------ *)

let fair_pick ~served pending =
  List.fold_left
    (fun best (s, q) ->
      match best with
      | None -> Some (s, q)
      | Some (bs, bq) ->
        if (served s, q) < (served bs, bq) then Some (s, q) else best)
    None pending

let served_count t sid =
  match Hashtbl.find_opt t.served sid with Some n -> n | None -> 0

(* with [t.lock] held: admit pending entries while slots are free *)
let rec schedule t =
  if t.inflight < t.max_inflight && t.pending <> [] then begin
    match
      fair_pick
        ~served:(served_count t)
        (List.map (fun p -> (p.q_session, p.q_seq)) t.pending)
    with
    | None -> ()
    | Some (_, seq) ->
      let chosen = List.find (fun p -> p.q_seq = seq) t.pending in
      t.pending <- List.filter (fun p -> p.q_seq <> seq) t.pending;
      chosen.q_admitted <- true;
      t.inflight <- t.inflight + 1;
      Hashtbl.replace t.served chosen.q_session (served_count t chosen.q_session + 1);
      Condition.broadcast t.admit_cond;
      schedule t
  end

(* blocks until admitted; returns the time spent queued *)
let admit t sid =
  let t0 = now_ns () in
  Mutex.lock t.lock;
  t.next_seq <- t.next_seq + 1;
  let me = { q_session = sid; q_seq = t.next_seq; q_admitted = false } in
  t.pending <- t.pending @ [ me ];
  schedule t;
  tele_gauges t;
  while not me.q_admitted do
    Condition.wait t.admit_cond t.lock
  done;
  tele_gauges t;
  Mutex.unlock t.lock;
  now_ns () -. t0

let release t =
  Mutex.lock t.lock;
  t.inflight <- t.inflight - 1;
  schedule t;
  tele_gauges t;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let optimize_term t tbl term =
  let tenv = Mura.Typing.env (List.map (fun (n, r) -> (n, Rel.schema r)) tbl) in
  let stats = Cost.Stats.of_tables tbl in
  Rewrite.Engine.optimize ~max_plans:t.max_plans ~cost:(Cost.Estimate.cost stats) tenv term

(* per-evaluation accounting, folded into the response and (for queries
   breaching the slow threshold) the slow-query log *)
type eval_stats = {
  mutable e_iters : int;
  mutable e_fix_hits : int;
  mutable e_repaired : int;  (* fixpoints answered by incremental repair *)
  mutable e_plans : string list;  (* fixpoint plans chosen, reverse order *)
  mutable e_stages : int;  (* cluster stages this evaluation ran *)
  mutable e_strag_sum : float;  (* sum of per-stage straggler ratios *)
  mutable e_strag_n : int;
}

let eval_stats_make () =
  {
    e_iters = 0;
    e_fix_hits = 0;
    e_repaired = 0;
    e_plans = [];
    e_stages = 0;
    e_strag_sum = 0.;
    e_strag_n = 0;
  }

(* One cluster segment. Admission bounds how many evaluators exist; this
   lock makes stage interleaving impossible even with max_inflight > 1
   (the Cluster.Concurrent_dispatch guard would reject it loudly).
   Holding the cluster lock also makes the per-segment deltas of the
   shared cluster metrics (stages, straggler ratios) attributable to
   this evaluation. *)
let on_cluster t ~st span f =
  Mutex.lock t.cluster_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.cluster_lock) @@ fun () ->
  let m = Cluster.metrics t.cluster in
  let stages0 = m.Metrics.stages in
  let strag_sum0 = Hist.total m.Metrics.straggler in
  let strag_n0 = Hist.count m.Metrics.straggler in
  let res = Trace.span (Trace.get ()) ~cat:"serve" span f in
  st.e_stages <- st.e_stages + (m.Metrics.stages - stages0);
  st.e_strag_sum <- st.e_strag_sum +. (Hist.total m.Metrics.straggler -. strag_sum0);
  st.e_strag_n <- st.e_strag_n + (Hist.count m.Metrics.straggler - strag_n0);
  res

let record_fixpoints st reports =
  List.iter
    (fun (fr : Exec.fix_report) ->
      st.e_iters <- st.e_iters + fr.iterations;
      st.e_plans <- Exec.plan_name fr.Exec.plan :: st.e_plans)
    reports

let exec_on_cluster t ~tbl ~st term =
  on_cluster t ~st "serve.eval" @@ fun () ->
  let ctx = Exec.session t.exec_config tbl in
  let rel = Exec.run ctx term in
  record_fixpoints st (Exec.report ctx).Exec.fixpoints;
  rel

(* ------------------------------------------------------------------ *)
(* Incremental repair of cached fixpoints                              *)
(* ------------------------------------------------------------------ *)

(* with [t.lock] held: evict the least-recently-used repair handle *)
let evict_repair_lru t =
  Option.iter
    (fun (k, _) -> Hashtbl.remove t.repair k)
    (lru_victim t.repair (fun h -> h.r_last_use))

(* Try to answer a missed fixpoint from its live repair handle by
   replaying the pending delta through [Exec.Incr.update]. [Some rel]
   reflects the handle's take-time catalog, which the freshness guard
   pins to the query's snapshot [v0] on every tuple the fixpoint reads.
   Falls back ([None], handle
   dropped) when the pending delta outgrew [repair_frac] of the base
   relations, when the differential calculus refuses the update, or
   when the resume dies mid-flight (the accumulator is then corrupt).
   Never called with a lock held. *)
let try_repair t ~v0 ~st key =
  if t.max_repair_handles = 0 then None
  else begin
    Mutex.lock t.lock;
    match Hashtbl.find_opt t.repair key with
    | None ->
      Mutex.unlock t.lock;
      None
    | Some h ->
      if not (fresh t ~v0 h.r_deps) then begin
        (* a dep moved past this query's snapshot: the handle (which
           repairs to the latest catalog) would answer a different
           question; leave it for later queries and evaluate against
           the snapshot *)
        Mutex.unlock t.lock;
        None
      end
      else begin
        let card l = List.fold_left (fun a (_, r) -> a + Rel.cardinal r) 0 l in
        let base =
          List.fold_left
            (fun a d ->
              a + match List.assoc_opt d t.tbl with Some r -> Rel.cardinal r | None -> 0)
            0
            (List.sort_uniq compare (List.map Dep.rel h.r_deps))
        in
        if float_of_int (card h.r_ins + card h.r_del) > t.repair_frac *. float_of_int (max 1 base)
        then begin
          Hashtbl.remove t.repair key;
          t.c_repair_fallbacks <- t.c_repair_fallbacks + 1;
          Mutex.unlock t.lock;
          tele_repair_fallback ~reason:"oversized";
          None
        end
        else begin
          let ins = h.r_ins and del = h.r_del in
          h.r_ins <- [];
          h.r_del <- [];
          t.clock <- t.clock + 1;
          h.r_last_use <- t.clock;
          Mutex.unlock t.lock;
          let t0 = now_ns () in
          let res =
            on_cluster t ~st "serve.repair" @@ fun () ->
            match Exec.Incr.update ~inserts:ins ~deletes:del h.r_handle with
            | `Repaired (rel, iters) ->
              st.e_iters <- st.e_iters + iters;
              st.e_plans <- (Exec.plan_name (Exec.Incr.plan h.r_handle) ^ "(incr)") :: st.e_plans;
              `Repaired rel
            | `Unsupported _ -> `Fallback "unsupported"
            | exception _ -> `Fallback "error"
          in
          match res with
          | `Repaired rel ->
            st.e_repaired <- st.e_repaired + 1;
            tele_repair ~ns:(now_ns () -. t0);
            Some rel
          | `Fallback reason ->
            Mutex.lock t.lock;
            unpublish t.repair key h;
            t.c_repair_fallbacks <- t.c_repair_fallbacks + 1;
            Mutex.unlock t.lock;
            tele_repair_fallback ~reason;
            None
        end
      end
  end

(* Evaluate a fixpoint from scratch while retaining its converged
   accumulator as a repair handle; [None] when the incremental layer
   cannot host this term (it then runs through the plain executor). *)
let establish_on_cluster t ~tbl ~st fix_term =
  on_cluster t ~st "serve.eval" @@ fun () ->
  match Exec.Incr.establish t.exec_config ~tables:tbl fix_term with
  | h ->
    record_fixpoints st (Exec.Incr.establish_report h);
    Some (h, Exec.Incr.result h)
  | exception Exec.Incr.Unsupported _ -> None

(* Evaluate a missed closed fixpoint: repair from a live handle when one
   is current, otherwise evaluate from scratch — keeping the converged
   accumulator as a fresh handle when repair is enabled. Returns the
   result and whether it came from a repair. *)
let eval_fix t ~tbl ~v0 ~st ~key ~deps fix_term =
  match try_repair t ~v0 ~st key with
  | Some rel -> (rel, true)
  | None ->
    if t.max_repair_handles = 0 then (exec_on_cluster t ~tbl ~st fix_term, false)
    else begin
      match establish_on_cluster t ~tbl ~st fix_term with
      | None -> (exec_on_cluster t ~tbl ~st fix_term, false)
      | Some (h, rel) ->
        Mutex.lock t.lock;
        (* install unless an update hit its dependencies mid-evaluation
           (the handle reflects a stale snapshot and that delta was never
           parked) or a more current handle survived under this key *)
        if
          fresh t ~v0 deps
          && not (Hashtbl.mem t.repair key)
        then begin
          t.clock <- t.clock + 1;
          Hashtbl.replace t.repair key
            { r_handle = h; r_deps = deps; r_ins = []; r_del = []; r_last_use = t.clock };
          while Hashtbl.length t.repair > t.max_repair_handles do
            evict_repair_lru t
          done
        end;
        Mutex.unlock t.lock;
        (rel, false)
    end

(* Resolve one maximal closed Fix subterm through cache and promise
   table; evaluate it at most once process-wide per (normal key,
   catalog state). Never called with any lock held. *)
let resolve_fix t ~tbl ~v0 ~st fix_term =
  let key = Normal.key fix_term in
  let deps = Dep.of_term fix_term in
  Mutex.lock t.lock;
  match cache_find t key with
  | Some rel ->
    t.c_fix_hits <- t.c_fix_hits + 1;
    st.e_fix_hits <- st.e_fix_hits + 1;
    Mutex.unlock t.lock;
    tele_cache ~cache:"fix" "hit";
    rel
  | None -> (
    match Hashtbl.find_opt t.f_promises key with
    | Some p ->
      t.c_fix_shared <- t.c_fix_shared + 1;
      st.e_fix_hits <- st.e_fix_hits + 1;
      Mutex.unlock t.lock;
      tele_cache ~cache:"fix" "shared";
      promise_await p
    | None -> (
      let p = promise_make deps in
      Hashtbl.replace t.f_promises key p;
      Mutex.unlock t.lock;
      let forget () =
        Mutex.lock t.lock;
        unpublish t.f_promises key p;
        Mutex.unlock t.lock
      in
      match eval_fix t ~tbl ~v0 ~st ~key ~deps fix_term with
      | rel, repaired ->
        Mutex.lock t.lock;
        if repaired then t.c_repaired <- t.c_repaired + 1
        else t.c_fix_evals <- t.c_fix_evals + 1;
        cache_store t ~key ~deps ~v0 rel;
        tele_gauges t;
        Mutex.unlock t.lock;
        tele_cache ~cache:"fix" (if repaired then "repaired" else "eval");
        forget ();
        promise_fulfill p (`Done rel);
        rel
      | exception e ->
        forget ();
        promise_fulfill p (`Failed e);
        raise e))

(* Substitute every maximal closed Fix subterm by its (cached, shared or
   freshly evaluated) value. Closed subterms denote the same relation in
   any context, so splicing them in as [Cst] is sound; [Fix] nodes with
   free recursion variables only occur under a closed ancestor and are
   never extracted on their own. *)
let rec resolve_fixes t ~tbl ~v0 ~st (term : Term.t) : Term.t =
  let r = resolve_fixes t ~tbl ~v0 ~st in
  match term with
  | Term.Fix _ when Term.free_vars term = [] -> Term.Cst (resolve_fix t ~tbl ~v0 ~st term)
  | Term.Rel _ | Term.Var _ | Term.Cst _ -> term
  | Term.Select (p, u) -> Term.Select (p, r u)
  | Term.Project (c, u) -> Term.Project (c, r u)
  | Term.Antiproject (c, u) -> Term.Antiproject (c, r u)
  | Term.Rename (m, u) -> Term.Rename (m, r u)
  | Term.Join (a, b) -> Term.Join (r a, r b)
  | Term.Antijoin (a, b) -> Term.Antijoin (r a, r b)
  | Term.Union (a, b) -> Term.Union (r a, r b)
  | Term.Fix (x, body) -> Term.Fix (x, r body)

(* the admitted-evaluation body: plan, resolve fixpoints, run residual *)
let evaluate t ~key ~deps ~v0 ~tbl ~optimize ~st term =
  let plan, plan_hit =
    if not optimize then (term, false)
    else begin
      Mutex.lock t.lock;
      match plan_find t key with
      | Some pl ->
        t.c_plan_hits <- t.c_plan_hits + 1;
        Mutex.unlock t.lock;
        tele_cache ~cache:"plan" "hit";
        (pl, true)
      | None ->
        t.c_plan_misses <- t.c_plan_misses + 1;
        Mutex.unlock t.lock;
        tele_cache ~cache:"plan" "miss";
        (* rewriting is pure CPU work — run it outside the lock *)
        let best = optimize_term t tbl term in
        Mutex.lock t.lock;
        plan_store t key best deps;
        Mutex.unlock t.lock;
        (best, false)
    end
  in
  let residual = resolve_fixes t ~tbl ~v0 ~st plan in
  let rel =
    match residual with
    | Term.Cst r -> r (* the whole plan was one shared fixpoint *)
    | _ -> exec_on_cluster t ~tbl ~st residual
  in
  Mutex.lock t.lock;
  cache_store t ~key ~deps ~v0 rel;
  tele_gauges t;
  Mutex.unlock t.lock;
  (rel, plan_hit)

type response = {
  rel : Rel.t;
  session : int;
  query_id : int;
  sampled : bool;
  plan_hit : bool;
  result_hit : bool;
  shared : bool;
  fix_hits : int;
  repaired : bool;  (* at least one fixpoint was incrementally repaired *)
  iterations : int;
  wait_ns : float;
  exec_ns : float;
}

let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

(* with [t.lock] held: count a slow query and append it to the bounded
   log (oldest entries fall off the end) *)
let record_slow_locked t ~qid ~session ~key ~st ~wait_ns ~total_ns ~plan_hit ~result_hit ~shared
    ~sampled =
  if Telemetry.Sampler.slow t.sampler ~ns:total_ns then begin
    t.c_slow <- t.c_slow + 1;
    if t.slow_capacity > 0 then begin
      let entry =
        {
          sq_query = qid;
          sq_session = session;
          sq_key = key;
          sq_plans = List.rev st.e_plans;
          sq_iterations = st.e_iters;
          sq_stages = st.e_stages;
          sq_straggler_mean =
            (if st.e_strag_n = 0 then 0. else st.e_strag_sum /. float_of_int st.e_strag_n);
          sq_wait_ns = wait_ns;
          sq_total_ns = total_ns;
          sq_plan_hit = plan_hit;
          sq_result_hit = result_hit;
          sq_shared = shared;
          sq_fix_hits = st.e_fix_hits;
          sq_sampled = sampled;
        }
      in
      t.slow_log <- take t.slow_capacity (entry :: t.slow_log)
    end;
    Telemetry.inc (Telemetry.get ()) "serve_slow_queries_total"
  end

let query ?(optimize = true) t (sn : Session.t) term =
  let t_start = now_ns () in
  let key = Normal.key term in
  let deps = Dep.of_term term in
  Mutex.lock t.lock;
  if t.closed || sn.Session.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Serve.query: closed session or server"
  end;
  t.c_submitted <- t.c_submitted + 1;
  t.next_query <- t.next_query + 1;
  let qid = t.next_query in
  let sampled = Telemetry.Sampler.sample_id t.sampler qid in
  let r = Telemetry.get () in
  if Telemetry.enabled r then Telemetry.inc r "serve_queries_submitted_total";
  let finish_hit rel ~shared =
    (if shared then t.c_shared_joins <- t.c_shared_joins + 1
     else t.c_result_hits <- t.c_result_hits + 1);
    t.c_completed <- t.c_completed + 1;
    let total_ns = now_ns () -. t_start in
    Hist.add t.latency_h total_ns;
    record_slow_locked t ~qid ~session:sn.Session.name ~key ~st:(eval_stats_make ())
      ~wait_ns:0. ~total_ns ~plan_hit:false ~result_hit:true ~shared ~sampled:false;
    tele_done
      ~outcome:(if shared then "shared" else "hit")
      ~session_name:sn.Session.name ~wait_ns:0. ~latency_ns:total_ns;
    tele_cache ~cache:"result" (if shared then "shared" else "hit");
    {
      rel;
      session = sn.Session.id;
      query_id = qid;
      sampled = false;
      plan_hit = false;
      result_hit = true;
      shared;
      fix_hits = 0;
      repaired = false;
      iterations = 0;
      wait_ns = 0.;
      exec_ns = 0.;
    }
  in
  match cache_find t key with
  | Some rel ->
    let resp = finish_hit rel ~shared:false in
    Mutex.unlock t.lock;
    resp
  | None -> (
    match Hashtbl.find_opt t.q_promises key with
    | Some p -> (
      Mutex.unlock t.lock;
      (* identical query already in flight: batch onto it *)
      match promise_await p with
      | rel ->
        Mutex.lock t.lock;
        let resp = finish_hit rel ~shared:true in
        Mutex.unlock t.lock;
        resp
      | exception e ->
        Mutex.lock t.lock;
        t.c_failed <- t.c_failed + 1;
        Mutex.unlock t.lock;
        tele_done ~outcome:"failed" ~session_name:sn.Session.name ~wait_ns:0.
          ~latency_ns:(now_ns () -. t_start);
        raise e)
    | None -> (
      (* we own the evaluation: snapshot the catalog, publish a promise *)
      let v0 = t.version in
      t.snapshots <- v0 :: t.snapshots;
      let tbl = t.tbl in
      let p = promise_make deps in
      Hashtbl.replace t.q_promises key p;
      t.c_result_misses <- t.c_result_misses + 1;
      (* start a sampled-trace capture: install the server's tracer as
         the ambient one unless the user already has their own (then
         their trace simply carries the query-id attrs). Refcounted so
         overlapping sampled queries share one installation. *)
      let capturing =
        sampled
        && (match t.qtracer with
           | None -> false
           | Some qtr ->
             let amb = Trace.get () in
             if Trace.enabled amb && amb != qtr then false
             else begin
               t.capture_refs <- t.capture_refs + 1;
               if t.capture_refs = 1 then begin
                 Trace.clear qtr;
                 Trace.install qtr
               end;
               true
             end)
      in
      Mutex.unlock t.lock;
      tele_cache ~cache:"result" "miss";
      let finish_capture () =
        if capturing then
          match t.qtracer with
          | None -> ()
          | Some qtr ->
            Mutex.lock t.lock;
            (* extract this query's events (by query_id attr) before a
               later sampled query can clear the collector *)
            let evs =
              List.filter
                (fun (e : Trace.event) ->
                  match List.assoc_opt "query_id" e.Trace.attrs with
                  | Some (Trace.Int q) -> q = qid
                  | _ -> false)
                (Trace.events qtr)
            in
            t.capture_refs <- t.capture_refs - 1;
            if t.capture_refs = 0 then Trace.uninstall ();
            t.traces <-
              take t.trace_capacity
                ({ qt_query = qid; qt_session = sn.Session.name; qt_key = key; qt_events = evs }
                :: t.traces);
            t.c_traces <- t.c_traces + 1;
            Mutex.unlock t.lock
      in
      let forget () =
        Mutex.lock t.lock;
        unpublish t.q_promises key p;
        let rec drop_one = function [] -> [] | v :: l -> if v = v0 then l else v :: drop_one l in
        t.snapshots <- drop_one t.snapshots;
        Mutex.unlock t.lock
      in
      let st = eval_stats_make () in
      let run () =
        (* every event this evaluation records — admission, serve.eval,
           stages, exchanges, operator spans — carries the query id *)
        Trace.with_ambient_attrs [ ("query_id", Trace.Int qid) ] @@ fun () ->
        Fun.protect ~finally:finish_capture @@ fun () ->
        let wait_ns = admit t sn.Session.id in
        Fun.protect ~finally:(fun () -> release t) @@ fun () ->
        let rel, plan_hit = evaluate t ~key ~deps ~v0 ~tbl ~optimize ~st term in
        (rel, plan_hit, wait_ns)
      in
      match run () with
      | rel, plan_hit, wait_ns ->
        forget ();
        promise_fulfill p (`Done rel);
        let t_end = now_ns () in
        let total_ns = t_end -. t_start in
        Mutex.lock t.lock;
        t.c_completed <- t.c_completed + 1;
        Hist.add t.wait_h wait_ns;
        Hist.add t.latency_h total_ns;
        record_slow_locked t ~qid ~session:sn.Session.name ~key ~st ~wait_ns ~total_ns
          ~plan_hit ~result_hit:false ~shared:false ~sampled:capturing;
        Mutex.unlock t.lock;
        tele_done
          ~outcome:(if st.e_repaired > 0 then "repaired" else "evaluated")
          ~session_name:sn.Session.name ~wait_ns ~latency_ns:total_ns;
        {
          rel;
          session = sn.Session.id;
          query_id = qid;
          sampled = capturing;
          plan_hit;
          result_hit = false;
          shared = false;
          fix_hits = st.e_fix_hits;
          repaired = st.e_repaired > 0;
          iterations = st.e_iters;
          wait_ns;
          exec_ns = total_ns -. wait_ns;
        }
      | exception e ->
        forget ();
        promise_fulfill p (`Failed e);
        Mutex.lock t.lock;
        t.c_failed <- t.c_failed + 1;
        Mutex.unlock t.lock;
        tele_done ~outcome:"failed" ~session_name:sn.Session.name ~wait_ns:0.
          ~latency_ns:(now_ns () -. t_start);
        raise e))

let query_ucrpq ?optimize t sn text =
  query ?optimize t sn (Rpq.Query.union_to_term (Rpq.Query.parse_union text))

let explain ?(optimize = true) t term =
  Mutex.lock t.lock;
  let tbl = t.tbl in
  Mutex.unlock t.lock;
  let plan = if optimize then optimize_term t tbl term else term in
  Mutex.lock t.cluster_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.cluster_lock) @@ fun () ->
  let ctx = Exec.session t.exec_config tbl in
  Exec.explain ctx plan

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

type stats = {
  submitted : int;
  completed : int;
  failed : int;
  result_hits : int;
  shared_joins : int;
  result_misses : int;
  plan_hits : int;
  plan_misses : int;
  fix_evals : int;
  fix_hits : int;
  fix_shared : int;
  repaired : int;
  repair_fallbacks : int;
  repair_handles : int;
  invalidated : int;
  evictions : int;
  result_entries : int;
  result_bytes : int;
  plan_entries : int;
  graph_version : int;
  inflight : int;
  queued : int;
  slow_queries : int;
  traces_captured : int;
}

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      submitted = t.c_submitted;
      completed = t.c_completed;
      failed = t.c_failed;
      result_hits = t.c_result_hits;
      shared_joins = t.c_shared_joins;
      result_misses = t.c_result_misses;
      plan_hits = t.c_plan_hits;
      plan_misses = t.c_plan_misses;
      fix_evals = t.c_fix_evals;
      fix_hits = t.c_fix_hits;
      fix_shared = t.c_fix_shared;
      repaired = t.c_repaired;
      repair_fallbacks = t.c_repair_fallbacks;
      repair_handles = Hashtbl.length t.repair;
      invalidated = t.c_invalidated;
      evictions = t.c_evictions;
      result_entries = Hashtbl.length t.result_cache;
      result_bytes = t.cache_bytes;
      plan_entries = Hashtbl.length t.plan_cache;
      graph_version = t.version;
      inflight = t.inflight;
      queued = List.length t.pending;
      slow_queries = t.c_slow;
      traces_captured = t.c_traces;
    }
  in
  Mutex.unlock t.lock;
  s

let slow_log t =
  Mutex.lock t.lock;
  let l = t.slow_log in
  Mutex.unlock t.lock;
  l

let sampled_traces t =
  Mutex.lock t.lock;
  let l = t.traces in
  Mutex.unlock t.lock;
  l

let wait_hist t = t.wait_h
let latency_hist t = t.latency_h
