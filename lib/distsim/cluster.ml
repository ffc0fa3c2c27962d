(* The persistent worker-domain pool.

   One OCaml domain per remote worker (workers - 1 of them: the driver
   domain doubles as worker 0, as before), spawned once at [make] and
   kept alive across stages. Each pool worker owns a one-slot job queue
   guarded by a mutex/condvar pair; the driver posts a closure and later
   blocks on the same condvar until the slot reports completion. This
   replaces the old per-stage [Domain.spawn]/[Domain.join], whose spawn
   cost dominated short fixpoint iterations. *)
module Pool = struct
  type slot = {
    lock : Mutex.t;
    cond : Condition.t; (* signals both job arrival and completion *)
    mutable job : (unit -> unit) option;
    mutable busy : bool;
    mutable stop : bool;
  }

  type t = {
    slots : slot array;
    domains : unit Domain.t array;
    in_flight : int Atomic.t;
    mutable alive : bool;
  }

  let worker_loop slot =
    let rec loop () =
      Mutex.lock slot.lock;
      while slot.job = None && not slot.stop do
        Condition.wait slot.cond slot.lock
      done;
      match slot.job with
      | None ->
        (* stop requested with no pending job *)
        Mutex.unlock slot.lock
      | Some job ->
        slot.busy <- true;
        Mutex.unlock slot.lock;
        (* jobs capture their own failures (run_stage re-raises them on
           the driver); this last-resort catch keeps the domain alive no
           matter what, so the pool survives any worker exception *)
        (try job () with _ -> ());
        Mutex.lock slot.lock;
        slot.job <- None;
        slot.busy <- false;
        Condition.broadcast slot.cond;
        Mutex.unlock slot.lock;
        loop ()
    in
    loop ()

  let create n =
    let slots =
      Array.init n (fun _ ->
          { lock = Mutex.create (); cond = Condition.create (); job = None; busy = false; stop = false })
    in
    let domains = Array.map (fun s -> Domain.spawn (fun () -> worker_loop s)) slots in
    { slots; domains; in_flight = Atomic.make 0; alive = true }

  let size p = Array.length p.slots

  let submit p i job =
    let s = p.slots.(i) in
    Mutex.lock s.lock;
    while s.job <> None || s.busy do
      Condition.wait s.cond s.lock
    done;
    Atomic.incr p.in_flight;
    s.job <-
      Some
        (fun () ->
          Fun.protect ~finally:(fun () -> Atomic.decr p.in_flight) job);
    Condition.broadcast s.cond;
    Mutex.unlock s.lock

  let await p i =
    let s = p.slots.(i) in
    Mutex.lock s.lock;
    while s.job <> None || s.busy do
      Condition.wait s.cond s.lock
    done;
    Mutex.unlock s.lock

  let occupancy p = Atomic.get p.in_flight

  let shutdown p =
    if p.alive then begin
      p.alive <- false;
      Array.iter
        (fun s ->
          Mutex.lock s.lock;
          s.stop <- true;
          Condition.broadcast s.cond;
          Mutex.unlock s.lock)
        p.slots;
      Array.iter Domain.join p.domains
    end
end

type t = {
  workers : int;
  parallel : bool;
  host_cores : int;
  metrics : Metrics.t;
  mutable pool : Pool.t option;
  dispatching : bool Atomic.t;
      (* single-driver invariant: only one stage may be in flight. Set for
         the duration of [run_stage]; a second dispatcher arriving while
         it is set is a concurrency bug in the caller (evaluations must be
         serialized through an admission queue, e.g. [Serve]) and is
         rejected loudly rather than silently corrupting shared metrics
         and pool slots. *)
}

let shutdown c =
  match c.pool with
  | None -> ()
  | Some p ->
    c.pool <- None;
    Pool.shutdown p

let make ?(parallel = false) ~workers () =
  if workers < 1 then invalid_arg "Cluster.make: workers < 1";
  let pool =
    if parallel && workers > 1 then Some (Pool.create (workers - 1)) else None
  in
  let c =
    {
      workers;
      parallel;
      host_cores = Domain.recommended_domain_count ();
      metrics = Metrics.create ();
      pool;
      dispatching = Atomic.make false;
    }
  in
  (* join the pool domains at process exit even when the owner never
     calls [shutdown] explicitly (tests, examples) *)
  if pool <> None then at_exit (fun () -> shutdown c);
  (* wire the ambient tracer's simulated clock to this cluster's charged
     time, so every event carries a deterministic timestamp *)
  let m = c.metrics in
  Trace.set_sim_clock (Trace.get ()) (fun () -> m.Metrics.sim_time_ns);
  c

let workers c = c.workers
let parallel c = c.parallel

(* The two-phase shuffle only pays off when stages actually fan out:
   sequential clusters and single-worker clusters keep the driver-side
   exchange. *)
let pooled_shuffle c = c.parallel && c.workers > 1
let host_cores c = c.host_cores

(* Per-exchange mode selection. Pooling an exchange pays a fixed dispatch
   cost per phase (two [run_stage]s plus bucket assembly), which loses to
   the driver-side loop below a volume threshold, especially when the
   host has no spare cores for the pool domains. Each exchange therefore
   picks its mode from the measured record volume. Both paths are
   bit-identical in results and counters, so the choice is purely a
   latency decision. *)
let adaptive_pooled_cutoff = 2048

let shuffle_mode c ~records =
  if not (pooled_shuffle c) then `Seq
  else begin
    let cutoff =
      if c.host_cores > c.workers then adaptive_pooled_cutoff else 4 * adaptive_pooled_cutoff
    in
    if records >= cutoff then `Pooled else `Seq
  end

let metrics c = c.metrics
let pool_size c = match c.pool with None -> 0 | Some p -> Pool.size p

let clock_ns () = Unix.gettimeofday () *. 1e9

type 'a outcome = Value of 'a | Error of exn

exception Concurrent_dispatch

let () =
  Printexc.register_printer (function
    | Concurrent_dispatch ->
      Some
        "Distsim.Cluster.Concurrent_dispatch: two evaluations interleaved stage dispatch on \
         one cluster (serialize them through an admission queue)"
    | _ -> None)

let busy c = Atomic.get c.dispatching

let run_stage c f =
  if not (Atomic.compare_and_set c.dispatching false true) then raise Concurrent_dispatch;
  Fun.protect ~finally:(fun () -> Atomic.set c.dispatching false) @@ fun () ->
  let tr = Trace.get () in
  Trace.span tr ~cat:"stage" ~attrs:[ ("workers", Trace.Int c.workers) ] "stage" @@ fun () ->
  let n = c.workers in
  let timed w =
    let body () =
      let t0 = clock_ns () in
      let r = try Value (f w) with e -> Error e in
      let t1 = clock_ns () in
      (r, t1 -. t0)
    in
    (* worker-side events (e.g. localdb spans inside mapPartitions) land
       on the worker's own track *)
    if Trace.enabled tr then Trace.with_tid (w + 1) body else body ()
  in
  let results =
    match c.pool with
    | Some pool when n > 1 ->
      let out = Array.make n None in
      let t0 = clock_ns () in
      for i = 1 to n - 1 do
        (* the job never raises: [timed] folds worker failures into the
           outcome, and this guard catches anything outside it (e.g. an
           allocation failure), so the driver always finds a result *)
        Pool.submit pool (i - 1) (fun () ->
            out.(i) <- Some (try timed i with e -> (Error e, 0.)))
      done;
      if Trace.enabled tr then begin
        Trace.counter tr ~cat:"pool" "pool.occupancy" (float_of_int (Pool.occupancy pool));
        Trace.set_attr tr "dispatch_ns" (Trace.Float (clock_ns () -. t0))
      end;
      Telemetry.set (Telemetry.get ()) "cluster_pool_occupancy"
        (float_of_int (Pool.occupancy pool));
      out.(0) <- Some (timed 0);
      for i = 1 to n - 1 do
        Pool.await pool (i - 1)
      done;
      if Trace.enabled tr then Trace.counter tr ~cat:"pool" "pool.occupancy" 0.;
      Telemetry.set (Telemetry.get ()) "cluster_pool_occupancy" 0.;
      Array.map (function Some r -> r | None -> assert false) out
    | Some _ | None -> Array.init n timed
  in
  let max_ns = Array.fold_left (fun acc (_, t) -> Float.max acc t) 0. results in
  Metrics.record_stage c.metrics ~max_worker_ns:max_ns;
  Array.iteri (fun w (_, t) -> Metrics.record_worker_time c.metrics ~worker:w ~ns:t) results;
  (* straggler ratio of this stage: max / median worker time (1.0 when
     perfectly balanced; single-worker stages are 1.0 by definition) *)
  let median_ns =
    let times = Array.map snd results in
    Array.sort compare times;
    times.(Array.length times / 2)
  in
  let straggler = if median_ns > 0. then max_ns /. median_ns else 1. in
  Metrics.record_straggler c.metrics ~ratio:straggler;
  Trace.set_attr tr "max_worker_ns" (Trace.Float max_ns);
  Trace.set_attr tr "median_worker_ns" (Trace.Float median_ns);
  Trace.set_attr tr "straggler" (Trace.Float straggler);
  Array.map (fun (r, _) -> match r with Value v -> v | Error e -> raise e) results
