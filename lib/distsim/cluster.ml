(* The simulated cluster: a driver plus [workers] partition slots. A
   stage runs each worker's slice in turn on the calling domain and is
   charged the slowest slice, as a synchronous Spark stage would be. *)

type t = {
  workers : int;
  metrics : Metrics.t;
  dispatching : bool Atomic.t;
      (* single-driver invariant: only one stage may be in flight. Set for
         the duration of [run_stage]; a second dispatcher arriving while
         it is set is a concurrency bug in the caller (evaluations must be
         serialized through an admission queue, e.g. [Serve]) and is
         rejected loudly rather than silently corrupting the shared
         metrics. *)
}

let make ~workers () =
  if workers < 1 then invalid_arg "Cluster.make: workers < 1";
  let c = { workers; metrics = Metrics.create (); dispatching = Atomic.make false } in
  (* wire the ambient tracer's simulated clock to this cluster's charged
     time, so every event carries a deterministic timestamp *)
  let m = c.metrics in
  Trace.set_sim_clock (Trace.get ()) (fun () -> m.Metrics.sim_time_ns);
  c

let workers c = c.workers
let metrics c = c.metrics

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
  let results = Array.init n timed in
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
