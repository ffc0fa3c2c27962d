(* Tests for lib/trace: span nesting, zero-cost disabled mode, simulated
   clock monotonicity, per-operator rollups on a recursive query (the
   paper's P_plw vs P_gld shuffle asymmetry) and exporter
   well-formedness. *)

module Trace = Trace
module Metrics = Distsim.Metrics
module Exec = Physical.Exec
module Term = Mura.Term
module G = Graphgen.Generators

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser — just enough to validate exporter output.    *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else raise (Bad (Printf.sprintf "expected %c at offset %d" c !pos))
  in
  let lit word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then (
      pos := !pos + k;
      v)
    else raise (Bad ("bad literal at offset " ^ string_of_int !pos))
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let fin = ref false in
    while not !fin do
      if !pos >= n then raise (Bad "unterminated string");
      (match s.[!pos] with
      | '"' -> fin := true
      | '\\' ->
        incr pos;
        if !pos >= n then raise (Bad "bad escape");
        (match s.[!pos] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 >= n then raise (Bad "truncated \\u escape");
          ignore (int_of_string ("0x" ^ String.sub s (!pos + 1) 4));
          pos := !pos + 4;
          Buffer.add_char b '?'
        | c -> raise (Bad (Printf.sprintf "bad escape \\%c" c)))
      | c -> Buffer.add_char b c);
      incr pos
    done;
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    if !pos = start then raise (Bad (Printf.sprintf "unexpected char at offset %d" start));
    try Num (float_of_string (String.sub s start (!pos - start)))
    with _ -> raise (Bad "bad number")
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ -> number ()
    | None -> raise (Bad "unexpected end of input")
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then (
      incr pos;
      Arr [])
    else begin
      let items = ref [] in
      let rec go () =
        items := value () :: !items;
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          go ()
        | Some ']' -> incr pos
        | _ -> raise (Bad "expected , or ] in array")
      in
      go ();
      Arr (List.rev !items)
    end
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then (
      incr pos;
      Obj [])
    else begin
      let fields = ref [] in
      let rec go () =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          go ()
        | Some '}' -> incr pos
        | _ -> raise (Bad "expected , or } in object")
      in
      go ();
      Obj (List.rev !fields)
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then raise (Bad "trailing garbage after JSON value");
  v

let field name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fixtures: a distributed transitive closure under a forced plan.     *)
(* ------------------------------------------------------------------ *)

let er_graph = lazy (G.erdos_renyi ~seed:7 ~nodes:120 ~p:0.02 ())

let run_closure ~plan () =
  let cluster = Distsim.Cluster.make ~workers:4 () in
  let config = { (Exec.default_config cluster) with Exec.force_plan = plan } in
  let ctx = Exec.session config [ ("E", Lazy.force er_graph) ] in
  let result = Exec.run ctx (Mura.Patterns.closure (Term.Rel "E")) in
  (result, Distsim.Cluster.metrics cluster, Exec.report ctx)

(* Run [f] with a fresh enabled ambient tracer; return (trace, f's result). *)
let traced f =
  let tr = Trace.make () in
  Trace.install tr;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let r = f () in
      (tr, r))

(* ------------------------------------------------------------------ *)
(* Core collector                                                      *)
(* ------------------------------------------------------------------ *)

let test_nesting () =
  let tr = Trace.make () in
  check_bool "enabled" true (Trace.enabled tr);
  let r =
    Trace.span tr ~cat:"t" ~attrs:[ ("k", Trace.Int 1) ] "outer" @@ fun () ->
    Trace.span tr "inner" @@ fun () ->
    Trace.instant tr ~attrs:[ ("records", Trace.Int 7) ] "tick";
    Trace.set_attr tr "late" (Trace.Bool true);
    42
  in
  check_int "span returns body's value" 42 r;
  match Trace.events tr with
  | [ outer; inner; tick ] ->
    check_string "outer name" "outer" outer.Trace.name;
    check_string "inner name" "inner" inner.Trace.name;
    check_string "instant name" "tick" tick.Trace.name;
    check_bool "outer is a root" true (outer.Trace.parent = -1);
    check_int "inner nested in outer" outer.Trace.id inner.Trace.parent;
    check_int "instant nested in inner" inner.Trace.id tick.Trace.parent;
    check_bool "outer is a span" true (outer.Trace.kind = Trace.Span);
    check_bool "tick is an instant" true (tick.Trace.kind = Trace.Instant);
    check_bool "static attr kept" true (List.assoc_opt "k" outer.Trace.attrs = Some (Trace.Int 1));
    check_bool "set_attr reaches innermost open span" true
      (List.assoc_opt "late" inner.Trace.attrs = Some (Trace.Bool true));
    check_bool "instant attrs kept" true
      (List.assoc_opt "records" tick.Trace.attrs = Some (Trace.Int 7));
    check_bool "durations non-negative" true
      (outer.Trace.wall_dur_us >= 0. && outer.Trace.wall_dur_us >= inner.Trace.wall_dur_us)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_exception_safety () =
  let tr = Trace.make () in
  (try Trace.span tr "boom" (fun () -> failwith "body") with Failure _ -> ());
  (match Trace.events tr with
  | [ e ] ->
    check_string "span recorded despite exception" "boom" e.Trace.name;
    check_bool "root again" true (e.Trace.parent = -1)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  (* the open-span stack must have been popped: a new span is a root *)
  ignore (Trace.span tr "after" (fun () -> ()));
  match Trace.events tr with
  | [ _; after ] -> check_bool "stack popped after exception" true (after.Trace.parent = -1)
  | _ -> Alcotest.fail "expected 2 events"

let test_disabled_noop () =
  let tr = Trace.disabled in
  check_bool "disabled" false (Trace.enabled tr);
  check_int "span still runs the body" 42 (Trace.span tr "x" (fun () -> 42));
  Trace.instant tr "x";
  Trace.set_attr tr "k" (Trace.Int 1);
  check_int "no events recorded" 0 (List.length (Trace.events tr));
  check_int "nothing dropped" 0 (Trace.dropped tr)

(* The deterministic communication counters must be identical with
   tracing off and on: instrumentation observes, never perturbs. *)
let test_metrics_unperturbed () =
  let _, (m_off : Metrics.t), _ = run_closure ~plan:(Some Exec.P_gld) () in
  let _tr, (_, (m_on : Metrics.t), _) = traced (run_closure ~plan:(Some Exec.P_gld)) in
  check_int "shuffles" m_off.Metrics.shuffles m_on.Metrics.shuffles;
  check_int "shuffled_records" m_off.Metrics.shuffled_records m_on.Metrics.shuffled_records;
  check_int "shuffled_bytes" m_off.Metrics.shuffled_bytes m_on.Metrics.shuffled_bytes;
  check_int "broadcasts" m_off.Metrics.broadcasts m_on.Metrics.broadcasts;
  check_int "broadcast_records" m_off.Metrics.broadcast_records m_on.Metrics.broadcast_records;
  check_int "supersteps" m_off.Metrics.supersteps m_on.Metrics.supersteps;
  check_int "stages" m_off.Metrics.stages m_on.Metrics.stages

let test_sim_clock_monotonic () =
  let tr, _ = traced (run_closure ~plan:(Some Exec.P_plw_s)) in
  let evs = Trace.events tr in
  check_bool "trace is non-empty" true (evs <> []);
  let rec check_pairs = function
    | a :: (b :: _ as rest) ->
      if b.Trace.sim_start_ns < a.Trace.sim_start_ns then
        Alcotest.failf "sim clock went backwards: event %d at %.0f, event %d at %.0f" a.Trace.id
          a.Trace.sim_start_ns b.Trace.id b.Trace.sim_start_ns;
      check_pairs rest
    | _ -> ()
  in
  check_pairs evs;
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.sim_dur_ns < 0. then Alcotest.failf "negative sim duration on %s" e.Trace.name;
      if e.Trace.kind = Trace.Instant && e.Trace.sim_dur_ns <> 0. then
        Alcotest.failf "instant %s has a duration" e.Trace.name)
    evs

let test_counter_events () =
  let tr = Trace.make () in
  Trace.counter tr ~cat:"pool" "pool.occupancy" 3.;
  Trace.counter tr "pool.occupancy" 0.;
  (match Trace.events tr with
  | [ a; b ] ->
    check_bool "kind is Counter" true (a.Trace.kind = Trace.Counter);
    check_bool "value attr" true (List.assoc_opt "value" a.Trace.attrs = Some (Trace.Float 3.));
    check_bool "second sample" true (List.assoc_opt "value" b.Trace.attrs = Some (Trace.Float 0.))
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  match field "traceEvents" (parse_json (Trace.Chrome.to_string tr)) with
  | Some (Arr evs) ->
    check_bool "exported with phase C" true (List.exists (fun e -> field "ph" e = Some (Str "C")) evs)
  | _ -> Alcotest.fail "missing traceEvents"

(* a traced parallel stage samples the domain pool's occupancy *)
let test_pool_occupancy_sampled () =
  let tr, () =
    traced (fun () ->
        let c = Distsim.Cluster.make ~parallel:true ~workers:4 () in
        ignore (Distsim.Cluster.run_stage c (fun w -> w));
        Distsim.Cluster.shutdown c)
  in
  check_bool "pool.occupancy counter present" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.kind = Trace.Counter && e.Trace.name = "pool.occupancy")
       (Trace.events tr))

(* ------------------------------------------------------------------ *)
(* Rollup: the paper's shuffle asymmetry, observed from the trace      *)
(* ------------------------------------------------------------------ *)

let fix_var (report : Exec.report) =
  match report.Exec.fixpoints with
  | fr :: _ -> (fr.Exec.var, fr.Exec.iterations)
  | [] -> Alcotest.fail "no fixpoint report"

let test_rollup_asymmetry () =
  (* P_gld re-shuffles the produced delta every iteration *)
  let tr_gld, (_, _, rep_gld) = traced (run_closure ~plan:(Some Exec.P_gld)) in
  let var, iters = fix_var rep_gld in
  check_bool "recursive enough to be interesting" true (iters >= 3);
  let gld_fix =
    match List.assoc_opt var (Trace.Rollup.fixpoint_shuffles (Trace.events tr_gld)) with
    | Some n -> n
    | None -> Alcotest.failf "no shuffles charged to fixpoint %s" var
  in
  check_bool
    (Printf.sprintf "P_gld: >= 1 shuffle per iteration (%d shuffles, %d iterations)" gld_fix iters)
    true (gld_fix >= iters);
  let gld_iter =
    match List.assoc_opt var (Trace.Rollup.iteration_shuffles (Trace.events tr_gld)) with
    | Some n -> n
    | None -> 0
  in
  check_bool "P_gld: iterations themselves shuffle" true (gld_iter >= iters);
  (* P_plw_s shuffles once to install the stable partitioning, then the
     local loops are narrow *)
  let tr_plw, (_, _, rep_plw) = traced (run_closure ~plan:(Some Exec.P_plw_s)) in
  let var_plw, iters_plw = fix_var rep_plw in
  check_bool "P_plw also iterates" true (iters_plw >= 3);
  let plw_fix =
    match List.assoc_opt var_plw (Trace.Rollup.fixpoint_shuffles (Trace.events tr_plw)) with
    | Some n -> n
    | None -> 0
  in
  check_int "P_plw: exactly one shuffle per fixpoint" 1 plw_fix;
  let plw_iter =
    match List.assoc_opt var_plw (Trace.Rollup.iteration_shuffles (Trace.events tr_plw)) with
    | Some n -> n
    | None -> 0
  in
  check_int "P_plw: shuffle-free iterations" 0 plw_iter

let test_rollup_rows () =
  let tr, _ = traced (run_closure ~plan:(Some Exec.P_plw_s)) in
  let evs = Trace.events tr in
  let ops = Trace.Rollup.per_operator evs in
  check_bool "has a Fix row" true
    (List.exists (fun (r : Trace.Rollup.row) -> String.length r.scope >= 3 && String.sub r.scope 0 3 = "Fix") ops);
  let iters = Trace.Rollup.per_iteration evs in
  check_bool "one row per iteration" true (List.length iters >= 3);
  List.iter
    (fun (r : Trace.Rollup.row) ->
      check_int ("iteration rows do not shuffle: " ^ r.Trace.Rollup.scope) 0
        r.Trace.Rollup.shuffles)
    iters;
  (* rendering smoke test *)
  check_bool "to_string renders" true (String.length (Trace.Rollup.to_string tr) > 0)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_chrome_json () =
  let tr, _ = traced (run_closure ~plan:(Some Exec.P_plw_s)) in
  let n_events = List.length (Trace.events tr) in
  List.iter
    (fun clock ->
      let doc = parse_json (Trace.Chrome.to_string ~clock tr) in
      let events =
        match field "traceEvents" doc with
        | Some (Arr evs) -> evs
        | _ -> Alcotest.fail "missing traceEvents array"
      in
      check_bool "all events present (plus thread metadata)" true
        (List.length events > n_events);
      List.iter
        (fun e ->
          let get name =
            match field name e with
            | Some v -> v
            | None -> Alcotest.failf "event missing %s" name
          in
          let ph = match get "ph" with Str s -> s | _ -> Alcotest.fail "ph not a string" in
          (match get "name" with Str _ -> () | _ -> Alcotest.fail "name not a string");
          (match get "pid" with Num _ -> () | _ -> Alcotest.fail "pid not a number");
          (match get "tid" with Num _ -> () | _ -> Alcotest.fail "tid not a number");
          match ph with
          | "X" ->
            (match get "ts" with Num _ -> () | _ -> Alcotest.fail "ts not a number");
            (match get "dur" with
            | Num d when d >= 0. -> ()
            | _ -> Alcotest.fail "dur not a non-negative number")
          | "i" -> (
            match get "s" with Str _ -> () | _ -> Alcotest.fail "instant scope missing")
          | "C" | "M" -> ()
          | other -> Alcotest.failf "unexpected phase %S" other)
        events)
    [ `Wall; `Sim ]

let test_jsonl () =
  let tr, _ = traced (run_closure ~plan:(Some Exec.P_plw_s)) in
  let lines =
    String.split_on_char '\n' (Trace.Jsonl.to_string tr)
    |> List.filter (fun l -> String.trim l <> "")
  in
  check_int "one line per event" (List.length (Trace.events tr)) (List.length lines);
  List.iter
    (fun line ->
      match parse_json line with
      | Obj _ as o ->
        List.iter
          (fun key ->
            if field key o = None then Alcotest.failf "jsonl line missing %s" key)
          [ "id"; "parent"; "name"; "cat"; "tid"; "kind"; "sim_start_ns" ]
      | _ -> Alcotest.fail "jsonl line is not an object")
    lines

(* counter events used to be exported to Chrome but silently dropped by
   the rollup; they must now be charged to the enclosing scope and
   summarized per name *)
let test_rollup_counters () =
  let tr = Trace.make () in
  ignore
    (Trace.span tr ~cat:"op" "Join" (fun () ->
         Trace.counter tr ~cat:"pool" "pool.occupancy" 3.;
         Trace.counter tr ~cat:"pool" "pool.occupancy" 1.;
         Trace.counter tr ~cat:"dds" "dds.dedup_dropped" 42.));
  let evs = Trace.events tr in
  (match Trace.Rollup.counter_series evs with
  | [ ("dds.dedup_dropped", 1, 42., 42.); ("pool.occupancy", 2, 3., 1.) ] -> ()
  | series ->
    Alcotest.failf "unexpected counter series: %s"
      (String.concat "; "
         (List.map
            (fun (n, s, m, l) -> Printf.sprintf "%s n=%d max=%.0f last=%.0f" n s m l)
            series)));
  let rows = Trace.Rollup.per_operator evs in
  let join =
    List.find (fun (r : Trace.Rollup.row) -> r.Trace.Rollup.scope = "Join") rows
  in
  check_int "counter samples charged to the operator" 3 join.Trace.Rollup.counter_samples;
  check_bool "max counter value retained" true (join.Trace.Rollup.counter_max = 42.);
  let rendered = Trace.Rollup.to_string tr in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "rendered rollup includes the counter-series table" true
    (contains rendered "== counter series ==")

(* domain-local ambient attributes land on every event kind and are
   restored on scope exit *)
let test_ambient_attrs () =
  let tr = Trace.make () in
  Trace.with_ambient_attrs
    [ ("query_id", Trace.Int 7) ]
    (fun () ->
      ignore (Trace.span tr "s" (fun () -> ()));
      Trace.instant tr "i";
      Trace.counter tr "c" 1.);
  check_bool "scope restored" true (Trace.ambient_attrs () = []);
  let evs = Trace.events tr in
  check_int "three events" 3 (List.length evs);
  List.iter
    (fun (e : Trace.event) ->
      check_bool
        ("event " ^ e.Trace.name ^ " carries the ambient attr")
        true
        (List.assoc_opt "query_id" e.Trace.attrs = Some (Trace.Int 7)))
    evs;
  (* events recorded outside the scope are untagged *)
  Trace.instant tr "outside";
  match List.rev (Trace.events tr) with
  | last :: _ ->
    check_bool "outside the scope: no ambient attr" true
      (List.assoc_opt "query_id" last.Trace.attrs = None)
  | [] -> Alcotest.fail "no events"

let test_json_escaping () =
  let tr = Trace.make () in
  ignore
    (Trace.span tr ~attrs:[ ("q", Trace.Str "say \"hi\"\n\ttab\\slash") ] "weird \"name\""
       (fun () -> ()));
  match parse_json (Trace.Chrome.to_string tr) with
  | doc -> (
    match field "traceEvents" doc with
    | Some (Arr _) -> ()
    | _ -> Alcotest.fail "escaped trace did not parse")

let () =
  Alcotest.run "trace"
    [
      ( "collector",
        [
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "exception safety" `Quick test_exception_safety;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "metrics unperturbed" `Quick test_metrics_unperturbed;
          Alcotest.test_case "sim clock monotonic" `Quick test_sim_clock_monotonic;
          Alcotest.test_case "counter events" `Quick test_counter_events;
          Alcotest.test_case "pool occupancy sampled" `Quick test_pool_occupancy_sampled;
        ] );
      ( "rollup",
        [
          Alcotest.test_case "P_plw vs P_gld shuffle asymmetry" `Quick test_rollup_asymmetry;
          Alcotest.test_case "per-operator and per-iteration rows" `Quick test_rollup_rows;
          Alcotest.test_case "counter events survive the rollup" `Quick test_rollup_counters;
          Alcotest.test_case "ambient attrs on every event kind" `Quick test_ambient_attrs;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace_event JSON" `Quick test_chrome_json;
          Alcotest.test_case "jsonl" `Quick test_jsonl;
          Alcotest.test_case "string escaping" `Quick test_json_escaping;
        ] );
    ]
