(* Structured tracing and per-operator profiling for the distributed
   runtime.

   A [Trace.t] collects nested spans and point events. Every event is
   timestamped twice: with the wall clock and with the runtime's
   simulated clock (wired to [Distsim.Metrics.sim_time_ns] by
   [Cluster.make]), so that the simulated timeline is deterministic and
   comparable across runs.

   The collector is safe to use from several domains (serving sessions
   record from their own): the event buffer and the per-track span
   stacks are protected by one mutex, and the current track id
   (0 = driver, w+1 = worker w) lives in domain-local storage. A [Disabled] tracer is a no-op: [span] runs its thunk
   directly and no allocation or locking happens, so instrumentation
   can stay in hot paths permanently. *)

type value = Str of string | Int of int | Float of float | Bool of bool
type attrs = (string * value) list
type kind = Span | Instant

type event = {
  id : int; (* allocation order = open order *)
  parent : int; (* id of the enclosing open span on the same track, -1 at root *)
  name : string;
  cat : string;
  tid : int; (* 0 = driver, w+1 = worker w *)
  wall_start_us : float;
  wall_dur_us : float; (* 0 for instants *)
  sim_start_ns : float;
  sim_dur_ns : float;
  kind : kind;
  attrs : attrs;
}

type open_span = {
  oid : int;
  oname : string;
  ocat : string;
  oparent : int;
  owall : float;
  osim : float;
  mutable oattrs : attrs;
}

type state = {
  lock : Mutex.t;
  mutable rev_events : event list;
  mutable n_events : int;
  mutable dropped : int;
  mutable next_id : int;
  mutable sim_clock : unit -> float;
  stacks : (int, open_span list ref) Hashtbl.t;
}

type t = Disabled | Enabled of state

let max_events = 1_000_000
let disabled = Disabled

let make () =
  Enabled
    {
      lock = Mutex.create ();
      rev_events = [];
      n_events = 0;
      dropped = 0;
      next_id = 0;
      sim_clock = (fun () -> 0.);
      stacks = Hashtbl.create 8;
    }

let enabled = function Disabled -> false | Enabled _ -> true
let set_sim_clock t f = match t with Disabled -> () | Enabled s -> s.sim_clock <- f
let now_us () = Unix.gettimeofday () *. 1e6

(* ------------------------------------------------------------------ *)
(* Ambient tracer and current track                                    *)
(* ------------------------------------------------------------------ *)

let ambient : t Atomic.t = Atomic.make Disabled
let install t = Atomic.set ambient t
let uninstall () = Atomic.set ambient Disabled
let get () = Atomic.get ambient

let tid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let with_tid tid f =
  let old = Domain.DLS.get tid_key in
  Domain.DLS.set tid_key tid;
  Fun.protect ~finally:(fun () -> Domain.DLS.set tid_key old) f

(* Ambient attributes: domain-local key/value pairs appended to every
   event recorded by this domain while the scope is open. The serving
   layer threads the query id through every span of an evaluation this
   way — admission, stages, exchanges, operators — without each
   instrumentation site knowing about queries. *)
let amb_key : attrs Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let with_ambient_attrs attrs f =
  let old = Domain.DLS.get amb_key in
  Domain.DLS.set amb_key (attrs @ old);
  Fun.protect ~finally:(fun () -> Domain.DLS.set amb_key old) f

let ambient_attrs () = Domain.DLS.get amb_key

let with_amb attrs =
  match Domain.DLS.get amb_key with [] -> attrs | amb -> attrs @ amb

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let locked s f =
  Mutex.lock s.lock;
  match f () with
  | v ->
    Mutex.unlock s.lock;
    v
  | exception e ->
    Mutex.unlock s.lock;
    raise e

let stack_of s tid =
  match Hashtbl.find_opt s.stacks tid with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace s.stacks tid r;
    r

let push_event s ev =
  if s.n_events >= max_events then s.dropped <- s.dropped + 1
  else begin
    s.rev_events <- ev :: s.rev_events;
    s.n_events <- s.n_events + 1
  end

let span t ?(cat = "") ?(attrs = []) name f =
  match t with
  | Disabled -> f ()
  | Enabled s ->
    let tid = Domain.DLS.get tid_key in
    let attrs = with_amb attrs in
    let sp =
      locked s (fun () ->
          let stack = stack_of s tid in
          let parent = match !stack with [] -> -1 | top :: _ -> top.oid in
          let id = s.next_id in
          s.next_id <- id + 1;
          let sp =
            {
              oid = id;
              oname = name;
              ocat = cat;
              oparent = parent;
              owall = now_us ();
              osim = s.sim_clock ();
              oattrs = attrs;
            }
          in
          stack := sp :: !stack;
          sp)
    in
    let finish () =
      locked s (fun () ->
          let stack = stack_of s tid in
          (match !stack with
          | top :: rest when top.oid = sp.oid -> stack := rest
          | other -> stack := List.filter (fun o -> o.oid <> sp.oid) other);
          push_event s
            {
              id = sp.oid;
              parent = sp.oparent;
              name = sp.oname;
              cat = sp.ocat;
              tid;
              wall_start_us = sp.owall;
              wall_dur_us = now_us () -. sp.owall;
              sim_start_ns = sp.osim;
              sim_dur_ns = s.sim_clock () -. sp.osim;
              kind = Span;
              attrs = sp.oattrs;
            })
    in
    Fun.protect ~finally:finish f

let instant t ?(cat = "") ?(attrs = []) name =
  match t with
  | Disabled -> ()
  | Enabled s ->
    let tid = Domain.DLS.get tid_key in
    locked s (fun () ->
        let parent = match !(stack_of s tid) with [] -> -1 | top :: _ -> top.oid in
        let id = s.next_id in
        s.next_id <- id + 1;
        push_event s
          {
            id;
            parent;
            name;
            cat;
            tid;
            wall_start_us = now_us ();
            wall_dur_us = 0.;
            sim_start_ns = s.sim_clock ();
            sim_dur_ns = 0.;
            kind = Instant;
            attrs = with_amb attrs;
          })

(* Attach an attribute to the innermost open span of the current track
   (e.g. a result computed inside the span body, like partition skew). *)
let set_attr t key v =
  match t with
  | Disabled -> ()
  | Enabled s ->
    let tid = Domain.DLS.get tid_key in
    locked s (fun () ->
        match !(stack_of s tid) with
        | top :: _ -> top.oattrs <- (key, v) :: List.remove_assoc key top.oattrs
        | [] -> ())

let events = function
  | Disabled -> []
  | Enabled s ->
    locked s (fun () -> List.sort (fun a b -> compare a.id b.id) s.rev_events)

let dropped = function Disabled -> 0 | Enabled s -> s.dropped

let clear = function
  | Disabled -> ()
  | Enabled s ->
    locked s (fun () ->
        s.rev_events <- [];
        s.n_events <- 0;
        s.dropped <- 0;
        Hashtbl.reset s.stacks)

(* ------------------------------------------------------------------ *)
(* JSON helpers (no external json dependency)                          *)
(* ------------------------------------------------------------------ *)

module Json = struct
  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let str s = "\"" ^ escape s ^ "\""

  let num f =
    if Float.is_nan f || Float.is_integer f && Float.abs f < 1e15 then
      (* integers (and nan, mapped to 0) print without an exponent *)
      Printf.sprintf "%.0f" (if Float.is_nan f then 0. else f)
    else if Float.abs f = Float.infinity then "0"
    else Printf.sprintf "%.3f" f

  let value = function
    | Str s -> str s
    | Int i -> string_of_int i
    | Float f -> num f
    | Bool b -> string_of_bool b

  let obj fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

  let arr items = "[" ^ String.concat "," items ^ "]"
end

(* ------------------------------------------------------------------ *)
(* Chrome trace_event exporter (chrome://tracing, Perfetto)            *)
(* ------------------------------------------------------------------ *)

module Chrome = struct
  (* [clock] selects the timestamp source: `Wall uses microsecond wall
     clock, `Sim uses the simulated clock (deterministic in sequential
     mode). Both are always available in the event args. *)
  let event_json ~clock e =
    let ts, dur =
      match clock with
      | `Wall -> (e.wall_start_us, e.wall_dur_us)
      | `Sim -> (e.sim_start_ns /. 1e3, e.sim_dur_ns /. 1e3)
    in
    let args =
      List.map (fun (k, v) -> (k, Json.value v)) e.attrs
      @ [
          ("sim_start_ns", Json.num e.sim_start_ns);
          ("sim_dur_ns", Json.num e.sim_dur_ns);
          ("parent", string_of_int e.parent);
        ]
    in
    let common =
      [
        ("name", Json.str e.name);
        ("cat", Json.str (if e.cat = "" then "default" else e.cat));
        ("pid", "1");
        ("tid", string_of_int e.tid);
        ("ts", Json.num ts);
        ("args", Json.obj args);
      ]
    in
    match e.kind with
    | Span -> Json.obj (common @ [ ("ph", Json.str "X"); ("dur", Json.num dur) ])
    | Instant -> Json.obj (common @ [ ("ph", Json.str "i"); ("s", Json.str "t") ])

  let thread_name_json tid name =
    Json.obj
      [
        ("name", Json.str "thread_name");
        ("ph", Json.str "M");
        ("pid", "1");
        ("tid", string_of_int tid);
        ("args", Json.obj [ ("name", Json.str name) ]);
      ]

  let to_string ?(clock = `Wall) t =
    let evs = events t in
    let tids = List.sort_uniq compare (List.map (fun e -> e.tid) evs) in
    let meta =
      List.map
        (fun tid -> thread_name_json tid (if tid = 0 then "driver" else Printf.sprintf "worker %d" (tid - 1)))
        tids
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\":[";
    List.iteri
      (fun i j ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '\n';
        Buffer.add_string buf j)
      (meta @ List.map (event_json ~clock) evs);
    Buffer.add_string buf "\n],";
    Buffer.add_string buf (Json.str "displayTimeUnit" ^ ":" ^ Json.str "ms");
    if dropped t > 0 then
      Buffer.add_string buf ("," ^ Json.str "droppedEvents" ^ ":" ^ string_of_int (dropped t));
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  let write ?clock t file =
    let oc = open_out file in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string ?clock t))
end

(* ------------------------------------------------------------------ *)
(* Flat JSONL exporter (one event object per line)                     *)
(* ------------------------------------------------------------------ *)

module Jsonl = struct
  let event_json e =
    Json.obj
      [
        ("id", string_of_int e.id);
        ("parent", string_of_int e.parent);
        ("name", Json.str e.name);
        ("cat", Json.str e.cat);
        ("tid", string_of_int e.tid);
        ("kind", Json.str (match e.kind with Span -> "span" | Instant -> "instant"));
        ("wall_start_us", Json.num e.wall_start_us);
        ("wall_dur_us", Json.num e.wall_dur_us);
        ("sim_start_ns", Json.num e.sim_start_ns);
        ("sim_dur_ns", Json.num e.sim_dur_ns);
        ("attrs", Json.obj (List.map (fun (k, v) -> (k, Json.value v)) e.attrs));
      ]

  let to_string t = String.concat "" (List.map (fun e -> event_json e ^ "\n") (events t))

  let write t file =
    let oc = open_out file in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string t))
end

(* ------------------------------------------------------------------ *)
(* Post-hoc aggregation: per-operator / per-iteration rollups          *)
(* ------------------------------------------------------------------ *)

module Rollup = struct
  type row = {
    scope : string;
    mutable first_id : int; (* for stable display order *)
    mutable spans : int;
    mutable shuffles : int;
    mutable shuffled_records : int;
    mutable shuffled_bytes : int;
    mutable broadcasts : int;
    mutable broadcast_records : int;
    mutable stages : int;
    mutable stage_sim_ns : float;
    mutable max_skew : float;
    mutable max_straggler : float;
    mutable dedup_dropped : int;
  }

  let fresh_row scope id =
    {
      scope;
      first_id = id;
      spans = 0;
      shuffles = 0;
      shuffled_records = 0;
      shuffled_bytes = 0;
      broadcasts = 0;
      broadcast_records = 0;
      stages = 0;
      stage_sim_ns = 0.;
      max_skew = 0.;
      max_straggler = 0.;
      dedup_dropped = 0;
    }

  let attr_int attrs k =
    match List.assoc_opt k attrs with
    | Some (Int i) -> Some i
    | Some (Float f) -> Some (int_of_float f)
    | _ -> None

  let attr_float attrs k =
    match List.assoc_opt k attrs with
    | Some (Float f) -> Some f
    | Some (Int i) -> Some (float_of_int i)
    | _ -> None

  let attr_str attrs k = match List.assoc_opt k attrs with Some (Str s) -> Some s | _ -> None
  let index evs = List.to_seq evs |> Seq.map (fun e -> (e.id, e)) |> Hashtbl.of_seq

  (* Nearest ancestor (following parent pointers) satisfying [pred]. *)
  let rec find_ancestor tbl e pred =
    if e.parent < 0 then None
    else
      match Hashtbl.find_opt tbl e.parent with
      | None -> None
      | Some p -> if pred p then Some p else find_ancestor tbl p pred

  let accumulate row e =
    (match (e.kind, e.name) with
    | Instant, "shuffle" ->
      row.shuffles <- row.shuffles + 1;
      row.shuffled_records <- row.shuffled_records + Option.value ~default:0 (attr_int e.attrs "records");
      row.shuffled_bytes <- row.shuffled_bytes + Option.value ~default:0 (attr_int e.attrs "bytes")
    | Instant, "broadcast" ->
      row.broadcasts <- row.broadcasts + 1;
      row.broadcast_records <-
        row.broadcast_records + Option.value ~default:0 (attr_int e.attrs "records")
    | Span, "stage" ->
      row.stages <- row.stages + 1;
      row.stage_sim_ns <- row.stage_sim_ns +. e.sim_dur_ns
    | _ -> ());
    (match attr_float e.attrs "skew" with
    | Some s when s > row.max_skew -> row.max_skew <- s
    | _ -> ());
    (match attr_float e.attrs "straggler" with
    | Some s when s > row.max_straggler -> row.max_straggler <- s
    | _ -> ());
    (match attr_int e.attrs "dedup_dropped" with
    | Some n -> row.dedup_dropped <- row.dedup_dropped + n
    | None -> ());
    if e.kind = Span then row.spans <- row.spans + 1

  let group evs scope_of =
    let rows = Hashtbl.create 32 in
    List.iter
      (fun e ->
        match scope_of e with
        | None -> ()
        | Some scope ->
          let row =
            match Hashtbl.find_opt rows scope with
            | Some r -> r
            | None ->
              let r = fresh_row scope e.id in
              Hashtbl.replace rows scope r;
              r
          in
          accumulate row e)
      evs;
    Hashtbl.fold (fun _ r acc -> r :: acc) rows []
    |> List.sort (fun a b -> compare a.first_id b.first_id)

  (* Rollup keyed by the nearest enclosing physical operator (spans with
     category "op", emitted by Physical.Exec). Communication and stage
     time of an operator's children is charged to that operator. *)
  let per_operator evs =
    let tbl = index evs in
    group evs (fun e ->
        match find_ancestor tbl e (fun p -> p.cat = "op") with
        | Some op -> Some op.name
        | None -> if e.cat = "op" then Some e.name else Some "<driver>")

  (* Rollup keyed by (fixpoint variable, iteration). Only events inside
     an "iteration" span contribute. *)
  let per_iteration evs =
    let tbl = index evs in
    group evs (fun e ->
        let it =
          if e.kind = Span && e.name = "iteration" then Some e
          else find_ancestor tbl e (fun p -> p.name = "iteration" && p.cat = "fixpoint")
        in
        match it with
        | None -> None
        | Some it ->
          let var = Option.value ~default:"?" (attr_str it.attrs "var") in
          let i = Option.value ~default:0 (attr_int it.attrs "i") in
          Some (Printf.sprintf "fix %s iter %d" var i))

  (* Shuffle instants charged to a whole fixpoint (the paper's per-plan
     shuffle asymmetry: O(1) for P_plw, O(iterations) for P_gld). *)
  let fixpoint_shuffles evs =
    let tbl = index evs in
    let counts = Hashtbl.create 8 in
    List.iter
      (fun e ->
        if e.kind = Instant && e.name = "shuffle" then
          match find_ancestor tbl e (fun p -> p.name = "fixpoint" && p.cat = "fixpoint") with
          | None -> ()
          | Some fix ->
            let var = Option.value ~default:"?" (attr_str fix.attrs "var") in
            Hashtbl.replace counts var (1 + Option.value ~default:0 (Hashtbl.find_opt counts var)))
      evs;
    Hashtbl.fold (fun var n acc -> (var, n) :: acc) counts []
    |> List.sort compare

  (* Shuffle instants inside iteration spans, per fixpoint variable. *)
  let iteration_shuffles evs =
    let tbl = index evs in
    let counts = Hashtbl.create 8 in
    List.iter
      (fun e ->
        if e.kind = Instant && e.name = "shuffle" then
          match find_ancestor tbl e (fun p -> p.name = "iteration" && p.cat = "fixpoint") with
          | None -> ()
          | Some it ->
            let var = Option.value ~default:"?" (attr_str it.attrs "var") in
            Hashtbl.replace counts var (1 + Option.value ~default:0 (Hashtbl.find_opt counts var)))
      evs;
    Hashtbl.fold (fun var n acc -> (var, n) :: acc) counts []
    |> List.sort compare

  let pp_rows ppf rows =
    let header =
      Printf.sprintf "%-32s %6s %8s %10s %12s %7s %10s %7s %12s %6s %9s %10s" "scope" "spans"
        "shuffles" "sh.records" "sh.bytes" "bcasts" "bc.records" "stages" "stage sim ms" "skew"
        "straggler" "dedup.drop"
    in
    Format.fprintf ppf "%s@." header;
    Format.fprintf ppf "%s@." (String.make (String.length header) '-');
    List.iter
      (fun r ->
        Format.fprintf ppf
          "%-32s %6d %8d %10d %12d %7d %10d %7d %12.3f %6.2f %9.2f %10d@."
          (if String.length r.scope > 32 then String.sub r.scope 0 32 else r.scope)
          r.spans r.shuffles r.shuffled_records r.shuffled_bytes r.broadcasts r.broadcast_records
          r.stages (r.stage_sim_ns /. 1e6) r.max_skew r.max_straggler r.dedup_dropped)
      rows

  let to_string t =
    let evs = events t in
    let buf = Buffer.create 1024 in
    let ppf = Format.formatter_of_buffer buf in
    Format.fprintf ppf "== per-operator rollup ==@.";
    pp_rows ppf (per_operator evs);
    (match per_iteration evs with
    | [] -> ()
    | rows ->
      Format.fprintf ppf "@.== per-iteration rollup ==@.";
      pp_rows ppf rows);
    Format.pp_print_flush ppf ();
    Buffer.contents buf
end
