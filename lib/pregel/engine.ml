module Rel = Relation.Rel
module Schema = Relation.Schema
module Tset = Relation.Tset
module Value = Relation.Value
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics
module Nfa = Rpq.Nfa

exception Engine_failure of string

type config = { cluster : Cluster.t; max_supersteps : int; max_state : int }

let default_config cluster = { cluster; max_supersteps = 100_000; max_state = 500_000_000 }

(* adjacency of one vertex: (label, neighbour) lists, separated by
   direction *)
type vertex_adj = { mutable out_edges : (int * int) list; mutable in_edges : (int * int) list }

type worker_graph = (int, vertex_adj) Hashtbl.t

type graph = {
  config : config;
  parts : worker_graph array;
  n_vertices : int;
  n_edges : int;
}

let owner config v = Value.hash v mod Cluster.workers config.cluster

let adj_of part v =
  match Hashtbl.find_opt part v with
  | Some a -> a
  | None ->
    let a = { out_edges = []; in_edges = [] } in
    Hashtbl.replace part v a;
    a

let load config rel =
  let workers = Cluster.workers config.cluster in
  let parts = Array.init workers (fun _ -> Hashtbl.create 1024) in
  let vertex_set = Hashtbl.create 1024 in
  let n_edges = ref 0 in
  Rel.iter
    (fun tu ->
      match tu with
      | [| s; l; t |] ->
        incr n_edges;
        Hashtbl.replace vertex_set s ();
        Hashtbl.replace vertex_set t ();
        let oa = adj_of parts.(owner config s) s in
        oa.out_edges <- (l, t) :: oa.out_edges;
        let ia = adj_of parts.(owner config t) t in
        ia.in_edges <- (l, s) :: ia.in_edges
      | _ -> invalid_arg "Pregel.load: expected (src, label, trg) edges")
    rel;
  (* shipping the graph to the workers is one initial exchange *)
  Metrics.record_shuffle (Cluster.metrics config.cluster) ~records:!n_edges
    ~bytes:(!n_edges * Metrics.tuple_bytes 3);
  Trace.instant (Trace.get ()) ~cat:"shuffle"
    ~attrs:
      [
        ("op", Trace.Str "pregel.load");
        ("records", Trace.Int !n_edges);
        ("bytes", Trace.Int (!n_edges * Metrics.tuple_bytes 3));
      ]
    "shuffle";
  { config; parts; n_vertices = Hashtbl.length vertex_set; n_edges = !n_edges }

let vertices g = g.n_vertices
let edges g = g.n_edges

type stats = { supersteps : int; messages : int; state_pairs : int }

(* messages are (target_vertex, origin, nfa_state) *)
let eval_rpq ?source ?target g regex =
  let config = g.config in
  let workers = Cluster.workers config.cluster in
  let m = Cluster.metrics config.cluster in
  let nfa = Nfa.of_regex regex in
  if Nfa.accepts_empty nfa then
    raise
      (Rpq.Query.Translation_error
         (Printf.sprintf "path %s can match the empty word" (Rpq.Regex.to_string regex)));
  (* per-worker vertex state: seen (origin, state) pairs per vertex *)
  let seen : (int, Tset.t) Hashtbl.t array =
    Array.init workers (fun _ -> Hashtbl.create 1024)
  in
  let results = Array.init workers (fun _ -> Tset.create ()) in
  let total_state = ref 0 in
  let total_messages = ref 0 in
  let supersteps = ref 0 in
  let label_cache = Hashtbl.create 8 in
  let label_value l =
    match Hashtbl.find_opt label_cache l with
    | Some v -> v
    | None ->
      let v = Value.of_string l in
      Hashtbl.replace label_cache l v;
      v
  in
  (* initial messages: (v, start) for each seed vertex *)
  let initial =
    match source with
    | Some s -> [ (s, s, Nfa.start nfa) ]
    | None ->
      Array.to_list g.parts
      |> List.concat_map (fun part ->
             Hashtbl.fold (fun v _ acc -> (v, v, Nfa.start nfa) :: acc) part [])
  in
  let inbox = Array.init workers (fun _ -> ref []) in
  List.iter (fun ((v, _, _) as msg) -> inbox.(owner config v) := msg :: !(inbox.(owner config v))) initial;
  let pending = ref (List.length initial) in
  while !pending > 0 do
    incr supersteps;
    Trace.span (Trace.get ()) ~cat:"pregel"
      ~attrs:[ ("i", Trace.Int !supersteps); ("pending", Trace.Int !pending) ]
      "superstep"
    @@ fun () ->
    Metrics.record_superstep m;
    if !supersteps > config.max_supersteps then raise (Engine_failure "superstep budget exceeded");
    (* compute phase: one stage across workers *)
    (* label handles per NFA state, resolved once per superstep *)
    let transitions_of =
      let cache = Hashtbl.create 8 in
      fun q ->
        match Hashtbl.find_opt cache q with
        | Some l -> l
        | None ->
          let l =
            List.map
              (fun ({ Nfa.label; inverse }, q') -> (label_value label, inverse, q'))
              (Nfa.transitions nfa q)
          in
          Hashtbl.replace cache q l;
          l
    in
    let stage_results =
      Cluster.run_stage config.cluster (fun w ->
          let part = g.parts.(w) in
          let out = ref [] in
          let added = ref 0 in
          List.iter
            (fun (v, origin, q) ->
              let vertex_seen =
                match Hashtbl.find_opt seen.(w) v with
                | Some s -> s
                | None ->
                  let s = Tset.create ~capacity:4 () in
                  Hashtbl.replace seen.(w) v s;
                  s
              in
              if Tset.add vertex_seen [| origin; q |] then begin
                incr added;
                if Nfa.is_accepting nfa q then ignore (Tset.add results.(w) [| origin; v |]);
                match Hashtbl.find_opt part v with
                | None -> ()
                | Some adj ->
                  List.iter
                    (fun (lv, inverse, q') ->
                      let neighbours = if inverse then adj.in_edges else adj.out_edges in
                      List.iter
                        (fun (l, n) -> if l = lv then out := (n, origin, q') :: !out)
                        neighbours)
                    (transitions_of q)
              end)
            !(inbox.(w));
          (!out, !added))
    in
    let outboxes = Array.map fst stage_results in
    Array.iter (fun (_, added) -> total_state := !total_state + added) stage_results;
    if !total_state > config.max_state then
      raise (Engine_failure (Printf.sprintf "state budget exceeded (%d pairs)" !total_state));
    (* message exchange *)
    Array.iter (fun ib -> ib := []) inbox;
    let crossing = ref 0 and count = ref 0 in
    Array.iteri
      (fun w out ->
        List.iter
          (fun ((v, _, _) as msg) ->
            let o = owner config v in
            if o <> w then incr crossing;
            incr count;
            inbox.(o) := msg :: !(inbox.(o)))
          out)
      outboxes;
    total_messages := !total_messages + !count;
    if !count > 0 then begin
      Metrics.record_shuffle m ~records:!crossing ~bytes:(!crossing * Metrics.tuple_bytes 3);
      Trace.instant (Trace.get ()) ~cat:"shuffle"
        ~attrs:
          [
            ("op", Trace.Str "pregel.messages");
            ("records", Trace.Int !crossing);
            ("bytes", Trace.Int (!crossing * Metrics.tuple_bytes 3));
          ]
        "shuffle"
    end;
    if !total_messages > config.max_state then
      raise (Engine_failure (Printf.sprintf "message budget exceeded (%d)" !total_messages));
    pending := !count
  done;
  (* gather results *)
  let schema = Schema.of_list [ "src"; "trg" ] in
  let out = Rel.create schema in
  Array.iter (fun r -> Tset.iter (fun tu -> ignore (Rel.add out tu)) r) results;
  let records = Rel.cardinal out in
  Metrics.record_shuffle m ~records ~bytes:(records * Metrics.tuple_bytes 2);
  Trace.instant (Trace.get ()) ~cat:"shuffle"
    ~attrs:
      [
        ("op", Trace.Str "pregel.gather");
        ("records", Trace.Int records);
        ("bytes", Trace.Int (records * Metrics.tuple_bytes 2));
      ]
    "shuffle";
  let out =
    match target with
    | Some t -> Rel.select (Relation.Pred.Eq_const ("trg", t)) out
    | None -> out
  in
  let out =
    match source with
    | Some s -> Rel.select (Relation.Pred.Eq_const ("src", s)) out
    | None -> out
  in
  (out, { supersteps = !supersteps; messages = !total_messages; state_pairs = !total_state })
