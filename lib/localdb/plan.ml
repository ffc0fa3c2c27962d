module Tset = Relation.Tset
module Tuple = Relation.Tuple

module H = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type build = Tuple.t list H.t

type t =
  | Scan of Relation.Rel.t
  | Work_table of Tset.t ref
  | Filter of (Tuple.t -> bool) * t
  | Map of (Tuple.t -> Tuple.t) * t
  | Hash_join of join
  | Hash_anti of join
  | Append of t list
  | Distinct of t

and join = {
  left : t;
  left_key : int array;
  right : t;
  right_key : int array;
  merge : Tuple.t -> Tuple.t -> Tuple.t;
  mutable built : build option;
}

type cursor = unit -> Tuple.t option

let join ~left ~left_key ~right ~right_key ~merge =
  { left; left_key; right; right_key; merge; built = None }

let rec reads_work_table = function
  | Work_table _ -> true
  | Scan _ -> false
  | Filter (_, child) | Map (_, child) | Distinct child -> reads_work_table child
  | Hash_join j | Hash_anti j -> reads_work_table j.left || reads_work_table j.right
  | Append children -> List.exists reads_work_table children

let drain cursor f =
  let rec go () =
    match cursor () with
    | Some tu ->
      f tu;
      go ()
    | None -> ()
  in
  go ()

(* The right side's hash table by its join key. A side that reads no
   working table is the same at every open, so its table is built once
   and kept, as PostgreSQL keeps a hash join's table on rescan when the
   inner side's parameters did not change. *)
let rec build_side j =
  match j.built with
  | Some table -> table
  | None ->
    let table = H.create 256 in
    drain (open_cursor j.right) (fun tu ->
        let key = Tuple.project j.right_key tu in
        H.replace table key (tu :: Option.value ~default:[] (H.find_opt table key)));
    if not (reads_work_table j.right) then j.built <- Some table;
    table

and open_cursor plan : cursor =
  match plan with
  | Scan rel ->
    let items = ref (Relation.Rel.to_list rel) in
    fun () ->
      (match !items with
      | [] -> None
      | tu :: rest ->
        items := rest;
        Some tu)
  | Work_table cell ->
    let items = ref (Tset.to_list !cell) in
    fun () ->
      (match !items with
      | [] -> None
      | tu :: rest ->
        items := rest;
        Some tu)
  | Filter (p, child) ->
    let next = open_cursor child in
    let rec pull () =
      match next () with
      | Some tu when p tu -> Some tu
      | Some _ -> pull ()
      | None -> None
    in
    pull
  | Map (f, child) ->
    let next = open_cursor child in
    fun () ->
      (match next () with
      | Some tu -> Some (f tu)
      | None -> None)
  | Hash_join ({ left; left_key; merge; _ } as j) ->
    (* build on the right, probe from the left *)
    let table = build_side j in
    let next_left = open_cursor left in
    let pending = ref [] in
    let current_left = ref [||] in
    let rec pull () =
      match !pending with
      | rt :: rest ->
        pending := rest;
        Some (merge !current_left rt)
      | [] -> (
        match next_left () with
        | None -> None
        | Some lt -> (
          match H.find_opt table (Tuple.project left_key lt) with
          | Some matches ->
            current_left := lt;
            pending := matches;
            pull ()
          | None -> pull ()))
    in
    pull
  | Hash_anti ({ left; left_key; _ } as j) ->
    let table = build_side j in
    let next_left = open_cursor left in
    let rec pull () =
      match next_left () with
      | None -> None
      | Some lt ->
        if H.mem table (Tuple.project left_key lt) then pull () else Some lt
    in
    pull
  | Append children ->
    let remaining = ref children in
    let current = ref (fun () -> None) in
    let rec pull () =
      match !current () with
      | Some tu -> Some tu
      | None -> (
        match !remaining with
        | [] -> None
        | child :: rest ->
          remaining := rest;
          current := open_cursor child;
          pull ())
    in
    pull
  | Distinct child ->
    let seen = H.create 256 in
    let next = open_cursor child in
    let rec pull () =
      match next () with
      | None -> None
      | Some tu ->
        if H.mem seen tu then pull ()
        else begin
          H.replace seen tu ();
          Some tu
        end
    in
    pull

let rec pp ppf = function
  | Scan rel -> Format.fprintf ppf "SeqScan(%d rows)" (Relation.Rel.cardinal rel)
  | Work_table cell -> Format.fprintf ppf "WorkTableScan(%d rows)" (Tset.cardinal !cell)
  | Filter (_, child) -> Format.fprintf ppf "@[<v2>Filter@,%a@]" pp child
  | Map (_, child) -> Format.fprintf ppf "@[<v2>Project@,%a@]" pp child
  | Hash_join { left; right; _ } ->
    Format.fprintf ppf "@[<v2>HashJoin@,%a@,%a@]" pp left pp right
  | Hash_anti { left; right; _ } ->
    Format.fprintf ppf "@[<v2>HashAntiJoin@,%a@,%a@]" pp left pp right
  | Append children ->
    Format.fprintf ppf "@[<v2>Append@,%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp)
      children
  | Distinct child -> Format.fprintf ppf "@[<v2>Distinct@,%a@]" pp child

let run plan =
  let out = Tset.create () in
  drain (open_cursor plan) (fun tu -> ignore (Tset.add out tu));
  out

let recursive_union ~name ~max_iterations ~max_tuples ~limit ~all ~work branches =
  let tr = Trace.get () in
  Trace.span tr ~cat:"localdb" ~attrs:[ ("var", Trace.Str name) ] "localdb.fix" @@ fun () ->
  let rec loop round deltas =
    if round > max_iterations then
      raise (limit (Printf.sprintf "max iterations exceeded (local fixpoint on %s)" name));
    let fresh = Tset.create () in
    List.iter
      (fun p -> Tset.iter (fun tu -> if not (Tset.mem all tu) then ignore (Tset.add fresh tu)) (run p))
      branches;
    let n = Tset.cardinal fresh in
    Trace.instant tr ~cat:"localdb"
      ~attrs:[ ("round", Trace.Int round); ("fresh", Trace.Int n) ]
      "localdb.round";
    if n = 0 then (round, List.rev (0 :: deltas))
    else begin
      ignore (Tset.add_all all fresh);
      if Tset.cardinal all > max_tuples then
        raise (limit (Printf.sprintf "dataset exceeds %d tuples" max_tuples));
      work := fresh;
      loop (round + 1) (n :: deltas)
    end
  in
  let rounds, deltas = loop 1 [] in
  Trace.set_attr tr "rounds" (Trace.Int rounds);
  deltas
