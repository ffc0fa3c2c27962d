module Tset = Relation.Tset
module Tuple = Relation.Tuple

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
}

type cursor = unit -> Tuple.t option

let rows = ref 0
let rows_scanned () = !rows
let reset_rows_scanned () = rows := 0

module H = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let drain cursor f =
  let rec go () =
    match cursor () with
    | Some tu ->
      f tu;
      go ()
    | None -> ()
  in
  go ()

let rec open_cursor plan : cursor =
  match plan with
  | Scan rel ->
    let items = ref (Relation.Rel.to_list rel) in
    fun () ->
      (match !items with
      | [] -> None
      | tu :: rest ->
        items := rest;
        incr rows;
        Some tu)
  | Work_table cell ->
    let items = ref (Tset.to_list !cell) in
    fun () ->
      (match !items with
      | [] -> None
      | tu :: rest ->
        items := rest;
        incr rows;
        Some tu)
  | Filter (p, child) ->
    let next = open_cursor child in
    let rec pull () =
      match next () with
      | Some tu when p tu ->
        incr rows;
        Some tu
      | Some _ -> pull ()
      | None -> None
    in
    pull
  | Map (f, child) ->
    let next = open_cursor child in
    fun () ->
      (match next () with
      | Some tu ->
        incr rows;
        Some (f tu)
      | None -> None)
  | Hash_join { left; left_key; right; right_key; merge } ->
    (* build on the right, probe from the left *)
    let table = H.create 256 in
    drain (open_cursor right) (fun tu ->
        let key = Tuple.project right_key tu in
        match H.find_opt table key with
        | Some l -> H.replace table key (tu :: l)
        | None -> H.replace table key [ tu ]);
    let next_left = open_cursor left in
    let pending = ref [] in
    let current_left = ref [||] in
    let rec pull () =
      match !pending with
      | rt :: rest ->
        pending := rest;
        incr rows;
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
  | Hash_anti { left; left_key; right; right_key; merge = _ } ->
    let table = H.create 256 in
    drain (open_cursor right) (fun tu -> H.replace table (Tuple.project right_key tu) ());
    let next_left = open_cursor left in
    let rec pull () =
      match next_left () with
      | None -> None
      | Some lt ->
        if H.mem table (Tuple.project left_key lt) then pull ()
        else begin
          incr rows;
          Some lt
        end
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
          incr rows;
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

let recursive_union ~name ~all ~work branches =
  let tr = Trace.get () in
  Trace.span tr ~cat:"localdb" ~attrs:[ ("var", Trace.Str name) ] "localdb.fix" @@ fun () ->
  let rounds = ref 0 in
  let rec loop () =
    incr rounds;
    let fresh = Tset.create () in
    List.iter
      (fun p -> Tset.iter (fun tu -> if not (Tset.mem all tu) then ignore (Tset.add fresh tu)) (run p))
      branches;
    Trace.instant tr ~cat:"localdb"
      ~attrs:[ ("round", Trace.Int !rounds); ("fresh", Trace.Int (Tset.cardinal fresh)) ]
      "localdb.round";
    if not (Tset.is_empty fresh) then begin
      ignore (Tset.add_all all fresh);
      work := fresh;
      loop ()
    end
  in
  loop ();
  Trace.set_attr tr "rounds" (Trace.Int !rounds)
