type t = { schema : Schema.t; data : Tset.t }

let create schema = { schema; data = Tset.create () }
let schema r = r.schema
let cardinal r = Tset.cardinal r.data
let is_empty r = Tset.is_empty r.data

let add r tu =
  if Array.length tu <> Schema.arity r.schema then
    invalid_arg
      (Printf.sprintf "Rel.add: arity %d vs schema %s" (Array.length tu)
         (Schema.to_string r.schema));
  Tset.add r.data tu

let of_tuples schema l =
  let r = create schema in
  List.iter (fun tu -> ignore (add r tu)) l;
  r

let of_list schema rows = of_tuples schema (List.map Array.of_list rows)
let of_tset schema data = { schema; data }
let tuples r = r.data
let iter f r = Tset.iter f r.data
let fold f r init = Tset.fold f r.data init
let exists p r = Tset.exists p r.data
let for_all p r = Tset.for_all p r.data
let to_list r = Tset.to_list r.data
let mem r tu = Tset.mem r.data tu
let copy r = { r with data = Tset.copy r.data }

let select p r =
  let keep = Pred.compile r.schema p in
  let out = Tset.create () in
  Tset.iter (fun tu -> if keep tu then ignore (Tset.add out tu)) r.data;
  { schema = r.schema; data = out }

let project_positions schema positions r =
  let out = Tset.create ~capacity:(cardinal r) () in
  Tset.iter (fun tu -> ignore (Tset.add out (Tuple.project positions tu))) r.data;
  { schema; data = out }

let project keep r =
  let schema = Schema.restrict r.schema keep in
  project_positions schema (Schema.positions r.schema keep) r

let antiproject dropped r =
  let schema = Schema.minus r.schema dropped in
  project_positions schema (Schema.positions r.schema (Schema.cols schema)) r

let rename mapping r = { r with schema = Schema.rename mapping r.schema }

(* Hash join on the shared columns; output layout is left columns
   followed by the non-shared right columns. The index is built on the
   smaller input (crucial inside semi-naive loops, where one side is a
   small delta and the other a large stable relation). *)
let natural_join l r =
  let shared = Schema.common l.schema r.schema in
  let out_schema = Schema.append_distinct l.schema r.schema in
  let extra_cols =
    List.filter (fun c -> not (Schema.mem l.schema c)) (Schema.cols r.schema)
  in
  let extra_pos = Schema.positions r.schema extra_cols in
  let out = Tset.create () in
  let emit lt rt = ignore (Tset.add out (Tuple.concat lt (Tuple.project extra_pos rt))) in
  (match shared with
  | [] -> Tset.iter (fun lt -> Tset.iter (fun rt -> emit lt rt) r.data) l.data
  | _ ->
    let l_key = Schema.positions l.schema shared in
    if Tset.cardinal r.data <= Tset.cardinal l.data then begin
      let idx = Index.build r.schema shared (Tset.to_seq r.data) in
      Tset.iter
        (fun lt -> List.iter (emit lt) (Index.probe idx (Tuple.project l_key lt)))
        l.data
    end
    else begin
      let idx = Index.build l.schema shared (Tset.to_seq l.data) in
      let r_key = Schema.positions r.schema shared in
      Tset.iter
        (fun rt ->
          List.iter (fun lt -> emit lt rt) (Index.probe idx (Tuple.project r_key rt)))
        r.data
    end);
  { schema = out_schema; data = out }

let antijoin l r =
  let shared = Schema.common l.schema r.schema in
  match shared with
  | [] ->
    (* No shared columns: l ▷ r keeps l iff r is empty. *)
    if Tset.is_empty r.data then copy l else create l.schema
  | _ ->
    let idx = Index.build r.schema shared (Tset.to_seq r.data) in
    let l_key = Schema.positions l.schema shared in
    let out = Tset.create () in
    Tset.iter
      (fun lt -> if not (Index.mem idx (Tuple.project l_key lt)) then ignore (Tset.add out lt))
      l.data;
    { schema = l.schema; data = out }

let relayout s r =
  if Schema.equal_ordered s r.schema then r
  else project_positions s (Schema.reorder_positions ~from:r.schema ~into:s) r

let union_into dst src =
  if Schema.equal_ordered dst.schema src.schema then Tset.add_all dst.data src.data
  else begin
    let perm = Schema.reorder_positions ~from:src.schema ~into:dst.schema in
    Tset.fold
      (fun tu n -> if Tset.add dst.data (Tuple.project perm tu) then n + 1 else n)
      src.data 0
  end

let union a b =
  let out = copy a in
  ignore (union_into out b);
  out

let diff a b =
  let b' =
    if Schema.equal_ordered a.schema b.schema then b
    else
      let perm = Schema.reorder_positions ~from:b.schema ~into:a.schema in
      project_positions a.schema perm b
  in
  let out = Tset.create () in
  Tset.iter (fun tu -> if not (Tset.mem b'.data tu) then ignore (Tset.add out tu)) a.data;
  { schema = a.schema; data = out }

let inter a b =
  let b' =
    if Schema.equal_ordered a.schema b.schema then b
    else
      let perm = Schema.reorder_positions ~from:b.schema ~into:a.schema in
      project_positions a.schema perm b
  in
  let out = Tset.create () in
  Tset.iter (fun tu -> if Tset.mem b'.data tu then ignore (Tset.add out tu)) a.data;
  { schema = a.schema; data = out }

let equal a b =
  Schema.equal_names a.schema b.schema
  && cardinal a = cardinal b
  &&
  if Schema.equal_ordered a.schema b.schema then Tset.for_all (Tset.mem b.data) a.data
  else
    let perm = Schema.reorder_positions ~from:a.schema ~into:b.schema in
    Tset.for_all (fun tu -> Tset.mem b.data (Tuple.project perm tu)) a.data

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Two scans: one for each column's value range, one to mark the values
   seen. A column whose range is at most four times the tuple count
   (node ids, interned labels) is marked in a byte map of that range, so
   the map never outgrows a few bytes per tuple; a sparser column goes
   through an int-keyed table. [iter] feeds the [n] tuples to count, once
   per scan. *)
let count_distincts arity n iter =
  let lo = Array.make arity max_int and hi = Array.make arity min_int in
  iter (fun tu ->
      for i = 0 to arity - 1 do
        let v = tu.(i) in
        if v < lo.(i) then lo.(i) <- v;
        if v > hi.(i) then hi.(i) <- v
      done);
  let counts = Array.make arity 0 in
  let note =
    Array.init arity (fun i ->
        let base = lo.(i) and span = hi.(i) - lo.(i) in
        if n > 0 && span >= 0 && span <= 4 * n then begin
          let seen = Bytes.make (span + 1) '\000' in
          fun v ->
            if Bytes.get seen (v - base) = '\000' then begin
              Bytes.set seen (v - base) '\001';
              counts.(i) <- counts.(i) + 1
            end
        end
        else begin
          let seen = Vtbl.create (min n 1024) in
          fun v ->
            if not (Vtbl.mem seen v) then begin
              Vtbl.add seen v ();
              counts.(i) <- counts.(i) + 1
            end
        end)
  in
  iter (fun tu ->
      for i = 0 to arity - 1 do
        note.(i) tu.(i)
      done);
  counts

let distinct_counts r =
  let counts = count_distincts (Schema.arity r.schema) (cardinal r) (fun f -> Tset.iter f r.data) in
  List.mapi (fun i c -> (c, counts.(i))) (Schema.cols r.schema)

let select_counts p r =
  let keep = Pred.compile r.schema p in
  let hits = Tset.fold (fun tu acc -> if keep tu then tu :: acc else acc) r.data [] in
  let n = List.length hits in
  let counts = count_distincts (Schema.arity r.schema) n (fun f -> List.iter f hits) in
  (n, List.mapi (fun i c -> (c, counts.(i))) (Schema.cols r.schema))

let distinct_count r col = snd (List.nth (distinct_counts r) (Schema.index_of r.schema col))

let sorted_tuples r =
  let arr = Tset.to_array r.data in
  Array.sort Tuple.compare arr;
  arr

let pp_full ppf r =
  Format.fprintf ppf "@[<v>%a (%d tuples)" Schema.pp r.schema (cardinal r);
  Array.iter (fun tu -> Format.fprintf ppf "@,%a" Tuple.pp tu) (sorted_tuples r);
  Format.fprintf ppf "@]"

let pp ppf r =
  if cardinal r <= 20 then pp_full ppf r
  else Format.fprintf ppf "%a (%d tuples)" Schema.pp r.schema (cardinal r)

let to_string r = Format.asprintf "%a" pp r
