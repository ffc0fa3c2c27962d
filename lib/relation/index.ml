module H = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type t = Tuple.t list H.t

let build schema key_cols tuples =
  let key_pos = Schema.positions schema key_cols in
  let table = H.create 256 in
  Seq.iter
    (fun tu ->
      let key = Tuple.project key_pos tu in
      match H.find_opt table key with
      | Some l -> H.replace table key (tu :: l)
      | None -> H.replace table key [ tu ])
    tuples;
  table

let probe idx key = match H.find_opt idx key with Some l -> l | None -> []
let mem idx key = H.mem idx key
