module Schema = Relation.Schema
module Tset = Relation.Tset
module Tuple = Relation.Tuple
module Rel = Relation.Rel

exception Sql_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Sql_error s)) fmt

(* ------------------------------------------------------------------ *)
(* AST                                                                 *)
(* ------------------------------------------------------------------ *)

type colref = { tbl : string option; col : string }
type selcol = Star | Col of colref * string option
type operand = Ref of colref | Lit of int
type eq = { lhs : colref; rhs : operand }

type item = Table of string * string option | Sub of select * string

and select =
  | Plain of {
      cols : selcol list;
      from : item;
      joins : (item * eq list) list;
      where : eq list;
    }
  | Union of select * select

type stmt = { ctes : (string * select) list; body : select }

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Id of string (* lowercased keywords compared via [kw] *)
  | Int of int
  | Str of string
  | Lpar
  | Rpar
  | Comma
  | Dot
  | Equal
  | Starred

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let tokenize s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '(' -> go (i + 1) (Lpar :: acc)
      | ')' -> go (i + 1) (Rpar :: acc)
      | ',' -> go (i + 1) (Comma :: acc)
      | '.' -> go (i + 1) (Dot :: acc)
      | '=' -> go (i + 1) (Equal :: acc)
      | '*' -> go (i + 1) (Starred :: acc)
      | '\'' ->
        let j = try String.index_from s (i + 1) '\'' with Not_found -> fail "unterminated string" in
        go (j + 1) (Str (String.sub s (i + 1) (j - i - 1)) :: acc)
      | c when c >= '0' && c <= '9' ->
        let j = ref i in
        while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
          incr j
        done;
        go !j (Int (int_of_string (String.sub s i (!j - i))) :: acc)
      | c when is_ident_char c ->
        let j = ref i in
        while !j < n && is_ident_char s.[!j] do
          incr j
        done;
        go !j (Id (String.sub s i (!j - i)) :: acc)
      | c -> fail "unexpected character %C" c
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type state = { mutable toks : token list }

let kw t k = match t with Id s -> String.lowercase_ascii s = k | _ -> false
let peek st = match st.toks with [] -> None | t :: _ -> Some t
let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r

let expect_kw st k =
  match peek st with
  | Some t when kw t k -> advance st
  | _ -> fail "expected %s" (String.uppercase_ascii k)

let expect st t what =
  match peek st with Some t' when t' = t -> advance st | _ -> fail "expected %s" what

let is_keyword s =
  List.mem (String.lowercase_ascii s)
    [ "select"; "from"; "join"; "on"; "where"; "and"; "union"; "with"; "recursive"; "as" ]

let ident st what =
  match peek st with
  | Some (Id s) when not (is_keyword s) ->
    advance st;
    s
  | _ -> fail "expected %s" what

let parse_colref st =
  let first = ident st "a column" in
  match peek st with
  | Some Dot ->
    advance st;
    { tbl = Some first; col = ident st "a column" }
  | _ -> { tbl = None; col = first }

let parse_eq st =
  let lhs = parse_colref st in
  expect st Equal "'='";
  match peek st with
  | Some (Int n) ->
    advance st;
    { lhs; rhs = Lit n }
  | Some (Str s) ->
    advance st;
    { lhs; rhs = Lit (Relation.Value.of_string s) }
  | _ -> { lhs; rhs = Ref (parse_colref st) }

let parse_eqs st =
  let rec go acc =
    let e = parse_eq st in
    match peek st with
    | Some t when kw t "and" ->
      advance st;
      go (e :: acc)
    | _ -> List.rev (e :: acc)
  in
  go []

let rec parse_select st : select =
  let left = parse_plain st in
  match peek st with
  | Some t when kw t "union" ->
    advance st;
    Union (left, parse_select st)
  | _ -> left

and parse_plain st : select =
  expect_kw st "select";
  let cols =
    match peek st with
    | Some Starred ->
      advance st;
      [ Star ]
    | _ ->
      let rec go acc =
        let c = parse_colref st in
        let alias =
          match peek st with
          | Some t when kw t "as" ->
            advance st;
            Some (ident st "an alias")
          | _ -> None
        in
        let acc = Col (c, alias) :: acc in
        match peek st with
        | Some Comma ->
          advance st;
          go acc
        | _ -> List.rev acc
      in
      go []
  in
  expect_kw st "from";
  let from = parse_item st in
  let joins = ref [] in
  let where = ref [] in
  let continue = ref true in
  while !continue do
    match peek st with
    | Some t when kw t "join" ->
      advance st;
      let item = parse_item st in
      expect_kw st "on";
      joins := (item, parse_eqs st) :: !joins
    | Some t when kw t "where" ->
      advance st;
      where := parse_eqs st
    | _ -> continue := false
  done;
  Plain { cols; from; joins = List.rev !joins; where = !where }

and parse_item st : item =
  match peek st with
  | Some Lpar ->
    advance st;
    let sub = parse_select st in
    expect st Rpar "')'";
    Sub (sub, ident st "a subquery alias")
  | _ ->
    let name = ident st "a table name" in
    let alias =
      match peek st with
      | Some (Id s) when not (is_keyword s) ->
        advance st;
        Some s
      | _ -> None
    in
    Table (name, alias)

let parse_stmt s : stmt =
  let st = { toks = tokenize s } in
  let ctes =
    match peek st with
    | Some t when kw t "with" ->
      advance st;
      (match peek st with Some t when kw t "recursive" -> advance st | _ -> ());
      let rec go acc =
        let name = ident st "a CTE name" in
        expect_kw st "as";
        expect st Lpar "'('";
        let body = parse_select st in
        expect st Rpar "')'";
        match peek st with
        | Some Comma ->
          advance st;
          go ((name, body) :: acc)
        | _ -> List.rev ((name, body) :: acc)
      in
      go []
    | _ -> []
  in
  let body = parse_select st in
  (match peek st with None -> () | Some _ -> fail "trailing tokens");
  { ctes; body }

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Environment: name -> (plan producer, schema). Recursive CTEs are
   bound to a work-table cell. *)
type source = { mk : unit -> Plan.t; schema : Schema.t }

let qualify alias schema =
  Schema.of_list (List.map (fun c -> alias ^ "." ^ c) (Schema.cols schema))

let resolve schema (r : colref) =
  let cols = Schema.cols schema in
  let matches =
    match r.tbl with
    | Some t -> List.filter (fun c -> c = t ^ "." ^ r.col) cols
    | None ->
      List.filter
        (fun c ->
          c = r.col
          ||
          match String.index_opt c '.' with
          | Some i -> String.sub c (i + 1) (String.length c - i - 1) = r.col
          | None -> false)
        cols
  in
  match matches with
  | [ c ] -> Schema.index_of schema c
  | [] -> fail "unknown column %s" (match r.tbl with Some t -> t ^ "." ^ r.col | None -> r.col)
  | _ -> fail "ambiguous column %s" r.col

let rec select_refs_name name = function
  | Plain { from; joins; _ } ->
    let item_refs = function
      | Table (n, _) -> n = name
      | Sub (s, _) -> select_refs_name name s
    in
    item_refs from || List.exists (fun (i, _) -> item_refs i) joins
  | Union (a, b) -> select_refs_name name a || select_refs_name name b

let rec compile_select env (s : select) : Plan.t * Schema.t =
  match s with
  | Union (a, b) ->
    let pa, sa = compile_select env a in
    let pb, sb = compile_select env b in
    if not (Schema.equal_names sa sb) then
      fail "UNION branches have different columns (%s vs %s)" (Schema.to_string sa)
        (Schema.to_string sb);
    let pb =
      if Schema.equal_ordered sa sb then pb
      else Plan.Map (Tuple.project (Schema.reorder_positions ~from:sb ~into:sa), pb)
    in
    (Plan.Distinct (Plan.Append [ pa; pb ]), sa)
  | Plain { cols; from; joins; where } ->
    let compile_item = function
      | Table (name, alias) -> (
        match List.assoc_opt name env with
        | Some src ->
          let a = Option.value ~default:name alias in
          (src.mk (), qualify a src.schema)
        | None -> fail "unknown table %s" name)
      | Sub (sub, alias) ->
        let p, sc = compile_select env sub in
        (p, qualify alias sc)
    in
    let base = compile_item from in
    let joined =
      List.fold_left
        (fun (lp, ls) (item, eqs) ->
          let rp, rs = compile_item item in
          (* split the ON equalities into hash-join keys (one side per
             input) and residual filters *)
          let keys, residual =
            List.partition_map
              (fun e ->
                match e.rhs with
                | Ref r -> (
                  let left_has cr =
                    match resolve ls cr with _ -> true | exception Sql_error _ -> false
                  in
                  let right_has cr =
                    match resolve rs cr with _ -> true | exception Sql_error _ -> false
                  in
                  match (left_has e.lhs, right_has r, left_has r, right_has e.lhs) with
                  | true, true, _, _ -> Left (resolve ls e.lhs, resolve rs r)
                  | _, _, true, true -> Left (resolve ls r, resolve rs e.lhs)
                  | _ -> Right e)
                | Lit _ -> Right e)
              eqs
          in
          let out_schema =
            Schema.of_array (Array.append (Schema.to_array ls) (Schema.to_array rs))
          in
          let plan =
            Plan.Hash_join
              {
                left = lp;
                left_key = Array.of_list (List.map fst keys);
                right = rp;
                right_key = Array.of_list (List.map snd keys);
                merge = Tuple.concat;
              }
          in
          (* residual equalities become filters over the combined row *)
          let plan =
            List.fold_left
              (fun p e ->
                let i = resolve out_schema e.lhs in
                match e.rhs with
                | Lit v -> Plan.Filter ((fun tu -> tu.(i) = v), p)
                | Ref r ->
                  let j = resolve out_schema r in
                  Plan.Filter ((fun tu -> tu.(i) = tu.(j)), p))
              plan residual
          in
          (plan, out_schema))
        base joins
    in
    let plan, schema = joined in
    let plan =
      List.fold_left
        (fun p e ->
          let i = resolve schema e.lhs in
          match e.rhs with
          | Lit v -> Plan.Filter ((fun tu -> tu.(i) = v), p)
          | Ref r ->
            let j = resolve schema r in
            Plan.Filter ((fun tu -> tu.(i) = tu.(j)), p))
        plan where
    in
    (* projection *)
    let out_cols =
      match cols with
      | [ Star ] ->
        List.map
          (fun c ->
            match String.index_opt c '.' with
            | Some i -> (Schema.index_of schema c, String.sub c (i + 1) (String.length c - i - 1))
            | None -> (Schema.index_of schema c, c))
          (Schema.cols schema)
      | _ ->
        List.map
          (function
            | Star -> fail "SELECT *, col is not supported"
            | Col (r, alias) ->
              let i = resolve schema r in
              ((i : int), Option.value ~default:r.col alias))
          cols
    in
    let positions = Array.of_list (List.map fst out_cols) in
    let names = List.map snd out_cols in
    let out_schema =
      try Schema.of_list names
      with Schema.Schema_error m -> fail "output columns: %s (use AS to disambiguate)" m
    in
    (Plan.Distinct (Plan.Map (Tuple.project positions, plan)), out_schema)

(* ------------------------------------------------------------------ *)
(* CTEs, recursion and entry points                                    *)
(* ------------------------------------------------------------------ *)

let base_env db =
  List.map
    (fun name ->
      match Instance.lookup db name with
      | Some rel -> (name, { mk = (fun () -> Plan.Scan rel); schema = Rel.schema rel })
      | None -> assert false)
    (Instance.table_names db)

let compile_cte env name body =
  match body with
  | Union (seed_sel, rec_sel) when select_refs_name name rec_sel ->
    (* recursive CTE: work-table loop, as PostgreSQL's recursive union *)
    if select_refs_name name seed_sel then
      fail "recursive CTE %s: the first UNION branch must not be recursive" name;
    let seed_plan, schema = compile_select env seed_sel in
    let all = Plan.run seed_plan in
    let work = ref (Tset.copy all) in
    let env' =
      (name, { mk = (fun () -> Plan.Work_table work); schema }) :: env
    in
    let rec_plan, rec_schema = compile_select env' rec_sel in
    if not (Schema.equal_names schema rec_schema) then
      fail "recursive CTE %s: branches have different columns" name;
    let rec_plan =
      if Schema.equal_ordered schema rec_schema then rec_plan
      else Plan.Map (Tuple.project (Schema.reorder_positions ~from:rec_schema ~into:schema), rec_plan)
    in
    Plan.recursive_union ~name ~all ~work [ rec_plan ];
    { mk = (fun () -> Plan.Scan (Rel.of_tset schema all)); schema }
  | _ ->
    let plan, schema = compile_select env body in
    let result = Rel.of_tset schema (Plan.run plan) in
    { mk = (fun () -> Plan.Scan result); schema }

let compile db text =
  let { ctes; body } = parse_stmt text in
  let env =
    List.fold_left
      (fun env (name, cte_body) -> (name, compile_cte env name cte_body) :: env)
      (base_env db) ctes
  in
  compile_select env body

let query db text =
  let label = if String.length text <= 120 then text else String.sub text 0 120 ^ "…" in
  Trace.span (Trace.get ()) ~cat:"localdb" ~attrs:[ ("sql", Trace.Str label) ] "sql.query"
  @@ fun () ->
  let plan, schema = compile db text in
  Rel.of_tset schema (Plan.run plan)
