(* Unit and property tests for the relation kernel. *)

open Relation

let sch = Schema.of_list
let rel schema rows = Rel.of_list (sch schema) rows
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_rel msg expected actual =
  if not (Rel.equal expected actual) then
    Alcotest.failf "%s:@.expected %a@.got %a" msg Rel.pp_full expected Rel.pp_full actual

(* ------------------------------------------------------------------ *)
(* Dict / Value                                                        *)
(* ------------------------------------------------------------------ *)

let test_dict_roundtrip () =
  let h = Dict.intern "Japan" in
  check_bool "negative handle" true (h < 0);
  check_int "idempotent" h (Dict.intern "Japan");
  Alcotest.(check string) "lookup" "Japan" (Dict.lookup h);
  check_bool "is_handle" true (Dict.is_handle h)

let test_value_kinds () =
  let v = Value.of_int 42 in
  check_bool "int not symbol" false (Value.is_symbol v);
  Alcotest.(check string) "int print" "42" (Value.to_string v);
  let s = Value.of_string "label" in
  check_bool "symbol" true (Value.is_symbol s);
  Alcotest.(check string) "symbol print" "label" (Value.to_string s);
  Alcotest.check_raises "negative int rejected" (Invalid_argument "Value.of_int: negative")
    (fun () -> ignore (Value.of_int (-1)))

(* ------------------------------------------------------------------ *)
(* Tset                                                                *)
(* ------------------------------------------------------------------ *)

let test_tset_basic () =
  let s = Tset.create () in
  check_bool "add new" true (Tset.add s [| 1; 2 |]);
  check_bool "add dup" false (Tset.add s [| 1; 2 |]);
  check_bool "add other" true (Tset.add s [| 2; 1 |]);
  check_int "cardinal" 2 (Tset.cardinal s);
  check_bool "mem" true (Tset.mem s [| 1; 2 |]);
  check_bool "not mem" false (Tset.mem s [| 1; 3 |])

let test_tset_unit_tuple () =
  let s = Tset.create () in
  check_bool "empty tuple absent" false (Tset.mem s [||]);
  check_bool "add unit" true (Tset.add s [||]);
  check_bool "re-add unit" false (Tset.add s [||]);
  check_bool "mem unit" true (Tset.mem s [||]);
  check_int "cardinal with unit" 1 (Tset.cardinal s)

let test_tset_growth () =
  let s = Tset.create () in
  for i = 0 to 9_999 do
    ignore (Tset.add s [| i; i * 2; i mod 7 |])
  done;
  check_int "all distinct" 10_000 (Tset.cardinal s);
  for i = 0 to 9_999 do
    if not (Tset.mem s [| i; i * 2; i mod 7 |]) then Alcotest.failf "lost tuple %d" i
  done;
  let copied = Tset.copy s in
  ignore (Tset.add copied [| -1; -1; -1 |]);
  check_int "copy is independent" 10_000 (Tset.cardinal s)

let test_tset_reserve () =
  let s = Tset.create () in
  ignore (Tset.add s [| 1; 1 |]);
  Tset.reserve s 5_000;
  check_int "reserve keeps contents" 1 (Tset.cardinal s);
  check_bool "still member" true (Tset.mem s [| 1; 1 |]);
  for i = 0 to 4_999 do
    ignore (Tset.add s [| i; i + 1 |])
  done;
  check_int "all present after presize" 5_001 (Tset.cardinal s);
  Tset.reserve s 10;
  (* shrinking request: no-op *)
  check_int "never shrinks" 5_001 (Tset.cardinal s);
  check_bool "member after no-op" true (Tset.mem s [| 4_999; 5_000 |])

let test_tset_add_all () =
  let a = Tset.of_list [ [| 1 |]; [| 2 |] ] in
  let b = Tset.of_list [ [| 2 |]; [| 3 |] ] in
  check_int "added" 1 (Tset.add_all a b);
  check_int "merged size" 3 (Tset.cardinal a);
  check_bool "set equality" true (Tset.equal a (Tset.of_list [ [| 3 |]; [| 2 |]; [| 1 |] ]))

let test_tuple_hash_positions () =
  let tuples =
    [
      [| 1; 2; 3 |];
      [| 0; 0; 0 |];
      [| max_int; min_int; 42 |];
      [| Value.of_int 7; Value.of_string "x"; Value.of_string "y" |];
    ]
  in
  let positionss = [ [||]; [| 0 |]; [| 2 |]; [| 0; 2 |]; [| 2; 0 |]; [| 1; 1 |] ] in
  List.iter
    (fun tu ->
      List.iter
        (fun positions ->
          check_int "hash_positions ≡ hash ∘ project"
            (Tuple.hash (Tuple.project positions tu))
            (Tuple.hash_positions positions tu))
        positionss)
    tuples

let test_tset_add_hashed () =
  let s = Tset.create ~capacity:2 () in
  (* interleave add / add_hashed across enough tuples to force resizes:
     dedup and membership must behave exactly like plain [add] *)
  for i = 0 to 99 do
    let tu = [| i; i * 2 |] in
    let added =
      if i mod 2 = 0 then Tset.add_hashed s tu (Tuple.hash tu) else Tset.add s tu
    in
    check_bool "fresh tuple added" true added
  done;
  check_int "cardinal" 100 (Tset.cardinal s);
  for i = 0 to 99 do
    let tu = [| i; i * 2 |] in
    check_bool "mem" true (Tset.mem s tu);
    check_bool "duplicate rejected" false (Tset.add_hashed s tu (Tuple.hash tu))
  done;
  (* zero-arity tuple: hashed like add, ignores the passed hash *)
  check_bool "unit added" true (Tset.add_hashed s [||] 12345);
  check_bool "unit duplicate" false (Tset.add s [||]);
  check_bool "unit mem" true (Tset.mem s [||])

let test_tset_copy_with_capacity () =
  (* must equal copy-then-reserve exactly, including iteration order (the
     table geometry), which the routing of Dds.of_rel depends on *)
  let mk n = Tset.of_list (List.init n (fun i -> [| i; i * 3 |])) in
  List.iter
    (fun (n, cap) ->
      let s = mk n in
      if n > 0 then ignore (Tset.add s [||]);
      let fast = Tset.copy_with_capacity s cap in
      let slow = Tset.copy s in
      Tset.reserve slow cap;
      let order t =
        let acc = ref [] in
        Tset.iter (fun tu -> acc := tu :: !acc) t;
        !acc
      in
      check_bool "same contents" true (Tset.equal fast slow);
      check_bool "same iteration order" true (order fast = order slow);
      (* independence: growing the copy never touches the source *)
      ignore (Tset.add fast [| -1; -1 |]);
      check_int "source untouched" (Tset.cardinal s + 1) (Tset.cardinal fast))
    [ (0, 0); (0, 100); (5, 5); (5, 1_000); (57, 10_000); (1_000, 1_000_000) ]

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

let test_schema_basics () =
  let s = sch [ "a"; "b"; "c" ] in
  check_int "arity" 3 (Schema.arity s);
  check_int "index" 1 (Schema.index_of s "b");
  check_bool "mem" true (Schema.mem s "c");
  Alcotest.check_raises "duplicate rejected" (Schema.Schema_error "duplicate column \"a\"")
    (fun () -> ignore (sch [ "a"; "a" ]))

let test_schema_ops () =
  let s = sch [ "a"; "b"; "c" ] in
  check_bool "minus" true (Schema.equal_ordered (Schema.minus s [ "b" ]) (sch [ "a"; "c" ]));
  check_bool "restrict order" true
    (Schema.equal_ordered (Schema.restrict s [ "c"; "a" ]) (sch [ "c"; "a" ]));
  check_bool "equal_names unordered" true (Schema.equal_names s (sch [ "c"; "a"; "b" ]));
  check_bool "not equal_names" false (Schema.equal_names s (sch [ "a"; "b" ]));
  let renamed = Schema.rename [ ("a", "x") ] s in
  check_bool "rename" true (Schema.equal_ordered renamed (sch [ "x"; "b"; "c" ]));
  Alcotest.(check (list string)) "common" [ "b"; "c" ]
    (Schema.common s (sch [ "c"; "d"; "b" ]))

let test_schema_rename_errors () =
  let s = sch [ "a"; "b" ] in
  let expect_err f = match f () with
    | exception Schema.Schema_error _ -> ()
    | _ -> Alcotest.fail "expected Schema_error"
  in
  expect_err (fun () -> Schema.rename [ ("z", "x") ] s);
  expect_err (fun () -> Schema.rename [ ("a", "b") ] s);
  expect_err (fun () -> Schema.rename [ ("a", "x"); ("a", "y") ] s)

let test_schema_reorder () =
  let from = sch [ "a"; "b"; "c" ] and into = sch [ "c"; "a"; "b" ] in
  let perm = Schema.reorder_positions ~from ~into in
  Alcotest.(check (array int)) "perm" [| 2; 0; 1 |] perm;
  Alcotest.(check (array int)) "apply" [| 30; 10; 20 |] (Tuple.project perm [| 10; 20; 30 |])

(* ------------------------------------------------------------------ *)
(* Rel operators                                                       *)
(* ------------------------------------------------------------------ *)

let e_rel () = rel [ "src"; "trg" ] [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ]; [ 3; 4 ] ]

let test_select () =
  let r = e_rel () in
  check_rel "src=1"
    (rel [ "src"; "trg" ] [ [ 1; 2 ]; [ 1; 3 ] ])
    (Rel.select (Pred.Eq_const ("src", 1)) r);
  check_rel "src=trg empty" (Rel.create (sch [ "src"; "trg" ]))
    (Rel.select (Pred.Eq_col ("src", "trg")) r);
  check_rel "and"
    (rel [ "src"; "trg" ] [ [ 1; 2 ] ])
    (Rel.select (Pred.And (Eq_const ("src", 1), Eq_const ("trg", 2))) r);
  check_rel "or / not"
    (rel [ "src"; "trg" ] [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ] ])
    (Rel.select (Pred.Not (Eq_const ("src", 3))) r)

let test_project_antiproject () =
  let r = e_rel () in
  check_rel "project src" (rel [ "src" ] [ [ 1 ]; [ 2 ]; [ 3 ] ]) (Rel.project [ "src" ] r);
  check_rel "antiproject trg = project src" (Rel.project [ "src" ] r)
    (Rel.antiproject [ "trg" ] r);
  check_int "dedup happened" 3 (Rel.cardinal (Rel.project [ "src" ] r))

let test_rename () =
  let r = e_rel () in
  let swapped = Rel.rename [ ("src", "trg"); ("trg", "src") ] r in
  check_rel "swap columns = inverse edges"
    (rel [ "src"; "trg" ] [ [ 2; 1 ]; [ 3; 2 ]; [ 3; 1 ]; [ 4; 3 ] ])
    swapped

let test_join () =
  let r = e_rel () in
  let s = Rel.rename [ ("src", "trg"); ("trg", "dst2") ] (e_rel ()) in
  (* join on trg: paths of length 2 *)
  let j = Rel.natural_join r s in
  check_rel "2-paths"
    (rel [ "src"; "trg"; "dst2" ]
       [ [ 1; 2; 3 ]; [ 2; 3; 4 ]; [ 1; 3; 4 ] ])
    j

let test_join_cartesian () =
  let a = rel [ "a" ] [ [ 1 ]; [ 2 ] ] in
  let b = rel [ "b" ] [ [ 10 ]; [ 20 ] ] in
  check_rel "product"
    (rel [ "a"; "b" ] [ [ 1; 10 ]; [ 1; 20 ]; [ 2; 10 ]; [ 2; 20 ] ])
    (Rel.natural_join a b)

let test_antijoin () =
  let r = e_rel () in
  let sinks = rel [ "trg" ] [ [ 3 ] ] in
  check_rel "edges not into 3"
    (rel [ "src"; "trg" ] [ [ 1; 2 ]; [ 3; 4 ] ])
    (Rel.antijoin r sinks);
  (* no shared columns: keeps left iff right empty *)
  let empty1 = Rel.create (sch [ "zz" ]) in
  check_rel "right empty keeps all" r (Rel.antijoin r empty1);
  check_rel "right nonempty drops all" (Rel.create (sch [ "src"; "trg" ]))
    (Rel.antijoin r (rel [ "zz" ] [ [ 0 ] ]))

let test_union_diff_reorder () =
  let a = rel [ "x"; "y" ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  let b = rel [ "y"; "x" ] [ [ 2; 1 ]; [ 6; 5 ] ] in
  check_rel "union permutes" (rel [ "x"; "y" ] [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ]) (Rel.union a b);
  check_rel "diff permutes" (rel [ "x"; "y" ] [ [ 3; 4 ] ]) (Rel.diff a b);
  check_rel "inter permutes" (rel [ "x"; "y" ] [ [ 1; 2 ] ]) (Rel.inter a b);
  check_bool "equal modulo order" true
    (Rel.equal a (rel [ "y"; "x" ] [ [ 2; 1 ]; [ 4; 3 ] ]))

let test_distinct_count () =
  let r = e_rel () in
  check_int "src distinct" 3 (Rel.distinct_count r "src");
  check_int "trg distinct" 3 (Rel.distinct_count r "trg");
  (* a column whose values are far apart, beside a dense one, and
     negative (interned) values *)
  let wide = rel [ "a"; "b" ] [ [ 0; -3 ]; [ 1_000_000_000; -3 ]; [ 5; -1 ]; [ 5; 0 ] ] in
  Alcotest.(check (list (pair string int)))
    "all columns" [ ("a", 3); ("b", 3) ] (Rel.distinct_counts wide);
  Alcotest.(check (list (pair string int)))
    "empty" [ ("a", 0); ("b", 0) ] (Rel.distinct_counts (rel [ "a"; "b" ] []))

let test_rel_io () =
  let path = Filename.temp_file "distmura" ".edges" in
  let r = rel [ "src"; "trg" ] [ [ 1; 2 ]; [ 7; 8 ] ] in
  Rel_io.save path r;
  let back = Rel_io.load_edges path in
  check_rel "roundtrip" r back;
  Sys.remove path

let test_rel_io_labelled () =
  let path = Filename.temp_file "distmura" ".nt" in
  let oc = open_out path in
  output_string oc "# comment\n1 knows 2\n2 likes 3\n";
  close_out oc;
  let r = Rel_io.load_labelled_edges path in
  check_int "two edges" 2 (Rel.cardinal r);
  let knows = Rel.select (Pred.Eq_const ("pred", Value.of_string "knows")) r in
  check_int "one knows" 1 (Rel.cardinal knows);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let small_rel_gen cols =
  let open QCheck2.Gen in
  let tuple = array_size (pure (List.length cols)) (int_range 0 8) in
  let+ rows = list_size (int_range 0 25) tuple in
  Rel.of_tuples (sch cols) rows

let qtest name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen prop)

let prop_union_commutes =
  qtest "union commutative"
    QCheck2.Gen.(pair (small_rel_gen [ "a"; "b" ]) (small_rel_gen [ "a"; "b" ]))
    (fun (r, s) -> Rel.equal (Rel.union r s) (Rel.union s r))

let prop_join_commutes =
  qtest "join commutative modulo layout"
    QCheck2.Gen.(pair (small_rel_gen [ "a"; "b" ]) (small_rel_gen [ "b"; "c" ]))
    (fun (r, s) -> Rel.equal (Rel.natural_join r s) (Rel.natural_join s r))

let prop_join_assoc =
  qtest "join associative"
    QCheck2.Gen.(
      triple (small_rel_gen [ "a"; "b" ]) (small_rel_gen [ "b"; "c" ]) (small_rel_gen [ "c"; "d" ]))
    (fun (r, s, t) ->
      Rel.equal
        (Rel.natural_join (Rel.natural_join r s) t)
        (Rel.natural_join r (Rel.natural_join s t)))

let prop_diff_union =
  qtest "a = (a\\b) ∪ (a∩b)"
    QCheck2.Gen.(pair (small_rel_gen [ "a"; "b" ]) (small_rel_gen [ "a"; "b" ]))
    (fun (r, s) -> Rel.equal r (Rel.union (Rel.diff r s) (Rel.inter r s)))

let prop_antijoin_select =
  qtest "antijoin = filter by non-membership"
    QCheck2.Gen.(pair (small_rel_gen [ "a"; "b" ]) (small_rel_gen [ "b" ]))
    (fun (r, s) ->
      let expected =
        Rel.of_tuples (sch [ "a"; "b" ])
          (List.filter (fun tu -> not (Rel.mem s [| tu.(1) |])) (Rel.to_list r))
      in
      Rel.equal expected (Rel.antijoin r s))

let prop_select_idempotent =
  qtest "select idempotent" (small_rel_gen [ "a"; "b" ]) (fun r ->
      let p = Pred.Eq_const ("a", 3) in
      Rel.equal (Rel.select p r) (Rel.select p (Rel.select p r)))

let prop_tset_mem_after_add =
  qtest "tset: added tuples are members"
    QCheck2.Gen.(list_size (int_range 0 100) (array_size (pure 2) (int_range 0 50)))
    (fun rows ->
      let s = Tset.of_list rows in
      List.for_all (Tset.mem s) rows
      && Tset.cardinal s
         = List.length
             (List.sort_uniq compare (List.map Array.to_list rows)))

(* ------------------------------------------------------------------ *)
(* Columnar batches (compiled execution core)                          *)
(* ------------------------------------------------------------------ *)

(* random arity and rows together, so every property covers arities 1-4 *)
let batch_input_gen =
  let open QCheck2.Gen in
  let* arity = int_range 1 4 in
  let+ rows = list_size (int_range 0 120) (array_size (pure arity) (int_range (-4) 20)) in
  (arity, rows)

let prop_batch_roundtrip =
  qtest "batch: tset -> batch -> tset round-trips" batch_input_gen (fun (arity, rows) ->
      let s = Tset.of_list rows in
      let s' = Batch.to_tset (Batch.of_tset ~arity s) in
      Tset.cardinal s = Tset.cardinal s' && List.for_all (Tset.mem s') rows)

let prop_batch_hash_column =
  qtest "batch: hash column = Tuple.hash of each row" batch_input_gen (fun (arity, rows) ->
      let b = Batch.of_tset ~arity (Tset.of_list rows) in
      let ok = ref true in
      for i = 0 to Batch.length b - 1 do
        if Batch.hash b i <> Tuple.hash (Batch.to_tuple b i) then ok := false
      done;
      !ok)

let prop_builder_dedup =
  qtest "batch builder dedups exactly" batch_input_gen (fun (arity, rows) ->
      let bld = Batch.Builder.create ~arity () in
      let appended =
        List.filter
          (fun row ->
            let sc = Batch.Builder.scratch bld in
            Array.blit row 0 sc 0 arity;
            Batch.Builder.add_scratch bld (Batch.hash_row sc))
          rows
      in
      let distinct = List.length (List.sort_uniq compare (List.map Array.to_list rows)) in
      List.length appended = distinct
      && Batch.Builder.length bld = distinct
      && Tset.cardinal (Batch.to_tset (Batch.Builder.batch bld)) = distinct)

let test_batch_no_rehash () =
  (* the batch->set converters presize for the exact row count: the
     insert-triggered grow counter must stay at zero *)
  let rows = List.init 500 (fun i -> [| i; i * 7 |]) in
  let s = Tset.of_list rows in
  let b = Batch.of_tset ~arity:2 s in
  Tset.reset_rehash_grows ();
  let s' = Batch.to_tset b in
  check_int "cardinal preserved" (Tset.cardinal s) (Tset.cardinal s');
  let acc = Tset.create ~capacity:4 () in
  Batch.add_to_tset b acc;
  check_int "add_to_tset reserves" (Tset.cardinal s) (Tset.cardinal acc);
  check_int "no insert-triggered rehash" 0 (Tset.rehash_grow_count ())

(* Join index against the reference index: every key (present or not)
   finds the same payload set, and two groups share a canonical id iff
   their payload sets are equal (a negative id iff no other group has
   the set). Rows are (key, payload) pairs with few distinct values, so
   groups repeat payload sets. *)
let prop_join_index =
  qtest "join index: groups and canonical ids"
    QCheck2.Gen.(list_size (int_range 0 80) (pair (int_range 0 12) (int_range 0 3)))
    (fun pairs ->
      let rows = List.map (fun (k, v) -> [ k; v ]) pairs in
      let r = rel [ "k"; "v" ] rows in
      let idx = Join_index.of_tset ~key_pos:[| 0 |] ~payload_pos:[| 1 |] (Rel.tuples r) in
      let canon = Join_index.canon idx in
      let payload = Join_index.payload idx in
      let group_set g =
        List.sort compare
          (List.init (Join_index.stop idx g - Join_index.start idx g) (fun i ->
               payload.(Join_index.start idx g + i)))
      in
      let reference = Index.build (Rel.schema r) [ "k" ] (Tset.to_seq (Rel.tuples r)) in
      let keys = List.init 14 Fun.id in
      let groups =
        List.filter (fun g -> g >= 0) (List.map (fun k -> Join_index.find idx [| k |] [| 0 |]) keys)
      in
      List.for_all
        (fun k ->
          let expected =
            List.sort compare (List.map (fun tu -> tu.(1)) (Index.probe reference [| k |]))
          in
          match Join_index.find idx [| k |] [| 0 |] with
          | -1 -> expected = []
          | g -> group_set g = expected)
        keys
      && List.for_all
           (fun g ->
             let same = List.filter (fun g' -> group_set g' = group_set g) groups in
             List.for_all (fun g' -> canon.(g') = canon.(g)) same
             && List.for_all (fun g' -> List.mem g' same || canon.(g') <> canon.(g)) groups
             && (canon.(g) < 0) = (List.length same = 1))
           groups)

(* The hash-probe loops are closure-free: inserting a duplicate scratch
   row into a builder, and a resident row into a set, allocate nothing
   (the loops run between two [Gc.minor_words] reads, whose own cost an
   empty measurement gives). *)
let test_probe_loops_no_alloc () =
  let rows = List.init 64 (fun i -> [| i; i * 7; i mod 5 |]) in
  let bld = Batch.Builder.create ~arity:3 () in
  let sc = Batch.Builder.scratch bld in
  List.iter
    (fun row ->
      Array.blit row 0 sc 0 3;
      ignore (Batch.Builder.add_scratch bld (Batch.hash_row sc)))
    rows;
  let b = Batch.Builder.batch bld in
  let s = Batch.to_tset b in
  let cols = Batch.cols b and hashes = Batch.hashes b in
  let added = ref 0 in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  for row = 0 to Batch.length b - 1 do
    for c = 0 to 2 do
      sc.(c) <- cols.(c).(row)
    done;
    if Batch.Builder.add_scratch bld hashes.(row) then incr added
  done;
  let w2 = Gc.minor_words () in
  for row = 0 to Batch.length b - 1 do
    if Tset.add_cols s cols ~row ~hash:hashes.(row) then incr added
  done;
  let w3 = Gc.minor_words () in
  check_int "nothing inserted" 0 !added;
  let empty = w1 -. w0 in
  Alcotest.(check (float 0.)) "Builder.add_scratch of a duplicate allocates nothing" 0.
    (w2 -. w1 -. empty);
  Alcotest.(check (float 0.)) "Tset.add_cols of a resident row allocates nothing" 0.
    (w3 -. w2 -. empty)

let () =
  Alcotest.run "relation"
    [
      ( "dict-value",
        [
          Alcotest.test_case "dict roundtrip" `Quick test_dict_roundtrip;
          Alcotest.test_case "value kinds" `Quick test_value_kinds;
        ] );
      ( "tset",
        [
          Alcotest.test_case "basic" `Quick test_tset_basic;
          Alcotest.test_case "unit tuple" `Quick test_tset_unit_tuple;
          Alcotest.test_case "growth" `Quick test_tset_growth;
          Alcotest.test_case "reserve" `Quick test_tset_reserve;
          Alcotest.test_case "add_all" `Quick test_tset_add_all;
          Alcotest.test_case "hash_positions" `Quick test_tuple_hash_positions;
          Alcotest.test_case "add_hashed" `Quick test_tset_add_hashed;
          Alcotest.test_case "copy_with_capacity" `Quick test_tset_copy_with_capacity;
          prop_tset_mem_after_add;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "ops" `Quick test_schema_ops;
          Alcotest.test_case "rename errors" `Quick test_schema_rename_errors;
          Alcotest.test_case "reorder" `Quick test_schema_reorder;
        ] );
      ( "operators",
        [
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "project/antiproject" `Quick test_project_antiproject;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "cartesian" `Quick test_join_cartesian;
          Alcotest.test_case "antijoin" `Quick test_antijoin;
          Alcotest.test_case "union/diff reorder" `Quick test_union_diff_reorder;
          Alcotest.test_case "distinct count" `Quick test_distinct_count;
        ] );
      ( "io",
        [
          Alcotest.test_case "edge roundtrip" `Quick test_rel_io;
          Alcotest.test_case "labelled" `Quick test_rel_io_labelled;
        ] );
      ( "batch",
        [
          Alcotest.test_case "converters never rehash" `Quick test_batch_no_rehash;
          Alcotest.test_case "probe loops allocate nothing" `Quick test_probe_loops_no_alloc;
          prop_join_index;
          prop_batch_roundtrip;
          prop_batch_hash_column;
          prop_builder_dedup;
        ] );
      ( "properties",
        [
          prop_union_commutes;
          prop_join_commutes;
          prop_join_assoc;
          prop_diff_union;
          prop_antijoin_select;
          prop_select_idempotent;
        ] );
    ]
