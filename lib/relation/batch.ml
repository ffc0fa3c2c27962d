(* Columnar tuple batches: struct-of-arrays storage for the compiled
   execution core. A batch of arity [k] holds [k] unboxed [int array]
   columns plus a parallel column of full-tuple hashes, so a pipeline can
   stream rows column-at-a-time, route on the stored hash, and convert to a
   Tset without ever recomputing [Tuple.hash].

   Invariant maintained by every producer in this module: [hashes.(i)] is
   [Tuple.hash] of row [i] materialised in schema order. *)

type t = {
  arity : int;
  mutable cols : int array array; (* [arity] columns, each >= [len] long *)
  mutable hashes : int array;
  mutable len : int;
}

let arity b = b.arity
let length b = b.len
let cols b = b.cols
let hashes b = b.hashes

let create ?(capacity = 16) ~arity () =
  let cap = max 1 capacity in
  {
    arity;
    cols = Array.init arity (fun _ -> Array.make cap 0);
    hashes = Array.make cap 0;
    len = 0;
  }

let grow b =
  let cap = max 16 (2 * Array.length b.hashes) in
  b.cols <-
    Array.map
      (fun col ->
        let col' = Array.make cap 0 in
        Array.blit col 0 col' 0 b.len;
        col')
      b.cols;
  let hs = Array.make cap 0 in
  Array.blit b.hashes 0 hs 0 b.len;
  b.hashes <- hs

let ensure b n = if n > Array.length b.hashes then grow b

(* Row [i] hash of the key columns [positions] — same formula as
   [Tuple.hash_positions], evaluated against the columns. *)
let hash_positions b positions i =
  let h = ref 0x345678 in
  for k = 0 to Array.length positions - 1 do
    h :=
      (!h * 1000003)
      lxor Value.hash (Array.unsafe_get (Array.unsafe_get b.cols (Array.unsafe_get positions k)) i)
  done;
  !h land max_int

let hash b i = Array.unsafe_get b.hashes i

let to_tuple b i =
  Array.init b.arity (fun c -> Array.unsafe_get (Array.unsafe_get b.cols c) i)

let push b tu h =
  ensure b (b.len + 1);
  for c = 0 to b.arity - 1 do
    Array.unsafe_set (Array.unsafe_get b.cols c) b.len (Array.unsafe_get tu c)
  done;
  Array.unsafe_set b.hashes b.len h;
  b.len <- b.len + 1

(* Append row [row] of [src] (same arity), reusing its stored hash. *)
let push_row b src row =
  ensure b (b.len + 1);
  for c = 0 to b.arity - 1 do
    Array.unsafe_set (Array.unsafe_get b.cols c) b.len
      (Array.unsafe_get (Array.unsafe_get src.cols c) row)
  done;
  Array.unsafe_set b.hashes b.len (Array.unsafe_get src.hashes row);
  b.len <- b.len + 1

let of_tset ~arity s =
  let b = create ~capacity:(Tset.cardinal s) ~arity () in
  Tset.iter (fun tu -> push b tu (Tuple.hash tu)) s;
  b

(* Presized so the inserts never trigger a table growth; rows of a batch
   need not be distinct, the set probe dedups. *)
let to_tset b =
  let s = Tset.create ~capacity:b.len () in
  for i = 0 to b.len - 1 do
    ignore (Tset.add_cols s b.cols ~row:i ~hash:(Array.unsafe_get b.hashes i))
  done;
  s

let add_to_tset b s =
  Tset.reserve s (Tset.cardinal s + b.len);
  for i = 0 to b.len - 1 do
    ignore (Tset.add_cols s b.cols ~row:i ~hash:(Array.unsafe_get b.hashes i))
  done

let iter f b =
  for i = 0 to b.len - 1 do
    f (to_tuple b i)
  done

(* Deduplicating builder: an open-addressing index over row ids with a
   reusable scratch row, so a fused pipeline pays zero allocation for a
   candidate row that turns out to be a duplicate. *)
module Builder = struct
  type batch = t

  type t = {
    out : batch;
    mutable slots : int array; (* row id + 1; 0 = empty *)
    mutable mask : int;
    scratch : int array;
  }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 16

  let create ?(capacity = 16) ~arity () =
    let size = next_pow2 (max 16 (capacity * 2)) in
    {
      out = create ~capacity ~arity ();
      slots = Array.make size 0;
      mask = size - 1;
      scratch = Array.make arity 0;
    }

  let scratch t = t.scratch
  let batch t = t.out
  let length t = t.out.len

  let rec scratch_matches scratch cols arity row c =
    c >= arity
    || Array.unsafe_get scratch c = Array.unsafe_get (Array.unsafe_get cols c) row
       && scratch_matches scratch cols arity row (c + 1)

  (* Top-level probe loop with explicit arguments: without flambda a
     local [let rec] would allocate its closure on every call. *)
  let rec find_from t h i =
    let r = Array.unsafe_get t.slots i in
    if r = 0 then i
    else if
      Array.unsafe_get t.out.hashes (r - 1) = h
      && scratch_matches t.scratch t.out.cols t.out.arity (r - 1) 0
    then i
    else find_from t h ((i + 1) land t.mask)

  let find t h = find_from t h (h land t.mask)

  let rec free_slot slots mask i =
    if Array.unsafe_get slots i = 0 then i else free_slot slots mask ((i + 1) land mask)

  let resize t =
    let size = (t.mask + 1) * 2 in
    let slots = Array.make size 0 in
    let mask = size - 1 in
    for r = 0 to t.out.len - 1 do
      let h = Array.unsafe_get t.out.hashes r in
      slots.(free_slot slots mask (h land mask)) <- r + 1
    done;
    t.slots <- slots;
    t.mask <- mask

  (* Insert the scratch row if new; [h] must be [Tuple.hash] of the scratch
     row. Returns [true] iff the row was appended. *)
  let add_scratch t h =
    if t.out.len * 4 > (t.mask + 1) * 3 then resize t;
    let i = find t h in
    if Array.unsafe_get t.slots i <> 0 then false
    else begin
      push t.out t.scratch h;
      Array.unsafe_set t.slots i t.out.len;
      true
    end

  (* Forget every row, keeping the allocated capacity. *)
  let clear t =
    Array.fill t.slots 0 (Array.length t.slots) 0;
    t.out.len <- 0
end

(* Full-row hash of the builder scratch (or any [int array] row):
   [Tuple.hash] without the intermediate tuple type annotation. *)
let hash_row (row : int array) =
  let h = ref 0x345678 in
  for i = 0 to Array.length row - 1 do
    h := (!h * 1000003) lxor Value.hash (Array.unsafe_get row i)
  done;
  !h land max_int
