(* Open-addressing (linear probing) hash set of int arrays.

   Empty slots hold the shared zero-length array atom. Genuine zero-arity
   tuples therefore cannot live in the table and are tracked by the
   [has_unit] flag instead. *)

type t = {
  mutable slots : Tuple.t array;
  mutable count : int; (* occupied slots, excluding the unit tuple *)
  mutable mask : int;
  mutable has_unit : bool;
}

let empty_slot : Tuple.t = [||]

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 16

let create ?(capacity = 16) () =
  let size = next_pow2 (max 16 (capacity * 2)) in
  { slots = Array.make size empty_slot; count = 0; mask = size - 1; has_unit = false }

let cardinal s = s.count + if s.has_unit then 1 else 0
let is_empty s = cardinal s = 0

(* Probe loops are top-level functions with explicit arguments: without
   flambda a local [let rec] would allocate its closure on every call. *)
let rec probe_slot slots mask tu i =
  let cur = Array.unsafe_get slots i in
  if Array.length cur = 0 then i
  else if Tuple.equal cur tu then i
  else probe_slot slots mask tu ((i + 1) land mask)

let find_slot slots mask tu h = probe_slot slots mask tu (h land mask)

let resize_to s size =
  let old = s.slots in
  let slots = Array.make size empty_slot in
  let mask = size - 1 in
  Array.iter
    (fun tu ->
      if Array.length tu > 0 then begin
        let i = find_slot slots mask tu (Tuple.hash tu) in
        Array.unsafe_set slots i tu
      end)
    old;
  s.slots <- slots;
  s.mask <- mask

(* Growth events triggered by inserts (as opposed to explicit presizing via
   [reserve]/[copy_with_capacity], which never count). Presized hot paths —
   batch->set conversion, the exchange's presized destinations — are expected
   to keep this at zero; the micro benches assert it. Atomic because serving
   sessions on different domains insert into disjoint sets concurrently. *)
let rehash_grows = Atomic.make 0
let rehash_grow_count () = Atomic.get rehash_grows
let reset_rehash_grows () = Atomic.set rehash_grows 0

let resize s =
  Atomic.incr rehash_grows;
  resize_to s ((s.mask + 1) * 2)

(* Grow the table so [n] entries fit under the 3/4 load factor without
   any further rehash (a no-op when already big enough). *)
let reserve s n =
  let rec fit size = if n * 4 > size * 3 then fit (size * 2) else size in
  let size = fit (s.mask + 1) in
  if size > s.mask + 1 then resize_to s size

(* [h] must equal [Tuple.hash tu]: callers that already computed the
   hash (e.g. an exchange, which hashes each tuple once for the seen
   filter and the destination set) pass it through. *)
let add_hashed s tu h =
  Deadline.tick ();
  if Array.length tu = 0 then
    if s.has_unit then false
    else begin
      s.has_unit <- true;
      true
    end
  else begin
    if s.count * 4 > (s.mask + 1) * 3 then resize s;
    let i = find_slot s.slots s.mask tu h in
    if Array.length (Array.unsafe_get s.slots i) > 0 then false
    else begin
      Array.unsafe_set s.slots i tu;
      s.count <- s.count + 1;
      true
    end
  end

let add s tu = add_hashed s tu (if Array.length tu = 0 then 0 else Tuple.hash tu)

let mem s tu =
  if Array.length tu = 0 then s.has_unit
  else
    let i = find_slot s.slots s.mask tu (Tuple.hash tu) in
    Array.length (Array.unsafe_get s.slots i) > 0

(* Column-wise variants: probe for the row [row] of a struct-of-arrays
   column block without materialising it as a tuple. The tuple array is
   allocated only when the insert actually happens — the hot path of the
   compiled executor, where most candidate rows are duplicates. *)
let rec row_matches (tu : Tuple.t) cols row c arity =
  c >= arity
  || Array.unsafe_get tu c = Array.unsafe_get (Array.unsafe_get cols c) row
     && row_matches tu cols row (c + 1) arity

let rec probe_slot_cols slots mask cols row i =
  let cur = Array.unsafe_get slots i in
  let arity = Array.length cols in
  if Array.length cur = 0 then i
  else if Array.length cur = arity && row_matches cur cols row 0 arity then i
  else probe_slot_cols slots mask cols row ((i + 1) land mask)

let find_slot_cols slots mask cols row h = probe_slot_cols slots mask cols row (h land mask)

let add_cols s cols ~row ~hash =
  Deadline.tick ();
  if Array.length cols = 0 then
    if s.has_unit then false
    else begin
      s.has_unit <- true;
      true
    end
  else begin
    if s.count * 4 > (s.mask + 1) * 3 then resize s;
    let i = find_slot_cols s.slots s.mask cols row hash in
    if Array.length (Array.unsafe_get s.slots i) > 0 then false
    else begin
      let tu = Array.init (Array.length cols) (fun c -> Array.unsafe_get (Array.unsafe_get cols c) row) in
      Array.unsafe_set s.slots i tu;
      s.count <- s.count + 1;
      true
    end
  end

let iter f s =
  if s.has_unit then f [||];
  Array.iter (fun tu -> if Array.length tu > 0 then f tu) s.slots

let fold f s init =
  let acc = ref init in
  iter (fun tu -> acc := f tu !acc) s;
  !acc

exception Found

let exists p s =
  try
    iter (fun tu -> if p tu then raise Found) s;
    false
  with Found -> true

let for_all p s = not (exists (fun tu -> not (p tu)) s)
let to_list s = fold List.cons s []

let to_array s =
  let arr = Array.make (cardinal s) empty_slot in
  let i = ref 0 in
  iter
    (fun tu ->
      arr.(!i) <- tu;
      incr i)
    s;
  arr

let to_seq s = Array.to_seq (to_array s)

let of_list l =
  let s = create ~capacity:(List.length l) () in
  List.iter (fun tu -> ignore (add s tu)) l;
  s

let copy s =
  { slots = Array.copy s.slots; count = s.count; mask = s.mask; has_unit = s.has_unit }

(* Copy presized for [n] entries in one pass: equivalent to [copy] followed
   by [reserve n] (same growth rule, same slot geometry, hence the same
   iteration order) but without materialising the intermediate table. *)
let copy_with_capacity s n =
  let rec fit size = if n * 4 > size * 3 then fit (size * 2) else size in
  let size = fit (s.mask + 1) in
  if size = s.mask + 1 then copy s
  else begin
    let out = { slots = Array.make size empty_slot; count = s.count; mask = size - 1; has_unit = s.has_unit } in
    Array.iter
      (fun tu ->
        if Array.length tu > 0 then begin
          let i = find_slot out.slots out.mask tu (Tuple.hash tu) in
          Array.unsafe_set out.slots i tu
        end)
      s.slots;
    out
  end

let add_all dst src = fold (fun tu n -> if add dst tu then n + 1 else n) src 0
let equal a b = cardinal a = cardinal b && for_all (mem b) a
