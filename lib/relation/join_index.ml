(* Columnar join index: rows grouped by key, each group's payload (the
   columns a join appends) stored contiguously, row-major, in one flat
   array. Keys live in a flat array too and are compared in place, so a
   probe allocates nothing and answers a group id. The payload is sized
   to the row count and every other array to the group count (within a
   factor of 4), with nothing allocated per group or kept per row.

   Canonical ids are computed on demand, once: groups are classed by an
   order-independent hash of their payload set, and a group that meets
   a class with its hash and size is compared with the class's first
   group by sorting copies of both into two reusable buffers, so the
   payload is never reordered and readers need no synchronisation.
   Loops are top-level functions with explicit arguments: without
   flambda a local [let rec] allocates its closure on every call. *)

type t = {
  nk : int;  (* key width *)
  width : int;  (* payload width *)
  groups : int;
  keys : int array;  (* [groups * nk], row-major *)
  ghash : int array;  (* per group: hash of its key *)
  slots : int array;  (* group id + 1; 0 = empty *)
  mask : int;
  start : int array;  (* [groups + 1] row offsets into the payload *)
  payload : int array;  (* [rows * width], row-major, grouped *)
  canon : int array Atomic.t;  (* per group; [||] until computed *)
  lock : Mutex.t;
}

(* [Tuple.hash_positions key_pos src]: the same formula, so build and
   probe agree. *)
let hash_key (src : int array) key_pos =
  let h = ref 0x345678 in
  for k = 0 to Array.length key_pos - 1 do
    h := (!h * 1000003) lxor Value.hash (Array.unsafe_get src (Array.unsafe_get key_pos k))
  done;
  !h land max_int

let rec keys_equal keys base (src : int array) key_pos k nk =
  k >= nk
  || Array.unsafe_get keys (base + k) = Array.unsafe_get src (Array.unsafe_get key_pos k)
     && keys_equal keys base src key_pos (k + 1) nk

let rec find_from t src key_pos h i =
  let g = Array.unsafe_get t.slots i - 1 in
  if g < 0 then -1
  else if Array.unsafe_get t.ghash g = h && keys_equal t.keys (g * t.nk) src key_pos 0 t.nk
  then g
  else find_from t src key_pos h ((i + 1) land t.mask)

let find t src key_pos =
  let h = hash_key src key_pos in
  find_from t src key_pos h (h land t.mask)

let mem t src key_pos = find t src key_pos >= 0

let rec free_slot slots mask i =
  if Array.unsafe_get slots i = 0 then i else free_slot slots mask ((i + 1) land mask)

(* ------------------------------------------------------------------ *)
(* Build                                                               *)
(* ------------------------------------------------------------------ *)

(* Growable key table of a build: [key] is the row being grouped. *)
type grouping = {
  g_nk : int;
  key : int array;
  ident : int array;  (* 0 .. nk-1: positions of [key] in itself *)
  mutable g_keys : int array;
  mutable g_hash : int array;
  mutable g_slots : int array;
  mutable g_mask : int;
  mutable count : int;
}

let grouping nk =
  {
    g_nk = nk;
    key = Array.make nk 0;
    ident = Array.init nk Fun.id;
    g_keys = Array.make (16 * nk) 0;
    g_hash = Array.make 16 0;
    g_slots = Array.make 32 0;
    g_mask = 31;
    count = 0;
  }

let grow gr =
  let cap = 2 * Array.length gr.g_hash in
  let keys = Array.make (cap * gr.g_nk) 0 and hash = Array.make cap 0 in
  Array.blit gr.g_keys 0 keys 0 (gr.count * gr.g_nk);
  Array.blit gr.g_hash 0 hash 0 gr.count;
  let slots = Array.make (2 * cap) 0 in
  let mask = (2 * cap) - 1 in
  for g = 0 to gr.count - 1 do
    slots.(free_slot slots mask (hash.(g) land mask)) <- g + 1
  done;
  gr.g_keys <- keys;
  gr.g_hash <- hash;
  gr.g_slots <- slots;
  gr.g_mask <- mask

let rec lookup gr h i =
  let g = Array.unsafe_get gr.g_slots i - 1 in
  if g < 0 then begin
    let g = gr.count in
    Array.blit gr.key 0 gr.g_keys (g * gr.g_nk) gr.g_nk;
    gr.g_hash.(g) <- h;
    gr.g_slots.(i) <- g + 1;
    gr.count <- g + 1;
    g
  end
  else if gr.g_hash.(g) = h && keys_equal gr.g_keys (g * gr.g_nk) gr.key gr.ident 0 gr.g_nk then g
  else lookup gr h ((i + 1) land gr.g_mask)

(* The group of [gr.key], added if new. *)
let group_of gr =
  if gr.count = Array.length gr.g_hash then grow gr;
  let h = hash_key gr.key gr.ident in
  lookup gr h (h land gr.g_mask)

(* A build reads its rows twice through [iter]: the first pass groups
   them and counts each group's rows, the second looks each row's group
   up again and lays its payload out group by group, rows in input
   order. [key buf row] copies [row]'s key into [buf]; [pay payload at
   row] copies its payload to offset [at]. The grouping table becomes
   the index (at most half full, at most 4x the group count from 16
   groups on). *)
let build ~nk ~width ~rows iter key pay =
  let gr = grouping nk in
  let count = ref (Array.make 16 0) in
  iter (fun row ->
      key gr.key row;
      let g = group_of gr in
      if g >= Array.length !count then begin
        let c = Array.make (2 * g) 0 in
        Array.blit !count 0 c 0 g;
        count := c
      end;
      !count.(g) <- !count.(g) + 1);
  let groups = gr.count and cursor = !count in
  let start = Array.make (groups + 1) 0 in
  for g = 0 to groups - 1 do
    start.(g + 1) <- start.(g) + cursor.(g)
  done;
  let payload = Array.make (rows * width) 0 in
  if width > 0 then begin
    (* the counts become per-group row cursors *)
    Array.blit start 0 cursor 0 groups;
    iter (fun row ->
        key gr.key row;
        let g = group_of gr in
        pay payload (cursor.(g) * width) row;
        cursor.(g) <- cursor.(g) + 1)
  end;
  {
    nk;
    width;
    groups;
    keys = gr.g_keys;
    ghash = gr.g_hash;
    slots = gr.g_slots;
    mask = gr.g_mask;
    start;
    payload;
    canon = Atomic.make [||];
    lock = Mutex.create ();
  }

let of_tset ~key_pos ~payload_pos s =
  let nk = Array.length key_pos and width = Array.length payload_pos in
  build ~nk ~width ~rows:(Tset.cardinal s)
    (fun f -> Tset.iter f s)
    (fun buf (tu : Tuple.t) ->
      for k = 0 to nk - 1 do
        buf.(k) <- tu.(key_pos.(k))
      done)
    (fun payload at (tu : Tuple.t) ->
      for j = 0 to width - 1 do
        payload.(at + j) <- tu.(payload_pos.(j))
      done)

let of_batch ~key_pos ~payload_pos b =
  let nk = Array.length key_pos and width = Array.length payload_pos in
  let cols = Batch.cols b and n = Batch.length b in
  build ~nk ~width ~rows:n
    (fun f ->
      for r = 0 to n - 1 do
        f r
      done)
    (fun buf r ->
      for k = 0 to nk - 1 do
        buf.(k) <- cols.(key_pos.(k)).(r)
      done)
    (fun payload at r ->
      for j = 0 to width - 1 do
        payload.(at + j) <- cols.(payload_pos.(j)).(r)
      done)

let start t g = Array.unsafe_get t.start g
let stop t g = Array.unsafe_get t.start (g + 1)
let groups t = t.groups
let payload t = t.payload
let has_canon t = Array.length (Atomic.get t.canon) = t.groups

(* ------------------------------------------------------------------ *)
(* Canonical ids                                                       *)
(* ------------------------------------------------------------------ *)

(* Lexicographic order on payload rows [a] and [b] of width [w]. *)
let rec compare_rows p w a b j =
  if j >= w then 0
  else
    let c = Int.compare (Array.unsafe_get p ((a * w) + j)) (Array.unsafe_get p ((b * w) + j)) in
    if c <> 0 then c else compare_rows p w a b (j + 1)

let swap_rows p w a b =
  for j = 0 to w - 1 do
    let x = p.((a * w) + j) in
    p.((a * w) + j) <- p.((b * w) + j);
    p.((b * w) + j) <- x
  done

(* In-place heapsort of the [n] payload rows from row [lo]. *)
let rec sift p w lo i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && compare_rows p w (lo + l + 1) (lo + l) 0 > 0 then l + 1 else l in
    if compare_rows p w (lo + c) (lo + i) 0 > 0 then begin
      swap_rows p w (lo + c) (lo + i);
      sift p w lo c n
    end
  end

let sort_rows p w lo n =
  for i = (n / 2) - 1 downto 0 do
    sift p w lo i n
  done;
  for e = n - 1 downto 1 do
    swap_rows p w lo (lo + e);
    sift p w lo 0 e
  done

let rec prefix_equal (a : int array) b len i =
  i >= len || (Array.unsafe_get a i = Array.unsafe_get b i && prefix_equal a b len (i + 1))

(* Order-independent hash of group [g]'s payload set: a sum and an xor
   of the row hashes, with the row count. *)
let set_hash t g =
  let w = t.width in
  let sum = ref 0 and xor = ref 0 in
  for r = t.start.(g) to t.start.(g + 1) - 1 do
    let h = ref 0x345678 in
    for j = 0 to w - 1 do
      h := (!h * 1000003) lxor Value.hash (Array.unsafe_get t.payload ((r * w) + j))
    done;
    sum := !sum + (!h * 0x9E3779B1);
    xor := !xor lxor !h
  done;
  (((!sum * 31) + !xor) * 1000003) lxor (t.start.(g + 1) - t.start.(g)) land max_int

(* Copy group [g]'s payload rows into [buf] and sort them there. *)
let sorted_copy t g buf =
  let w = t.width and rows = t.start.(g + 1) - t.start.(g) in
  Array.blit t.payload (t.start.(g) * w) buf 0 (rows * w);
  sort_rows buf w 0 rows

let same_set t a b buf_a buf_b =
  let w = t.width and rows = t.start.(a + 1) - t.start.(a) in
  rows = t.start.(b + 1) - t.start.(b)
  && begin
       sorted_copy t a buf_a;
       sorted_copy t b buf_b;
       prefix_equal buf_a buf_b (rows * w) 0
     end

(* Place group [g] (set hash [h]) in the canonical table: the first
   group with an equal payload set keeps the slot and lends its id. *)
let rec place_canon t slots mask ghash canon buf_a buf_b g h i =
  let c = Array.unsafe_get slots i - 1 in
  if c < 0 then begin
    slots.(i) <- g + 1;
    canon.(g) <- g
  end
  else if ghash.(c) = h && same_set t g c buf_a buf_b then canon.(g) <- c
  else place_canon t slots mask ghash canon buf_a buf_b g h ((i + 1) land mask)

let compute_canon t =
  let canon = Array.make t.groups 0 in
  let ghash = Array.make t.groups 0 in
  let size = ref 32 in
  while !size < 2 * t.groups do
    size := 2 * !size
  done;
  let slots = Array.make !size 0 and mask = !size - 1 in
  let largest = ref 0 in
  for g = 0 to t.groups - 1 do
    largest := max !largest (t.start.(g + 1) - t.start.(g))
  done;
  let buf_a = Array.make (!largest * t.width) 0 and buf_b = Array.make (!largest * t.width) 0 in
  for g = 0 to t.groups - 1 do
    let h = set_hash t g in
    ghash.(g) <- h;
    place_canon t slots mask ghash canon buf_a buf_b g h (h land mask)
  done;
  (* a group alone in its class gets the negative id [-1 - g] *)
  let members = ghash in
  Array.fill members 0 t.groups 0;
  Array.iter (fun c -> members.(c) <- members.(c) + 1) canon;
  Array.iteri (fun g c -> if members.(c) = 1 then canon.(g) <- -1 - g) canon;
  Atomic.set t.canon canon

let canon t =
  if not (has_canon t) then
    Mutex.protect t.lock (fun () -> if not (has_canon t) then compute_canon t);
  Atomic.get t.canon
