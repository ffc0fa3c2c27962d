(* Shared pieces of the benchmark: clock, order statistics, result digests,
   in-memory spans and the JSON printer. *)

module Rel = Relation.Rel
module Schema = Relation.Schema

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* Harrell-Davis estimate of the [q]-quantile: a weighted mean of the order
   statistics with Beta((n+1)q, (n+1)(1-q)) weights (taken at the midpoint
   of each rank's interval); [nan] on an empty sample. Read latencies are a
   mix of one narrow cluster per query, and an estimate from one or two
   order statistics jumps from cluster to cluster when a quantile falls
   between two queries (24 Uniprot queries put the median exactly there);
   this one moves smoothly. *)
let quantile samples q =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let nf = float_of_int n in
    let alpha = (nf +. 1.) *. q and beta = (nf +. 1.) *. (1. -. q) in
    let logw =
      Array.init n (fun i ->
          let x = (float_of_int i +. 0.5) /. nf in
          ((alpha -. 1.) *. log x) +. ((beta -. 1.) *. log (1. -. x)))
    in
    let top = Array.fold_left max neg_infinity logw in
    let w = Array.map (fun l -> exp (l -. top)) logw in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.iteri (fun i x -> acc := !acc +. (w.(i) *. x)) a;
    !acc /. total

let median samples = quantile samples 0.5
let sum = List.fold_left ( +. ) 0.

let mean = function [] -> Float.nan | l -> sum l /. float_of_int (List.length l)

(* [a /. b] with 0 for an empty base, for ratios whose base may be absent *)
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Result digests                                                      *)
(* ------------------------------------------------------------------ *)

(* Cardinality plus an order-independent hash of a result relation: each
   tuple is read in sorted-column order (so two layouts of one relation
   agree), hashed, mixed, and the mixes are summed. *)
type digest = { cols : string list; card : int; hash : int }

let mix x =
  let x = x lxor (x lsr 31) in
  let x = x * 0x3fb5d329728ea185 in
  let x = x lxor (x lsr 27) in
  let x = x * 0x01dadef4bc2dd44d in
  x lxor (x lsr 33)

let digest rel =
  let schema = Rel.schema rel in
  let cols = List.sort String.compare (Schema.cols schema) in
  let pos = Schema.positions schema cols in
  let hash =
    Rel.fold
      (fun tu acc ->
        let h = Array.fold_left (fun h p -> mix ((h * 31) + tu.(p))) 17 pos in
        acc + mix h)
      rel 0
  in
  { cols; card = Rel.cardinal rel; hash }

let digest_equal a b = a.card = b.card && a.hash = b.hash && a.cols = b.cols

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* One timed call into a layer, recorded by the benchmark around the call.
   Spans of one request share [req]; [parent] is the enclosing span's id
   (-1 for a request's root span). *)
type span = { id : int; parent : int; req : int; name : string; t0 : float; t1 : float }

type spans = { mutable rev : span list; mutable next : int }

let spans () = { rev = []; next = 0 }

let span_in sp ~req ~parent name f =
  let id = sp.next in
  sp.next <- id + 1;
  let t0 = now () in
  let finish () = sp.rev <- { id; parent; req; name; t0; t1 = now () } :: sp.rev in
  match f id with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let span_ms s = (s.t1 -. s.t0) *. 1e3

(* Total milliseconds spent in spans called [name], warm-up requests
   ([req] < 0) left out. *)
let total_ms sp name =
  List.fold_left
    (fun acc s -> if String.equal s.name name && s.req >= 0 then acc +. span_ms s else acc)
    0. sp.rev

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

type json =
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num f when Float.is_finite f ->
    (* all the digits the float carries; JSON has no [inf]/[nan] *)
    Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | Obj l ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) l)
    ^ "}"

let write_spans path sp =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (to_string
           (Obj
              [
                ("id", Int s.id);
                ("parent", Int s.parent);
                ("req", Int s.req);
                ("name", Str s.name);
                ("t0", Num s.t0);
                ("t1", Num s.t1);
              ]));
      output_char oc '\n')
    (List.rev sp.rev);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Run settings and outcome                                            *)
(* ------------------------------------------------------------------ *)

type settings = {
  seed : int;
  seconds : float;  (** measuring time of one phase *)
  scale : int option;  (** graph scale; [None] = the workload's default *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  limit : int option;
      (** fixed request count (cold: passes; serve: requests) instead of
          [seconds] — used by the determinism self-check *)
}

type metric = {
  name : string;
  value : float;
  unit : string;
  host_scaled : bool;  (** a time or rate the run's host speed still scales *)
}

type phase = {
  attempted : int;
  failed : int;  (** errors, timeouts and resource limits *)
  mismatches : int;  (** responses whose digest differs from the oracle's *)
  metrics : metric list;
  counters : (string * int) list;
      (** deterministic totals compared by the self-check *)
  meta : (string * json) list;
  spans : spans;  (** of the measured phase (traced: the traced one) *)
}

let m name unit value = { name; value; unit; host_scaled = List.mem unit [ "ms"; "s"; "1/s" ] }

(* A snapshot of minor words, major collections and rehash grows. *)
type gc_mark = { minor : float; majors : int; grows : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; majors = s.Gc.major_collections; grows = Distsim.Metrics.rehash_grows () }

let zero_mark = { minor = 0.; majors = 0; grows = 0 }

(* [f ()], adding the minor words, major collections and rehash grows it
   caused to [acc]. *)
let metered acc f =
  let a = gc_mark () in
  let v = f () in
  let b = gc_mark () in
  let t = !acc in
  acc := { minor = t.minor +. b.minor -. a.minor; majors = t.majors + b.majors - a.majors; grows = t.grows + b.grows - a.grows };
  v

let heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.

(* A seed kept out of every run made while a change is written, so a claim
   can be re-checked on inputs it was not tuned on. *)
let held_out_seed = 7_340_033

(* ------------------------------------------------------------------ *)
(* Host-speed calibration                                              *)
(* ------------------------------------------------------------------ *)

(* A shared host's speed drifts by tens of percent over seconds to
   minutes, which would swamp the differences the benchmark exists to
   show. So the run interleaves a fixed calibration kernel with its
   requests (outside every timed region) and reports times scaled to a
   reference host on which the kernel takes [calib_ref_ms]:
   reported = measured * calib_ref_ms / median kernel time of the run.
   The kernel allocates and hashes like the engine does and calls no code
   of the repository. It runs in a child process (this executable started
   with [calibrate_flag]), so it shares no heap with the engine: the
   engine's retained data cannot slow the kernel's collections and so
   shrink its own reported times. The raw figures and the kernel's median
   go into the metadata. *)
let calib_ref_ms = 10.
let calibrate_flag = "--calibrate"

let calib_kernel () =
  let n = 20_000 in
  let h = Hashtbl.create 16 in
  let x = ref 12345 in
  for i = 0 to n - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace h !x i
  done;
  let a = Array.init n (fun i -> (i * 7919) land 0xffff) in
  Array.sort compare a;
  let l = ref [] in
  for i = 0 to n - 1 do
    l := [| i; a.(i) |] :: !l
  done;
  Hashtbl.length h + List.length !l

(* The child's main loop: for each line [k] on standard input, time [k]
   kernels and write their milliseconds on one line; exit at end of input
   (also when the parent dies). *)
let calibrator_main () =
  (try
     while true do
       let k = int_of_string (input_line stdin) in
       let ms =
         List.init k (fun _ ->
             let t0 = now () in
             ignore (Sys.opaque_identity (calib_kernel ()));
             Printf.sprintf "%.17g" ((now () -. t0) *. 1e3))
       in
       print_endline (String.concat " " ms)
     done
   with End_of_file -> ());
  exit 0

let calibrator = ref None

let stop_calibrator () =
  Option.iter (fun ch -> ignore (Unix.close_process ch)) !calibrator;
  calibrator := None

(* Start the child. Without it (the self-check), [calibrate] records
   nothing and the scale factors are [nan]. *)
let start_calibrator () =
  let exe = Sys.executable_name in
  calibrator := Some (Unix.open_process_args exe [| exe; calibrate_flag |]);
  at_exit stop_calibrator

let calib_samples = ref []

(* Time [k] kernels in the child and add their milliseconds to [into]. *)
let calibrate ?(into = calib_samples) k =
  match !calibrator with
  | None -> ()
  | Some (ic, oc) ->
    Printf.fprintf oc "%d\n%!" k;
    into := List.map float_of_string (String.split_on_char ' ' (input_line ic)) @ !into

(* Median kernel time of the run so far, and the factor that scales a
   measured time to the reference host. *)
let calib_ms () = median !calib_samples
let host_scale () = calib_ref_ms /. calib_ms ()

(* The tracing overhead: mean read latency of the traced phase against the
   untraced one, and the per-read sum of the layer spans. *)
let trace_metrics ~untraced_ms ~traced_ms ~layers_ms =
  let u = mean untraced_ms and t = mean traced_ms in
  [
    m "trace.read_mean_ms" "ms" t;
    m "trace.untraced_read_mean_ms" "ms" u;
    m "trace.overhead_ms" "ms" (t -. u);
    m "trace.layers_ms" "ms" layers_ms;
  ]

(* Run the set-up [f] [n] times: its last value, and [setup_s], the median
   wall seconds. The set-ups run back to back within a fraction of a
   second, so the run-wide calibration does not describe the host during
   them: they are scaled by calibrations interleaved with them instead. *)
let repeat_setup n f =
  let kernel = ref [] in
  let rec go i acc last =
    calibrate ~into:kernel 1;
    if i = n then (Option.get last, median acc)
    else
      let t0 = now () in
      let v = f () in
      go (i + 1) ((now () -. t0) :: acc) (Some v)
  in
  let v, s = go 0 [] None in
  (v, { name = "setup_s"; value = s *. calib_ref_ms /. median !kernel; unit = "s"; host_scaled = false })
