(* Command-line entry of the benchmark (run it through run.py, which builds
   it): one workload, one seed, one run. The last line of standard output is
   the result object; the line before it carries the run's metadata. *)

open Pbench
open Common

let workloads = [ "yago_cold"; "uniprot_cold"; "serve_rw" ]

(* The serve layer does not run on the cold workloads: its per-layer
   metrics read 0 there. *)
let serve_layer =
  [
    ("serve.hit_rate", "ratio");
    ("serve.plan_hit_rate", "ratio");
    ("serve.hit_ms", "ms");
    ("serve.miss_ms", "ms");
    ("serve.repair_ms", "ms");
    ("serve.update_ms", "ms");
    ("serve.fix_evals", "count");
    ("serve.repaired", "count");
    ("serve.repair_fallbacks", "count");
    ("serve.repair_success", "ratio");
    ("serve.invalidated", "count");
    ("serve.evictions", "count");
  ]

let run workload settings ~trace =
  match workload with
  | "yago_cold" | "uniprot_cold" ->
    let dataset = if workload = "yago_cold" then Cold.Yago else Cold.Uniprot in
    let p = Cold.run dataset settings ~trace in
    if trace then { p with metrics = p.metrics @ List.map (fun (n, u) -> m n u 0.) serve_layer } else p
  | "serve_rw" -> Serve_rw.run settings ~trace
  | w -> raise (Arg.Bad (Printf.sprintf "unknown workload %S (one of %s)" w (String.concat ", " workloads)))

let () =
  if Array.length Sys.argv = 2 && String.equal Sys.argv.(1) calibrate_flag then calibrator_main ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spans_out = ref "" and commit = ref "unknown" in
  let held_out = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time of one phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--spans", Arg.Set_string spans_out, " write the measured phase's spans here (JSON lines)");
      ("--commit", Arg.Set_string commit, " source revision, recorded in the metadata");
      ("--held-out", Arg.Set held_out, " run on the held-out seed (overrides --seed)");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("--workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  let seed = if !held_out then Common.held_out_seed else !seed in
  let settings = { seed; seconds = !seconds; scale = None; setups = 31; limit = None } in
  let trace = !trace = 1 in
  start_calibrator ();
  let p = run !workload settings ~trace in
  let p = if trace then { p with metrics = p.metrics @ [ { (m "host.calib_ms" "ms" (calib_ms ())) with host_scaled = false } ] } else p in
  if !spans_out <> "" then write_spans !spans_out p.spans;
  let meta =
    [
      ("workload", Str !workload);
      ("seed", Int seed);
      ("held_out", Bool !held_out);
      ("trace", Bool trace);
      ("workers", Int 4);
      ("parallel", Bool false);
      ("host_cores", Int (Domain.recommended_domain_count ()));
      ("commit", Str !commit);
      ("clients", Int 1);
      ("seconds", Num settings.seconds);
      ("mismatches", Int p.mismatches);
    ]
    @ p.meta
  in
  let meta =
    meta
    @ [
        ("calib_ms", Num (calib_ms ()));
        ("calib_samples", Int (List.length !calib_samples));
        ("host_scale", Num (host_scale ()));
        ("unscaled", Obj (List.filter_map (fun x -> if x.host_scaled then Some (x.name, Num x.value) else None) p.metrics));
      ]
  in
  print_endline (to_string (Obj [ ("meta", Obj meta) ]));
  let failed = p.failed + p.mismatches in
  (* times to the reference host (see [Common.calibrate]) *)
  let host = host_scale () in
  let scaled x =
    match x.unit with
    | _ when not x.host_scaled -> x.value
    | "1/s" -> x.value /. host
    | _ -> x.value *. host
  in
  let metrics =
    List.map (fun x -> (x.name, Obj [ ("value", Num (scaled x)); ("unit", Str x.unit) ])) p.metrics
  in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (failed = 0));
            ("attempted", Int p.attempted);
            ("failed", Int failed);
            ("metrics", Obj metrics);
          ]))
