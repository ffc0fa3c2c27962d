(* Determinism self-check: two traced runs of one seed, at small scales,
   must give identical communication, fixpoint, rehash and serve
   counters. *)

open Pbench
open Common

let () =
  let settings scale limit = { seed = 3; seconds = 0.; scale = Some scale; setups = 1; limit = Some limit } in
  let cases =
    [
      ("yago_cold", fun () -> Cold.run Cold.Yago (settings 300 1) ~trace:true);
      ("uniprot_cold", fun () -> Cold.run Cold.Uniprot (settings 600 1) ~trace:true);
      ("serve_rw", fun () -> Serve_rw.run (settings 300 120) ~trace:true);
    ]
  in
  let bad = ref 0 in
  List.iter
    (fun (name, run) ->
      let a = run () and b = run () in
      let report p = if p.failed + p.mismatches > 0 then (incr bad; Printf.printf "%s: %d failed, %d oracle mismatches\n" name p.failed p.mismatches) in
      report a;
      report b;
      List.iter2
        (fun (k, x) (k', y) ->
          assert (String.equal k k');
          if x <> y then begin
            incr bad;
            Printf.printf "%s: %s differs: %d vs %d\n" name k x y
          end)
        a.counters b.counters;
      Printf.printf "%s: %d counters compared\n%!" name (List.length a.counters))
    cases;
  if !bad > 0 then exit 1
