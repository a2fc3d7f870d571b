(* The Snorlax benchmark: one workload per invocation.

     snorlax_bench --workload stream-warm|fix-corpus
                   --seed N --seconds S --trace 0|1

   Prints a human-readable report, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with [--trace 0], the per-layer metrics with [--trace 1].  Every
   percentile comes from the raw samples.  A failed correctness check
   still prints the report and the JSON line, then exits 1.  The traced
   run writes its spans to .bench_out/spans-WORKLOAD-seedN.json. *)

open Bench_common

let workloads =
  [
    ("stream-warm", Wl_stream.run);
    ("fix-corpus", Wl_fix.run);
  ]

let usage () =
  prerr_endline
    "usage: snorlax_bench --workload stream-warm|fix-corpus --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when List.mem_assoc w workloads && secs > 0.0 && s >= 0 ->
    (w, s, secs, t)
  | _ -> usage ()

(* Full precision, and never a non-JSON number. *)
let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else failwith "non-finite metric"

let () =
  let workload, seed, seconds, traced = parse_args () in
  let nproc = Domain.recommended_domain_count () in
  let ctx = { workload; seed; seconds; traced; nproc; lanes = min 2 nproc } in
  Printf.printf "snorlax benchmark: workload %s, seed %d, %gs, trace %d\n" workload seed
    seconds (if traced then 1 else 0);
  Printf.printf "host: nproc %d, OCaml %s\n%!" nproc Sys.ocaml_version;
  Spans.enabled := traced;
  let o = (List.assoc workload workloads) ctx in
  List.iter (fun (k, v) -> Printf.printf "  %s: %s\n" k v) o.info;
  let metrics =
    if not traced then begin
      Printf.printf "end-to-end (median [q1, q3] over n samples):\n";
      List.iter
        (fun m ->
          Printf.printf "  %-22s %14.4f %-5s [%.4f, %.4f] n=%d%s%s\n" m.name m.value m.unit_ m.q1
            m.q3 m.n
            (if m.note = "" then "" else "  (" ^ m.note ^ ")")
            (if m.gated then "" else "  [printed only]"))
        o.e2e;
      List.filter_map (fun m -> if m.gated then Some (m.name, m.unit_, m.value) else None) o.e2e
    end
    else begin
      Printf.printf "spans (inclusive ms, self ms, calls), busiest self time first:\n";
      List.iter
        (fun (name, incl, self, c) ->
          Printf.printf "  %-22s %12.3f %12.3f %8d\n" name incl self c)
        o.span_table;
      Printf.printf "per-layer (median over traced passes):\n";
      List.map
        (fun (name, unit_) ->
          let v = Option.value (Hashtbl.find_opt o.layers name) ~default:0.0 in
          Printf.printf "  %-28s %16.4f %s\n" name v unit_;
          (name, unit_, v))
        layer_metrics
    end
  in
  if traced then begin
    (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".bench_out/spans-%s-seed%d.json" workload seed in
    Spans.write path;
    Printf.printf "spans: %d written to %s\n" (Spans.length ()) path
  end;
  let share = float_of_int o.failed /. float_of_int (max 1 o.attempted) in
  Printf.printf "failed_share %.6f (%d failed of %d attempted)\n" share o.failed o.attempted;
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) o.errors;
  let correct = o.errors = [] && o.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 o.attempted) o.failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit_)
          metrics));
  if not correct then exit 1
