(* The benchmark's entry point: one workload, one seed, one run.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --cli PATH --out-dir DIR

   With --trace 0 it measures the end-to-end metrics with tracing off;
   with --trace 1 it makes the traced pass and prints the per-layer
   metrics.  The last line of standard output is the result object; the
   exit code is 1 when any operation failed or any answer was wrong. *)

open Hqbench

(* Every per-layer metric, in BENCHMARK.json order.  A workload that does
   not reach a layer reports it as 0. *)
let per_layer =
  [
    ("frontend.calls", "count");
    ("frontend.busy_ms", "ms");
    ("frontend.embed_ms", "ms");
    ("frontend.embed_cache_hit_ratio", "ratio");
    ("anneal.device_calls", "count");
    ("anneal.device_busy_ms", "ms");
    ("anneal.spin_updates", "count");
    ("anneal.spin_updates_per_s", "1/s");
    ("anneal.qa_model_ms", "ms");
    ("machine.host_ms", "ms");
    ("machine.postprocess_ms", "ms");
    ("machine.chain_breaks", "count");
    ("feedback.busy_ms", "ms");
    ("feedback.s1_uses", "count");
    ("feedback.s2_uses", "count");
    ("feedback.s3_uses", "count");
    ("feedback.s4_uses", "count");
    ("cdcl.busy_ms", "ms");
    ("cdcl.iterations", "count");
    ("cdcl.conflicts", "count");
    ("cdcl.propagations", "count");
    ("cdcl.props_per_s", "1/s");
    ("optimize.walksat_ms", "ms");
    ("optimize.anneal_seed_ms", "ms");
    ("optimize.exact_ms", "ms");
    ("optimize.cdcl_calls", "count");
    ("optimize.cores", "count");
    ("check.certify_ms", "ms");
    ("check.certify_opt_ms", "ms");
    ("service.solve_ms", "ms");
    ("server.codec_ms", "ms");
    ("server.queue_wait_ms", "ms");
    ("server.wire_overhead_ms", "ms");
    ("server.latency_p99_ms", "ms");
    ("unaccounted_ms", "ms");
    ("trace.wall_ms", "ms");
    ("trace.overhead_ms", "ms");
  ]

let workloads = [ "hybrid-table1"; "maxsat-weighted"; "serve-certified" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH --out-dir DIR";
  exit 2

let () =
  (* exit through [at_exit], which stops a daemon the run started *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun n -> exit (128 - n))))
    [ Sys.sigterm; Sys.sigint ];
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then begin
    Printf.eprintf "unknown workload %s (one of: %s)\n" workload (String.concat ", " workloads);
    exit 2
  end;
  (* the program under test runs on the CPU the speed probe measures *)
  Refspeed.pin Refspeed.work_cpu;
  let seed = int_of_string (get "seed") in
  let seconds = float_of_string (get "seconds") in
  let trace = get "trace" = "1" in
  let cli = get "cli" and out_dir = get "out-dir" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let trace_path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
  let tally, metrics =
    if not trace then
      match workload with
      | "hybrid-table1" -> Wl_hybrid.timed ~seed ~seconds
      | "maxsat-weighted" -> Wl_maxsat.timed ~seed ~seconds
      | _ -> Wl_serve.timed ~cli ~out_dir ~seed ~seconds
    else
      let tally, values =
        match workload with
        | "hybrid-table1" -> Wl_hybrid.traced ~seed ~trace_path
        | "maxsat-weighted" -> Wl_maxsat.traced ~seed ~trace_path
        | _ -> Wl_serve.traced ~cli ~out_dir ~seed ~seconds ~trace_path
      in
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name per_layer) then failwith ("unlisted layer metric " ^ name))
        values;
      Printf.printf "trace written to %s\n" trace_path;
      ( tally,
        List.map
          (fun (name, unit_) ->
            Harness.m name unit_ (Option.value ~default:0. (List.assoc_opt name values)))
          per_layer )
  in
  List.iter (fun line -> prerr_endline line) (List.rev tally.Harness.notes);
  print_endline (Harness.result_line tally metrics);
  exit (if tally.Harness.failed > 0 || tally.Harness.wrong > 0 then 1 else 0)
