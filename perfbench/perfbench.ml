(* The repository benchmark: one workload per invocation.

     perfbench.exe --workload advise|log_merge|serve --seed N
                   --seconds S --trace 0|1 [--rev REV]

   Run from the repository root (perfbench/run.py builds and runs it).
   With --trace 0 it prints every end-to-end metric; with --trace 1 it
   runs the workload again with spans around each call it makes into a
   layer, writes the spans to perfbench/out/, and prints every per-layer
   metric (0 for a layer the workload does not exercise). The last line
   of standard output is the JSON result; a run the benchmark could not
   drive exits 3 without one. *)

open Common

let end_to_end =
  [ "setup_s"; "answer_s"; "stmt_p50_ms"; "stmt_p90_ms"; "stmt_sat_per_s";
    "rec_cost_frac"; "rec_pages_frac"; "peak_rss_mb" ]

(* Every per-layer metric, with its unit; a traced run reports each. *)
let per_layer =
  [
    ("sqlir.parse_us", "us");
    ("scale.observe_us", "us");
    ("scale.buckets", "count");
    ("scale.fold_ratio", "ratio");
    ("scale.probe_costs", "count");
    ("mine.kept_pairs", "count");
    ("mine.pruned_pairs", "count");
    ("mine.kept_frac", "frac");
    ("tuning.union_s", "s");
    ("advisor.select_relaxed_s", "s");
    ("advisor.dual_s", "s");
    ("advisor.select_plain_s", "s");
    ("advisor.candidates", "count");
    ("search.greedy_s", "s");
    ("search.iterations", "count");
    ("search.cost_evals", "count");
    ("merge_pair.evals", "count");
    ("costsvc.hits", "count");
    ("costsvc.misses", "count");
    ("costsvc.hit_frac", "frac");
    ("costsvc.evictions", "count");
    ("costsvc.hit_s", "s");
    ("costsvc.miss_s", "s");
    ("derive.derived", "count");
    ("derive.fallbacks", "count");
    ("derive.atom_hits", "count");
    ("derive.atom_misses", "count");
    ("optimizer.invocations", "count");
    ("par.tasks", "count");
    ("par.task_s", "s");
    ("online.feed_us", "us");
    ("online.epoch_search_s", "s");
    ("online.epoch_commit_s", "s");
    ("online.epochs", "count");
    ("online.drift_fires", "count");
    ("online.window_clusters", "count");
    ("server.stmt_p99_s", "s");
    ("server.dispatch_stall_s", "s");
    ("server.fairness_deferred", "count");
    ("server.bytes_out", "bytes");
    ("loadgen.late_p99_ms", "ms");
    ("loadgen.stmt_p99_ms", "ms");
    ("trace.overhead_frac", "frac");
  ]

let workloads =
  [ ("advise", W_advise.run); ("log_merge", W_log_merge.run); ("serve", W_serve.run) ]

(* Keep exactly the contract's metrics, in catalog order: per-layer
   names a workload does not measure read 0. *)
let complete ~trace r =
  let find name = List.find_opt (fun m -> m.m_name = name) r.metrics in
  let metrics =
    if trace then
      List.map
        (fun (name, u) ->
          match find name with Some m -> m | None -> metric name u 0.)
        per_layer
    else
      List.map
        (fun name ->
          match find name with
          | Some m -> m
          | None -> failwith ("workload did not measure " ^ name))
        end_to_end
  in
  { r with metrics }

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload advise|log_merge|serve --seed N \
     --seconds S --trace 0|1 [--rev REV]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--rev", Arg.Set_string rev, "REV");
    ]
    (fun _ -> usage ())
    "perfbench";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !seconds >= 1 && (!trace = 0 || !trace = 1) -> run
    | _ -> usage ()
  in
  let traced = !trace = 1 in
  let tag = Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace in
  let context =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \
       \"rev\": %S, \"nproc\": %d, \"domains\": %d, \"ocaml\": %S}"
      !workload !seed !seconds !trace !rev
      (Domain.recommended_domain_count ())
      (Im_par.Pool.default_domains ())
      Sys.ocaml_version
  in
  Printf.printf "context %s\n%!" context;
  ensure_out_dir ();
  if traced then Trace.enable ~run:tag;
  match run ~seed:!seed ~seconds:!seconds ~trace:traced with
  | exception Refuse msg ->
    prerr_endline ("perfbench: refusing to report: " ^ msg);
    exit 3
  | r ->
    let r = complete ~trace:traced { r with correct = r.correct && !violations = [] } in
    List.iter
      (fun m -> Printf.printf "%-26s %14.6g %s\n" m.m_name m.m_value m.m_unit)
      r.metrics;
    if traced then Trace.write (Filename.concat out_dir ("trace-" ^ tag ^ ".jsonl"));
    let line = result_line r in
    let oc = open_out (Filename.concat out_dir ("result-" ^ tag ^ ".json")) in
    Printf.fprintf oc "{\"context\": %s, \"result\": %s}\n" context line;
    close_out oc;
    print_endline line
