(* Workload [log_merge]: the DBA merging the per-query union of a large
   statement log (paper §1, §3.4 greedy). A ~200k-statement SQL log of
   60 Rags templates over Synthetic1 — skewed picks, integer constants
   shifted as in [exp_scale] — is written in set-up. The timed part
   streams it from text ([Workload_file.fold]) into the compactor
   (ε = 0.05, feeding a miner), takes the per-query union over the
   compressed log, and runs greedy merging at the default 10 %
   constraint with the mined frontier (support 0.10). Selection does
   nothing. *)

open Common
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Scale = Im_scale.Scale
module Mine = Im_mine.Mine
module Search = Im_merging.Search
module Merge = Im_merging.Merge
module Service = Im_costsvc.Service

let statements = 200_000
let n_templates = 60
let eps = 0.05
let support = 0.10
let cost_constraint = 0.10

type input = {
  db : Database.t;
  path : string;
  texts : string array;  (** template SQL *)
  counts : (int * int, int) Hashtbl.t;  (** (template, shift) -> occurrences *)
}

(* Half the picks land on the first quarter of the pool; one in eight
   statements is an exact repeat of its template, the rest shift every
   integer constant by 1..7. *)
let write_log ~seed db path =
  let texts = Array.map Query.to_sql (templates db ~n:n_templates) in
  let rng = Rng.create ((seed * 104_729) + 1) in
  let counts = Hashtbl.create 512 in
  let n = Array.length texts in
  let oc = open_out path in
  for _ = 1 to statements do
    let t =
      if Rng.int rng 2 = 0 then Rng.int rng (max 1 (n / 4)) else Rng.int rng n
    in
    let delta = Rng.int rng 8 in
    Hashtbl.replace counts (t, delta)
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts (t, delta)));
    output_string oc
      (if delta = 0 then texts.(t) else mutate_constants ~delta texts.(t));
    output_string oc ";\n"
  done;
  close_out oc;
  (texts, counts)

let setup ~seed =
  let db = synthetic1 () in
  build_stats db;
  ensure_out_dir ();
  let path = Filename.concat out_dir (Printf.sprintf "log_merge-%d.sql" seed) in
  let texts, counts = write_log ~seed db path in
  { db; path; texts; counts }

type outcome = {
  compactor : Scale.t;
  frontier : Mine.frontier;
  compressed : Workload.t;
  initial : Config.t;
  search : Search.outcome;
  svc : Service.t;
  ingest_s : float;
  stmt_s : float array;  (** per-statement intake seconds *)
}

(* One pass from the log on disk to the merged recommendation. With
   [timed], each statement's intake (read, parse, compactor, miner) is
   timed between two clock reads. *)
let pipeline ?(timed = false) inp =
  let svc =
    Service.create ~derive:true
      ~update_cost:(Im_merging.Maintenance.config_batch_cost inp.db) inp.db
  in
  let miner = Mine.create () in
  let compactor = Scale.create ~eps ~mine:miner svc in
  let stmt_s = Array.make (if timed then statements else 0) 0. in
  let (), ingest_s =
    Im_util.Stopwatch.time (fun () ->
        Trace.span "workload_file.fold" (fun () ->
            let last = ref (now_s ()) in
            match
              Im_workload.Workload_file.fold ~schema:(Database.schema inp.db)
                inp.path ~init:0 ~f:(fun i q freq ->
                  Trace.span "scale.observe" (fun () ->
                      Scale.observe compactor ?freq q);
                  if timed then begin
                    let t = now_s () in
                    stmt_s.(i) <- t -. !last;
                    last := t
                  end;
                  i + 1)
            with
            | Ok n when n = statements -> ()
            | Ok n -> failwith (Printf.sprintf "streamed %d of %d statements" n statements)
            | Error msg -> failwith ("log stream failed: " ^ msg)))
  in
  let compressed = Trace.span "scale.snapshot" (fun () -> Scale.snapshot compactor) in
  let initial =
    Trace.span "tuning.union" (fun () ->
        Im_tuning.Initial_config.per_query_union inp.db compressed)
  in
  let frontier = Trace.span "mine.frontier" (fun () -> Mine.frontier miner ~support) in
  let search =
    Trace.span "search.greedy" (fun () ->
        Search.run ~service:svc ~prune:frontier ~cost_constraint inp.db
          compressed ~initial Search.Greedy)
  in
  { compactor; frontier; compressed; initial; search; svc; ingest_s; stmt_s }

let verify inp o =
  let st = Scale.stats o.compactor in
  check (st.Scale.st_eps_bound <= eps)
    "log_merge: compactor bound %.6f exceeds eps %g" st.Scale.st_eps_bound eps;
  (* Exact Cost(W, C) from the occurrence counts kept while writing the
     log, against the compressed workload's cost. *)
  let fresh = Service.create ~derive:true inp.db in
  let distinct =
    Hashtbl.fold
      (fun (t, delta) c acc ->
        let sql =
          if delta = 0 then inp.texts.(t) else mutate_constants ~delta inp.texts.(t)
        in
        (float_of_int c, parse inp.db ~id:"V" sql) :: acc)
      inp.counts []
    |> List.sort (fun (_, a) (_, b) ->
           String.compare (Query.canonical_string a) (Query.canonical_string b))
  in
  let final = Merge.config_of_items o.search.Search.o_items in
  List.iter
    (fun (name, config) ->
      let exact =
        List.fold_left
          (fun acc (c, q) -> acc +. (c *. Service.query_cost fresh config q))
          0. distinct
      in
      let approx = Service.workload_cost fresh config o.compressed in
      let dev = Float.abs (approx -. exact) in
      check (dev <= (st.Scale.st_eps_bound *. exact) +. 1e-6)
        "log_merge: %s: deviation %.6f of exact cost %.1f exceeds bound %.6f"
        name (dev /. exact) exact st.Scale.st_eps_bound)
    [ ("empty", Config.empty); ("initial", o.initial); ("final", final) ];
  List.iter
    (fun ix ->
      check
        (List.exists
           (fun (it : Merge.item) -> List.exists (Index.equal ix) it.Merge.it_parents)
           o.search.Search.o_items)
        "log_merge: initial index %s is no parent of a final item"
        (Index.to_string ix))
    o.initial;
  let s = o.search in
  check (s.Search.o_final_pages <= s.Search.o_initial_pages)
    "log_merge: storage grew from %d to %d pages" s.Search.o_initial_pages
    s.Search.o_final_pages;
  match (s.Search.o_initial_cost, s.Search.o_final_cost) with
  | Some c0, Some c1 ->
    check (c1 <= (1. +. cost_constraint) *. c0)
      "log_merge: final cost %.1f exceeds (1 + %g) x initial cost %.1f" c1
      cost_constraint c0
  | _ -> check false "log_merge: the search reported no costs"

let no_index_cost inp o =
  Service.workload_cost (Service.create ~derive:true inp.db) Config.empty
    o.compressed

let run_untraced ~seed ~seconds =
  let setups = List.init 3 (fun _ -> Im_util.Stopwatch.time (fun () -> setup ~seed)) in
  let setup_s = median (List.map snd setups) in
  let inp = fst (List.hd (List.rev setups)) in
  (* Per pass: seconds to the recommendation, and the intake's p50, p90
     and statements per second; each is reported as its median over the
     passes. *)
  let answers = ref [] and p50 = ref [] and p90 = ref [] and rate = ref [] in
  (* Peak memory through set-up and the first pass: later passes only
     repeat it, and how many fit in the run depends on speed. *)
  let first = ref None and rss = ref nan in
  let attempted = ref 0 and failed = ref 0 in
  let t0 = now_s () in
  let rec reps last =
    if !answers = [] || now_s () -. t0 +. last <= float_of_int seconds then begin
      attempted := !attempted + statements + 1;
      Gc.compact ();
      match Im_util.Stopwatch.time (fun () -> pipeline ~timed:true inp) with
      | o, dt ->
        answers := dt :: !answers;
        let per_stmt = Array.to_list o.stmt_s in
        p50 := quantile 0.5 per_stmt :: !p50;
        p90 := quantile 0.9 per_stmt :: !p90;
        rate := (float_of_int statements /. o.ingest_s) :: !rate;
        if !first = None then begin
          first := Some o;
          rss := peak_rss_mb None
        end;
        reps dt
      | exception e ->
        incr failed;
        prerr_endline ("perfbench: log_merge raised " ^ Printexc.to_string e)
    end
  in
  reps 0.;
  Sys.remove inp.path;
  match !first with
  | None -> refuse "log_merge: no pass completed"
  | Some o ->
    verify inp o;
    let s = o.search in
    let final_cost = Option.value ~default:nan s.Search.o_final_cost in
    Printf.printf "log_merge: %d passes (%s s); ingest_us_per_stmt %.3f us\n"
      (List.length !answers)
      (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !answers))
      (o.ingest_s /. float_of_int statements *. 1e6);
    {
      correct = true;
      attempted = !attempted;
      failed = !failed;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "answer_s" "s" (median !answers);
          metric "stmt_p50_ms" "ms" (1e3 *. median !p50);
          metric "stmt_p90_ms" "ms" (1e3 *. median !p90);
          metric "stmt_sat_per_s" "1/s" (median !rate);
          metric "rec_cost_frac" "frac" (final_cost /. no_index_cost inp o);
          metric "rec_pages_frac" "frac"
            (float_of_int s.Search.o_final_pages /. float_of_int s.Search.o_initial_pages);
          metric "peak_rss_mb" "MiB" !rss;
        ];
    }

let run_traced ~seed =
  let inp = setup ~seed in
  let h_hit = Im_obs.Metrics.histogram ~labels:[ ("outcome", "hit") ] "costsvc_lookup_seconds" in
  let h_miss = Im_obs.Metrics.histogram ~labels:[ ("outcome", "miss") ] "costsvc_lookup_seconds" in
  let h_pair = Im_obs.Metrics.histogram ~labels:[ ("procedure", "cost_based") ] "merge_pair_seconds" in
  let h_task = Im_obs.Metrics.histogram "par_task_seconds" in
  let untraced () =
    snd (Im_util.Stopwatch.time (fun () -> Trace.without (fun () -> pipeline inp)))
  in
  let plain_a = untraced () in
  let hit0 = Im_obs.Metrics.Histogram.sum h_hit
  and miss0 = Im_obs.Metrics.Histogram.sum h_miss
  and pairs0 = Im_obs.Metrics.Histogram.count h_pair
  and tasks0 = Option.value ~default:0. (Im_obs.Metrics.find_value "par_tasks_total")
  and task_s0 = Im_obs.Metrics.Histogram.sum h_task
  and inv0 = Im_optimizer.Optimizer.invocations () in
  let o, traced_s =
    Im_util.Stopwatch.time (fun () ->
        Trace.span "log_merge" (fun () -> pipeline inp))
  in
  let hit_s = Im_obs.Metrics.Histogram.sum h_hit -. hit0
  and miss_s = Im_obs.Metrics.Histogram.sum h_miss -. miss0
  and pairs = Im_obs.Metrics.Histogram.count h_pair - pairs0
  and tasks = Option.value ~default:0. (Im_obs.Metrics.find_value "par_tasks_total") -. tasks0
  and task_s = Im_obs.Metrics.Histogram.sum h_task -. task_s0
  and invocations = Im_optimizer.Optimizer.invocations () - inv0 in
  let plain_b = untraced () in
  Sys.remove inp.path;
  verify inp o;
  let st = Scale.stats o.compactor in
  let fs = Mine.frontier_stats o.frontier in
  let c = Service.counters o.svc in
  let atom_hits, atom_misses =
    match Service.deriver o.svc with
    | Some d -> (Im_derive.Derive.atom_hits d, Im_derive.Derive.atom_misses d)
    | None -> (0, 0)
  in
  let layer name = Trace.layer name in
  let n = float_of_int statements in
  let f = float_of_int in
  let s = o.search in
  {
    correct = true;
    attempted = 3 * (statements + 1);
    failed = 0;
    metrics =
      [
        metric "sqlir.parse_us" "us" ((layer "workload_file.fold").Trace.l_self_s /. n *. 1e6);
        metric "scale.observe_us" "us" ((layer "scale.observe").Trace.l_total_s /. n *. 1e6);
        metric "scale.buckets" "count" (f st.Scale.st_buckets);
        metric "scale.fold_ratio" "ratio" (Scale.fold_ratio st);
        metric "scale.probe_costs" "count" (f st.Scale.st_probe_costs);
        metric "mine.kept_pairs" "count" (f fs.Mine.fs_kept);
        metric "mine.pruned_pairs" "count" (f fs.Mine.fs_pruned);
        metric "mine.kept_frac" "frac"
          (f fs.Mine.fs_kept /. f (max 1 (fs.Mine.fs_kept + fs.Mine.fs_pruned)));
        metric "tuning.union_s" "s" (layer "tuning.union").Trace.l_total_s;
        metric "search.greedy_s" "s" (layer "search.greedy").Trace.l_total_s;
        metric "search.iterations" "count" (f s.Search.o_iterations);
        metric "search.cost_evals" "count" (f s.Search.o_cost_evaluations);
        metric "merge_pair.evals" "count" (f pairs);
        metric "costsvc.hits" "count" (f c.Service.c_hits);
        metric "costsvc.misses" "count" (f c.Service.c_misses);
        metric "costsvc.hit_frac" "frac"
          (f c.Service.c_hits /. f (max 1 (c.Service.c_hits + c.Service.c_misses)));
        metric "costsvc.evictions" "count" (f c.Service.c_evictions);
        metric "costsvc.hit_s" "s" hit_s;
        metric "costsvc.miss_s" "s" miss_s;
        metric "derive.derived" "count" (f c.Service.c_derived);
        metric "derive.fallbacks" "count" (f c.Service.c_fallbacks);
        metric "derive.atom_hits" "count" (f atom_hits);
        metric "derive.atom_misses" "count" (f atom_misses);
        metric "optimizer.invocations" "count" (f invocations);
        metric "par.tasks" "count" tasks;
        metric "par.task_s" "s" task_s;
        metric "trace.overhead_frac" "frac"
          ((traced_s -. ((plain_a +. plain_b) /. 2.)) /. ((plain_a +. plain_b) /. 2.));
      ];
  }

let run ~seed ~seconds ~trace =
  if trace then run_traced ~seed else run_untraced ~seed ~seconds
