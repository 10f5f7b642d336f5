(* Workload [advise]: the index-selection tool that merges what it
   selects — [Advisor.advise] with default arguments on 30 distinct Rags
   queries over Synthetic1 and a 1500-page budget, a fresh cost service
   per call as the CLI does. Selection and the cold, miss-heavy cost
   service do nearly all the work; the compactor, the miner and the
   server do nothing. *)

open Common
module Advisor = Im_advisor.Advisor
module Selection = Im_advisor.Selection
module Dual = Im_merging.Dual
module Merge = Im_merging.Merge
module Service = Im_costsvc.Service

let budget_pages = 1500
let n_queries = 30

(* Workloads per run: each is the same 30 templates with its own
   seed-drawn constant shifts, so one run's figure averages over three
   inputs. *)
let per_run = 3

(* Re-costing passes after each advise call; their per-statement
   what-if latencies (a full optimizer run each, as [explain] does) are
   the workload's statement latencies. Spread over the whole run, they
   do not all land in one scheduling interval. *)
let explain_passes = 10

let inputs db ~seed =
  let pool = templates db ~n:n_queries in
  List.init per_run (fun k ->
      let rng = Rng.create ((seed * 7919) + k) in
      Workload.make ~name:"advise"
        (Array.to_list
           (Array.map
              (fun (q : Query.t) ->
                let delta = Rng.int rng 16 in
                parse db ~id:q.Query.q_id
                  (mutate_constants ~delta (Query.to_sql q)))
              pool)))

let setup ~seed =
  let db = synthetic1 () in
  build_stats db;
  (db, inputs db ~seed)

let fingerprint (o : Advisor.outcome) =
  String.concat "; "
    (List.map
       (fun (it : Merge.item) -> Im_catalog.Index.to_string it.Merge.it_index)
       o.Advisor.a_final)
  ^ Printf.sprintf " | %h" o.Advisor.a_final_cost

(* Per-statement latencies of re-costing a recommendation through a
   fresh non-deriving service (a full optimizer run per statement), and
   the workload cost that re-costing gives. *)
let recost db w config =
  let fresh =
    Service.create ~derive:false
      ~update_cost:(Im_merging.Maintenance.config_batch_cost db) db
  in
  let times = ref [] in
  let cost =
    Service.workload_cost
      ~query_cost:(fun c q ->
        let v, dt = Im_util.Stopwatch.time (fun () -> Service.query_cost fresh c q) in
        times := dt :: !times;
        v)
      fresh config w
  in
  (cost, !times)

let explain db w o =
  let config = Advisor.final_config o in
  List.concat_map (fun _ -> snd (recost db w config)) (List.init explain_passes Fun.id)

(* The recommendation fits the budget, and re-costing it reproduces the
   cost advise reported. *)
let verify db w (o : Advisor.outcome) =
  let config = Advisor.final_config o in
  let pages = Database.config_storage_pages db config in
  check (o.Advisor.a_fits && pages <= budget_pages && pages = o.Advisor.a_final_pages)
    "advise: recommendation of %d pages (reported %d) exceeds the %d-page budget"
    pages o.Advisor.a_final_pages budget_pages;
  let cost, _ = recost db w config in
  check (cost = o.Advisor.a_final_cost)
    "advise: re-costing the recommendation gives %.17g, advise reported %.17g"
    cost o.Advisor.a_final_cost

let advise db w = Advisor.advise db w ~budget_pages

(* The advisor's three phases called one by one on one shared service,
   each inside its own span; the same decision rule as [Advisor.advise]
   picks the final configuration. *)
let traced_advise db w =
  Trace.span "advisor.advise" (fun () ->
      let svc =
        Service.create ~derive:true
          ~update_cost:(Im_merging.Maintenance.config_batch_cost db) db
      in
      let relaxed =
        Trace.span "advisor.select_relaxed" (fun () ->
            Selection.select ~service:svc db w ~budget_pages:(2 * budget_pages))
      in
      let merged =
        Trace.span "advisor.dual" (fun () ->
            Dual.run ~service:svc db w ~initial:relaxed.Selection.s_config
              ~budget_pages)
      in
      let plain =
        Trace.span "advisor.select_plain" (fun () ->
            Selection.select ~service:svc db w ~budget_pages)
      in
      let items, cost =
        if merged.Dual.d_fits
           && merged.Dual.d_final_cost <= plain.Selection.s_final_cost
        then (merged.Dual.d_items, merged.Dual.d_final_cost)
        else
          (Merge.items_of_config plain.Selection.s_config,
           plain.Selection.s_final_cost)
      in
      (svc, relaxed, items, cost))

let run_untraced ~seed ~seconds =
  let setups = List.init 3 (fun _ -> Im_util.Stopwatch.time (fun () -> setup ~seed)) in
  let setup_s = median (List.map snd setups) in
  let db, workloads = fst (List.hd (List.rev setups)) in
  let attempted = ref 0 and failed = ref 0 in
  let round_means = ref [] and explained = ref [] in
  let first = Hashtbl.create 4 in
  let t0 = now_s () in
  (* Whole rounds over the run's workloads: at least two (the first
     pays the process's cold interning, as a CLI run does), then more
     while the next one still fits in the run time. Each timed call
     starts from a compacted heap, so garbage left by the previous one
     does not decide its time. *)
  let rec rounds last =
    if List.length !round_means < 2 || now_s () -. t0 +. last <= float_of_int seconds
    then begin
      let total =
        List.fold_left ( +. ) 0.
          (List.mapi
             (fun k w ->
               incr attempted;
               Gc.compact ();
               match Im_util.Stopwatch.time (fun () -> advise db w) with
               | o, dt ->
                 (match Hashtbl.find_opt first k with
                  | None ->
                    Hashtbl.replace first k o;
                    verify db w o
                  | Some o0 ->
                    check (fingerprint o = fingerprint o0)
                      "advise: workload %d recommended differently on a repeat" k);
                 explained := explain db w o @ !explained;
                 dt
               | exception e ->
                 incr failed;
                 prerr_endline ("perfbench: advise raised " ^ Printexc.to_string e);
                 0.)
             workloads)
      in
      round_means := (total /. float_of_int per_run) :: !round_means;
      rounds total
    end
  in
  rounds 0.;
  let outcomes = Hashtbl.fold (fun _ o acc -> o :: acc) first [] in
  if outcomes = [] then refuse "advise: no recommendation completed";
  let explain = !explained in
  let frac f = mean (List.map f outcomes) in
  Printf.printf "advise: %d rounds of %d workloads\n" (List.length !round_means) per_run;
  {
    correct = true;
    attempted = !attempted;
    failed = !failed;
    metrics =
      [
        metric "setup_s" "s" setup_s;
        metric "answer_s" "s" (median !round_means);
        metric "stmt_p50_ms" "ms" (1e3 *. quantile 0.5 explain);
        metric "stmt_p90_ms" "ms" (1e3 *. quantile 0.9 explain);
        metric "stmt_sat_per_s" "1/s"
          (float_of_int (List.length explain) /. List.fold_left ( +. ) 0. explain);
        metric "rec_cost_frac" "frac"
          (frac (fun o -> o.Advisor.a_final_cost /. o.Advisor.a_base_cost));
        metric "rec_pages_frac" "frac"
          (frac (fun o ->
               float_of_int o.Advisor.a_final_pages
               /. float_of_int o.Advisor.a_selected_pages));
        metric "peak_rss_mb" "MiB" (peak_rss_mb None);
      ];
  }

(* Per-layer figures of the traced phases, summed over the workloads. *)
type tally = {
  mutable candidates : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable derived : int;
  mutable fallbacks : int;
  mutable atom_hits : int;
  mutable atom_misses : int;
  mutable invocations : int;
  mutable hit_s : float;
  mutable miss_s : float;
  mutable plain_s : float;
  mutable traced_s : float;
}

let run_traced ~seed =
  let db, workloads = setup ~seed in
  let t =
    { candidates = 0; hits = 0; misses = 0; evictions = 0; derived = 0;
      fallbacks = 0; atom_hits = 0; atom_misses = 0; invocations = 0;
      hit_s = 0.; miss_s = 0.; plain_s = 0.; traced_s = 0. }
  in
  let h_hit = Im_obs.Metrics.histogram ~labels:[ ("outcome", "hit") ] "costsvc_lookup_seconds" in
  let h_miss = Im_obs.Metrics.histogram ~labels:[ ("outcome", "miss") ] "costsvc_lookup_seconds" in
  let sum = Im_obs.Metrics.Histogram.sum in
  List.iteri
    (fun k w ->
      let untraced () =
        let o, dt = Im_util.Stopwatch.time (fun () -> Trace.without (fun () -> advise db w)) in
        t.plain_s <- t.plain_s +. dt;
        o
      in
      let traced () =
        let hit0 = sum h_hit and miss0 = sum h_miss in
        let inv0 = Im_optimizer.Optimizer.invocations () in
        let r, dt = Im_util.Stopwatch.time (fun () -> traced_advise db w) in
        t.traced_s <- t.traced_s +. dt;
        t.hit_s <- t.hit_s +. (sum h_hit -. hit0);
        t.miss_s <- t.miss_s +. (sum h_miss -. miss0);
        t.invocations <- t.invocations + (Im_optimizer.Optimizer.invocations () - inv0);
        r
      in
      (* Alternate which side goes first so warm process-wide state
         (interned ids, page memos) favours neither. *)
      let o, (svc, relaxed, items, cost) =
        if k mod 2 = 0 then
          let o = untraced () in
          (o, traced ())
        else
          let r = traced () in
          (untraced (), r)
      in
      verify db w o;
      check
        (List.map (fun (it : Merge.item) -> it.Merge.it_index) items
         = List.map (fun (it : Merge.item) -> it.Merge.it_index) o.Advisor.a_final
        && cost = o.Advisor.a_final_cost)
        "advise: the traced phases recommend differently from Advisor.advise";
      t.candidates <- t.candidates + relaxed.Selection.s_candidates;
      let c = Service.counters svc in
      t.hits <- t.hits + c.Service.c_hits;
      t.misses <- t.misses + c.Service.c_misses;
      t.evictions <- t.evictions + c.Service.c_evictions;
      t.derived <- t.derived + c.Service.c_derived;
      t.fallbacks <- t.fallbacks + c.Service.c_fallbacks;
      Option.iter
        (fun d ->
          t.atom_hits <- t.atom_hits + Im_derive.Derive.atom_hits d;
          t.atom_misses <- t.atom_misses + Im_derive.Derive.atom_misses d)
        (Service.deriver svc))
    workloads;
  let n = float_of_int per_run in
  let per_call name = (Trace.layer name).Trace.l_total_s /. n in
  let count v = float_of_int v /. n in
  {
    correct = true;
    attempted = 2 * per_run;
    failed = 0;
    metrics =
      [
        metric "advisor.select_relaxed_s" "s" (per_call "advisor.select_relaxed");
        metric "advisor.dual_s" "s" (per_call "advisor.dual");
        metric "advisor.select_plain_s" "s" (per_call "advisor.select_plain");
        metric "advisor.candidates" "count" (count t.candidates);
        metric "costsvc.hits" "count" (count t.hits);
        metric "costsvc.misses" "count" (count t.misses);
        metric "costsvc.hit_frac" "frac"
          (float_of_int t.hits /. float_of_int (max 1 (t.hits + t.misses)));
        metric "costsvc.evictions" "count" (count t.evictions);
        metric "costsvc.hit_s" "s" (t.hit_s /. n);
        metric "costsvc.miss_s" "s" (t.miss_s /. n);
        metric "derive.derived" "count" (count t.derived);
        metric "derive.fallbacks" "count" (count t.fallbacks);
        metric "derive.atom_hits" "count" (count t.atom_hits);
        metric "derive.atom_misses" "count" (count t.atom_misses);
        metric "optimizer.invocations" "count" (count t.invocations);
        metric "trace.overhead_frac" "frac" ((t.traced_s -. t.plain_s) /. t.plain_s);
      ];
  }

let run ~seed ~seconds ~trace =
  if trace then run_traced ~seed else run_untraced ~seed ~seconds
