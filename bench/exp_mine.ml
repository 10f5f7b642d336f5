(* EXP-MINE — frequent-itemset frontier pruning of the merge-pair
   search (DESIGN.md §2k).

   Three parts:

   1. Scale: a >= 200-index initial configuration (per-query union over
      a pool of distinct ragsgen templates, replayed with harmonically
      skewed frequencies — the shape the lib/scale compactor emits) on
      Synthetic1. Greedy and exhaustive run pruned vs unpruned; the
      MergePair evaluation counts (the [merge_pair_seconds] histograms)
      must drop by the acceptance bars — >= 5x for greedy on the full
      configuration.

   2. fig5–8 fidelity: on the paper-figure setups (three databases;
      greedy, exhaustive, MergePair-Syntactic, the fig8 N=20 / 20%
      constraint), the pruned search's final storage and Cost(W,C)
      must stay within 3 % of the unpruned search — hard-asserted.

   3. S = 0 identity: [--prune-support 0] must reproduce the unpruned
      merged configuration exactly (items, pages, cost).

   JSON artifact to $IM_BENCH_OUT (default BENCH_mine.json) for
   dev-check; IM_MINE_FAST=1 shrinks every leg to smoke size. *)

module Database = Im_catalog.Database
module Index = Im_catalog.Index
module Workload = Im_workload.Workload
module Search = Im_merging.Search
module Merge = Im_merging.Merge
module Merge_pair = Im_merging.Merge_pair
module Cost_eval = Im_merging.Cost_eval
module Mine = Im_mine.Mine
module Metrics = Im_obs.Metrics

let fast =
  match Sys.getenv_opt "IM_MINE_FAST" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

(* Scale-leg knobs. The support threshold is relative to total mass:
   with harmonic frequencies over [pool_n] templates, an itemset needs
   roughly the mass of a top-~15 template behind it to survive. *)
let pool_n = if fast then 60 else 240
let min_indexes = if fast then 30 else 200

let support_scale =
  match Sys.getenv_opt "IM_MINE_SUPPORT" with
  | Some s when s <> "" -> float_of_string s
  | _ -> 0.10
let greedy_bar = if fast then 1.5 else 5.0
let exhaustive_bar = 1.5

(* fig-leg support: one unit-frequency query of the 30-query paper
   workloads carries mass 1/30 ~ 0.0333, so at 0.03 every single
   query's footprint supports its own column sets. *)
let support_fig = 0.03
let fig_tolerance = 0.03

(* ---- MergePair evaluation counting ----

   [Merge_pair.merge] times every evaluation through one histogram per
   procedure; the get-or-create registry hands back the same handles,
   so count deltas around a search are exactly its evaluations. *)
let pair_handles =
  List.map
    (fun name ->
      Metrics.histogram ~labels:[ ("procedure", name) ] "merge_pair_seconds")
    [ "cost_based"; "syntactic"; "exhaustive" ]

let pair_evals () =
  List.fold_left (fun n h -> n + Metrics.Histogram.count h) 0 pair_handles

let counted f =
  let before = pair_evals () in
  let result = f () in
  (result, pair_evals () - before)

(* ---- Part 1: the >= 200-index scale leg ---- *)

let scale_workload db =
  let queries =
    Workload.queries
      (Im_workload.Ragsgen.generate db ~rng:(Im_util.Rng.create 11) ~n:pool_n)
  in
  Workload.of_entries ~name:"mine-scale"
    (List.mapi
       (fun i q ->
         { Workload.query = q; freq = float_of_int pool_n /. float_of_int (i + 1) })
       queries)

let ratio_of ~unpruned ~pruned =
  float_of_int unpruned /. float_of_int (max 1 pruned)

let run_scale db =
  let workload = scale_workload db in
  let initial = Im_tuning.Initial_config.per_query_union db workload in
  let n_initial = List.length initial in
  if n_initial < min_indexes then
    failwith
      (Printf.sprintf
         "EXP-MINE: per-query union built only %d indexes (need >= %d)"
         n_initial min_indexes);
  (* No-Cost mode: the scale leg measures the enumeration, not the cost
     model — greedy folds by pure storage reduction, so every same-table
     pair evaluation the frontier saves is visible undiluted. *)
  let go ?prune_support strategy =
    counted (fun () ->
        Exp_common.prepared_search ?prune_support
          ~cost_model:Cost_eval.default_no_cost db workload ~initial strategy)
  in
  let (greedy_plain, _), greedy_unpruned = go Search.Greedy in
  let (greedy_pruned_o, frontier), greedy_pruned =
    go ~prune_support:support_scale Search.Greedy
  in
  let greedy_ratio = ratio_of ~unpruned:greedy_unpruned ~pruned:greedy_pruned in
  if greedy_ratio < greedy_bar then
    failwith
      (Printf.sprintf
         "EXP-MINE: greedy pair evaluations %d -> %d (%.1fx) below the %.1fx \
          acceptance bar at support %g on %d indexes"
         greedy_unpruned greedy_pruned greedy_ratio greedy_bar support_scale
         n_initial);
  (* Exhaustive enumerates set partitions per table, so it runs on a
     per-table slice of the same configuration (the Bell numbers, not
     the pruning, are what caps it) under a bounded config limit. *)
  let config_limit = if fast then 500 else 2_000 in
  let slice =
    (* Hot head + cold tail of each group: per-query-union lists indexes
       in workload (frequency) order, so this mixes supported and
       unsupported parents the way a real configuration does. *)
    let by_table =
      Im_util.List_ext.group_by (fun ix -> ix.Index.idx_table) initial
    in
    List.concat_map
      (fun (_, ixs) ->
        let n = List.length ixs in
        List.filteri (fun i _ -> i < 3 || i >= n - 4) ixs)
      (Im_util.List_ext.take 2 by_table)
  in
  let go_ex ?prune_support () =
    counted (fun () ->
        fst
          (Exp_common.prepared_search ?prune_support
             ~cost_model:Cost_eval.default_no_cost db workload ~initial:slice
             (Search.Exhaustive_search { config_limit })))
  in
  let _, ex_unpruned = go_ex () in
  let ex_pruned_o, ex_pruned = go_ex ~prune_support:support_scale () in
  let ex_ratio = ratio_of ~unpruned:ex_unpruned ~pruned:ex_pruned in
  if ex_ratio < exhaustive_bar then
    failwith
      (Printf.sprintf
         "EXP-MINE: exhaustive pair evaluations %d -> %d (%.1fx) below the \
          %.1fx bar at support %g on %d indexes"
         ex_unpruned ex_pruned ex_ratio exhaustive_bar support_scale
         (List.length slice));
  let pruning =
    match frontier with
    | Some fr -> Mine.frontier_stats fr
    | None -> failwith "EXP-MINE: pruned greedy run mined no frontier"
  in
  Exp_common.print_table
    ~title:
      (Printf.sprintf
         "Frontier pruning at scale (Synthetic1, %d indexes, support %g)"
         n_initial support_scale)
    ~header:
      [ "strategy"; "indexes"; "pairs unpruned"; "pairs pruned"; "ratio";
        "pages unpruned"; "pages pruned" ]
    ~rows:
      [
        [
          "greedy"; string_of_int n_initial; string_of_int greedy_unpruned;
          string_of_int greedy_pruned; Printf.sprintf "%.1fx" greedy_ratio;
          string_of_int greedy_plain.Search.o_final_pages;
          string_of_int greedy_pruned_o.Search.o_final_pages;
        ];
        [
          "exhaustive"; string_of_int (List.length slice);
          string_of_int ex_unpruned; string_of_int ex_pruned;
          Printf.sprintf "%.1fx" ex_ratio; "-";
          string_of_int ex_pruned_o.Search.o_final_pages;
        ];
      ];
  ( n_initial, greedy_unpruned, greedy_pruned, greedy_ratio, ex_unpruned,
    ex_pruned, ex_ratio, pruning )

(* ---- Part 2: fidelity on the fig5–8 setups ---- *)

let fig_setups =
  [
    ("fig5-greedy", Search.Greedy, Merge_pair.Cost_based, 0.10, 5, 2);
    ( "fig6-exhaustive",
      Search.Exhaustive_search { config_limit = 100_000 },
      Merge_pair.Cost_based, 0.10, 5, 2 );
    ("fig7-syntactic", Search.Greedy, Merge_pair.Syntactic, 0.10, 5, 2);
    ("fig8-n20", Search.Greedy, Merge_pair.Cost_based, 0.20, 20, 120);
  ]

let rel_dev a b = if a = 0. then Float.abs (b -. a) else Float.abs (b -. a) /. a

let run_fig () =
  let databases =
    if fast then [ ("Synthetic1", Lazy.force Exp_common.synthetic1) ]
    else Exp_common.databases ()
  in
  let max_pages_dev = ref 0. in
  let max_cost_dev = ref 0. in
  let rows =
    List.concat_map
      (fun (name, db) ->
        let workload = Exp_common.complex_workload db ~n:30 ~seed:1 in
        List.map
          (fun (sname, strategy, mp, constraint_, n, seed) ->
            let initial = Exp_common.initial_config db workload ~n ~seed in
            let go ?prune_support () =
              fst
                (Exp_common.prepared_search ?prune_support ~merge_pair:mp
                   ~cost_model:Cost_eval.Optimizer_estimated
                   ~cost_constraint:constraint_ db workload ~initial strategy)
            in
            let plain = go () in
            let pruned = go ~prune_support:support_fig () in
            let pages_dev =
              rel_dev
                (float_of_int plain.Search.o_final_pages)
                (float_of_int pruned.Search.o_final_pages)
            in
            let cost_dev =
              match (plain.Search.o_final_cost, pruned.Search.o_final_cost) with
              | Some a, Some b -> rel_dev a b
              | _ -> 0.
            in
            max_pages_dev := Float.max !max_pages_dev pages_dev;
            max_cost_dev := Float.max !max_cost_dev cost_dev;
            if pages_dev > fig_tolerance || cost_dev > fig_tolerance then
              failwith
                (Printf.sprintf
                   "EXP-MINE: %s/%s: pruned search deviates %.1f%% in pages / \
                    %.1f%% in cost from unpruned (tolerance %.0f%%)"
                   name sname (100. *. pages_dev) (100. *. cost_dev)
                   (100. *. fig_tolerance));
            [ name; sname;
              string_of_int plain.Search.o_final_pages;
              string_of_int pruned.Search.o_final_pages;
              Printf.sprintf "%.2f%%" (100. *. pages_dev);
              Printf.sprintf "%.2f%%" (100. *. cost_dev) ])
          fig_setups)
      databases
  in
  Exp_common.print_table
    ~title:
      (Printf.sprintf
         "fig5–8 fidelity at support %g (tolerance %.0f%%)" support_fig
         (100. *. fig_tolerance))
    ~header:
      [ "db"; "setup"; "pages unpruned"; "pages pruned"; "pages dev";
        "cost dev" ]
    ~rows;
  (!max_pages_dev, !max_cost_dev)

(* ---- Part 3: S = 0 identity ---- *)

let fingerprint items =
  String.concat "; "
    (List.map
       (fun (it : Merge.item) ->
         Printf.sprintf "%s<-[%s]"
           (Index.to_string it.Merge.it_index)
           (String.concat ", " (List.map Index.to_string it.Merge.it_parents)))
       items)

let run_identity () =
  let databases =
    if fast then [ ("Synthetic1", Lazy.force Exp_common.synthetic1) ]
    else Exp_common.databases ()
  in
  List.iter
    (fun (name, db) ->
      let workload = Exp_common.complex_workload db ~n:30 ~seed:1 in
      let initial = Exp_common.initial_config db workload ~n:5 ~seed:2 in
      List.iter
        (fun (sname, strategy) ->
          let go prune_support =
            fst
              (Exp_common.prepared_search ?prune_support
                 ~cost_model:Cost_eval.Optimizer_estimated
                 ~cost_constraint:0.10 db workload ~initial strategy)
          in
          let plain = go None in
          let zero = go (Some 0.0) in
          if
            not
              (String.equal
                 (fingerprint plain.Search.o_items)
                 (fingerprint zero.Search.o_items)
              && plain.Search.o_final_pages = zero.Search.o_final_pages
              && Option.equal Float.equal plain.Search.o_final_cost
                   zero.Search.o_final_cost)
          then
            failwith
              (Printf.sprintf
                 "EXP-MINE: %s/%s: --prune-support 0 diverges from the \
                  unpruned search (%d vs %d pages; %s vs %s)"
                 name sname plain.Search.o_final_pages zero.Search.o_final_pages
                 (fingerprint plain.Search.o_items)
                 (fingerprint zero.Search.o_items)))
        [
          ("greedy", Search.Greedy);
          ("exhaustive", Search.Exhaustive_search { config_limit = 100_000 });
        ];
      Printf.printf "  [%s] --prune-support 0 identical (greedy, exhaustive)\n%!"
        name)
    databases

let run () =
  Exp_common.section
    (Printf.sprintf
       "EXP-MINE frequent-itemset frontier pruning (pool %d, support %g%s)"
       pool_n support_scale
       (if fast then ", fast" else ""));
  let db = Lazy.force Exp_common.synthetic1 in
  let ( n_initial, greedy_unpruned, greedy_pruned, greedy_ratio, ex_unpruned,
        ex_pruned, ex_ratio, pruning ) =
    run_scale db
  in
  let pages_dev, cost_dev = run_fig () in
  run_identity ();
  let out =
    match Sys.getenv_opt "IM_BENCH_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_mine.json"
  in
  let oc = open_out out in
  output_string oc
    (Printf.sprintf
       "{\n  \"experiment\": \"mine\",\n  \"fast\": %b,\n\
       \  \"initial_indexes\": %d,\n  \"support\": %g,\n\
       \  \"greedy\": {\"pairs_unpruned\": %d, \"pairs_pruned\": %d, \
        \"ratio\": %.2f, \"bar\": %.1f},\n\
       \  \"exhaustive\": {\"pairs_unpruned\": %d, \"pairs_pruned\": %d, \
        \"ratio\": %.2f, \"bar\": %.1f},\n\
       \  \"frontier\": {\"itemsets\": %d, \"supported_tables\": %d, \
        \"kept\": %d, \"pruned\": %d},\n\
       \  \"fig\": {\"support\": %g, \"max_pages_dev\": %.6f, \
        \"max_cost_dev\": %.6f, \"tolerance\": %g},\n\
       \  \"identity\": \"ok\",\n  \"metrics\": %s\n}\n"
       fast n_initial support_scale greedy_unpruned greedy_pruned greedy_ratio
       greedy_bar ex_unpruned ex_pruned ex_ratio exhaustive_bar
       pruning.Mine.fs_itemsets pruning.Mine.fs_supported_tables
       pruning.Mine.fs_kept pruning.Mine.fs_pruned support_fig pages_dev
       cost_dev fig_tolerance (Metrics.to_json ()));
  close_out oc;
  Printf.printf "\nwrote %s\n" out
