(* Bechamel micro-benchmarks: per-operation latency of the pieces the
   paper's running-time discussion hinges on — one Test.make per
   measured operation, grouped per experiment table they feed. *)

open Bechamel
open Toolkit

module Database = Im_catalog.Database
module Index = Im_catalog.Index
module Search = Im_merging.Search
module Merge = Im_merging.Merge
module Merge_pair = Im_merging.Merge_pair
module Seek_cost = Im_merging.Seek_cost
module Cost_eval = Im_merging.Cost_eval

let tests () =
  let db = Lazy.force Exp_common.synthetic1 in
  let workload = Exp_common.complex_workload db ~n:30 ~seed:1 in
  let initial = Exp_common.initial_config db workload ~n:8 ~seed:3 in
  let seek = Seek_cost.analyze db initial workload in
  let queries = Array.of_list (Im_workload.Workload.queries workload) in
  let pairs =
    Im_util.List_ext.pairs initial
    |> List.filter (fun ((a : Index.t), (b : Index.t)) ->
           a.Index.idx_table = b.Index.idx_table)
    |> Array.of_list
  in
  let optimize_one =
    let i = ref 0 in
    Test.make ~name:"optimizer: optimize one query"
      (Staged.stage (fun () ->
           i := (!i + 1) mod Array.length queries;
           ignore
             (Im_optimizer.Optimizer.optimize db initial queries.(!i))))
  in
  let merge_pair_cost =
    let i = ref 0 in
    Test.make ~name:"merge_pair: Cost-based"
      (Staged.stage (fun () ->
           if Array.length pairs > 0 then begin
             i := (!i + 1) mod Array.length pairs;
             let a, b = pairs.(!i) in
             ignore
               (Merge_pair.merge Merge_pair.Cost_based ~workload ~seek
                  ~current:initial a b)
           end))
  in
  let whatif_cost =
    Test.make ~name:"cost_eval: workload cost (cold cache)"
      (Staged.stage (fun () ->
           let e = Cost_eval.create Cost_eval.Optimizer_estimated db workload in
           ignore (Cost_eval.workload_cost e initial)))
  in
  let greedy_run =
    Test.make ~name:"search: full greedy run (N=8)"
      (Staged.stage (fun () ->
           ignore (Search.run db workload ~initial Search.Greedy)))
  in
  let seek_analysis =
    Test.make ~name:"seek_cost: analyze workload"
      (Staged.stage (fun () -> ignore (Seek_cost.analyze db initial workload)))
  in
  let storage_estimate =
    Test.make ~name:"catalog: configuration storage estimate"
      (Staged.stage (fun () ->
           ignore (Database.config_storage_pages db initial)))
  in
  Test.make_grouped ~name:"index-merging"
    [
      optimize_one; merge_pair_cost; whatif_cost; greedy_run; seek_analysis;
      storage_estimate;
    ]

let run () =
  Exp_common.section "Micro-benchmarks (Bechamel)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2_000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> e
        | Some _ | None -> nan
      in
      rows := [ name; Printf.sprintf "%.0f ns/op" ns ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  Exp_common.print_table ~title:"Per-operation latency"
    ~header:[ "operation"; "latency" ] ~rows
