module Database = Im_catalog.Database
module Config = Im_catalog.Config
module List_ext = Im_util.List_ext
module Service = Im_costsvc.Service

let m_dual_seconds = Im_obs.Metrics.histogram "merge_dual_seconds"

type outcome = {
  d_initial : Config.t;
  d_items : Merge.item list;
  d_budget_pages : int;
  d_initial_pages : int;
  d_final_pages : int;
  d_fits : bool;
  d_initial_cost : float;
  d_final_cost : float;
  d_iterations : int;
  d_optimizer_calls : int;
  d_elapsed_s : float;
}

let items_pages db items =
  Database.config_storage_pages db (Merge.config_of_items items)

(* Merge candidates costed per round, after the storage shortlist. *)
let candidates_per_round = 6

let run ?service ?prune db workload ~initial ~budget_pages =
  let evaluator =
    Cost_eval.create ?service Cost_eval.Optimizer_estimated db workload
  in
  let svc = Cost_eval.service evaluator in
  let calls_before = Service.opt_calls svc in
  let index_pages = Search.page_memo db in
  let memo_items_pages items =
    List_ext.sum_by (fun it -> index_pages it.Merge.it_index) items
  in
  let (items, iterations), elapsed =
    Im_util.Stopwatch.time (fun () ->
        (* Through the service: a deriving service answers the usage
           analysis from cached atoms (bit-identical plans). *)
        let seek =
          Seek_cost.analyze ~plan:(Service.query_plan svc initial) db initial
            workload
        in
        let merge current i1 i2 =
          Merge_pair.merge Merge_pair.Cost_based ~workload ~seek ~service:svc
            ~current i1 i2
        in
        (* Cost only the most promising few of a round's shrinking
           candidates and commit the cheapest; a round with none left
           still counts as an iteration. *)
        let rec loop items iterations =
          if memo_items_pages items <= budget_pages then (items, iterations)
          else
            let shortlist =
              match Search.round ~prune ~merge ~pages:index_pages items with
              | None -> []
              | Some candidates -> List_ext.take candidates_per_round candidates
            in
            let cost c =
              Cost_eval.workload_cost evaluator
                (Merge.config_of_items c.Search.c_items)
            in
            match
              List_ext.min_by snd (List.map (fun c -> (c, cost c)) shortlist)
            with
            | None -> (items, iterations + 1)
            | Some (best, _) ->
              loop (Search.commit ~prune best) (iterations + 1)
        in
        loop (Merge.items_of_config initial) 0)
  in
  Im_obs.Metrics.Histogram.observe m_dual_seconds elapsed;
  let final_pages = items_pages db items in
  {
    d_initial = initial;
    d_items = items;
    d_budget_pages = budget_pages;
    d_initial_pages = Database.config_storage_pages db initial;
    d_final_pages = final_pages;
    d_fits = final_pages <= budget_pages;
    d_initial_cost = Cost_eval.workload_cost evaluator initial;
    d_final_cost =
      Cost_eval.workload_cost evaluator (Merge.config_of_items items);
    d_iterations = iterations;
    d_optimizer_calls = Service.opt_calls svc - calls_before;
    d_elapsed_s = elapsed;
  }
