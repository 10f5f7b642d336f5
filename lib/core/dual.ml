module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
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
        let merge_indexes current i1 i2 =
          Merge_pair.merge Merge_pair.Cost_based ~db ~workload ~seek
            ~service:svc ~current i1 i2
        in
        let rec loop items iterations =
          if memo_items_pages items <= budget_pages then (items, iterations)
          else begin
            let pairs =
              List.filter
                (fun ((a : Merge.item), (b : Merge.item)) ->
                  a.Merge.it_index.Index.idx_table
                  = b.Merge.it_index.Index.idx_table)
                (List_ext.pairs items)
            in
            (* Frontier pruning, same contract as Search.greedy: only
               workload-justified merges (or valve-protected ones) are
               scored and shortlisted. *)
            let pairs =
              match prune with
              | None -> pairs
              | Some fr ->
                List.filter
                  (fun ((a : Merge.item), (b : Merge.item)) ->
                    Im_mine.Mine.keep_pair fr a.Merge.it_index
                      b.Merge.it_index)
                  pairs
            in
            let current_config = Merge.config_of_items items in
            let shrinking =
              List.filter_map
                (fun (left, right) ->
                  let merged_index =
                    merge_indexes current_config left.Merge.it_index
                      right.Merge.it_index
                  in
                  let merged_item =
                    {
                      Merge.it_index = merged_index;
                      it_parents =
                        left.Merge.it_parents @ right.Merge.it_parents;
                    }
                  in
                  let new_items =
                    merged_item
                    :: List.filter (fun it -> it != left && it != right) items
                  in
                  let reduction =
                    index_pages left.Merge.it_index
                    + index_pages right.Merge.it_index
                    - index_pages merged_index
                  in
                  if reduction > 0 then Some (new_items, reduction) else None)
                pairs
              |> List.stable_sort (fun (_, r1) (_, r2) -> compare r2 r1)
            in
            match shrinking with
            | [] -> (items, iterations + 1)
            | _ ->
              (* Cost only the most promising few, pick min cost. *)
              let shortlisted =
                List_ext.take candidates_per_round shrinking
              in
              let scored =
                List.map
                  (fun (new_items, _) ->
                    ( new_items,
                      Cost_eval.workload_cost evaluator
                        (Merge.config_of_items new_items) ))
                  shortlisted
              in
              (match List_ext.min_by (fun (_, c) -> c) scored with
               | Some (best, _) ->
                 (* Same contract as Search.greedy: the committed merge
                    product (head of [best]) is blessed so later rounds
                    can chain on it. *)
                 (match (prune, best) with
                  | Some fr, it :: _ ->
                    Im_mine.Mine.bless fr it.Merge.it_index
                  | _ -> ());
                 loop best (iterations + 1)
               | None -> (items, iterations + 1))
          end
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
