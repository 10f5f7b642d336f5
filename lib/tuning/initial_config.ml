module Config = Im_catalog.Config
module Workload = Im_workload.Workload

let build db workload ~rng ~n =
  let max_attempts = 20 * n in
  let queries = Array.of_list (Workload.queries workload) in
  if Array.length queries = 0 then Config.empty
  else begin
    let rec go config attempts =
      if List.length config >= n || attempts >= max_attempts then
        Im_util.List_ext.take n config
      else begin
        let q = Im_util.Rng.pick_array rng queries in
        let recommended = Wizard.tune_query db q in
        let config =
          List.fold_left (fun acc ix -> Config.add ix acc) config recommended
        in
        go config (attempts + 1)
      end
    in
    go Config.empty 0
  end

let per_query_union db workload =
  List.fold_left
    (fun acc q ->
      List.fold_left (fun acc ix -> Config.add ix acc) acc (Wizard.tune_query db q))
    Config.empty (Workload.queries workload)
