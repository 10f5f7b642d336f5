module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Merge = Im_merging.Merge
module Dual = Im_merging.Dual

type path = Select_then_merge | Plain_selection

type outcome = {
  a_selected : Config.t;
  a_final : Merge.item list;
  a_path : path;
  a_budget_pages : int;
  a_selected_pages : int;
  a_final_pages : int;
  a_fits : bool;
  a_base_cost : float;
  a_selected_cost : float;
  a_merged_cost : float;
  a_merged_fits : bool;
  a_plain_cost : float;
  a_final_cost : float;
  a_optimizer_calls : int;
}

(* The selection phase's budget relaxation. *)
let relax = 2.0

let advise ?service ?prune db workload ~budget_pages =
  (* One memoizing cost service spans all three phases: configurations
     costed during relaxed selection are cache hits for the dual merge
     and the plain selection. *)
  let svc =
    match service with
    | Some s -> s
    | None -> Im_merging.Cost_eval.default_service db
  in
  let calls_before = Im_costsvc.Service.opt_calls svc in
  let relaxed = int_of_float (relax *. float_of_int budget_pages) in
  (* Both selection passes run on one context: candidates and the base
     costing happen once, and the plain pass replays the relaxed pass's
     rounds for free until the budget makes them diverge. *)
  let ctx = Selection.context ~service:svc ?prune db workload in
  let selection = Selection.run ctx ~budget_pages:relaxed in
  let merged =
    Dual.run ~service:svc ?prune db workload
      ~initial:selection.Selection.s_config ~budget_pages
  in
  let plain = Selection.run ctx ~budget_pages in
  let merged_wins =
    merged.Dual.d_fits
    && merged.Dual.d_final_cost <= plain.Selection.s_final_cost
  in
  let final, path, final_pages, final_cost, fits =
    if merged_wins then
      ( merged.Dual.d_items,
        Select_then_merge,
        merged.Dual.d_final_pages,
        merged.Dual.d_final_cost,
        true )
    else
      ( Merge.items_of_config plain.Selection.s_config,
        Plain_selection,
        plain.Selection.s_pages,
        plain.Selection.s_final_cost,
        plain.Selection.s_pages <= budget_pages )
  in
  {
    a_selected = selection.Selection.s_config;
    a_final = final;
    a_path = path;
    a_budget_pages = budget_pages;
    a_selected_pages = selection.Selection.s_pages;
    a_final_pages = final_pages;
    a_fits = fits;
    a_base_cost = selection.Selection.s_base_cost;
    a_selected_cost = selection.Selection.s_final_cost;
    a_merged_cost = merged.Dual.d_final_cost;
    a_merged_fits = merged.Dual.d_fits;
    a_plain_cost = plain.Selection.s_final_cost;
    a_final_cost = final_cost;
    a_optimizer_calls = Im_costsvc.Service.opt_calls svc - calls_before;
  }

let final_config o = Merge.config_of_items o.a_final

let summary o =
  Printf.sprintf
    "budget %d pages: relaxed selection %d indexes (%d pages, cost %.1f vs \
     %.1f baseline); merged-to-budget cost %.1f%s, plain-at-budget cost %.1f; \
     recommending %s: %d indexes, %d pages, cost %.1f%s"
    o.a_budget_pages
    (List.length o.a_selected)
    o.a_selected_pages o.a_selected_cost o.a_base_cost o.a_merged_cost
    (if o.a_merged_fits then "" else " (over budget)")
    o.a_plain_cost
    (match o.a_path with
     | Select_then_merge -> "select+merge"
     | Plain_selection -> "plain selection")
    (List.length o.a_final) o.a_final_pages o.a_final_cost
    (if o.a_fits then "" else " [over budget]")
