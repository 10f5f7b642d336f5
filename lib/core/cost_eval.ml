module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Schema = Im_sqlir.Schema
module Query = Im_sqlir.Query
module Workload = Im_workload.Workload
module Service = Im_costsvc.Service

type model =
  | No_cost of { f : float; p : float }
  | External
  | Optimizer_estimated

let default_no_cost = No_cost { f = 0.60; p = 0.25 }

type t = {
  ce_model : model;
  db : Database.t;
  workload : Workload.t;
  svc : Service.t;
}

let default_service db =
  Service.create ~derive:true
    ~update_cost:(Maintenance.config_batch_cost db)
    db

let create ?service model db workload =
  let svc =
    match service with Some s -> s | None -> default_service db
  in
  { ce_model = model; db; workload; svc }

let model t = t.ce_model
let service t = t.svc

let is_numeric t =
  match t.ce_model with
  | No_cost _ -> false
  | External | Optimizer_estimated -> true

(* ---- External model (deliberately coarse) ---- *)

let external_query_cost t config q =
  let db = t.db in
  let per_table tbl =
    let heap_pages = float_of_int (Database.table_pages db tbl) in
    let referenced = Query.referenced_columns q tbl in
    let sargable = Query.sargable_columns q tbl in
    let indexes = Config.on_table config tbl in
    let covering_pages =
      List.filter_map
        (fun ix ->
          if Index.covers ix referenced then
            Some (float_of_int (Database.index_pages db ix))
          else None)
        indexes
    in
    let seek_costs =
      List.filter_map
        (fun ix ->
          let leading = Index.leading_column ix in
          if List.mem leading sargable then begin
            let sel =
              List.fold_left
                (fun acc p ->
                  match Im_sqlir.Predicate.selection_column p with
                  | Some c when c.Im_sqlir.Predicate.cr_column = leading ->
                    acc
                    *. Im_stats.Column_stats.selectivity
                         (Database.stats db tbl leading)
                         p
                  | Some _ | None -> acc)
                1.0
                (Query.selection_predicates q tbl)
            in
            let pages = float_of_int (Database.index_pages db ix) in
            let fetch =
              if Index.covers ix referenced then sel *. pages
              else sel *. float_of_int (Database.row_count db tbl)
            in
            Some (3. +. fetch)
          end
          else None)
        indexes
    in
    List.fold_left Float.min heap_pages (covering_pages @ seek_costs)
  in
  let base = Im_util.List_ext.sum_by_f per_table q.Query.q_tables in
  (* Flat penalty per join: the model deliberately does not plan joins. *)
  base +. (float_of_int (max 0 (List.length q.Query.q_tables - 1)) *. 5.)

(* ---- Workload cost through the one service ---- *)

let workload_cost t config =
  match t.ce_model with
  | No_cost _ ->
    invalid_arg "Cost_eval.workload_cost: the No-Cost model has no costs"
  | External ->
    (* Analytic per-query costs bypass the what-if cache but are still
       counted at the service choke point. *)
    Service.workload_cost
      ~query_cost:(fun config q -> external_query_cost t config q)
      t.svc config t.workload
  | Optimizer_estimated -> Service.workload_cost t.svc config t.workload

(* The No-Cost model's width rule (§3.5.1): the merged index stays within
   [f] of its table's row width and within [1 + p] of each parent's. *)
let within_widths ~f ~p schema merged parents =
  let width ix = float_of_int (Index.key_width schema ix) in
  let tbl = Schema.table schema merged.Index.idx_table in
  width merged <= f *. float_of_int (Schema.row_width tbl)
  && List.for_all (fun parent -> width merged <= (1. +. p) *. width parent)
       parents

let accepts t ~items ~merged ~parents:(left, right) ~bound =
  match t.ce_model with
  | No_cost { f; p } ->
    within_widths ~f ~p (Database.schema t.db) merged [ left; right ]
  | External | Optimizer_estimated ->
    workload_cost t (Merge.config_of_items items) <= bound

let accepts_item t (item : Merge.item) =
  match (t.ce_model, item.Merge.it_parents) with
  | (External | Optimizer_estimated), _ | No_cost _, ([] | [ _ ]) -> true
  | No_cost { f; p }, parents ->
    within_widths ~f ~p (Database.schema t.db) item.Merge.it_index parents

let evaluations t = Service.cost_evals t.svc
let optimizer_calls t = Service.opt_calls t.svc
