module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Query = Im_sqlir.Query
module Predicate = Im_sqlir.Predicate
module Workload = Im_workload.Workload

type procedure =
  | Cost_based
  | Syntactic
  | Exhaustive of { perm_limit : int }

let m_pair_by_procedure =
  List.map
    (fun name ->
      ( name,
        Im_obs.Metrics.histogram
          ~labels:[ ("procedure", name) ]
          "merge_pair_seconds" ))
    [ "cost_based"; "syntactic"; "exhaustive" ]

let procedure_name = function
  | Cost_based -> "cost_based"
  | Syntactic -> "syntactic"
  | Exhaustive _ -> "exhaustive"

let leading_column_appearances q ix =
  let tbl = ix.Index.idx_table in
  if not (List.mem tbl q.Query.q_tables) then 0
  else begin
    let col = Index.leading_column ix in
    let in_conditions =
      List.length
        (List.filter
           (fun p -> List.mem col (Predicate.columns_on_table p tbl))
           q.Query.q_where)
    in
    let count_cols cols = if List.mem col cols then 1 else 0 in
    in_conditions
    + count_cols (Query.order_by_columns q tbl)
    + count_cols (Query.group_by_columns q tbl)
    + count_cols (Query.select_columns q tbl)
  end

let syntactic_frequency workload ix =
  Im_util.List_ext.sum_by_f
    (fun { Workload.query; freq } ->
      freq *. float_of_int (leading_column_appearances query ix))
    workload.Workload.entries

let merge_impl procedure ~workload ~seek ?service ~current i1 i2 =
  match procedure with
  | Cost_based ->
    (* Figure 2: the index with the higher Seek-Cost leads. Prefix
       inheritance covers merged indexes produced by earlier rounds. *)
    let s1 = Seek_cost.effective_seek_cost seek i1
    and s2 = Seek_cost.effective_seek_cost seek i2 in
    if s1 >= s2 then Merge.preserving_pair ~leading:i1 ~trailing:i2
    else Merge.preserving_pair ~leading:i2 ~trailing:i1
  | Syntactic ->
    (* Figure 3: the index whose leading column appears more often in
       the workload's text leads. *)
    let f1 = syntactic_frequency workload i1
    and f2 = syntactic_frequency workload i2 in
    if f1 >= f2 then Merge.preserving_pair ~leading:i1 ~trailing:i2
    else Merge.preserving_pair ~leading:i2 ~trailing:i1
  | Exhaustive { perm_limit } ->
    let service =
      match service with
      | Some s -> s
      | None -> invalid_arg "Merge_pair.merge: Exhaustive needs a cost service"
    in
    let union = Merge.union_columns [ i1; i2 ] in
    let orders = Im_util.Combin.permutations ~limit:perm_limit union in
    let base = Config.remove i1 (Config.remove i2 current) in
    let scored =
      List.map
        (fun order ->
          let m = Merge.merge_with_order [ i1; i2 ] order in
          ( m,
            Im_costsvc.Service.workload_cost service (Config.add m base)
              workload ))
        orders
    in
    (match Im_util.List_ext.min_by (fun (_, c) -> c) scored with
     | Some (m, _) -> m
     | None -> assert false (* permutations of a non-empty union *))

let merge procedure ~workload ~seek ?service ~current i1 i2 =
  match List.assoc_opt (procedure_name procedure) m_pair_by_procedure with
  | Some h ->
    Im_obs.Metrics.time h (fun () ->
        merge_impl procedure ~workload ~seek ?service ~current i1 i2)
  | None -> merge_impl procedure ~workload ~seek ?service ~current i1 i2
