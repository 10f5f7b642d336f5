module Index = Im_catalog.Index

let summary (o : Search.outcome) =
  let cost_part =
    match (o.Search.o_initial_cost, o.Search.o_final_cost, o.Search.o_bound) with
    | Some i, Some f, Some b ->
      Printf.sprintf "cost %.1f -> %.1f (bound %.1f, %+.1f%%)" i f b
        (100. *. ((f /. i) -. 1.))
    | _ -> "cost: No-Cost model (no numbers)"
  in
  let compress_part =
    match o.Search.o_compression with
    | None -> ""
    | Some st ->
      Printf.sprintf
        "; compressed %d -> %d statements (%.1fx, bound eps %.4g of budget \
         %g)"
        st.Im_scale.Scale.st_statements st.Im_scale.Scale.st_buckets
        (Im_scale.Scale.fold_ratio st)
        st.Im_scale.Scale.st_eps_bound st.Im_scale.Scale.st_eps_budget
  in
  let prune_part =
    match o.Search.o_pruning with
    | None -> ""
    | Some st ->
      Printf.sprintf
        "; pruned %d/%d pair candidates (support %g, %d itemsets, %d \
         supported tables)"
        st.Im_mine.Mine.fs_pruned
        (st.Im_mine.Mine.fs_pruned + st.Im_mine.Mine.fs_kept)
        st.Im_mine.Mine.fs_support st.Im_mine.Mine.fs_itemsets
        st.Im_mine.Mine.fs_supported_tables
  in
  Printf.sprintf
    "storage %d -> %d pages (%.1f%% reduction); %s; %d indexes -> %d; %d \
     iterations, cost_evals %d, opt_calls %d, cache_hits %d, cache_misses \
     %d, derived %d, %.3fs%s%s%s"
    o.Search.o_initial_pages o.Search.o_final_pages
    (100. *. Search.storage_reduction o)
    cost_part
    (List.length o.Search.o_initial)
    (List.length o.Search.o_items)
    o.Search.o_iterations o.Search.o_cost_evaluations o.Search.o_optimizer_calls
    o.Search.o_cache_hits o.Search.o_cache_misses o.Search.o_derived_costs
    o.Search.o_elapsed_s
    (if o.Search.o_truncated then " (enumeration truncated)" else "")
    compress_part prune_part

let configuration_listing (o : Search.outcome) =
  String.concat "\n"
    (List.map
       (fun (it : Merge.item) ->
         let parents =
           match it.Merge.it_parents with
           | [ p ] when Index.equal p it.Merge.it_index -> "unmerged"
           | parents ->
             "merged from "
             ^ String.concat " + " (List.map Index.to_string parents)
         in
         Printf.sprintf "  %s  (%s)" (Index.to_string it.Merge.it_index) parents)
       o.Search.o_items)
