module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Workload = Im_workload.Workload
module List_ext = Im_util.List_ext
module Service = Im_costsvc.Service
module Mine = Im_mine.Mine

type strategy = Greedy | Exhaustive_search of { config_limit : int }

let m_search_greedy =
  Im_obs.Metrics.histogram
    ~labels:[ ("strategy", "greedy") ]
    "merge_search_seconds"

let m_search_exhaustive =
  Im_obs.Metrics.histogram
    ~labels:[ ("strategy", "exhaustive") ]
    "merge_search_seconds"

type outcome = {
  o_initial : Config.t;
  o_items : Merge.item list;
  o_initial_pages : int;
  o_final_pages : int;
  o_initial_cost : float option;
  o_final_cost : float option;
  o_bound : float option;
  o_iterations : int;
  o_cost_evaluations : int;
  o_optimizer_calls : int;
  o_cache_hits : int;
  o_cache_misses : int;
  o_derived_costs : int;
  o_elapsed_s : float;
  o_truncated : bool;
}

let storage_reduction o =
  if o.o_initial_pages = 0 then 0.
  else
    1. -. (float_of_int o.o_final_pages /. float_of_int o.o_initial_pages)

let cost_increase o =
  match (o.o_initial_cost, o.o_final_cost) with
  | Some i, Some f when i > 0. -> Some ((f /. i) -. 1.)
  | _ -> None

let items_pages db items =
  Database.config_storage_pages db (Merge.config_of_items items)

(* Per-index page counts are pure in the index definition (for a fixed
   database), so both searches memoize them by index id instead of
   re-deriving the size model per candidate pair per iteration. The sum
   over items equals [Database.config_storage_pages] because a
   configuration's storage is defined as the sum of its indexes'. *)
let page_memo db =
  let memo = Hashtbl.create 64 in
  fun ix ->
    let id = ix.Index.idx_id in
    match Hashtbl.find_opt memo id with
    | Some pages -> pages
    | None ->
      let pages = Database.index_pages db ix in
      Hashtbl.add memo id pages;
      pages

(* ---- One merge round (Figure 4 and the dual) ---- *)

type candidate = {
  c_pair : Index.t * Index.t;
  c_merged : Merge.item;
  c_items : Merge.item list;
  c_reduction : int;
}

let round ~prune ~merge ~pages items =
  (* Frontier pruning: only pairs the workload's frequent itemsets can
     justify (or that the correctness valve protects) are merged. With
     [prune = None] every same-table pair is. *)
  let pairs =
    List.filter
      (fun ((a : Merge.item), (b : Merge.item)) ->
        a.Merge.it_index.Index.idx_table = b.Merge.it_index.Index.idx_table
        &&
        match prune with
        | None -> true
        | Some fr -> Mine.keep_pair fr a.Merge.it_index b.Merge.it_index)
      (List_ext.pairs items)
  in
  if pairs = [] then None
  else begin
    let current = Merge.config_of_items items in
    let scored =
      List.map
        (fun ((left : Merge.item), (right : Merge.item)) ->
          let merged_index =
            merge current left.Merge.it_index right.Merge.it_index
          in
          let merged =
            {
              Merge.it_index = merged_index;
              it_parents = left.Merge.it_parents @ right.Merge.it_parents;
            }
          in
          (* Replacing {left, right} by merged changes nothing else, so
             the pair's storage reduction needs only three memoized page
             counts — not an O(n) rescan of the configuration. *)
          {
            c_pair = (left.Merge.it_index, right.Merge.it_index);
            c_merged = merged;
            c_items =
              merged :: List.filter (fun it -> it != left && it != right) items;
            c_reduction =
              pages left.Merge.it_index + pages right.Merge.it_index
              - pages merged_index;
          })
        pairs
    in
    (* Decision order: shrinking pairs by reduction descending, ties in
       pair order (the sort is stable). *)
    Some
      (List.stable_sort
         (fun c1 c2 -> Int.compare c2.c_reduction c1.c_reduction)
         (List.filter (fun c -> c.c_reduction > 0) scored))
  end

(* The committed merge carries its justification into later rounds: its
   product is blessed so chained merges involving it are judged against
   the configuration the search actually built. *)
let commit ~prune c =
  Option.iter (fun fr -> Mine.bless fr c.c_merged.Merge.it_index) prune;
  c.c_items

(* ---- Greedy (Figure 4) ---- *)

(* Commit the first candidate the bound accepts; nothing after it is
   costed. A round without a same-table pair is not an iteration. *)
let greedy ~prune ~merge ~pages ~evaluator ~bound initial =
  let bound = Option.value bound ~default:infinity in
  let rec loop items iterations =
    match round ~prune ~merge ~pages items with
    | None -> (items, iterations)
    | Some candidates ->
      (match
         List.find_opt
           (fun c ->
             Cost_eval.accepts evaluator ~items:c.c_items
               ~merged:c.c_merged.Merge.it_index ~parents:c.c_pair ~bound)
           candidates
       with
       | None -> (items, iterations + 1)
       | Some c -> loop (commit ~prune c) (iterations + 1))
  in
  loop (Merge.items_of_config initial) 0

(* ---- Exhaustive ---- *)

(* Merge one partition block via successive MergePair applications. The
   fold order is a degree of freedom Definition 2 leaves open, so every
   permutation of the block is tried (capped) and the distinct resulting
   indexes are all candidates — making the exhaustive search dominate
   any order the greedy strategy might pick. *)
let merge_block ~merge current block =
  match block with
  | [] -> invalid_arg "Search.merge_block: empty block"
  | [ ix ] -> [ Merge.item_of_index ix ]
  | _ ->
    let fold_order order =
      match order with
      | [] -> assert false
      | first :: rest ->
        List.fold_left
          (fun acc ix ->
            {
              Merge.it_index = merge current acc.Merge.it_index ix;
              it_parents = acc.Merge.it_parents @ [ ix ];
            })
          (Merge.item_of_index first)
          rest
    in
    Im_util.Combin.permutations ~limit:24 block
    |> List.map fold_order
    |> Im_util.List_ext.dedup_keep_order (fun a b ->
           Im_catalog.Index.equal a.Merge.it_index b.Merge.it_index)

let cartesian (lists : 'a list list) ~limit =
  let truncated = ref false in
  (* Length-bounded take: one O(limit) pass — never O(n) per combine
     step on the growing combo list (the old [List.length l > limit]
     check made the fold quadratic). *)
  let take l =
    let rec go n acc = function
      | [] -> l (* within the limit: unchanged *)
      | _ :: _ when n = 0 ->
        truncated := true;
        List.rev acc
      | x :: tl -> go (n - 1) (x :: acc) tl
    in
    go limit [] l
  in
  let combine acc options =
    take
      (List.concat_map
         (fun partial -> List.map (fun opt -> opt :: partial) options)
         acc)
  in
  let combos = List.fold_left combine [ [] ] lists in
  (List.map List.rev combos, !truncated)

let exhaustive ~prune ~merge ~pages ~evaluator ~bound ~config_limit initial =
  let numeric = Cost_eval.is_numeric evaluator in
  let by_table = List_ext.group_by (fun ix -> ix.Index.idx_table) initial in
  let truncated_blocks = ref false in
  let per_table_options =
    List.map
      (fun (_tbl, indexes) ->
        let partitions =
          Im_util.Combin.set_partitions ~limit:config_limit indexes
        in
        (* Frontier pruning: drop any partition with a multi-index block
           the workload's frequent itemsets cannot justify (the valve
           and the subset-absorbing rule in [Mine.keep_block] still
           protect evidence-free and containment merges). Singleton-only
           partitions always survive, so the initial configuration stays
           enumerable. *)
        let partitions =
          match prune with
          | None -> partitions
          | Some fr ->
            List.filter
              (List.for_all (fun block -> Mine.keep_block fr block))
              partitions
        in
        (* Each partition yields one option per combination of its
           blocks' candidate merge orders. *)
        List.concat_map
          (fun partition ->
            let block_candidates =
              List.map
                (fun block -> merge_block ~merge initial block)
                partition
            in
            let combos, t = cartesian block_candidates ~limit:config_limit in
            if t then truncated_blocks := true;
            combos)
          partitions)
      by_table
  in
  let combos, truncated = cartesian per_table_options ~limit:config_limit in
  let truncated = truncated || !truncated_blocks in
  (* Decision order: storage ascending, ties in enumeration order (the
     sort is stable). The first acceptable configuration wins;
     [examined] counts the configurations scanned up to and including
     it. *)
  let ordered =
    List.stable_sort
      (fun (p1, _) (p2, _) -> Int.compare p1 p2)
      (List.map
         (fun combo ->
           let items = List.concat combo in
           let pages =
             List_ext.sum_by (fun it -> pages it.Merge.it_index) items
           in
           (pages, items))
         combos)
  in
  let ok items =
    List.for_all (Cost_eval.accepts_item evaluator) items
    && ((not numeric)
        || Cost_eval.workload_cost evaluator (Merge.config_of_items items)
           <= Option.value bound ~default:infinity)
  in
  let rec scan examined = function
    | [] -> (Merge.items_of_config initial, examined, truncated)
    | (_, items) :: rest ->
      if ok items then (items, examined + 1, truncated)
      else scan (examined + 1) rest
  in
  scan 0 ordered

(* ---- Entry point ---- *)

let run ?service ?(merge_pair = Merge_pair.Cost_based)
    ?(cost_model = Cost_eval.Optimizer_estimated) ?(cost_constraint = 0.10)
    ?prune db workload ~initial strategy =
  let svc =
    match service with
    | Some s -> s
    | None -> Cost_eval.default_service db
  in
  let evaluator = Cost_eval.create ~service:svc cost_model db workload in
  let numeric = Cost_eval.is_numeric evaluator in
  (* The Merge_pair Exhaustive procedure scores candidate column orders
     through the service; non-numeric models never score, matching the
     paper's No-Cost mode. *)
  let pair_service = if numeric then Some svc else None in
  let counters_before = Service.counters svc in
  let (items, iterations, truncated), elapsed =
    Im_util.Stopwatch.time (fun () ->
        (* Plans come through the service so a deriving service answers
           the usage analysis from atoms too (bit-identical plans). *)
        let seek =
          Seek_cost.analyze ~plan:(Service.query_plan svc initial) db initial
            workload
        in
        let initial_cost =
          if numeric then
            Some (Cost_eval.workload_cost evaluator initial)
          else None
        in
        let bound =
          Option.map (fun c -> c *. (1. +. cost_constraint)) initial_cost
        in
        let merge current i1 i2 =
          Merge_pair.merge merge_pair ~workload ~seek ?service:pair_service
            ~current i1 i2
        in
        let pages = page_memo db in
        match strategy with
        | Greedy ->
          let items, iterations =
            greedy ~prune ~merge ~pages ~evaluator ~bound initial
          in
          (items, iterations, false)
        | Exhaustive_search { config_limit } ->
          exhaustive ~prune ~merge ~pages ~evaluator ~bound ~config_limit
            initial)
  in
  Im_obs.Metrics.Histogram.observe
    (match strategy with
     | Greedy -> m_search_greedy
     | Exhaustive_search _ -> m_search_exhaustive)
    elapsed;
  (* Recompute reference numbers outside the timed region where they are
     byproducts, for a truthful report. With the memoizing service these
     recomputations are cache hits, not fresh optimizer calls. *)
  let initial_cost =
    if numeric then Some (Cost_eval.workload_cost evaluator initial)
    else None
  in
  let bound = Option.map (fun c -> c *. (1. +. cost_constraint)) initial_cost in
  let final_cost =
    if numeric then
      Some
        (Cost_eval.workload_cost evaluator (Merge.config_of_items items))
    else None
  in
  let d = Service.counters svc in
  let b = counters_before in
  {
    o_initial = initial;
    o_items = items;
    o_initial_pages = Database.config_storage_pages db initial;
    o_final_pages = items_pages db items;
    o_initial_cost = initial_cost;
    o_final_cost = final_cost;
    o_bound = bound;
    o_iterations = iterations;
    o_cost_evaluations = d.Service.c_cost_evals - b.Service.c_cost_evals;
    o_optimizer_calls = d.Service.c_opt_calls - b.Service.c_opt_calls;
    o_cache_hits = d.Service.c_hits - b.Service.c_hits;
    o_cache_misses = d.Service.c_misses - b.Service.c_misses;
    o_derived_costs = d.Service.c_derived - b.Service.c_derived;
    o_elapsed_s = elapsed;
    o_truncated = truncated;
  }
