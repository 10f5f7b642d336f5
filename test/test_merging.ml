(* Tests for the paper's core machinery: Definitions 1-3 (Merge),
   index-usage analysis (Seek_cost), the three MergePair procedures, the
   three cost-evaluation models, the Greedy and Exhaustive searches, and
   the maintenance-cost model. Examples 1 and 2 of the paper appear
   verbatim as unit tests. *)

module Database = Im_catalog.Database
module Index = Im_catalog.Index
module Config = Im_catalog.Config
module Schema = Im_sqlir.Schema
module Datatype = Im_sqlir.Datatype
module Value = Im_sqlir.Value
module Predicate = Im_sqlir.Predicate
module Query = Im_sqlir.Query
module Workload = Im_workload.Workload
module Merge = Im_merging.Merge
module Seek_cost = Im_merging.Seek_cost
module Merge_pair = Im_merging.Merge_pair
module Cost_eval = Im_merging.Cost_eval
module Search = Im_merging.Search
module Maintenance = Im_merging.Maintenance
module Rng = Im_util.Rng

let tc = Alcotest.test_case
let qtest = QCheck_alcotest.to_alcotest
let cr = Predicate.colref

let lineitem_cols =
  [
    "l_orderkey"; "l_shipdate"; "l_discount"; "l_extendedprice"; "l_quantity";
  ]

(* ---- Merge: Definitions 1 and 2, with the paper's Example 1/2 ---- *)

(* Example 1 of the paper: I1 = (l_shipdate, l_discount,
   l_extendedprice, l_quantity), I2 = (l_orderkey, l_discount,
   l_extendedprice). *)
let ex_i1 =
  Index.make ~table:"lineitem"
    [ "l_shipdate"; "l_discount"; "l_extendedprice"; "l_quantity" ]

let ex_i2 =
  Index.make ~table:"lineitem" [ "l_orderkey"; "l_discount"; "l_extendedprice" ]

let ex_m1 =
  Index.make ~table:"lineitem"
    [ "l_shipdate"; "l_discount"; "l_extendedprice"; "l_quantity"; "l_orderkey" ]

let ex_m2 =
  Index.make ~table:"lineitem"
    [ "l_orderkey"; "l_shipdate"; "l_discount"; "l_extendedprice"; "l_quantity" ]

let ex_m3 =
  (* "The only other index preserving merge possible in this case". *)
  Index.make ~table:"lineitem"
    [ "l_orderkey"; "l_discount"; "l_extendedprice"; "l_shipdate"; "l_quantity" ]

let test_union_columns () =
  Alcotest.(check (list string))
    "union keeps first-use order"
    [ "l_shipdate"; "l_discount"; "l_extendedprice"; "l_quantity"; "l_orderkey" ]
    (Merge.union_columns [ ex_i1; ex_i2 ]);
  Alcotest.check_raises "different tables rejected"
    (Invalid_argument "Merge: indexes span several tables") (fun () ->
      ignore (Merge.union_columns [ ex_i1; Index.make ~table:"orders" [ "x" ] ]))

let test_example1_merge_count () =
  (* 5 distinct columns -> 5! possible mergings; both M1 and M2 are
     legitimate Definition-1 merges. *)
  Alcotest.(check int) "5 distinct columns" 5
    (List.length (Merge.union_columns [ ex_i1; ex_i2 ]));
  Alcotest.(check bool) "M1 is a merge" true (Merge.is_merge_of ex_m1 [ ex_i1; ex_i2 ]);
  Alcotest.(check bool) "M2 is a merge" true (Merge.is_merge_of ex_m2 [ ex_i1; ex_i2 ]);
  Alcotest.(check bool) "missing column is not a merge" false
    (Merge.is_merge_of ex_i1 [ ex_i1; ex_i2 ])

let test_example2_index_preserving () =
  (* M1 is the I1-leading index-preserving merge. *)
  Alcotest.(check bool) "preserving_pair I1,I2 = M1" true
    (Index.equal (Merge.preserving_pair ~leading:ex_i1 ~trailing:ex_i2) ex_m1);
  (* The I2-leading merge is the only other one. *)
  Alcotest.(check bool) "preserving_pair I2,I1 = M3" true
    (Index.equal (Merge.preserving_pair ~leading:ex_i2 ~trailing:ex_i1) ex_m3);
  Alcotest.(check bool) "M1 recognized as index-preserving" true
    (Merge.is_index_preserving ex_m1 ~parents:[ ex_i1; ex_i2 ]);
  Alcotest.(check bool) "M3 recognized as index-preserving" true
    (Merge.is_index_preserving ex_m3 ~parents:[ ex_i1; ex_i2 ]);
  Alcotest.(check bool) "M2 is NOT index-preserving (paper)" false
    (Merge.is_index_preserving ex_m2 ~parents:[ ex_i1; ex_i2 ])

let test_prefix_merge_absorbs () =
  (* Merging (A,B) with (A,B,C) always yields (A,B,C) (paper §3.1). *)
  let ab = Index.make ~table:"t" [ "a"; "b" ] in
  let abc = Index.make ~table:"t" [ "a"; "b"; "c" ] in
  Alcotest.(check bool) "ab leading" true
    (Index.equal (Merge.preserving_pair ~leading:ab ~trailing:abc) abc);
  Alcotest.(check bool) "abc leading" true
    (Index.equal (Merge.preserving_pair ~leading:abc ~trailing:ab) abc)

let test_merge_with_order_validation () =
  Alcotest.check_raises "not a permutation"
    (Invalid_argument
       "Merge.merge_with_order: order is not a permutation of the union")
    (fun () ->
      ignore (Merge.merge_with_order [ ex_i1; ex_i2 ] [ "l_shipdate" ]))

let test_merge_items_parent_tracking () =
  let a = Merge.item_of_index ex_i1 and b = Merge.item_of_index ex_i2 in
  let m = Merge.merge_items ~leading:a ~trailing:b in
  Alcotest.(check int) "two parents" 2 (List.length m.Merge.it_parents);
  Alcotest.(check bool) "merged index" true (Index.equal m.Merge.it_index ex_m1);
  (* Definition 3: a parent cannot be shared. *)
  Alcotest.check_raises "overlapping parents rejected"
    (Invalid_argument "Merge.merge_items: parent sets overlap (Definition 3)")
    (fun () -> ignore (Merge.merge_items ~leading:m ~trailing:b))

let test_minimal_merged_configuration () =
  let initial = [ ex_i1; ex_i2 ] in
  let merged =
    [ Merge.merge_items ~leading:(Merge.item_of_index ex_i1)
        ~trailing:(Merge.item_of_index ex_i2) ]
  in
  Alcotest.(check bool) "merged config is minimal" true
    (Merge.is_minimal_merged_configuration ~initial merged);
  Alcotest.(check bool) "identity config is minimal" true
    (Merge.is_minimal_merged_configuration ~initial
       (Merge.items_of_config initial));
  (* A parent used twice violates Definition 3. *)
  let bad = merged @ [ Merge.item_of_index ex_i1 ] in
  Alcotest.(check bool) "shared parent rejected" false
    (Merge.is_minimal_merged_configuration ~initial bad);
  (* A foreign parent violates Definition 3. *)
  let foreign = [ Merge.item_of_index (Index.make ~table:"lineitem" [ "l_tax" ]) ] in
  Alcotest.(check bool) "foreign parent rejected" false
    (Merge.is_minimal_merged_configuration ~initial foreign)

(* Properties of index-preserving pair merges over random same-table
   index pairs. *)
let index_pair_arb =
  let gen =
    QCheck.Gen.(
      let subset =
        map
          (fun picks ->
            Im_util.List_ext.dedup_keep_order String.equal
              (List.map (List.nth lineitem_cols) picks))
          (list_size (int_range 1 5) (int_bound 4))
      in
      pair subset subset)
  in
  QCheck.make
    ~print:(fun (a, b) -> String.concat "," a ^ " | " ^ String.concat "," b)
    gen

let prop_preserving_merge_is_merge =
  QCheck.Test.make ~name:"preserving merge satisfies Definition 1" ~count:300
    index_pair_arb
    (fun (c1, c2) ->
      let i1 = Index.make ~table:"lineitem" c1
      and i2 = Index.make ~table:"lineitem" c2 in
      let m = Merge.preserving_pair ~leading:i1 ~trailing:i2 in
      Merge.is_merge_of m [ i1; i2 ])

let prop_leading_is_prefix =
  QCheck.Test.make ~name:"leading parent is a prefix of the merge" ~count:300
    index_pair_arb
    (fun (c1, c2) ->
      let i1 = Index.make ~table:"lineitem" c1
      and i2 = Index.make ~table:"lineitem" c2 in
      let m = Merge.preserving_pair ~leading:i1 ~trailing:i2 in
      Index.is_prefix_of i1 m)

let prop_merge_width_bounded =
  QCheck.Test.make ~name:"merged width <= sum of parent widths" ~count:300
    index_pair_arb
    (fun (c1, c2) ->
      let schema = Im_workload.Tpcd.schema in
      let i1 = Index.make ~table:"lineitem" c1
      and i2 = Index.make ~table:"lineitem" c2 in
      let m = Merge.preserving_pair ~leading:i1 ~trailing:i2 in
      Index.key_width schema m
      <= Index.key_width schema i1 + Index.key_width schema i2
      && Index.key_width schema m >= Index.key_width schema i1)

(* ---- A small database + workload for the cost-driven pieces ---- *)

let schema =
  Schema.make
    [
      Schema.make_table "t"
        [
          ("a", Datatype.Int);
          ("b", Datatype.Int);
          ("c", Datatype.Float);
          ("d", Datatype.Varchar 40);
          ("e", Datatype.Date);
        ];
    ]

let db =
  let rows =
    List.init 12_000 (fun i ->
        [|
          Value.Int (i mod 200);
          Value.Int (i mod 37);
          Value.Float (float_of_int (i mod 501));
          Value.Str (Printf.sprintf "pad%05d" (i mod 1000));
          Value.Date (i mod 730);
        |])
  in
  Database.create schema [ ("t", rows) ]

(* q_seek seeks on [a]; q_scan reads a vertical slice (b, c); q_order
   sorts by e. *)
let q_seek =
  Query.make ~id:"q_seek"
    ~select:[ Query.Sel_col (cr "t" "c") ]
    ~where:[ Predicate.Cmp (Predicate.Eq, cr "t" "a", Value.Int 17) ]
    [ "t" ]

let q_scan =
  Query.make ~id:"q_scan"
    ~select:[ Query.Sel_col (cr "t" "b"); Query.Sel_col (cr "t" "c") ]
    [ "t" ]

let q_order =
  Query.make ~id:"q_order"
    ~select:[ Query.Sel_col (cr "t" "e"); Query.Sel_col (cr "t" "b") ]
    ~order_by:[ (cr "t" "e", Query.Asc) ]
    [ "t" ]

let workload = Workload.make [ q_seek; q_scan; q_order ]

let i_seek = Index.make ~table:"t" [ "a"; "c" ]
let i_scan = Index.make ~table:"t" [ "b"; "c" ]
let i_order = Index.make ~table:"t" [ "e"; "b" ]
let initial = [ i_seek; i_scan; i_order ]

(* ---- Seek_cost ---- *)

let test_seek_cost_attribution () =
  let analysis = Seek_cost.analyze db initial workload in
  Alcotest.(check bool) "i_seek has seek cost" true
    (Seek_cost.seek_cost analysis i_seek > 0.);
  Alcotest.(check bool) "i_scan has no seek cost" true
    (Seek_cost.seek_cost analysis i_scan = 0.);
  Alcotest.(check bool) "i_scan has scan cost" true
    (Seek_cost.scan_cost analysis i_scan > 0.);
  Alcotest.(check (list string)) "q_seek drives the seek" [ "q_seek" ]
    (Seek_cost.seeking_queries analysis i_seek);
  Alcotest.(check bool) "unknown index zero" true
    (Seek_cost.seek_cost analysis (Index.make ~table:"t" [ "d" ]) = 0.)

let test_seek_cost_totals () =
  let analysis = Seek_cost.analyze db initial workload in
  let expected =
    Workload.weighted_cost
      ~cost:(fun q ->
        Im_optimizer.Plan.cost (Im_optimizer.Optimizer.optimize db initial q))
      workload
  in
  Alcotest.(check (float 1e-6)) "total = workload cost" expected
    (Seek_cost.total_cost analysis);
  Alcotest.(check bool) "per-query cost exposed" true
    (match Seek_cost.query_cost analysis "q_seek" with
     | Some c -> c > 0.
     | None -> false);
  Alcotest.(check (option (float 0.))) "missing id" None
    (Seek_cost.query_cost analysis "nope")

(* ---- Merge_pair ---- *)

let test_merge_pair_cost_leading () =
  let seek = Seek_cost.analyze db initial workload in
  (* i_seek has seek cost, i_scan none: i_seek must lead. *)
  let m =
    Merge_pair.merge Merge_pair.Cost_based ~db ~workload ~seek ~current:initial
      i_scan i_seek
  in
  Alcotest.(check bool) "higher seek-cost parent leads" true
    (Index.is_prefix_of i_seek m);
  (* Argument order must not matter for the outcome. *)
  let m' =
    Merge_pair.merge Merge_pair.Cost_based ~db ~workload ~seek ~current:initial
      i_seek i_scan
  in
  Alcotest.(check bool) "symmetric" true (Index.equal m m')

let test_merge_pair_syntactic_frequency () =
  (* Leading column of i_seek is "a": appears once (condition of
     q_seek). Leading of i_scan is "b": appears in q_scan's select and
     q_order's select = 2. *)
  Alcotest.(check (float 1e-9)) "freq a" 1.
    (Merge_pair.syntactic_frequency workload i_seek);
  Alcotest.(check (float 1e-9)) "freq b" 2.
    (Merge_pair.syntactic_frequency workload i_scan);
  let m =
    Merge_pair.merge Merge_pair.Syntactic ~db ~workload
      ~seek:(Seek_cost.analyze db initial workload)
      ~current:initial i_seek i_scan
  in
  Alcotest.(check bool) "more frequent leading column wins" true
    (Index.is_prefix_of i_scan m)

let test_merge_pair_exhaustive () =
  let seek = Seek_cost.analyze db initial workload in
  let evaluator = Cost_eval.create Cost_eval.Optimizer_estimated db workload in
  let m =
    Merge_pair.merge
      (Merge_pair.Exhaustive { perm_limit = 720 })
      ~db ~workload ~seek ~service:(Cost_eval.service evaluator)
      ~current:initial i_seek i_scan
  in
  Alcotest.(check bool) "exhaustive result is a Definition-1 merge" true
    (Merge.is_merge_of m [ i_seek; i_scan ]);
  (* It must be at least as good as both index-preserving merges. *)
  let cost_with mm =
    Cost_eval.workload_cost evaluator
      (Config.add mm (Config.remove i_seek (Config.remove i_scan initial)))
  in
  let best_preserving =
    Float.min
      (cost_with (Merge.preserving_pair ~leading:i_seek ~trailing:i_scan))
      (cost_with (Merge.preserving_pair ~leading:i_scan ~trailing:i_seek))
  in
  Alcotest.(check bool) "no worse than preserving merges" true
    (cost_with m <= best_preserving +. 1e-6)

let test_merge_pair_exhaustive_needs_evaluator () =
  let seek = Seek_cost.analyze db initial workload in
  Alcotest.check_raises "missing service"
    (Invalid_argument "Merge_pair.merge: Exhaustive needs a cost service")
    (fun () ->
      ignore
        (Merge_pair.merge
           (Merge_pair.Exhaustive { perm_limit = 10 })
           ~db ~workload ~seek ~current:initial i_seek i_scan))

(* ---- Cost_eval ---- *)

let test_no_cost_model_thresholds () =
  let e = Cost_eval.create Cost_eval.default_no_cost db workload in
  Alcotest.(check bool) "not numeric" false (Cost_eval.is_numeric e);
  Alcotest.check_raises "no numbers"
    (Invalid_argument "Cost_eval.workload_cost: the No-Cost model has no costs")
    (fun () -> ignore (Cost_eval.workload_cost e initial));
  (* (a,c) + (b,c): merged width 16 <= 60% of 60 and within 25% of both
     parents (12 each): 16 <= 15 fails the p test -> rejected. *)
  let merged = Merge.preserving_pair ~leading:i_seek ~trailing:i_scan in
  let items =
    [
      Merge.merge_items ~leading:(Merge.item_of_index i_seek)
        ~trailing:(Merge.item_of_index i_scan);
      Merge.item_of_index i_order;
    ]
  in
  Alcotest.(check bool) "p-threshold rejects" false
    (Cost_eval.accepts e ~items ~merged ~parents:(i_seek, i_scan) ~bound:infinity);
  (* With a generous p it passes. *)
  let e2 = Cost_eval.create (Cost_eval.No_cost { f = 0.6; p = 0.5 }) db workload in
  Alcotest.(check bool) "looser p accepts" true
    (Cost_eval.accepts e2 ~items ~merged ~parents:(i_seek, i_scan) ~bound:infinity);
  (* A tiny f rejects everything. *)
  let e3 = Cost_eval.create (Cost_eval.No_cost { f = 0.05; p = 0.5 }) db workload in
  Alcotest.(check bool) "tight f rejects" false
    (Cost_eval.accepts e3 ~items ~merged ~parents:(i_seek, i_scan) ~bound:infinity)

let test_no_cost_accepts_item_generalized () =
  let e = Cost_eval.create (Cost_eval.No_cost { f = 0.6; p = 0.5 }) db workload in
  Alcotest.(check bool) "singleton always accepted" true
    (Cost_eval.accepts_item e (Merge.item_of_index i_seek));
  let pair =
    Merge.merge_items ~leading:(Merge.item_of_index i_seek)
      ~trailing:(Merge.item_of_index i_scan)
  in
  Alcotest.(check bool) "pair accepted under loose p" true
    (Cost_eval.accepts_item e pair);
  let numeric = Cost_eval.create Cost_eval.Optimizer_estimated db workload in
  Alcotest.(check bool) "numeric models always accept items" true
    (Cost_eval.accepts_item numeric pair)

let test_optimizer_cache_reuse () =
  let e = Cost_eval.create Cost_eval.Optimizer_estimated db workload in
  ignore (Cost_eval.workload_cost e initial);
  let calls_first = Cost_eval.optimizer_calls e in
  Alcotest.(check int) "one optimizer call per query" (Workload.size workload)
    calls_first;
  ignore (Cost_eval.workload_cost e initial);
  Alcotest.(check int) "full cache hit on repeat" calls_first
    (Cost_eval.optimizer_calls e);
  Alcotest.(check int) "evaluations counted" 2 (Cost_eval.evaluations e)

let test_update_workload_charges_maintenance () =
  let w_upd = Workload.with_updates workload [ ("t", 200) ] in
  let e_plain = Cost_eval.create Cost_eval.Optimizer_estimated db workload in
  let e_upd = Cost_eval.create Cost_eval.Optimizer_estimated db w_upd in
  let plain = Cost_eval.workload_cost e_plain initial in
  let with_upd = Cost_eval.workload_cost e_upd initial in
  Alcotest.(check bool) "updates raise workload cost" true (with_upd > plain);
  let expected =
    plain +. Im_merging.Maintenance.config_batch_cost db initial ~inserts:[ ("t", 200) ]
  in
  Alcotest.(check (float 1e-6)) "by exactly the maintenance cost" expected
    with_upd

let test_update_workload_favors_merging () =
  (* Under a 0% constraint, maintenance savings from merging offset
     query-cost increases, so an update-heavy workload merges at least
     as far as the pure-query one. *)
  let w_upd = Workload.with_updates workload [ ("t", 500) ] in
  let pure = Search.run ~cost_constraint:0.0 db workload ~initial Search.Greedy in
  let upd = Search.run ~cost_constraint:0.0 db w_upd ~initial Search.Greedy in
  Alcotest.(check bool) "update workload merges at least as much" true
    (upd.Search.o_final_pages <= pure.Search.o_final_pages);
  Alcotest.(check bool) "still minimal" true
    (Merge.is_minimal_merged_configuration ~initial upd.Search.o_items)

let test_external_model_numeric () =
  let e = Cost_eval.create Cost_eval.External db workload in
  Alcotest.(check bool) "numeric" true (Cost_eval.is_numeric e);
  let c_empty = Cost_eval.workload_cost e [] in
  let c_ix = Cost_eval.workload_cost e initial in
  Alcotest.(check bool) "finite and positive" true (c_empty > 0. && c_ix > 0.);
  Alcotest.(check bool) "indexes do not hurt" true (c_ix <= c_empty)

(* ---- Search: Greedy ---- *)

let test_greedy_reduces_storage () =
  let o = Search.run db workload ~initial Search.Greedy in
  Alcotest.(check bool) "storage reduced or equal" true
    (o.Search.o_final_pages <= o.Search.o_initial_pages);
  Alcotest.(check bool) "cost within bound" true
    (match (o.Search.o_final_cost, o.Search.o_bound) with
     | Some f, Some b -> f <= b +. 1e-6
     | _ -> false);
  Alcotest.(check bool) "result is minimal merged configuration" true
    (Merge.is_minimal_merged_configuration ~initial o.Search.o_items);
  Alcotest.(check bool) "reduction metric consistent" true
    (Float.abs
       (Search.storage_reduction o
        -. (1.
            -. float_of_int o.Search.o_final_pages
               /. float_of_int o.Search.o_initial_pages))
     < 1e-9)

let test_greedy_zero_constraint_conservative () =
  (* With a 0% cost constraint, any accepted merge must not raise cost
     at all. *)
  let o = Search.run ~cost_constraint:0.0 db workload ~initial Search.Greedy in
  match (o.Search.o_initial_cost, o.Search.o_final_cost) with
  | Some i, Some f -> Alcotest.(check bool) "cost not increased" true (f <= i +. 1e-6)
  | _ -> Alcotest.fail "expected numeric costs"

let test_greedy_generous_constraint_merges_more () =
  let tight = Search.run ~cost_constraint:0.0 db workload ~initial Search.Greedy in
  let loose = Search.run ~cost_constraint:0.5 db workload ~initial Search.Greedy in
  Alcotest.(check bool) "looser constraint, no more storage" true
    (loose.Search.o_final_pages <= tight.Search.o_final_pages)

let test_greedy_empty_initial () =
  let o = Search.run db workload ~initial:[] Search.Greedy in
  Alcotest.(check int) "nothing to do" 0 (List.length o.Search.o_items);
  Alcotest.(check (float 1e-9)) "no reduction" 0. (Search.storage_reduction o)

let test_greedy_single_index () =
  let o = Search.run db workload ~initial:[ i_seek ] Search.Greedy in
  Alcotest.(check int) "unchanged" 1 (List.length o.Search.o_items)

let test_greedy_no_cost_model () =
  let o =
    Search.run ~cost_model:Cost_eval.default_no_cost db workload ~initial
      Search.Greedy
  in
  Alcotest.(check (option (float 0.))) "no initial cost" None o.Search.o_initial_cost;
  Alcotest.(check bool) "still a minimal merged configuration" true
    (Merge.is_minimal_merged_configuration ~initial o.Search.o_items)

let test_greedy_counters () =
  let o = Search.run db workload ~initial Search.Greedy in
  Alcotest.(check bool) "iterations counted" true (o.Search.o_iterations >= 1);
  Alcotest.(check bool) "optimizer calls recorded" true
    (o.Search.o_optimizer_calls > 0);
  Alcotest.(check bool) "elapsed recorded" true (o.Search.o_elapsed_s >= 0.)

let test_greedy_deterministic () =
  let o1 = Search.run db workload ~initial Search.Greedy in
  let o2 = Search.run db workload ~initial Search.Greedy in
  Alcotest.(check int) "same final pages" o1.Search.o_final_pages
    o2.Search.o_final_pages;
  Alcotest.(check (list string)) "same final indexes"
    (List.map (fun it -> Index.to_string it.Merge.it_index) o1.Search.o_items)
    (List.map (fun it -> Index.to_string it.Merge.it_index) o2.Search.o_items)

let test_greedy_iteration_bound () =
  (* Each iteration removes one index or terminates: at most N
     iterations (Figure 4's outer loop runs at most N-1 times, plus the
     final failing pass). *)
  let o = Search.run db workload ~initial Search.Greedy in
  Alcotest.(check bool) "iterations <= N" true
    (o.Search.o_iterations <= List.length initial)

let test_page_memo_accounting () =
  (* The memoized per-index page counts the greedy loop scores pairs
     with must agree with a from-scratch recomputation. *)
  let pages = Search.page_memo db in
  let sum config = List.fold_left (fun acc ix -> acc + pages ix) 0 config in
  Alcotest.(check int) "memoized sum = config pages"
    (Database.config_storage_pages db initial)
    (sum initial);
  (* Same closure again: cached answers, identical totals. *)
  Alcotest.(check int) "stable across calls"
    (Database.config_storage_pages db initial)
    (sum initial);
  let o = Search.run db workload ~initial Search.Greedy in
  let final = Merge.config_of_items o.Search.o_items in
  Alcotest.(check int) "greedy final pages match recomputation"
    (Database.config_storage_pages db final)
    o.Search.o_final_pages;
  Alcotest.(check int) "greedy initial pages match recomputation"
    (Database.config_storage_pages db initial)
    o.Search.o_initial_pages

let test_shared_service_across_strategies () =
  (* One service across exhaustive + greedy: identical results to
     isolated runs, strictly fewer optimizer calls on the second run
     (its configurations were already costed). *)
  let iso_g = Search.run db workload ~initial Search.Greedy in
  let svc =
    Im_costsvc.Service.create
      ~update_cost:(Im_merging.Maintenance.config_batch_cost db)
      db
  in
  let _e =
    Search.run ~service:svc db workload ~initial
      (Search.Exhaustive_search { config_limit = 10_000 })
  in
  let g = Search.run ~service:svc db workload ~initial Search.Greedy in
  Alcotest.(check int) "same final pages as isolated" iso_g.Search.o_final_pages
    g.Search.o_final_pages;
  Alcotest.(check (list string)) "same final indexes as isolated"
    (List.map (fun it -> Index.to_string it.Merge.it_index) iso_g.Search.o_items)
    (List.map (fun it -> Index.to_string it.Merge.it_index) g.Search.o_items)
    ;
  Alcotest.(check bool) "warm run spends fewer optimizer calls" true
    (g.Search.o_optimizer_calls < iso_g.Search.o_optimizer_calls);
  Alcotest.(check bool) "warm run hits the shared cache" true
    (g.Search.o_cache_hits > 0);
  (* The outcome's counters are per-run deltas of the shared service. *)
  Alcotest.(check int) "hits + misses = per-query costings of this run"
    g.Search.o_optimizer_calls g.Search.o_cache_misses

(* ---- Search: Exhaustive vs Greedy ---- *)

let test_exhaustive_at_least_as_good () =
  let greedy = Search.run db workload ~initial Search.Greedy in
  let exhaustive =
    Search.run db workload ~initial
      (Search.Exhaustive_search { config_limit = 10_000 })
  in
  Alcotest.(check bool) "not truncated" false exhaustive.Search.o_truncated;
  Alcotest.(check bool) "exhaustive <= greedy storage" true
    (exhaustive.Search.o_final_pages <= greedy.Search.o_final_pages);
  Alcotest.(check bool) "exhaustive respects bound" true
    (match (exhaustive.Search.o_final_cost, exhaustive.Search.o_bound) with
     | Some f, Some b -> f <= b +. 1e-6
     | _ -> false);
  Alcotest.(check bool) "exhaustive result minimal" true
    (Merge.is_minimal_merged_configuration ~initial exhaustive.Search.o_items)

(* Random configurations drawn from a column pool; the exhaustive
   search must never lose to greedy, and both must satisfy the bound. *)
let prop_greedy_vs_exhaustive =
  let pool = [ "a"; "b"; "c"; "d"; "e" ] in
  QCheck.Test.make ~name:"exhaustive <= greedy storage (random N<=4)" ~count:12
    QCheck.(
      list_of_size (Gen.int_range 2 4)
        (list_of_size (Gen.int_range 1 3) (int_bound 4)))
    (fun picks ->
      let indexes =
        List.map
          (fun cols ->
            Im_util.List_ext.dedup_keep_order String.equal
              (List.map (List.nth pool) cols))
          picks
        |> List.map (fun cols -> Index.make ~table:"t" cols)
        |> Im_util.List_ext.dedup_keep_order Index.equal
      in
      QCheck.assume (List.length indexes >= 2);
      let g = Search.run db workload ~initial:indexes Search.Greedy in
      let e =
        Search.run db workload ~initial:indexes
          (Search.Exhaustive_search { config_limit = 5_000 })
      in
      e.Search.o_final_pages <= g.Search.o_final_pages
      && Merge.is_minimal_merged_configuration ~initial:indexes g.Search.o_items
      && Merge.is_minimal_merged_configuration ~initial:indexes e.Search.o_items)

(* ---- Maintenance ---- *)

let test_expected_leaves_touched () =
  Alcotest.(check (float 1e-9)) "no inserts" 0.
    (Maintenance.expected_leaves_touched ~inserts:0 ~leaf_pages:100);
  let one = Maintenance.expected_leaves_touched ~inserts:1 ~leaf_pages:100 in
  Alcotest.(check (float 1e-6)) "single insert hits one leaf" 1. one;
  let many = Maintenance.expected_leaves_touched ~inserts:10_000 ~leaf_pages:100 in
  Alcotest.(check bool) "saturates at leaf count" true
    (many <= 100. && many > 99.);
  let mid = Maintenance.expected_leaves_touched ~inserts:50 ~leaf_pages:100 in
  Alcotest.(check bool) "monotone between" true (mid > one && mid < many)

let test_index_batch_cost_monotone () =
  let narrow = Index.make ~table:"t" [ "a" ] in
  let wide = Index.make ~table:"t" [ "a"; "b"; "c"; "d"; "e" ] in
  let c_narrow = Maintenance.index_batch_cost db narrow ~inserts:100 in
  let c_wide = Maintenance.index_batch_cost db wide ~inserts:100 in
  Alcotest.(check bool) "wider index costs more to maintain" true
    (c_wide > c_narrow);
  let c_more = Maintenance.index_batch_cost db narrow ~inserts:1_000 in
  Alcotest.(check bool) "more inserts cost more" true (c_more > c_narrow)

let test_config_batch_cost_fewer_indexes_cheaper () =
  (* The merged configuration (one index) must be cheaper to maintain
     than its two parents (the heap cost is shared). *)
  let merged = Merge.preserving_pair ~leading:i_seek ~trailing:i_scan in
  let before =
    Maintenance.config_batch_cost db [ i_seek; i_scan ] ~inserts:[ ("t", 120) ]
  in
  let after = Maintenance.config_batch_cost db [ merged ] ~inserts:[ ("t", 120) ] in
  Alcotest.(check bool)
    (Printf.sprintf "maintenance drops (%.1f -> %.1f)" before after)
    true (after < before)

let test_generate_inserts () =
  let rng = Rng.create 3 in
  let rows = Maintenance.generate_inserts db ~rng ~table:"t" ~fraction:0.01 in
  Alcotest.(check int) "1%% of 12000" 120 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "arity" 5 (Array.length row);
      (* Values must come from existing marginals: spot-check types. *)
      (match row.(0) with
       | Value.Int _ -> ()
       | _ -> Alcotest.fail "column a should be int"))
    rows

let test_measured_vs_modeled () =
  (* The model and real B+-tree insertions should agree within an order
     of magnitude (the model prices IO, the tree counts raw writes). *)
  let rng = Rng.create 4 in
  let rows = Maintenance.generate_inserts db ~rng ~table:"t" ~fraction:0.01 in
  let ix = Index.make ~table:"t" [ "a"; "c" ] in
  let measured = Maintenance.measured_index_batch_cost db ix ~rows in
  let modeled = Maintenance.index_batch_cost db ix ~inserts:(List.length rows) in
  Alcotest.(check bool)
    (Printf.sprintf "same magnitude (measured %.0f, modeled %.0f)" measured
       modeled)
    true
    (measured > 0. && modeled > 0.
     && measured /. modeled < 20.
     && modeled /. measured < 20.)

(* ---- Report ---- *)

let test_report_strings () =
  let o = Search.run db workload ~initial Search.Greedy in
  let s = Im_merging.Report.summary o in
  Alcotest.(check bool) "mentions storage" true
    (Astring_contains.contains s "storage");
  let listing = Im_merging.Report.configuration_listing o in
  Alcotest.(check bool) "lists a table" true
    (Astring_contains.contains listing "t(")

let () =
  Alcotest.run "im_merging"
    [
      ( "merge (definitions)",
        [
          tc "union columns" `Quick test_union_columns;
          tc "Example 1: merges" `Quick test_example1_merge_count;
          tc "Example 2: index preserving" `Quick test_example2_index_preserving;
          tc "prefix absorbs" `Quick test_prefix_merge_absorbs;
          tc "order validation" `Quick test_merge_with_order_validation;
          tc "item parent tracking" `Quick test_merge_items_parent_tracking;
          tc "minimal merged configuration" `Quick
            test_minimal_merged_configuration;
          qtest prop_preserving_merge_is_merge;
          qtest prop_leading_is_prefix;
          qtest prop_merge_width_bounded;
        ] );
      ( "seek_cost",
        [
          tc "attribution" `Quick test_seek_cost_attribution;
          tc "totals" `Quick test_seek_cost_totals;
        ] );
      ( "merge_pair",
        [
          tc "cost-based leading" `Quick test_merge_pair_cost_leading;
          tc "syntactic frequency" `Quick test_merge_pair_syntactic_frequency;
          tc "exhaustive" `Quick test_merge_pair_exhaustive;
          tc "exhaustive needs evaluator" `Quick
            test_merge_pair_exhaustive_needs_evaluator;
        ] );
      ( "cost_eval",
        [
          tc "no-cost thresholds" `Quick test_no_cost_model_thresholds;
          tc "no-cost generalized items" `Quick
            test_no_cost_accepts_item_generalized;
          tc "optimizer cache" `Quick test_optimizer_cache_reuse;
          tc "updates charge maintenance" `Quick
            test_update_workload_charges_maintenance;
          tc "updates favor merging" `Quick test_update_workload_favors_merging;
          tc "external model" `Quick test_external_model_numeric;
        ] );
      ( "search",
        [
          tc "greedy reduces storage" `Quick test_greedy_reduces_storage;
          tc "0%% constraint" `Quick test_greedy_zero_constraint_conservative;
          tc "looser constraint helps" `Quick
            test_greedy_generous_constraint_merges_more;
          tc "empty initial" `Quick test_greedy_empty_initial;
          tc "single index" `Quick test_greedy_single_index;
          tc "no-cost model run" `Quick test_greedy_no_cost_model;
          tc "counters" `Quick test_greedy_counters;
          tc "deterministic" `Quick test_greedy_deterministic;
          tc "iteration bound" `Quick test_greedy_iteration_bound;
          tc "page accounting" `Quick test_page_memo_accounting;
          tc "shared service across strategies" `Quick
            test_shared_service_across_strategies;
          tc "exhaustive at least as good" `Quick test_exhaustive_at_least_as_good;
          qtest prop_greedy_vs_exhaustive;
        ] );
      ( "maintenance",
        [
          tc "expected leaves" `Quick test_expected_leaves_touched;
          tc "index batch cost monotone" `Quick test_index_batch_cost_monotone;
          tc "merged config cheaper" `Quick
            test_config_batch_cost_fewer_indexes_cheaper;
          tc "generate insert rows" `Quick test_generate_inserts;
          tc "measured vs modeled" `Quick test_measured_vs_modeled;
        ] );
      ("report", [ tc "strings" `Quick test_report_strings ]);
    ]
