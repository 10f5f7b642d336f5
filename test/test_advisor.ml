(* Tests for the Cost-Minimal (dual) merging formulation and the index
   advisor that integrates selection with merging. *)

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
module Dual = Im_merging.Dual
module Cost_eval = Im_merging.Cost_eval
module Selection = Im_advisor.Selection
module Advisor = Im_advisor.Advisor
module Rng = Im_util.Rng
module Service = Im_costsvc.Service

let tc = Alcotest.test_case
let qtest = QCheck_alcotest.to_alcotest
let cr = Predicate.colref

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

let workload =
  Workload.make
    [
      Query.make ~id:"q_seek"
        ~select:[ Query.Sel_col (cr "t" "c") ]
        ~where:[ Predicate.Cmp (Predicate.Eq, cr "t" "a", Value.Int 17) ]
        [ "t" ];
      Query.make ~id:"q_scan"
        ~select:[ Query.Sel_col (cr "t" "b"); Query.Sel_col (cr "t" "c") ]
        [ "t" ];
      Query.make ~id:"q_order"
        ~select:[ Query.Sel_col (cr "t" "e"); Query.Sel_col (cr "t" "b") ]
        ~order_by:[ (cr "t" "e", Query.Asc) ]
        [ "t" ];
    ]

let initial =
  [
    Index.make ~table:"t" [ "a"; "c" ];
    Index.make ~table:"t" [ "b"; "c" ];
    Index.make ~table:"t" [ "e"; "b" ];
  ]

(* ---- Dual ---- *)

let test_dual_trivial_budget () =
  (* A budget above the initial storage requires no merging at all. *)
  let big = Database.config_storage_pages db initial * 2 in
  let o = Dual.run db workload ~initial ~budget_pages:big in
  Alcotest.(check bool) "fits" true o.Dual.d_fits;
  Alcotest.(check int) "unchanged" (List.length initial)
    (List.length o.Dual.d_items);
  Alcotest.(check (float 1e-6)) "cost unchanged" o.Dual.d_initial_cost
    o.Dual.d_final_cost

let test_dual_shrinks_to_budget () =
  let pages = Database.config_storage_pages db initial in
  let budget = (pages * 2 / 3) + 1 in
  let o = Dual.run db workload ~initial ~budget_pages:budget in
  Alcotest.(check bool) "fits the budget" true o.Dual.d_fits;
  Alcotest.(check bool) "storage shrank" true (o.Dual.d_final_pages <= budget);
  Alcotest.(check bool) "minimal merged configuration" true
    (Merge.is_minimal_merged_configuration ~initial o.Dual.d_items);
  Alcotest.(check bool) "iterations counted" true (o.Dual.d_iterations >= 1)

let test_dual_impossible_budget () =
  (* Even a single fully-merged index cannot fit in 1 page: best effort,
     flagged as not fitting. *)
  let o = Dual.run db workload ~initial ~budget_pages:1 in
  Alcotest.(check bool) "does not fit" false o.Dual.d_fits;
  Alcotest.(check int) "fully merged to one index" 1
    (List.length o.Dual.d_items);
  Alcotest.(check bool) "still a minimal merged configuration" true
    (Merge.is_minimal_merged_configuration ~initial o.Dual.d_items)

let test_dual_empty_initial () =
  let o = Dual.run db workload ~initial:[] ~budget_pages:100 in
  Alcotest.(check bool) "fits" true o.Dual.d_fits;
  Alcotest.(check int) "empty" 0 (List.length o.Dual.d_items)

(* Property: the dual outcome always fits the budget whenever full
   merging could, and always remains a minimal merged configuration. *)
let prop_dual_budget_soundness =
  QCheck.Test.make ~name:"dual fits iff the fully-merged floor fits" ~count:20
    QCheck.(int_range 1 120)
    (fun budget_percent ->
      let pages = Database.config_storage_pages db initial in
      let budget = max 1 (pages * budget_percent / 100) in
      let o = Dual.run db workload ~initial ~budget_pages:budget in
      let ok_minimal =
        Merge.is_minimal_merged_configuration ~initial o.Dual.d_items
      in
      (* The single fully-merged index is the storage floor reachable by
         pair merges on one table. *)
      let floor_pages =
        Database.config_storage_pages db
          [
            Merge.preserving_merge
              ~leading:(List.hd initial)
              (List.tl initial);
          ]
      in
      let fits_expected = budget >= floor_pages || budget >= pages in
      ok_minimal && (o.Dual.d_fits = (o.Dual.d_final_pages <= budget))
      && (not fits_expected) || o.Dual.d_fits)

(* ---- Selection ---- *)

let test_selection_respects_budget () =
  let budget = 120 in
  let o = Selection.select db workload ~budget_pages:budget in
  Alcotest.(check bool) "within budget" true (o.Selection.s_pages <= budget);
  Alcotest.(check bool) "improves over no indexes" true
    (o.Selection.s_final_cost <= o.Selection.s_base_cost);
  Alcotest.(check bool) "some candidates considered" true
    (o.Selection.s_candidates > 0)

let test_selection_zero_budget () =
  let o = Selection.select db workload ~budget_pages:0 in
  Alcotest.(check int) "nothing fits" 0 (List.length o.Selection.s_config);
  Alcotest.(check (float 1e-6)) "cost = baseline" o.Selection.s_base_cost
    o.Selection.s_final_cost

let test_selection_monotone_in_budget () =
  let small = Selection.select db workload ~budget_pages:60 in
  let large = Selection.select db workload ~budget_pages:600 in
  Alcotest.(check bool) "bigger budget, no worse cost" true
    (large.Selection.s_final_cost <= small.Selection.s_final_cost +. 1e-6)

(* ---- Advisor ---- *)

let test_advisor_end_to_end () =
  let budget = 150 in
  let o = Advisor.advise db workload ~budget_pages:budget in
  Alcotest.(check bool) "fits" true o.Advisor.a_fits;
  Alcotest.(check bool) "final within budget" true
    (o.Advisor.a_final_pages <= budget);
  Alcotest.(check bool) "improves over no indexes" true
    (o.Advisor.a_final_cost <= o.Advisor.a_base_cost);
  (match o.Advisor.a_path with
   | Advisor.Select_then_merge ->
     Alcotest.(check bool) "minimal merged wrt selection" true
       (Merge.is_minimal_merged_configuration ~initial:o.Advisor.a_selected
          o.Advisor.a_final)
   | Advisor.Plain_selection ->
     (* The plain path recommends unmerged indexes. *)
     Alcotest.(check bool) "all unmerged" true
       (List.for_all
          (fun it -> List.length it.Merge.it_parents = 1)
          o.Advisor.a_final));
  Alcotest.(check bool) "summary mentions budget" true
    (Astring_contains.contains (Advisor.summary o) "budget")

let test_advisor_merging_helps_at_tight_budget () =
  (* With merging, the advisor should do at least as well as plain
     selection at the same budget. *)
  let budget = 100 in
  let plain = Selection.select db workload ~budget_pages:budget in
  let merged = Advisor.advise db workload ~budget_pages:budget in
  if merged.Advisor.a_fits then
    Alcotest.(check bool)
      (Printf.sprintf "advise (%.1f) <= select-only (%.1f)"
         merged.Advisor.a_final_cost plain.Selection.s_final_cost)
      true
      (merged.Advisor.a_final_cost <= plain.Selection.s_final_cost +. 1e-6)
  else Alcotest.(check pass) "budget unreachable for merged config" () ()

let test_advisor_synthetic_pipeline () =
  let sdb =
    Im_workload.Synthetic.database ~seed:9
      {
        Im_workload.Synthetic.sp_name = "adv";
        sp_tables = 3;
        sp_cols_lo = 5;
        sp_cols_hi = 8;
        sp_rows_lo = 1_500;
        sp_rows_hi = 3_000;
      }
  in
  let w = Im_workload.Ragsgen.generate sdb ~rng:(Rng.create 4) ~n:15 in
  let budget = Database.data_pages sdb / 2 in
  let o = Advisor.advise sdb w ~budget_pages:budget in
  Alcotest.(check bool) "final within budget (or flagged)" true
    ((not o.Advisor.a_fits) || o.Advisor.a_final_pages <= budget);
  Alcotest.(check bool) "cost never above baseline" true
    (o.Advisor.a_final_cost <= o.Advisor.a_base_cost +. 1e-6)


(* ---- Oracle: the textbook greedy ---- *)

(* The full re-cost knapsack greedy that [Selection] replaced: every
   round re-costs the whole workload under [C ∪ {ix}] for every
   remaining candidate. The incremental selection must reproduce it bit
   for bit. Returns (config, pages, base cost, final cost). *)
let textbook_select ?(max_indexes = 40) ?(min_benefit = 0.002) ?prune ~service
    db workload ~budget_pages =
  let evaluator =
    Cost_eval.create ~service Cost_eval.Optimizer_estimated db workload
  in
  let schema = Database.schema db in
  let candidates =
    List.concat_map
      (fun q -> Im_tuning.Candidates.for_query schema q)
      (Workload.queries workload)
    |> Im_util.List_ext.dedup_keep_order Index.equal
  in
  let candidates =
    match prune with
    | None -> candidates
    | Some fr -> List.filter (Im_mine.Mine.keep_index fr) candidates
  in
  let base_cost = Cost_eval.workload_cost evaluator Config.empty in
  let pages config = Database.config_storage_pages db config in
  let rec grow config cost_now =
    if List.length config >= max_indexes then config
    else
      let remaining =
        List.filter
          (fun ix ->
            (not (Config.mem ix config))
            && pages (Config.add ix config) <= budget_pages)
          candidates
      in
      let scored =
        List.filter_map
          (fun ix ->
            let cost = Cost_eval.workload_cost evaluator (Config.add ix config) in
            let benefit = cost_now -. cost in
            if benefit > min_benefit *. cost_now then
              Some (ix, cost, benefit /. float_of_int (Database.index_pages db ix))
            else None)
          remaining
      in
      match Im_util.List_ext.max_by (fun (_, _, score) -> score) scored with
      | Some (best, cost_best, _) -> grow (Config.add best config) cost_best
      | None -> config
  in
  let config = grow Config.empty base_cost in
  (config, pages config, base_cost, Cost_eval.workload_cost evaluator config)

let same_bits what a b =
  Alcotest.(check int64) what (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_against_textbook name (o : Selection.outcome) (config, pages, base, final) =
  Alcotest.(check (list string))
    (name ^ ": config")
    (List.map Index.to_string config)
    (List.map Index.to_string o.Selection.s_config);
  Alcotest.(check int) (name ^ ": pages") pages o.Selection.s_pages;
  same_bits (name ^ ": base cost") base o.Selection.s_base_cost;
  same_bits (name ^ ": final cost") final o.Selection.s_final_cost

(* Each setup: a database, a workload, and a plain budget; the relaxed
   budget is twice it, as in [Advisor.advise]. The budgets are chosen
   so that on synthetic1, synthetic2 and tpcd17 the plain pass leaves
   the relaxed pass's sequence of picks and keeps selecting after it. *)
let oracle_setups =
  lazy
    (let rng seed = Rng.create seed in
     let s1 = Im_workload.Synthetic.database ~seed:1 Im_workload.Synthetic.synthetic1 in
     let s2 = Im_workload.Synthetic.database ~seed:2 Im_workload.Synthetic.synthetic2 in
     let tpcd = Im_workload.Tpcd.database ~sf:0.002 () in
     let complex1 = Im_workload.Ragsgen.generate s1 ~rng:(rng 10) ~n:12 in
     (* Inserts into a table the workload queries, so the maintenance
        term moves with the selected indexes. *)
     let updated = List.hd (List.hd (Workload.queries complex1)).Query.q_tables in
     [
       ("synthetic1", s1, complex1, 1000, None);
       ( "synthetic2",
         s2,
         Im_workload.Ragsgen.generate s2 ~rng:(rng 11) ~n:12,
         1000,
         None );
       ("tpcd17", tpcd, Im_workload.Tpcd_queries.workload (), 100, None);
       ( "projection",
         s1,
         Im_workload.Projgen.generate s1 ~rng:(rng 12) ~n:12,
         800,
         None );
       ( "synthetic1 pruned",
         s1,
         complex1,
         1000,
         Some
           (let m = Im_mine.Mine.create () in
            Im_mine.Mine.observe_workload m complex1;
            Im_mine.Mine.frontier m ~support:0.1) );
       ( "synthetic1 with updates",
         s1,
         Workload.with_updates complex1 [ (updated, 200) ],
         1000,
         None );
     ])

let deriving_service ?capacity db =
  Service.create ?capacity ~derive:true
    ~update_cost:(Im_merging.Maintenance.config_batch_cost db) db

(* Per setup: the textbook result at the relaxed and at the plain
   budget, computed once for both oracle tests. Both share one cache
   large enough never to evict, so the textbook's repeated lookups are
   cheap hits. *)
let textbook_results =
  lazy
    (List.map
       (fun (name, db, w, budget, prune) ->
         let service = deriving_service ~capacity:1_000_000 db in
         ( (name, db, w, budget, prune),
           textbook_select ?prune ~service db w ~budget_pages:(2 * budget),
           textbook_select ?prune ~service db w ~budget_pages:budget ))
       (Lazy.force oracle_setups))

let test_selection_matches_textbook () =
  List.iter
    (fun ((name, db, w, budget, prune), relaxed, plain) ->
      (* [select]'s own private service runs the full optimizer per
         miss: exercised on the cheap projection setup, a deriving
         service elsewhere (derivation is bit-identical, test_derive). *)
      let service = if name = "projection" then None else Some (deriving_service db) in
      check_against_textbook (name ^ " relaxed")
        (Selection.select ?service ?prune db w ~budget_pages:(2 * budget))
        relaxed;
      check_against_textbook (name ^ " plain")
        (Selection.select ?service ?prune db w ~budget_pages:budget)
        plain)
    (Lazy.force textbook_results)

(* The advisor's passes share one context (and its recorded rounds):
   each must still equal an independent textbook greedy. *)
let test_shared_context_matches_textbook () =
  let diverged = ref [] in
  List.iter
    (fun ((name, db, w, budget, prune), textbook_relaxed, textbook_plain) ->
      let ctx = Selection.context ~service:(deriving_service db) ?prune db w in
      let relaxed = Selection.run ctx ~budget_pages:(2 * budget) in
      let plain = Selection.run ctx ~budget_pages:budget in
      check_against_textbook (name ^ " shared relaxed") relaxed textbook_relaxed;
      check_against_textbook (name ^ " shared plain") plain textbook_plain;
      if relaxed.Selection.s_rounds > 1 then
        Alcotest.(check bool)
          (name ^ ": plain pass reused the relaxed rounds")
          true
          (plain.Selection.s_shared_evals > 0);
      (* Re-costed cells beyond the winner's own row: rounds after the
         plain pass left the shared sequence. *)
      if plain.Selection.s_cells_recosted > 50 then diverged := name :: !diverged)
    (Lazy.force textbook_results);
  Alcotest.(check bool)
    "plain passes that left the shared rounds cover synthetic1, synthetic2, \
     tpcd17"
    true
    (List.for_all
       (fun n -> List.mem n !diverged)
       [ "synthetic1"; "synthetic2"; "tpcd17" ])

(* ---- The access-path certificate ---- *)

module Access_path = Im_optimizer.Access_path
module Optimizer = Im_optimizer.Optimizer

let cost config q = Im_optimizer.Plan.cost (Optimizer.optimize db config q)

(* The certificate's two sides on the plain input of [t]: [ix]'s lower
   bound (its own choices and its intersection building block) and the
   best path under [config]. *)
let bound_and_best config q ix =
  let input = Optimizer.access_input q "t" in
  let a = Access_path.atom db input ix in
  let lb =
    List.fold_left
      (fun acc (ch : Access_path.choice) -> Float.min acc ch.Access_path.cost)
      (match a.Access_path.at_seek with
       | Some ss -> ss.Access_path.ss_base
       | None -> Float.infinity)
      a.Access_path.at_choices
  in
  (lb, (Access_path.best db config input).Access_path.cost)

let q_eq_a =
  Query.make ~id:"q_eq_a"
    ~select:[ Query.Sel_col (cr "t" "c") ]
    ~where:[ Predicate.Cmp (Predicate.Eq, cr "t" "a", Value.Int 17) ]
    [ "t" ]

let test_certificate_refuses_order () =
  (* Every path of the all-column index costs more than the heap scan,
     but it delivers ORDER BY e and so saves the sort: only the
     single-table ORDER BY exclusion stops the certificate. *)
  let q = List.nth (Workload.queries workload) 2 in
  let ix = Index.make ~table:"t" [ "e"; "b"; "a"; "c"; "d" ] in
  let lb, best = bound_and_best Config.empty q ix in
  Alcotest.(check bool) "every path of the index is pricier" true (lb > best);
  Alcotest.(check bool) "yet the index lowers the cost" true
    (cost [ ix ] q < cost Config.empty q);
  Alcotest.(check bool) "refused" false (Selection.certifies db Config.empty q ix)

let test_certificate_refuses_intersection () =
  (* The b seek alone loses to the a seek, but intersecting the two rid
     sets beats both: its seek base, not its choices, bounds it. *)
  let q =
    Query.make ~id:"q_eq_ab"
      ~select:[ Query.Sel_col (cr "t" "d") ]
      ~where:
        [
          Predicate.Cmp (Predicate.Eq, cr "t" "a", Value.Int 17);
          Predicate.Cmp (Predicate.Eq, cr "t" "b", Value.Int 5);
        ]
      [ "t" ]
  in
  let config = [ Index.make ~table:"t" [ "a" ] ] in
  let ix = Index.make ~table:"t" [ "b" ] in
  let input = Optimizer.access_input q "t" in
  let own =
    List.fold_left
      (fun acc (ch : Access_path.choice) -> Float.min acc ch.Access_path.cost)
      Float.infinity (Access_path.atom db input ix).Access_path.at_choices
  in
  let _, best = bound_and_best config q ix in
  Alcotest.(check bool) "the b seek alone loses" true (own > best);
  Alcotest.(check bool) "the intersection wins" true
    (cost (config @ [ ix ]) q < cost config q);
  Alcotest.(check bool) "refused" false (Selection.certifies db config q ix)

let test_certificate_refuses_tie () =
  (* t(b, c) and t(c, b) cover q_scan with equal key widths and no seek
     prefix: the candidate's covering scan ties the current best
     exactly, and only a strict win certifies. *)
  let q = List.nth (Workload.queries workload) 1 in
  let config = [ Index.make ~table:"t" [ "b"; "c" ] ] in
  let ix = Index.make ~table:"t" [ "c"; "b" ] in
  let lb, best = bound_and_best config q ix in
  same_bits "exact tie" best lb;
  Alcotest.(check bool) "refused" false (Selection.certifies db config q ix)

(* A covering seek on a makes the covering scan of t(c, a) — which has
   no seek prefix, hence no intersection — a strict loser. *)
let dominated_config = [ Index.make ~table:"t" [ "a"; "c" ] ]
let dominated = Index.make ~table:"t" [ "c"; "a" ]

let test_certificate_accepts_dominated () =
  let lb, best = bound_and_best dominated_config q_eq_a dominated in
  Alcotest.(check bool) "strictly dominated" true (lb > best);
  Alcotest.(check bool) "certified" true
    (Selection.certifies db dominated_config q_eq_a dominated);
  same_bits "cost unchanged"
    (cost dominated_config q_eq_a)
    (cost (dominated_config @ [ dominated ]) q_eq_a)

let test_certificate_kept_query () =
  (* Narrowed staleness: once the certified index is committed, the
     query's cost under any further candidate is its cost under that
     candidate alone. *)
  Alcotest.(check bool) "certified" true
    (Selection.certifies db dominated_config q_eq_a dominated);
  List.iter
    (fun cols ->
      let c = Index.make ~table:"t" cols in
      same_bits
        ("with " ^ Index.to_string c)
        (cost (dominated_config @ [ c ]) q_eq_a)
        (cost (dominated_config @ [ dominated; c ]) q_eq_a))
    [ [ "a" ]; [ "a"; "c"; "b" ]; [ "b" ]; [ "c" ]; [ "a"; "e" ]; [ "e"; "b" ] ]

let test_certificate_counts () =
  (* synthetic1 at q=30 (the CLI's workload): certified cells appear,
     and recosted + certified + reused equals the textbook greedy's
     lookups, n per remaining candidate per round. *)
  let s1 = Im_workload.Synthetic.database ~seed:1 Im_workload.Synthetic.synthetic1 in
  let w = Im_workload.Ragsgen.generate s1 ~rng:(Rng.create 10) ~n:30 in
  let budget = 1500 in
  let o = Selection.select ~service:(deriving_service s1) s1 w ~budget_pages:budget in
  Alcotest.(check bool) "cells certified" true (o.Selection.s_cells_certified > 0);
  let cands =
    List.concat_map
      (fun q -> Im_tuning.Candidates.for_query (Database.schema s1) q)
      (Workload.queries w)
    |> Im_util.List_ext.dedup_keep_order Index.equal
  in
  let textbook = ref 0 in
  for r = 0 to o.Selection.s_rounds - 1 do
    let config = Im_util.List_ext.take r o.Selection.s_config in
    let pages = Database.config_storage_pages s1 config in
    List.iter
      (fun c ->
        if (not (Config.mem c config)) && pages + Database.index_pages s1 c <= budget
        then textbook := !textbook + List.length w.Workload.entries)
      cands
  done;
  Alcotest.(check int) "no shared rounds" 0 o.Selection.s_shared_evals;
  Alcotest.(check int) "recosted + certified + reused = textbook lookups"
    !textbook
    (o.Selection.s_cells_recosted + o.Selection.s_cells_certified
   + o.Selection.s_cells_reused)

let () =
  Alcotest.run "im_advisor"
    [
      ( "dual",
        [
          tc "trivial budget" `Quick test_dual_trivial_budget;
          tc "shrinks to budget" `Quick test_dual_shrinks_to_budget;
          tc "impossible budget" `Quick test_dual_impossible_budget;
          tc "empty initial" `Quick test_dual_empty_initial;
          qtest prop_dual_budget_soundness;
        ] );
      ( "selection",
        [
          tc "respects budget" `Quick test_selection_respects_budget;
          tc "zero budget" `Quick test_selection_zero_budget;
          tc "monotone in budget" `Quick test_selection_monotone_in_budget;
        ] );
      ( "oracle",
        [
          tc "select = textbook greedy" `Quick test_selection_matches_textbook;
          tc "shared context = textbook greedy" `Quick
            test_shared_context_matches_textbook;
        ] );
      ( "certify",
        [
          tc "refuses a pricier order provider" `Quick
            test_certificate_refuses_order;
          tc "refuses a cheaper intersection" `Quick
            test_certificate_refuses_intersection;
          tc "refuses an exact tie" `Quick test_certificate_refuses_tie;
          tc "accepts a dominated index" `Quick test_certificate_accepts_dominated;
          tc "kept query unchanged" `Quick test_certificate_kept_query;
          tc "synthetic1 q=30 counts" `Quick test_certificate_counts;
        ] );
      ( "advisor",
        [
          tc "end to end" `Quick test_advisor_end_to_end;
          tc "merging helps at tight budget" `Quick
            test_advisor_merging_helps_at_tight_budget;
          tc "synthetic pipeline" `Quick test_advisor_synthetic_pipeline;
        ] );
    ]
