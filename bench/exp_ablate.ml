(* Ablations beyond the paper's own figures (DESIGN.md §6):

   A1 — cost-constraint sweep: the paper notes "we observed similar
        results when we varied the cost-constraints" (§4.3.1) without
        showing them; we sweep c and report the storage/cost trade-off.
   A2 — No-Cost thresholds (f, p): how sensitive Greedy-Cost-None is to
        its two magic thresholds, including the *actual* (optimizer-
        measured) cost increase its output incurs — the constraint the
        No-Cost model cannot guarantee (§3.5.1).
   A3 — workload compression (§3.5.3): identical-query dedup and the
        ε = 0.05 compactor shrink the log 5x with the same outcome; the
        what-if call count does not move, because the cost service
        keys on canonical query text and already shares duplicates. *)

module Search = Im_merging.Search
module Cost_eval = Im_merging.Cost_eval
module Merge = Im_merging.Merge
module Workload = Im_workload.Workload

let db_and_workload () =
  let db = Lazy.force Exp_common.synthetic1 in
  let workload = Exp_common.complex_workload db ~n:30 ~seed:1 in
  let initial = Exp_common.initial_config db workload ~n:10 ~seed:3 in
  (db, workload, initial)

let run_constraint_sweep () =
  Exp_common.section "Ablation A1: cost-constraint sweep";
  let db, workload, initial = db_and_workload () in
  let rows =
    List.map
      (fun c ->
        let o =
          Search.run ~cost_constraint:c db workload ~initial Search.Greedy
        in
        [
          Exp_common.pct c;
          Exp_common.pct (Search.storage_reduction o);
          (match Search.cost_increase o with
           | Some inc -> Exp_common.pct inc
           | None -> "-");
          string_of_int (List.length o.Search.o_items);
        ])
      [ 0.0; 0.05; 0.10; 0.20; 0.50 ]
  in
  Exp_common.print_table
    ~title:"A1: storage/cost trade-off vs cost constraint (Synthetic1, N = 10)"
    ~header:[ "constraint"; "storage reduction"; "cost increase"; "indexes left" ]
    ~rows;
  print_endline
    "Expected shape: looser constraints buy more storage reduction; cost \
     increase always stays below the constraint."

let run_no_cost_thresholds () =
  Exp_common.section "Ablation A2: No-Cost model thresholds (f, p)";
  let db, workload, initial = db_and_workload () in
  (* The optimizer-estimated cost of a configuration, measured after the
     fact, to expose what the No-Cost model cannot control. *)
  let true_cost config =
    let e = Cost_eval.create Cost_eval.Optimizer_estimated db workload in
    Cost_eval.workload_cost e config
  in
  let base_cost = true_cost initial in
  let rows =
    List.concat_map
      (fun f ->
        List.map
          (fun p ->
            let o =
              Search.run
                ~cost_model:(Cost_eval.No_cost { f; p })
                db workload ~initial Search.Greedy
            in
            let final = Merge.config_of_items o.Search.o_items in
            [
              Exp_common.pct f;
              Exp_common.pct p;
              Exp_common.pct (Search.storage_reduction o);
              Exp_common.pct ((true_cost final /. base_cost) -. 1.)
              ^ " (measured)";
            ])
          [ 0.0; 0.25; 1.0 ])
      [ 0.03; 0.10; 0.60 ]
  in
  Exp_common.print_table
    ~title:"A2: Greedy-Cost-None sensitivity to f and p (Synthetic1, N = 10)"
    ~header:[ "f"; "p"; "storage reduction"; "actual cost increase" ]
    ~rows;
  print_endline
    "Expected shape: generous thresholds merge more but can blow well past \
     any intended cost constraint — the paper's argument for \
     optimizer-estimated cost."

let run_compression () =
  Exp_common.section "Ablation A3: workload compression";
  let db, workload, initial = db_and_workload () in
  (* Duplicate every query 5x with fresh ids — as a server-side log
     would contain them — then compare merging the raw duplicate
     workload against its compressed form. *)
  let duplicated =
    Workload.of_entries ~name:"x5"
      (List.concat
         (List.init 5 (fun copy ->
              List.map
                (fun (e : Workload.entry) ->
                  let q = e.Workload.query in
                  {
                    e with
                    Workload.query =
                      Im_sqlir.Query.make
                        ~id:(Printf.sprintf "%s#%d" q.Im_sqlir.Query.q_id copy)
                        ~select:q.q_select ~where:q.q_where
                        ~group_by:q.q_group_by ~order_by:q.q_order_by
                        q.q_tables;
                  })
                workload.Workload.entries)))
  in
  let compressed = Workload.compress_identical duplicated in
  (* The tuning path's compactor: signature buckets under a 5 %
     deviation budget (the CLI's --compress 0.05). *)
  let compacted, _, _ =
    Im_scale.Scale.prepare ~compress:0.05
      (Cost_eval.default_service db)
      duplicated
  in
  let run w = Search.run db w ~initial Search.Greedy in
  let o_raw = run duplicated in
  let o_comp = run compressed in
  let o_cpt = run compacted in
  Exp_common.print_table
    ~title:"A3: identical-query compression (Synthetic1, N = 10, workload x5)"
    ~header:
      [ "workload"; "queries"; "storage reduction"; "optimizer calls"; "time" ]
    ~rows:
      [
        [
          "duplicated x5";
          string_of_int (Workload.size duplicated);
          Exp_common.pct (Search.storage_reduction o_raw);
          string_of_int o_raw.Search.o_optimizer_calls;
          Printf.sprintf "%.3fs" o_raw.Search.o_elapsed_s;
        ];
        [
          "compressed";
          string_of_int (Workload.size compressed);
          Exp_common.pct (Search.storage_reduction o_comp);
          string_of_int o_comp.Search.o_optimizer_calls;
          Printf.sprintf "%.3fs" o_comp.Search.o_elapsed_s;
        ];
        [
          "compactor (eps=0.05)";
          string_of_int (Workload.size compacted);
          Exp_common.pct (Search.storage_reduction o_cpt);
          string_of_int o_cpt.Search.o_optimizer_calls;
          Printf.sprintf "%.3fs" o_cpt.Search.o_elapsed_s;
        ];
      ];
  Printf.printf
    "Same storage reduction: %b. Expected shape: 150 -> 30 statements with \
     an unchanged outcome and unchanged optimizer calls (cost keys on the \
     canonical text already share duplicates).\n"
    (o_raw.Search.o_final_pages = o_comp.Search.o_final_pages
    && o_raw.Search.o_final_pages = o_cpt.Search.o_final_pages)

(* A4: is merging worth integrating into index selection? Compare
   plain budgeted selection against the select-relaxed-then-merge
   pipeline across budgets (both computed inside Advisor.advise). *)
let run_advisor_paths () =
  Exp_common.section "Ablation A4: selection with vs without merging";
  let db = Lazy.force Exp_common.synthetic1 in
  let workload = Exp_common.complex_workload db ~n:30 ~seed:1 in
  let data = Im_catalog.Database.data_pages db in
  let rows =
    List.map
      (fun frac ->
        let budget = max 1 (int_of_float (frac *. float_of_int data)) in
        let o = Im_advisor.Advisor.advise db workload ~budget_pages:budget in
        [
          Printf.sprintf "%.0f%% of data (%d pages)" (100. *. frac) budget;
          Printf.sprintf "%.1f" o.Im_advisor.Advisor.a_plain_cost;
          Printf.sprintf "%.1f%s" o.Im_advisor.Advisor.a_merged_cost
            (if o.Im_advisor.Advisor.a_merged_fits then "" else " (over budget)");
          (match o.Im_advisor.Advisor.a_path with
           | Im_advisor.Advisor.Select_then_merge -> "select+merge"
           | Im_advisor.Advisor.Plain_selection -> "plain");
          Printf.sprintf "%.1f (baseline %.1f)"
            o.Im_advisor.Advisor.a_final_cost o.Im_advisor.Advisor.a_base_cost;
        ])
      [ 0.05; 0.10; 0.20; 0.40 ]
  in
  Exp_common.print_table
    ~title:
      "A4: workload cost of plain budgeted selection vs selection+merging \
       (Synthetic1, complex workload)"
    ~header:[ "budget"; "plain"; "select+merge"; "winner"; "recommended" ]
    ~rows;
  print_endline
    "Expected shape: at tight budgets merging lets wide covering indexes \
     fit and wins; with slack both converge."

(* A5: update-heavy workloads. The paper motivates merging partly by
   maintenance cost; when updates are part of Cost(W,C) itself (§3.1),
   merging can *reduce* total workload cost rather than trading storage
   against a small increase. *)
let run_update_workloads () =
  Exp_common.section "Ablation A5: query-only vs update-heavy workloads";
  let db, workload, initial = db_and_workload () in
  let schema = Im_catalog.Database.schema db in
  let tables =
    List.map
      (fun (t : Im_sqlir.Schema.table) -> t.Im_sqlir.Schema.tbl_name)
      schema.Im_sqlir.Schema.tables
  in
  let profile scale =
    List.map
      (fun t -> (t, max 1 (Im_catalog.Database.row_count db t * scale / 100)))
      tables
  in
  let rows =
    List.map
      (fun (label, w) ->
        let o = Search.run ~cost_constraint:0.10 db w ~initial Search.Greedy in
        [
          label;
          Exp_common.pct (Search.storage_reduction o);
          (match Search.cost_increase o with
           | Some inc -> Exp_common.pct inc
           | None -> "-");
          string_of_int (List.length o.Search.o_items);
        ])
      [
        ("queries only", workload);
        ("+1% inserts", Workload.with_updates workload (profile 1));
        ("+5% inserts", Workload.with_updates workload (profile 5));
        ("+20% inserts", Workload.with_updates workload (profile 20));
      ]
  in
  Exp_common.print_table
    ~title:"A5: merging under update-heavy workloads (Synthetic1, N = 10)"
    ~header:[ "workload"; "storage reduction"; "total cost change"; "indexes" ]
    ~rows;
  print_endline
    "Expected shape: the heavier the update traffic, the more merging \
     reduces total cost (maintenance savings outweigh query regressions)."

let run () =
  run_constraint_sweep ();
  run_no_cost_thresholds ();
  run_compression ();
  run_advisor_paths ();
  run_update_workloads ()
