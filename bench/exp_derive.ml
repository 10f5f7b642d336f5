(* EXP-DERIVE — atomic cost derivation on the fig5/6 pipeline.

   For each database, runs greedy and exhaustive merge search (N = 5
   initial configurations, three seeds) twice: once with derivation off
   (a [Service.create ~derive:false] service: every what-if cache miss
   runs the full optimizer) and once with derivation on (misses
   assembled from cached access-path atoms, falling back only on the
   order-sort class), and

   - hard-asserts the merged configuration (items with parents, final
     pages, final cost) is identical between the two modes — the
     bit-identity contract of DESIGN.md §2f;
   - measures actual [Optimizer.invocations] around each run and
     hard-asserts the aggregate full/derived ratio is >= 5x (the
     acceptance bar: derivation answers what-if calls without running
     the optimizer);
   - records wall-clock per mode and how many misses each deriving run
     answered by derivation vs fallback.

   JSON artifact to $IM_BENCH_OUT (default BENCH_derive.json) for
   dev-check. *)

module Search = Im_merging.Search
module Cost_eval = Im_merging.Cost_eval
module Merge = Im_merging.Merge
module Index = Im_catalog.Index
module Optimizer = Im_optimizer.Optimizer

let seeds = [ 2; 3; 4 ]
let min_ratio = 5.0

type run_result = {
  r_fingerprint : string;  (** merged items + parents, rendered *)
  r_pages : int;
  r_cost : float option;
}

let fingerprint items =
  String.concat "; "
    (List.map
       (fun it ->
         Printf.sprintf "%s<-[%s]"
           (Index.to_string it.Merge.it_index)
           (String.concat ", " (List.map Index.to_string it.Merge.it_parents)))
       items)

let equal_result a b =
  String.equal a.r_fingerprint b.r_fingerprint
  && a.r_pages = b.r_pages
  && Option.equal Float.equal a.r_cost b.r_cost

type mode_stats = {
  m_invocations : int;  (** optimizer runs across the three seeds *)
  m_seconds : float;
  m_derived : int;  (** misses answered by derivation *)
  m_fallbacks : int;  (** misses derived-then-abandoned to the optimizer *)
}

(* (results, stats) for one strategy in one mode over all seeds. *)
let measure ~derive db workload strategy =
  let cells =
    List.map
      (fun seed ->
        let initial = Exp_common.initial_config db workload ~n:5 ~seed in
        let before = Optimizer.invocations () in
        let service =
          Im_costsvc.Service.create ~derive
            ~update_cost:(Im_merging.Maintenance.config_batch_cost db)
            db
        in
        let o =
          Search.run ~service ~cost_model:Cost_eval.Optimizer_estimated
            ~cost_constraint:0.10 db workload ~initial strategy
        in
        ( {
            r_fingerprint = fingerprint o.Search.o_items;
            r_pages = o.Search.o_final_pages;
            r_cost = o.Search.o_final_cost;
          },
          {
            m_invocations = Optimizer.invocations () - before;
            m_seconds = o.Search.o_elapsed_s;
            m_derived = o.Search.o_derived_costs;
            m_fallbacks = o.Search.o_derive_fallbacks;
          } ))
      seeds
  in
  let sum f = Im_util.List_ext.sum_by (fun (_, m) -> f m) cells in
  ( List.map fst cells,
    {
      m_invocations = sum (fun m -> m.m_invocations);
      m_seconds = Im_util.List_ext.sum_by_f (fun (_, m) -> m.m_seconds) cells;
      m_derived = sum (fun m -> m.m_derived);
      m_fallbacks = sum (fun m -> m.m_fallbacks);
    } )

let assert_identical ~db_name ~strategy full derived =
  List.iteri
    (fun i (f, d) ->
      if not (equal_result f d) then
        failwith
          (Printf.sprintf
             "%s/%s seed %d: derived run diverges from full optimization \
              (pages %d vs %d; %s vs %s)"
             db_name strategy (List.nth seeds i) f.r_pages d.r_pages
             f.r_fingerprint d.r_fingerprint))
    (List.combine full derived)

let ratio full derived =
  if derived > 0 then float_of_int full /. float_of_int derived else infinity

let run () =
  Exp_common.section
    "EXP-DERIVE atomic cost derivation: result identity + optimizer-call \
     reduction (fig5/6 setup)";
  let totals_full = ref 0 and totals_derived = ref 0 in
  let rows, json_dbs =
    List.split
      (List.map
         (fun (name, db) ->
           let workload = Exp_common.complex_workload db ~n:30 ~seed:1 in
           let per strategy strategy_name =
             let full_r, full = measure ~derive:false db workload strategy in
             let der_r, der = measure ~derive:true db workload strategy in
             assert_identical ~db_name:name ~strategy:strategy_name full_r
               der_r;
             totals_full := !totals_full + full.m_invocations;
             totals_derived := !totals_derived + der.m_invocations;
             ( [
                 name;
                 strategy_name;
                 string_of_int full.m_invocations;
                 string_of_int der.m_invocations;
                 Printf.sprintf "%.1fx"
                   (ratio full.m_invocations der.m_invocations);
                 Printf.sprintf "%d/%d" der.m_derived der.m_fallbacks;
                 Printf.sprintf "%.3f" full.m_seconds;
                 Printf.sprintf "%.3f" der.m_seconds;
                 "identical";
               ],
               Printf.sprintf
                 "      {\"strategy\": \"%s\", \"full_invocations\": %d, \
                  \"derived_invocations\": %d, \"reduction\": %.3f, \
                  \"derived_costs\": %d, \"fallbacks\": %d, \"full_s\": \
                  %.3f, \"derived_s\": %.3f}"
                 strategy_name full.m_invocations der.m_invocations
                 (ratio full.m_invocations der.m_invocations)
                 der.m_derived der.m_fallbacks full.m_seconds der.m_seconds )
           in
           let g_row, g_json = per Search.Greedy "greedy" in
           let e_row, e_json =
             per (Search.Exhaustive_search { config_limit = 100_000 })
               "exhaustive"
           in
           ( [ g_row; e_row ],
             Printf.sprintf
               "    {\"db\": \"%s\", \"strategies\": [\n%s\n    ]}" name
               (String.concat ",\n" [ g_json; e_json ]) ))
         (Exp_common.databases ()))
  in
  Exp_common.print_table
    ~title:
      "Optimizer invocations and wall-clock, full vs derived, summed over \
       seeds"
    ~header:
      [ "db"; "strategy"; "full opt"; "derived opt"; "reduction";
        "derived/fb"; "full s"; "derived s"; "result" ]
    ~rows:(List.concat rows);
  let overall = ratio !totals_full !totals_derived in
  Printf.printf
    "\noverall: %d optimizer invocations without derivation, %d with \
     (%.1fx reduction)\n"
    !totals_full !totals_derived overall;
  if overall < min_ratio then
    failwith
      (Printf.sprintf
         "EXP-DERIVE: optimizer-call reduction %.2fx is below the %.0fx \
          acceptance bar"
         overall min_ratio);
  let out =
    match Sys.getenv_opt "IM_BENCH_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_derive.json"
  in
  let oc = open_out out in
  output_string oc
    (Printf.sprintf
       "{\n  \"experiment\": \"derive\",\n  \"full_invocations\": %d,\n\
       \  \"derived_invocations\": %d,\n  \"reduction\": %.3f,\n\
       \  \"min_reduction\": %.1f,\n  \"databases\": [\n%s\n  ],\n\
       \  \"metrics\": %s\n}\n"
       !totals_full !totals_derived overall min_ratio
       (String.concat ",\n" json_dbs)
       (Im_obs.Metrics.to_json ()));
  close_out oc;
  Printf.printf "\nwrote %s\n" out
