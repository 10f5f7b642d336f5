(* Shared setup for the experiment harness: the three databases of the
   paper's §4.2.1 (TPC-D, Synthetic1, Synthetic2, scaled down), workload
   construction, and initial configurations built per §4.2.3. *)

module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Workload = Im_workload.Workload
module Rng = Im_util.Rng

(* Scale knobs: the defaults keep the full harness within a few minutes
   while preserving multi-level B+-trees and meaningful histograms.
   Raise IM_BENCH_SF to push closer to the paper's 1 GB. *)
let tpcd_sf =
  match Sys.getenv_opt "IM_BENCH_SF" with
  | Some s -> float_of_string s
  | None -> 0.004

let synthetic1_spec = Im_workload.Synthetic.synthetic1
let synthetic2_spec = Im_workload.Synthetic.synthetic2

let tpcd = lazy (Im_workload.Tpcd.database ~sf:tpcd_sf ~seed:1999 ())
let synthetic1 = lazy (Im_workload.Synthetic.database ~seed:101 synthetic1_spec)
let synthetic2 = lazy (Im_workload.Synthetic.database ~seed:202 synthetic2_spec)

let databases () =
  [
    ("TPC-D", Lazy.force tpcd);
    ("Synthetic1", Lazy.force synthetic1);
    ("Synthetic2", Lazy.force synthetic2);
  ]

let complex_workload db ~n ~seed =
  Im_workload.Ragsgen.generate db ~rng:(Rng.create seed) ~n

let projection_workload db ~n ~seed =
  Im_workload.Projgen.generate db ~rng:(Rng.create seed) ~n

let initial_config db workload ~n ~seed =
  Im_tuning.Initial_config.build db workload ~rng:(Rng.create seed) ~n

let pct = Im_util.Ascii_table.pct

let print_table ~title ~header ~rows =
  Printf.printf "\n%s\n%s\n%s\n" title
    (String.make (String.length title) '=')
    (Im_util.Ascii_table.render ~header ~rows)

let section title =
  Printf.printf "\n######## %s ########\n%!" title

(* [Search.run] behind the CLI's prelude: [Scale.prepare] compacts and
   mines the workload on the run's own cost service. The frontier comes
   back too, for its pruning tallies. *)
let prepared_search ?compress ?prune_support ?merge_pair ?cost_model
    ?cost_constraint db workload ~initial strategy =
  let service = Im_merging.Cost_eval.default_service db in
  let workload, _, prune =
    Im_scale.Scale.prepare ?compress ?prune_support service workload
  in
  ( Im_merging.Search.run ~service ?merge_pair ?cost_model ?cost_constraint
      ?prune db workload ~initial strategy,
    prune )
