(* EXP-ONLINE — the online tuning loop under workload drift.

   A Rags-style stream whose query mix shifts mid-stream: phase A is one
   seeded complex workload, phase B another (disjoint seed, therefore a
   different signature mix over the same database). The initial
   configuration is the per-query union for phase A — the "tune once,
   never again" operating point. The online service then ingests the
   full stream: it should bootstrap, stay quiet through phase A, detect
   the phase shift, and re-tune.

   Reported: one row per epoch (trigger, cluster budget, diff, pages,
   window cost, benefit, optimizer spend), then a final comparison of
   never-re-tuning vs the online loop on the end-of-stream window. *)

module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Workload = Im_workload.Workload
module Query = Im_sqlir.Query
module Service = Im_online.Service
module Epoch = Im_online.Epoch
module Window = Im_online.Window
module Costsvc = Im_costsvc.Service
module Drift = Im_online.Drift

let stream_of db ~seed ~queries ~repeats =
  let w = Exp_common.complex_workload db ~n:queries ~seed in
  let sqls = List.map Query.to_sql (Workload.queries w) in
  (w, List.concat (List.init repeats (fun _ -> sqls)))

let run () =
  Exp_common.section "EXP-ONLINE online tuning under drift";
  let db = Lazy.force Exp_common.synthetic1 in
  let phase_a, stream_a = stream_of db ~seed:501 ~queries:12 ~repeats:14 in
  let _, stream_b = stream_of db ~seed:907 ~queries:12 ~repeats:14 in
  (* Never-re-tune baseline: per-query union for phase A. *)
  let initial = Im_tuning.Initial_config.per_query_union db phase_a in
  let initial_pages = Database.config_storage_pages db initial in
  let budget_pages = max 1 (initial_pages / 2) in
  let options =
    {
      (Service.default_options ~budget_pages) with
      Service.o_warmup = 24;
      o_check_every = 24;
      o_decay = 0.98;
    }
  in
  let svc = Service.create ~options ~initial db ~budget_pages in
  Printf.printf
    "initial (phase-A per-query union): %d indexes, %d pages; epoch storage \
     budget %d pages\n"
    (List.length initial) initial_pages budget_pages;
  Printf.printf "stream: %d phase-A statements, then %d phase-B statements\n"
    (List.length stream_a) (List.length stream_b);
  let shift_at = List.length stream_a in
  let epochs =
    List.concat
      (List.mapi
         (fun i sql ->
           if i = shift_at then
             Printf.printf "-- query mix shifts at statement %d --\n" i;
           match Service.feed svc sql with
           | Service.Rejected msg -> failwith ("statement rejected: " ^ msg)
           | Service.Observed { ev_epoch; _ } -> Option.to_list ev_epoch)
         (stream_a @ stream_b))
  in
  Exp_common.print_table ~title:"Tuning epochs over the stream"
    ~header:
      [ "epoch"; "trigger"; "clusters"; "diff"; "pages"; "window cost";
        "benefit"; "opt calls" ]
    ~rows:
      (List.mapi
         (fun i (o : Epoch.outcome) ->
           [
             string_of_int (i + 1);
             Epoch.trigger_to_string o.Epoch.e_trigger;
             Printf.sprintf "%d/%d" o.Epoch.e_clusters_tuned
               o.Epoch.e_budget_clusters;
             Epoch.diff_to_string o.Epoch.e_diff;
             Printf.sprintf "%d->%d" o.Epoch.e_old_pages o.Epoch.e_new_pages;
             Printf.sprintf "%.0f->%.0f" o.Epoch.e_old_cost o.Epoch.e_new_cost;
             Exp_common.pct o.Epoch.e_benefit;
             string_of_int o.Epoch.e_opt_calls;
           ])
         epochs);
  (* Final comparison on the end-of-stream window (phase-B traffic). *)
  let final_window = Window.to_workload (Service.window svc) in
  let cache =
    Costsvc.create
      ~update_cost:(Im_merging.Maintenance.config_batch_cost db)
      db
  in
  let frozen_cost = Costsvc.workload_cost cache initial final_window in
  let online_config = Service.config svc in
  let online_cost = Costsvc.workload_cost cache online_config final_window in
  let online_pages = Service.config_pages svc in
  Exp_common.print_table ~title:"Never-re-tune vs online loop (final window)"
    ~header:[ "strategy"; "indexes"; "pages"; "final-window cost" ]
    ~rows:
      [
        [ "never re-tune (phase-A union)"; string_of_int (List.length initial);
          string_of_int initial_pages; Printf.sprintf "%.0f" frozen_cost ];
        [ "online loop"; string_of_int (List.length online_config);
          string_of_int online_pages; Printf.sprintf "%.0f" online_cost ];
      ];
  let drift_epochs =
    List.length
      (List.filter (fun o -> o.Epoch.e_trigger = Epoch.Drift) epochs)
  in
  Printf.printf
    "\ndrift epochs: %d; storage %d -> %d pages (%s saved); budget respected: \
     %b; cost %.0f -> %.0f on the final window\n"
    drift_epochs initial_pages online_pages
    (Exp_common.pct (1. -. (float_of_int online_pages /. float_of_int initial_pages)))
    (online_pages <= budget_pages)
    frozen_cost online_cost;
  print_endline "\nService metrics:";
  print_endline (Service.render_stats svc);
  (* The claims EXPERIMENTS.md repeats; fail loudly if a change breaks
     them. *)
  assert (drift_epochs >= 1);
  assert (List.exists (fun o -> not (Epoch.diff_is_empty o.Epoch.e_diff)) epochs);
  assert (online_pages <= budget_pages);
  assert (online_pages < initial_pages)
