module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Workload = Im_workload.Workload
module Mine = Im_mine.Mine
module Costsvc = Im_costsvc.Service

type diff = {
  d_create : Index.t list;
  d_drop : Index.t list;
  d_keep : Index.t list;
}

let diff ~old_config ~new_config =
  {
    d_create =
      List.filter (fun ix -> not (Config.mem ix old_config)) new_config;
    d_drop = List.filter (fun ix -> not (Config.mem ix new_config)) old_config;
    d_keep = List.filter (fun ix -> Config.mem ix new_config) old_config;
  }

let diff_is_empty d = d.d_create = [] && d.d_drop = []

let diff_to_string d =
  Printf.sprintf "+%d -%d =%d" (List.length d.d_create) (List.length d.d_drop)
    (List.length d.d_keep)

type trigger = Bootstrap | Drift | Forced

let trigger_to_string = function
  | Bootstrap -> "bootstrap"
  | Drift -> "drift"
  | Forced -> "forced"

let m_epoch_metrics =
  List.map
    (fun trig ->
      let labels = [ ("trigger", trigger_to_string trig) ] in
      ( trig,
        ( Im_obs.Metrics.counter ~labels "online_epochs_total",
          Im_obs.Metrics.histogram ~labels "online_epoch_seconds" ) ))
    [ Bootstrap; Drift; Forced ]

type outcome = {
  e_trigger : trigger;
  e_clusters_tuned : int;
  e_budget_clusters : int;
  e_diff : diff;
  e_config : Config.t;
  e_old_cost : float;
  e_new_cost : float;
  e_benefit : float;
  e_old_pages : int;
  e_new_pages : int;
  e_opt_calls : int;
  e_elapsed_s : float;
  e_mine : Mine.stats option;
}

(* Test/bench hook: IM_EPOCH_DELAY_MS injects a fixed sleep into every
   epoch, making "a slow epoch" reproducible — the off-thread dispatch
   isolation tests and the EXP-SERVE isolation phase depend on it. *)
let injected_delay_s =
  lazy
    (match Sys.getenv_opt "IM_EPOCH_DELAY_MS" with
    | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some ms when ms > 0 -> float_of_int ms /. 1000.
        | Some _ | None -> 0.)
    | None -> 0.)

(* Test hook: IM_EPOCH_FAIL=N makes the N-th epoch this process runs
   raise, once — the daemon's "ERR epoch failed" / abort path is
   exercised through it. Read once at start-up. *)
let injected_failure =
  match Sys.getenv_opt "IM_EPOCH_FAIL" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n > 0 -> Some n
      | Some _ | None -> None)
  | None -> None

let epochs_started = Atomic.make 0

let run ?prune_support service ~trigger ~live ~window
    ~budget_pages ~max_clusters =
  if Workload.size window = 0 then invalid_arg "Epoch.run: empty window";
  (let d = Lazy.force injected_delay_s in
   if d > 0. then Unix.sleepf d);
  (match injected_failure with
   | Some n when Atomic.fetch_and_add epochs_started 1 + 1 = n ->
     failwith "injected epoch failure (IM_EPOCH_FAIL)"
   | Some _ | None -> ());
  let db = Costsvc.database service in
  let calls_before = Costsvc.opt_calls service in
  let (new_config, tuned, old_cost, new_cost, prune), elapsed =
    Im_util.Stopwatch.time (fun () ->
        (* Mining runs afresh on every window, so the frontier tracks
           the decayed window masses: a drift-triggered epoch gets a
           cheap candidate refresh instead of the full quadratic
           frontier. A support <= 0 mines nothing. The cluster budget
           then goes to the entries costing most under the live
           configuration. *)
        let prune =
          match prune_support with
          | Some s when s > 0. ->
            let miner = Mine.create () in
            Mine.observe_workload miner window;
            Some (Mine.frontier miner ~support:s)
          | Some _ | None -> None
        in
        let tuning =
          Workload.top_k_by_cost
            ~cost:(Costsvc.query_cost service live)
            ~k:max_clusters window
        in
        let outcome =
          Im_advisor.Advisor.advise ~service ?prune db tuning ~budget_pages
        in
        let new_config = Im_advisor.Advisor.final_config outcome in
        (* Both costings run over the whole window, not just the tuned
           clusters, so the benefit reflects all live traffic. *)
        let old_cost = Costsvc.workload_cost service live window in
        let new_cost = Costsvc.workload_cost service new_config window in
        (new_config, Workload.size tuning, old_cost, new_cost, prune))
  in
  (match List.assoc_opt trigger m_epoch_metrics with
   | Some (c, h) ->
     Im_obs.Metrics.Counter.incr c;
     Im_obs.Metrics.Histogram.observe h elapsed
   | None -> ());
  {
    e_trigger = trigger;
    e_clusters_tuned = tuned;
    e_budget_clusters = max_clusters;
    e_diff = diff ~old_config:live ~new_config;
    e_config = new_config;
    e_old_cost = old_cost;
    e_new_cost = new_cost;
    e_benefit = (if old_cost <= 0. then 0. else (old_cost -. new_cost) /. old_cost);
    e_old_pages = Database.config_storage_pages db live;
    e_new_pages = Database.config_storage_pages db new_config;
    e_opt_calls = Costsvc.opt_calls service - calls_before;
    e_elapsed_s = elapsed;
    e_mine = Option.map Mine.frontier_stats prune;
  }

let summary o =
  Printf.sprintf
    "epoch[%s]: %d/%d clusters, diff %s, pages %d -> %d, window cost %.1f -> \
     %.1f (benefit %.1f%%), %d optimizer calls, %.2fs%s"
    (trigger_to_string o.e_trigger)
    o.e_clusters_tuned o.e_budget_clusters (diff_to_string o.e_diff)
    o.e_old_pages o.e_new_pages o.e_old_cost o.e_new_cost
    (100. *. o.e_benefit) o.e_opt_calls o.e_elapsed_s
    (match o.e_mine with
     | None -> ""
     | Some st ->
       Printf.sprintf ", pruned %d/%d pair candidates (support %g)"
         st.Mine.fs_pruned
         (st.Mine.fs_pruned + st.Mine.fs_kept)
         st.Mine.fs_support)
