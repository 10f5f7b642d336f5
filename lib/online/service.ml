module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Parser = Im_sqlir.Parser
module Workload = Im_workload.Workload

let m_statements = Im_obs.Metrics.counter "online_statements_total"
let m_window_clusters = Im_obs.Metrics.gauge "online_window_clusters"

type options = {
  o_budget_pages : int;
  o_capacity : int;
  o_decay : float;
  o_div_threshold : float;
  o_cost_threshold : float;
  o_check_every : int;
  o_warmup : int;
  o_prune_support : float option;
}

let default_options ~budget_pages =
  {
    o_budget_pages = budget_pages;
    o_capacity = 48;
    o_decay = 0.995;
    o_div_threshold = 0.35;
    o_cost_threshold = 0.30;
    o_check_every = 32;
    o_warmup = 24;
    o_prune_support = None;
  }

type t = {
  db : Database.t;
  opts : options;
  cache : Im_costsvc.Service.t;
  window : Window.t;
  drift : Drift.t;
  budget : Budget.t;
  prepared : Parser.Prepared.t;  (* statement shapes seen by [intake] *)
  mutable live : Config.t;
  mutable last_epoch : Epoch.outcome option;
  epoch_counts : int array;  (* committed, by trigger: bootstrap/drift/forced *)
  mutable seq : int;  (* statement id counter *)
  mutable rejected : int;
  mutable feed_seconds : float;
  mutable epoch_seconds : float;
  (* An epoch snapshot is out on a worker domain and not yet
     committed. While set, drift checks and further triggers are
     suppressed and CONFIG/STATS keep answering from the last
     committed state. Only ever touched by the dispatch thread. *)
  mutable in_flight : bool;
}

let create ?options ?pool:_ ?(initial = Config.empty) db ~budget_pages =
  let opts =
    match options with
    | Some o -> o
    | None -> default_options ~budget_pages
  in
  if opts.o_check_every < 1 then
    invalid_arg "Service.create: o_check_every < 1";
  {
    db;
    opts;
    cache = Im_merging.Cost_eval.default_service db;
    window = Window.create ~capacity:opts.o_capacity ~decay:opts.o_decay ();
    drift =
      Drift.create ~div_threshold:opts.o_div_threshold
        ~cost_threshold:opts.o_cost_threshold ();
    budget = Budget.create ();
    prepared = Parser.Prepared.create (Database.schema db);
    live = initial;
    last_epoch = None;
    epoch_counts = Array.make 3 0;
    seq = 0;
    rejected = 0;
    feed_seconds = 0.;
    epoch_seconds = 0.;
    in_flight = false;
  }

type event =
  | Rejected of string
  | Observed of {
      ev_drift : Drift.verdict option;
      ev_epoch : Epoch.outcome option;
    }

(* ---- Epoch lifecycle: begin (snapshot) / run / commit ----

   [begin_epoch] marks the service in flight and closes the run over a
   snapshot of everything an epoch reads — the committed live config,
   an immutable window workload, and the current cluster budget — so
   the returned thunk is safe to execute on a worker domain while the
   dispatch thread keeps feeding this service (the warm what-if cache
   and its atom cache each take one lock). [commit_epoch] installs
   the result back on the dispatch thread; [run_epoch] is begin + run
   + commit with no interleaving, for in-process callers. *)

let epoch_in_flight t = t.in_flight

let begin_epoch t trigger =
  if t.in_flight then invalid_arg "Service.begin_epoch: epoch already in flight";
  t.in_flight <- true;
  let live = t.live in
  let window = Window.to_workload t.window in
  let max_clusters = Budget.current t.budget in
  fun () ->
    Epoch.run ?prune_support:t.opts.o_prune_support t.cache ~trigger ~live
      ~window ~budget_pages:t.opts.o_budget_pages ~max_clusters

let commit_epoch t outcome =
  t.in_flight <- false;
  t.live <- outcome.Epoch.e_config;
  t.last_epoch <- Some outcome;
  let k =
    match outcome.Epoch.e_trigger with Bootstrap -> 0 | Drift -> 1 | Forced -> 2
  in
  t.epoch_counts.(k) <- t.epoch_counts.(k) + 1;
  t.epoch_seconds <- t.epoch_seconds +. outcome.Epoch.e_elapsed_s;
  Budget.record t.budget ~benefit:outcome.Epoch.e_benefit;
  Drift.rebase t.drift t.cache t.live t.window

let abort_epoch t = t.in_flight <- false

let run_epoch t trigger =
  let job = begin_epoch t trigger in
  match job () with
  | outcome ->
    commit_epoch t outcome;
    outcome
  | exception e ->
    abort_epoch t;
    raise e

(* What should happen after this statement: run a drift check now, and
   if so did it fire an epoch? Pure decision — running the epoch is the
   caller's business. While an epoch is in flight nothing further
   triggers: the check would compare against a baseline that is about
   to be rebased. *)
let tune_decision t =
  if t.in_flight then (None, None)
  else
    let n = Window.statements t.window in
    if not (Drift.has_baseline t.drift) then
      if n >= t.opts.o_warmup then (None, Some Epoch.Bootstrap) else (None, None)
    else if n mod t.opts.o_check_every = 0 then begin
      let verdict = Drift.check t.drift t.cache t.live t.window in
      if verdict.Drift.v_fired then (Some verdict, Some Epoch.Drift)
      else (Some verdict, None)
    end
    else (None, None)

(* ---- Intake ----

   [intake] parses one statement under the next id (through the
   service's own prepared-statement cache) and takes it
   through the window/drift state machine, returning a fired trigger
   instead of running it: [feed] runs that epoch in process, the
   daemon hands it to its worker. Intake time excludes epochs either
   way. *)

let observe t parsed =
  t.seq <- t.seq + 1;
  Im_obs.Metrics.Counter.incr m_statements;
  match parsed with
  | Error msg ->
    t.rejected <- t.rejected + 1;
    (Rejected msg, None)
  | Ok q ->
    Window.observe t.window q;
    Im_obs.Metrics.Gauge.set_int m_window_clusters
      (Window.cluster_count t.window);
    let ev_drift, trigger = tune_decision t in
    (Observed { ev_drift; ev_epoch = None }, trigger)

let intake t sql =
  let result, elapsed =
    Im_util.Stopwatch.time (fun () ->
        let id = Printf.sprintf "S%d" (t.seq + 1) in
        observe t (Parser.Prepared.parse t.prepared ~id sql))
  in
  t.feed_seconds <- t.feed_seconds +. elapsed;
  result

let feed t sql =
  match intake t sql with
  | Observed o, Some trigger ->
    Observed { o with ev_epoch = Some (run_epoch t trigger) }
  | event, _ -> event

let feed_batch_async t sqls =
  let rec go acc = function
    | [] -> (List.rev acc, None, [])
    | sql :: rest -> (
      match intake t sql with
      | ev, None -> go (ev :: acc) rest
      | _, Some trigger -> (List.rev acc, Some trigger, rest))
  in
  go [] sqls

let force_epoch t =
  if Window.cluster_count t.window = 0 then Error "window is empty"
  else Ok (run_epoch t Epoch.Forced)

let begin_forced_epoch t =
  if Window.cluster_count t.window = 0 then Error "window is empty"
  else Ok (begin_epoch t Epoch.Forced)

let config t = t.live
let config_pages t = Database.config_storage_pages t.db t.live
let database t = t.db
let window t = t.window
let last_epoch t = t.last_epoch
let epoch_count t = Array.fold_left ( + ) 0 t.epoch_counts
let statements t = t.seq
let rejected t = t.rejected

let stats t =
  let i = string_of_int in
  let f2 = Im_util.Ascii_table.f2 in
  let observed = t.seq - t.rejected in
  [
    ("statements", i t.seq);
    ("parse rejects", i t.rejected);
    ("window clusters", Printf.sprintf "%d/%d" (Window.cluster_count t.window)
       (Window.capacity t.window));
    ("window mass", f2 (Window.total_mass t.window));
    ("window evictions", i (Window.evictions t.window));
    ("drift checks", i (Drift.checks t.drift));
    ("drift fires", i (Drift.fires t.drift));
    ("epochs (bootstrap/drift/forced)",
     Printf.sprintf "%d/%d/%d" t.epoch_counts.(0) t.epoch_counts.(1)
       t.epoch_counts.(2));
    ("epoch cluster budget", i (Budget.current t.budget));
    (* The miner's figures from the most recent epoch; "-" while
       pruning is off or no epoch has run yet. *)
    ( "mine pruned/kept pairs",
      match Option.bind t.last_epoch (fun o -> o.Epoch.e_mine) with
      | None -> "-"
      | Some st ->
        Printf.sprintf "%d/%d (support %g)" st.Im_mine.Mine.fs_pruned
          st.Im_mine.Mine.fs_kept st.Im_mine.Mine.fs_support );
    ("cost_evals", i (Im_costsvc.Service.cost_evals t.cache));
    ("opt_calls", i (Im_costsvc.Service.opt_calls t.cache));
    ("cache_hits", i (Im_costsvc.Service.hits t.cache));
    ("cache_misses", i (Im_costsvc.Service.opt_calls t.cache));
    ("cache_evictions", i (Im_costsvc.Service.evictions t.cache));
    ("cache_entries", i (Im_costsvc.Service.size t.cache));
    ("config indexes", i (List.length t.live));
    ("config pages", i (config_pages t));
    ("intake seconds", f2 t.feed_seconds);
    ("tuning seconds", f2 t.epoch_seconds);
    ( "mean intake ms/stmt",
      if observed = 0 then "-"
      else f2 (1000. *. t.feed_seconds /. float_of_int observed) );
  ]

let render_stats t =
  Im_util.Ascii_table.render ~header:[ "metric"; "value" ]
    ~rows:(List.map (fun (k, v) -> [ k; v ]) (stats t))
