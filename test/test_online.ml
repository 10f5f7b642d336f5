(* Tests for the online tuning subsystem: sliding window, the shared
   cost service as warm what-if cache, drift detection, Wii-style
   budgets, epoch diffs and the service loop. *)

module Window = Im_online.Window
module Costsvc = Im_costsvc.Service
module Drift = Im_online.Drift
module Budget = Im_online.Budget
module Epoch = Im_online.Epoch
module Service = Im_online.Service
module Workload = Im_workload.Workload
module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Query = Im_sqlir.Query
module Predicate = Im_sqlir.Predicate
module Value = Im_sqlir.Value
module Synthetic = Im_workload.Synthetic
module Ragsgen = Im_workload.Ragsgen
module Rng = Im_util.Rng
module Compress = Im_workload.Compress

let tc = Alcotest.test_case

let small_spec =
  {
    Synthetic.sp_name = "small";
    sp_tables = 4;
    sp_cols_lo = 5;
    sp_cols_hi = 12;
    sp_rows_lo = 200;
    sp_rows_hi = 500;
  }

let syn_db = lazy (Synthetic.database ~seed:3 small_spec)

(* A point query on [tbl].[col] = [v]; same signature for every [v]. *)
let point_query ?(id = "q") tbl col v =
  Query.make ~id
    ~select:[ Query.Sel_col (Predicate.colref tbl col) ]
    ~where:[ Predicate.Cmp (Predicate.Eq, Predicate.colref tbl col, Value.Int v) ]
    [ tbl ]

(* ---- Window ---- *)

let test_window_clusters_repeats () =
  let w = Window.create () in
  for i = 1 to 100 do
    Window.observe w (point_query "t0" "t0_c0" i)
  done;
  Alcotest.(check int) "one cluster" 1 (Window.cluster_count w);
  Alcotest.(check int) "100 statements" 100 (Window.statements w);
  let c = List.hd (Window.clusters w) in
  Alcotest.(check int) "all hits in cluster" 100 c.Window.cl_hits

let test_window_capacity_capped () =
  let db = Lazy.force syn_db in
  let schema = Database.schema db in
  let tables =
    List.map (fun (t : Im_sqlir.Schema.table) -> t.Im_sqlir.Schema.tbl_name)
      schema.Im_sqlir.Schema.tables
  in
  let w = Window.create ~capacity:8 () in
  (* >1000 statements over many distinct signatures: the acceptance
     criterion's no-unbounded-growth property. *)
  let n = ref 0 in
  for i = 0 to 1200 do
    let tbl = List.nth tables (i mod List.length tables) in
    let t = Im_sqlir.Schema.table schema tbl in
    let col =
      (List.nth t.Im_sqlir.Schema.tbl_columns
         (i mod List.length t.Im_sqlir.Schema.tbl_columns))
        .Im_sqlir.Schema.col_name
    in
    Window.observe w (point_query tbl col i);
    incr n;
    Alcotest.(check bool) "cap respected" true (Window.cluster_count w <= 8)
  done;
  Alcotest.(check int) "all observed" !n (Window.statements w);
  Alcotest.(check bool) "evictions happened" true (Window.evictions w > 0);
  (* Mass is bounded by the decay geometric series. *)
  Alcotest.(check bool) "mass bounded" true
    (Window.total_mass w <= 1. /. (1. -. 0.995) +. 1e-6)

let test_window_decay () =
  let w = Window.create ~decay:0.5 () in
  (* Two columns of one table are 0.65 apart, beyond Window.threshold:
     two clusters. *)
  Window.observe w (point_query "t0" "t0_c0" 1);
  Window.observe w (point_query "t0" "t0_c1" 1);
  (* First cluster decayed once: 0.5; second fresh: 1.0. *)
  (match Window.clusters w with
   | [ a; b ] ->
     Alcotest.(check (float 1e-9)) "fresh heavier" 1.0 a.Window.cl_freq;
     Alcotest.(check (float 1e-9)) "old decayed" 0.5 b.Window.cl_freq
   | cs -> Alcotest.fail (Printf.sprintf "%d clusters" (List.length cs)));
  Alcotest.(check (float 1e-9)) "mass" 1.5 (Window.total_mass w)

let test_window_to_workload () =
  let w = Window.create () in
  for i = 1 to 10 do
    Window.observe w (point_query "t0" "t0_c0" i)
  done;
  for i = 1 to 5 do
    Window.observe w (point_query "t1" "t1_c0" i)
  done;
  let wl = Window.to_workload w in
  Alcotest.(check int) "two entries" 2 (Workload.size wl);
  Alcotest.(check (float 1e-6)) "mass carried" (Window.total_mass w)
    (Workload.total_freq wl)

let test_window_validation () =
  let rejects name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": accepted")
    | exception Invalid_argument _ -> ()
  in
  rejects "capacity 0" (fun () -> Window.create ~capacity:0 ());
  rejects "decay 0" (fun () -> Window.create ~decay:0. ());
  rejects "decay above 1" (fun () -> Window.create ~decay:1.5 ());
  rejects "NaN decay" (fun () -> Window.create ~decay:Float.nan ());
  ignore (Window.create ~decay:1. ())

(* A window founds a slot only when the statement's signature lies
   farther than [Window.threshold] from every live slot, so its
   snapshot's entries carry pairwise distinct signature keys. Random
   streams mix generated queries (exact repeats) with point queries
   (constant variants of one signature). *)
let window_stream_pool =
  lazy
    (let db = Lazy.force syn_db in
     Workload.queries (Ragsgen.generate db ~rng:(Rng.create 5) ~n:30))

let prop_window_snapshot_compressed =
  QCheck.Test.make ~name:"window snapshot is signature-compressed" ~count:100
    QCheck.(triple (int_bound 100_000) (int_range 1 16) (int_range 1 200))
    (fun (seed, capacity, n) ->
      let pool = Lazy.force window_stream_pool in
      let rng = Rng.create seed in
      let w = Window.create ~capacity () in
      for _ = 1 to n do
        Window.observe w
          (if Rng.bool rng then Rng.pick rng pool
           else
             let tbl = Printf.sprintf "t%d" (Rng.int rng 4) in
             point_query tbl
               (Printf.sprintf "%s_c%d" tbl (Rng.int rng 3))
               (Rng.int rng 50))
      done;
      let keys =
        List.map
          (fun q -> Compress.signature_key (Compress.signature q))
          (Workload.queries (Window.to_workload w))
      in
      List.length (List.sort_uniq String.compare keys) = List.length keys)

(* ---- Cost service as the online what-if cache ---- *)

let test_whatif_canonical_cache () =
  let db = Lazy.force syn_db in
  let cache = Costsvc.create db in
  let q1 = point_query ~id:"S1" "t0" "t0_c0" 1 in
  let q2 = point_query ~id:"S2" "t0" "t0_c0" 1 in
  let c1 = Costsvc.query_cost cache [] q1 in
  let misses = Costsvc.opt_calls cache in
  (* Different statement id, same text: a hit — this is what the
     id-keyed Cost_eval cache cannot do across a stream. Different
     constants intentionally miss (selectivity changes the cost). *)
  let c2 = Costsvc.query_cost cache [] q2 in
  Alcotest.(check bool) "cost positive" true (c1 > 0.);
  Alcotest.(check (float 1e-9)) "identical cached cost" c1 c2;
  Alcotest.(check int) "no extra optimizer call" misses
    (Costsvc.opt_calls cache);
  Alcotest.(check int) "one hit" 1 (Costsvc.hits cache)

let test_whatif_config_restriction () =
  let db = Lazy.force syn_db in
  let cache = Costsvc.create db in
  let q = point_query "t0" "t0_c0" 1 in
  let _ = Costsvc.query_cost cache [] q in
  let misses = Costsvc.opt_calls cache in
  (* An index on another table is irrelevant to q: still a hit. *)
  let other = Index.make ~table:"t1" [ "t1_c0" ] in
  let _ = Costsvc.query_cost cache [ other ] q in
  Alcotest.(check int) "irrelevant index, cache hit" misses
    (Costsvc.opt_calls cache);
  (* An index on q's table changes the key: a miss. *)
  let relevant = Index.make ~table:"t0" [ "t0_c0" ] in
  let with_ix = Costsvc.query_cost cache [ relevant ] q in
  Alcotest.(check int) "relevant index re-optimizes" (misses + 1)
    (Costsvc.opt_calls cache);
  Alcotest.(check bool) "index helps the point query" true
    (with_ix <= Costsvc.query_cost cache [] q)

let test_whatif_capped () =
  let db = Lazy.force syn_db in
  let cache = Costsvc.create ~capacity:8 db in
  for i = 0 to 40 do
    let col = Printf.sprintf "t0_c%d" (i mod 5) in
    let tbl_q =
      Query.make ~id:"x"
        ~select:[ Query.Sel_col (Predicate.colref "t0" col) ]
        ~order_by:[ (Predicate.colref "t0" (Printf.sprintf "t0_c%d" ((i + 1) mod 5)), Query.Asc) ]
        [ "t0" ]
    in
    ignore (Costsvc.query_cost cache [] tbl_q)
  done;
  Alcotest.(check bool) "cache size capped" true (Costsvc.size cache <= 8)

(* ---- Drift ---- *)

let window_workload queries_with_freq =
  Workload.of_entries ~name:"w"
    (List.map (fun (q, freq) -> { Workload.query = q; freq }) queries_with_freq)

let test_drift_stable_traffic_quiet () =
  let db = Lazy.force syn_db in
  let cache = Costsvc.create db in
  let drift = Drift.create () in
  let w = window_workload [ (point_query "t0" "t0_c0" 1, 10.); (point_query "t1" "t1_c0" 2, 5.) ] in
  Alcotest.(check bool) "no baseline" false (Drift.has_baseline drift);
  let v0 = Drift.check drift cache [] w in
  Alcotest.(check bool) "no fire without baseline" false v0.Drift.v_fired;
  Drift.rebase drift cache [] w;
  (* Same mix, different constants: no drift. *)
  let w' = window_workload [ (point_query "t0" "t0_c0" 99, 12.); (point_query "t1" "t1_c0" 7, 6.) ] in
  let v = Drift.check drift cache [] w' in
  Alcotest.(check bool) "quiet" false v.Drift.v_fired;
  Alcotest.(check bool) "tiny divergence" true (v.Drift.v_divergence < 0.05)

let test_drift_shifted_mix_fires () =
  let db = Lazy.force syn_db in
  let cache = Costsvc.create db in
  let drift = Drift.create () in
  let before = window_workload [ (point_query "t0" "t0_c0" 1, 10.) ] in
  Drift.rebase drift cache [] before;
  (* Traffic moves to a different table entirely. *)
  let after = window_workload [ (point_query "t2" "t2_c0" 1, 10.) ] in
  let v = Drift.check drift cache [] after in
  Alcotest.(check bool) "fires" true v.Drift.v_fired;
  Alcotest.(check bool) "near-total divergence" true (v.Drift.v_divergence > 0.9);
  Alcotest.(check string) "reason" "divergence" v.Drift.v_reason;
  Alcotest.(check int) "counted" 1 (Drift.fires drift)

let test_drift_partial_shift_graded () =
  let db = Lazy.force syn_db in
  let cache = Costsvc.create db in
  let drift = Drift.create ~div_threshold:0.9 () in
  let before =
    window_workload
      [ (point_query "t0" "t0_c0" 1, 5.); (point_query "t1" "t1_c0" 1, 5.) ]
  in
  Drift.rebase drift cache [] before;
  (* Half the mass moves: TV distance = 0.5. *)
  let after =
    window_workload
      [ (point_query "t0" "t0_c0" 1, 5.); (point_query "t3" "t3_c0" 1, 5.) ]
  in
  let v = Drift.check drift cache [] after in
  Alcotest.(check (float 0.05)) "half moved" 0.5 v.Drift.v_divergence;
  Alcotest.(check bool) "below the raised threshold" false v.Drift.v_fired

let test_drift_cost_regression_fires () =
  let db = Lazy.force syn_db in
  let cache = Costsvc.create db in
  let drift = Drift.create ~div_threshold:1.1 (* divergence disabled *) () in
  let ix = Index.make ~table:"t0" [ "t0_c0" ] in
  let covered = window_workload [ (point_query "t0" "t0_c0" 1, 10.) ] in
  Drift.rebase drift cache [ ix ] covered;
  (* Same table, but the hot predicate column moved off the index: the
     live config serves the new traffic worse -> cost regression. The
     mix still matches within the signature threshold? No — different
     sargable column gives distance > 0, but we disabled divergence to
     isolate the cost path. *)
  let uncovered = window_workload [ (point_query "t0" "t0_c4" 1, 10.) ] in
  let v = Drift.check drift cache [ ix ] uncovered in
  Alcotest.(check bool) "regression detected" true (v.Drift.v_regression > 0.);
  if v.Drift.v_fired then
    Alcotest.(check string) "cost reason" "cost" v.Drift.v_reason

(* ---- Budget ---- *)

let test_budget_reallocation () =
  let b = Budget.create () in
  Alcotest.(check int) "initial" 16 (Budget.current b);
  Budget.record b ~benefit:0.2;
  Alcotest.(check int) "good epoch doubles" 32 (Budget.current b);
  Budget.record b ~benefit:0.5;
  Alcotest.(check int) "capped at max" 64 (Budget.current b);
  Budget.record b ~benefit:0.0;
  Alcotest.(check int) "useless epoch halves" 32 (Budget.current b);
  Budget.record b ~benefit:0.0;
  Budget.record b ~benefit:0.0;
  Budget.record b ~benefit:0.0;
  Budget.record b ~benefit:0.0;
  Alcotest.(check int) "floored at min" 4 (Budget.current b);
  Budget.record b ~benefit:0.03;
  Alcotest.(check int) "middling benefit holds" 4 (Budget.current b);
  Alcotest.(check int) "epochs counted" 8 (Budget.epochs b)

(* ---- Epoch diff ---- *)

let test_epoch_diff () =
  let a = Index.make ~table:"t0" [ "t0_c0" ] in
  let b = Index.make ~table:"t0" [ "t0_c1" ] in
  let c = Index.make ~table:"t1" [ "t1_c0" ] in
  let d = Epoch.diff ~old_config:[ a; b ] ~new_config:[ b; c ] in
  Alcotest.(check (list string)) "create" [ Index.to_string c ]
    (List.map Index.to_string d.Epoch.d_create);
  Alcotest.(check (list string)) "drop" [ Index.to_string a ]
    (List.map Index.to_string d.Epoch.d_drop);
  Alcotest.(check (list string)) "keep" [ Index.to_string b ]
    (List.map Index.to_string d.Epoch.d_keep);
  Alcotest.(check string) "rendered" "+1 -1 =1" (Epoch.diff_to_string d);
  Alcotest.(check bool) "not empty" false (Epoch.diff_is_empty d);
  Alcotest.(check bool) "identity diff empty" true
    (Epoch.diff_is_empty (Epoch.diff ~old_config:[ a ] ~new_config:[ a ]))

let test_epoch_run () =
  let db = Lazy.force syn_db in
  let cache =
    Costsvc.create
      ~update_cost:(Im_merging.Maintenance.config_batch_cost db)
      db
  in
  let w = Ragsgen.generate db ~rng:(Rng.create 21) ~n:12 in
  let window = Workload.of_entries ~name:"win" w.Workload.entries in
  let budget_pages = max 1 (Database.data_pages db / 2) in
  let o =
    Epoch.run cache ~trigger:Epoch.Bootstrap ~live:Config.empty ~window
      ~budget_pages ~max_clusters:8
  in
  Alcotest.(check bool) "tuned something" true (o.Epoch.e_clusters_tuned > 0);
  Alcotest.(check bool) "respects cluster budget" true
    (o.Epoch.e_clusters_tuned <= 8);
  Alcotest.(check bool) "fits storage budget" true
    (o.Epoch.e_new_pages <= budget_pages);
  Alcotest.(check bool) "improves the window" true
    (o.Epoch.e_new_cost <= o.Epoch.e_old_cost);
  Alcotest.(check bool) "spent optimizer calls" true (o.Epoch.e_opt_calls > 0);
  (* From an empty config, the diff is pure creation. *)
  Alcotest.(check int) "no drops" 0 (List.length o.Epoch.e_diff.Epoch.d_drop);
  Alcotest.(check int) "creates = config" (List.length o.Epoch.e_config)
    (List.length o.Epoch.e_diff.Epoch.d_create)

(* ---- Service ---- *)

let service_stream w = List.map Query.to_sql (Workload.queries w)

(* A zero drift-check period would divide by zero at the first check
   after bootstrap; window parameters are checked by [Window.create],
   drift thresholds by [Drift.create]. *)
let test_service_validation () =
  let db = Lazy.force syn_db in
  let budget_pages = 100 in
  let with_opts f =
    let options = f (Service.default_options ~budget_pages) in
    fun () -> ignore (Service.create ~options db ~budget_pages)
  in
  Alcotest.check_raises "check every 0"
    (Invalid_argument "Service.create: o_check_every < 1")
    (with_opts (fun o -> { o with Service.o_check_every = 0 }));
  Alcotest.check_raises "NaN decay"
    (Invalid_argument "Window.create: decay outside (0, 1] or NaN")
    (with_opts (fun o -> { o with Service.o_decay = Float.nan }));
  Alcotest.check_raises "window 0"
    (Invalid_argument "Window.create: capacity < 1")
    (with_opts (fun o -> { o with Service.o_capacity = 0 }));
  (* A NaN drift threshold never fires ([x > nan] is false). *)
  Alcotest.check_raises "NaN divergence threshold"
    (Invalid_argument "Drift.create: div_threshold < 0 or NaN")
    (with_opts (fun o -> { o with Service.o_div_threshold = Float.nan }));
  Alcotest.check_raises "negative cost threshold"
    (Invalid_argument "Drift.create: cost_threshold < 0 or NaN")
    (with_opts (fun o -> { o with Service.o_cost_threshold = -0.1 }));
  Alcotest.check_raises "negative divergence threshold"
    (Invalid_argument "Drift.create: div_threshold < 0 or NaN") (fun () ->
      ignore (Drift.create ~div_threshold:(-0.01) ()));
  Alcotest.check_raises "NaN cost threshold"
    (Invalid_argument "Drift.create: cost_threshold < 0 or NaN") (fun () ->
      ignore (Drift.create ~cost_threshold:Float.nan ()));
  (* Above 1 disables divergence (total variation is at most 1). *)
  ignore (Drift.create ~div_threshold:1.1 ~cost_threshold:0. ());
  with_opts (fun o -> { o with Service.o_check_every = 1 }) ()

let test_service_bootstrap_and_stats () =
  let db = Lazy.force syn_db in
  let budget_pages = max 1 (Database.data_pages db / 2) in
  let options =
    {
      (Service.default_options ~budget_pages) with
      Service.o_warmup = 10;
      o_check_every = 8;
    }
  in
  let svc = Service.create ~options db ~budget_pages in
  let stmts = service_stream (Ragsgen.generate db ~rng:(Rng.create 41) ~n:8) in
  let fed = ref 0 in
  for rep = 1 to 3 do
    ignore rep;
    List.iter (fun s -> incr fed; ignore (Service.feed svc s)) stmts
  done;
  Alcotest.(check int) "statements counted" !fed (Service.statements svc);
  Alcotest.(check int) "nothing rejected" 0 (Service.rejected svc);
  Alcotest.(check bool) "bootstrap epoch ran" true
    (List.length (Service.epochs svc) >= 1);
  (match List.rev (Service.epochs svc) with
   | first :: _ ->
     Alcotest.(check bool) "first is bootstrap" true
       (first.Epoch.e_trigger = Epoch.Bootstrap)
   | [] -> Alcotest.fail "no epochs");
  Alcotest.(check bool) "config installed" true (Service.config svc <> []);
  Alcotest.(check bool) "config within budget" true
    (Service.config_pages svc <= budget_pages);
  (* Statements that do not parse are rejected, not fatal. *)
  (match Service.feed svc "SELECT nothing FROM nowhere" with
   | Service.Rejected _ -> ()
   | Service.Observed _ -> Alcotest.fail "bad statement accepted");
  Alcotest.(check int) "reject counted" 1 (Service.rejected svc);
  let stats = Service.stats svc in
  let get k = List.assoc k stats in
  Alcotest.(check string) "stats statements" (string_of_int (!fed + 1))
    (get "statements");
  Alcotest.(check string) "stats rejects" "1" (get "parse rejects");
  Alcotest.(check bool) "renders" true
    (String.length (Service.render_stats svc) > 0)

let test_service_drift_retunes () =
  let db = Lazy.force syn_db in
  let budget_pages = max 1 (Database.data_pages db / 2) in
  let options =
    {
      (Service.default_options ~budget_pages) with
      Service.o_warmup = 8;
      o_check_every = 8;
      o_decay = 0.9;  (* forget phase A quickly *)
    }
  in
  let svc = Service.create ~options db ~budget_pages in
  (* Phase A: traffic on t0; phase B: traffic on t2/t3. *)
  let phase_a =
    [ point_query "t0" "t0_c0" 1; point_query "t0" "t0_c1" 2 ]
    |> List.map Query.to_sql
  in
  let phase_b =
    [ point_query "t2" "t2_c0" 1; point_query "t3" "t3_c1" 2 ]
    |> List.map Query.to_sql
  in
  for i = 0 to 31 do
    ignore (Service.feed svc (List.nth phase_a (i mod 2)))
  done;
  let epochs_after_a = List.length (Service.epochs svc) in
  Alcotest.(check bool) "bootstrapped in phase A" true (epochs_after_a >= 1);
  let fired = ref false in
  for i = 0 to 63 do
    match Service.feed svc (List.nth phase_b (i mod 2)) with
    | Service.Observed { ev_epoch = Some o; _ }
      when o.Epoch.e_trigger = Epoch.Drift ->
      fired := true
    | _ -> ()
  done;
  Alcotest.(check bool) "drift epoch fired on the shift" true !fired;
  (* The re-tuned configuration serves phase-B tables. *)
  let tables = Config.tables (Service.config svc) in
  Alcotest.(check bool) "config covers new traffic" true
    (List.mem "t2" tables || List.mem "t3" tables)

let test_service_thousand_statements_capped () =
  (* Acceptance criterion: >= 1000 streamed statements without
     unbounded growth — window and cache stay capped. *)
  let db = Lazy.force syn_db in
  let budget_pages = max 1 (Database.data_pages db / 2) in
  let options =
    {
      (Service.default_options ~budget_pages) with
      Service.o_capacity = 16;
      o_warmup = 20;
      o_check_every = 50;
    }
  in
  let svc = Service.create ~options db ~budget_pages in
  let stmts =
    service_stream (Ragsgen.generate db ~rng:(Rng.create 77) ~n:25)
  in
  let n = List.length stmts in
  for i = 0 to 1049 do
    ignore (Service.feed svc (List.nth stmts (i mod n)))
  done;
  Alcotest.(check int) "1050 statements" 1050 (Service.statements svc);
  let win = Service.window svc in
  Alcotest.(check bool) "window capped" true (Window.cluster_count win <= 16);
  Alcotest.(check bool) "mass bounded" true
    (Window.total_mass win <= 1. /. (1. -. 0.995) +. 1e-6);
  Alcotest.(check bool) "stats respond mid-stream" true
    (List.length (Service.stats svc) > 0)

(* Compressed and pruned epochs, pinned: the committed repeats.sql
   workload (a synthetic1 workload plus exact repeats and constant
   variants, shared with the golden CLI runs) is fed twice through a
   service per option set, then one epoch is forced. Each epoch's
   summary, minus its wall time, must match the committed strings. *)
let repeats_statements =
  lazy
    (In_channel.with_open_text "golden/repeats.sql" In_channel.input_all
     |> String.split_on_char '\n'
     |> List.filter (fun l -> String.trim l <> ""))

(* Drop the summary's ", <seconds>s" field. *)
let strip_elapsed summary =
  String.split_on_char ',' summary
  |> List.filter (fun field ->
         let f = String.trim field in
         not
           (String.length f > 1
           && f.[String.length f - 1] = 's'
           && Float.of_string_opt (String.sub f 0 (String.length f - 1))
              <> None))
  |> String.concat ","

let epoch_summaries ~compress ~prune_support =
  let db = Synthetic.database ~seed:1 Synthetic.synthetic1 in
  let budget_pages = max 1 (Database.data_pages db / 2) in
  let options =
    {
      (Service.default_options ~budget_pages) with
      Service.o_compress = compress;
      o_prune_support = prune_support;
    }
  in
  let svc = Service.create ~options db ~budget_pages in
  let stmts = Lazy.force repeats_statements in
  List.iter (fun sql -> ignore (Service.feed svc sql)) (stmts @ stmts);
  ignore (Service.force_epoch svc);
  List.rev_map (fun o -> strip_elapsed (Epoch.summary o)) (Service.epochs svc)

let test_service_pinned_epochs () =
  let check name ~compress ~prune_support expected =
    Alcotest.(check (list string)) name expected
      (epoch_summaries ~compress ~prune_support)
  in
  check "compress 0.2, prune-support 0.1" ~compress:(Some 0.2)
    ~prune_support:(Some 0.1)
    [
      "epoch[bootstrap]: 12/16 clusters, diff +9 -0 =0, pages 0 -> 841, \
       window cost 26233.5 -> 7482.0 (benefit 71.5%), 156 optimizer calls, \
       compressed 12 -> 12 statements (bound eps 0), pruned 0/0 pair \
       candidates (support 0.1)";
      "epoch[forced]: 12/32 clusters, diff +3 -3 =6, pages 841 -> 537, \
       window cost 21861.0 -> 23753.5 (benefit -8.7%), 110 optimizer calls, \
       compressed 12 -> 12 statements (bound eps 0), pruned 0/0 pair \
       candidates (support 0.1)";
    ];
  check "prune-support 0.1" ~compress:None ~prune_support:(Some 0.1)
    [
      "epoch[bootstrap]: 12/16 clusters, diff +9 -0 =0, pages 0 -> 841, \
       window cost 26233.5 -> 7482.0 (benefit 71.5%), 156 optimizer calls, \
       pruned 0/0 pair candidates (support 0.1)";
      "epoch[forced]: 12/32 clusters, diff +3 -3 =6, pages 841 -> 537, \
       window cost 21861.0 -> 23753.5 (benefit -8.7%), 110 optimizer calls, \
       pruned 0/0 pair candidates (support 0.1)";
    ];
  check "neither" ~compress:None ~prune_support:None
    [
      "epoch[bootstrap]: 12/16 clusters, diff +21 -0 =0, pages 0 -> 1459, \
       window cost 26233.5 -> 2099.5 (benefit 92.0%), 846 optimizer calls";
      "epoch[forced]: 12/32 clusters, diff +2 -1 =20, pages 1459 -> 1477, \
       window cost 4877.6 -> 4882.3 (benefit -0.1%), 592 optimizer calls";
    ]

(* The async intake must reproduce in-process feeding: the same stream,
   crossing a bootstrap and a drift epoch, fed one statement at a time
   with [feed] and in runs of 7 through [feed_batch_async] (each fired
   trigger run begin/run/commit, the unread rest re-fed). A triggering
   statement's event is its epoch, as the daemon answers it. *)
let test_service_async_intake_matches_feed () =
  let db = Lazy.force syn_db in
  let budget_pages = max 1 (Database.data_pages db / 2) in
  let options =
    {
      (Service.default_options ~budget_pages) with
      Service.o_warmup = 8;
      o_check_every = 8;
      o_decay = 0.9;
    }
  in
  let sqls tbl_cols =
    List.map (fun (tbl, col, v) -> Query.to_sql (point_query tbl col v)) tbl_cols
  in
  let phase_a = sqls [ ("t0", "t0_c0", 1); ("t0", "t0_c1", 2) ] in
  let phase_b = sqls [ ("t2", "t2_c0", 1); ("t3", "t3_c1", 2) ] in
  let stream =
    List.init 32 (fun i -> List.nth phase_a (i mod 2))
    @ [ "SELECT nothing FROM nowhere" ]
    @ List.init 64 (fun i -> List.nth phase_b (i mod 2))
  in
  let epoch_line o = "epoch " ^ strip_elapsed (Epoch.summary o) in
  let render = function
    | Service.Rejected msg -> "rejected " ^ msg
    | Service.Observed { ev_epoch = Some o; _ } -> epoch_line o
    | Service.Observed { ev_drift = Some v; ev_epoch = None } ->
      Printf.sprintf "observed drift=%h regression=%h fired=%b reason=%s"
        v.Drift.v_divergence v.Drift.v_regression v.Drift.v_fired
        v.Drift.v_reason
    | Service.Observed { ev_drift = None; ev_epoch = None } -> "observed"
  in
  let finish svc events =
    ( events,
      Service.statements svc,
      Service.rejected svc,
      List.rev_map (fun o -> strip_elapsed (Epoch.summary o))
        (Service.epochs svc) )
  in
  let fed =
    let svc = Service.create ~options db ~budget_pages in
    finish svc (List.map (fun sql -> render (Service.feed svc sql)) stream)
  in
  let batched =
    let svc = Service.create ~options db ~budget_pages in
    let rec take n = function
      | x :: rest when n > 0 ->
        let run, later = take (n - 1) rest in
        (x :: run, later)
      | l -> ([], l)
    in
    let rec go acc = function
      | [] -> List.rev acc
      | sqls -> (
        let run, later = take 7 sqls in
        let events, trigger, unread = Service.feed_batch_async svc run in
        let acc = List.rev_append (List.map render events) acc in
        match trigger with
        | None -> go acc later
        | Some trig ->
          let outcome = Service.begin_epoch svc trig () in
          Service.commit_epoch svc outcome;
          go (epoch_line outcome :: acc) (unread @ later))
    in
    finish svc (go [] stream)
  in
  let events, statements, rejected, summaries = fed in
  let triggers =
    List.map
      (fun s -> String.sub s 0 (String.index s ':'))
      summaries
  in
  Alcotest.(check bool) "bootstrap and drift epochs ran" true
    (List.mem "epoch[bootstrap]" triggers && List.mem "epoch[drift]" triggers);
  let b_events, b_statements, b_rejected, b_summaries = batched in
  Alcotest.(check (list string)) "events" events b_events;
  Alcotest.(check int) "statements" statements b_statements;
  Alcotest.(check int) "rejected" rejected b_rejected;
  Alcotest.(check (list string)) "epoch summaries" summaries b_summaries

let () =
  Alcotest.run "im_online"
    [
      ( "window",
        [
          tc "clusters repeats" `Quick test_window_clusters_repeats;
          tc "capacity capped" `Quick test_window_capacity_capped;
          tc "decay" `Quick test_window_decay;
          tc "to_workload" `Quick test_window_to_workload;
          tc "validation" `Quick test_window_validation;
          QCheck_alcotest.to_alcotest prop_window_snapshot_compressed;
        ] );
      ( "costsvc",
        [
          tc "canonical cache" `Quick test_whatif_canonical_cache;
          tc "config restriction" `Quick test_whatif_config_restriction;
          tc "capped" `Quick test_whatif_capped;
        ] );
      ( "drift",
        [
          tc "stable traffic quiet" `Quick test_drift_stable_traffic_quiet;
          tc "shifted mix fires" `Quick test_drift_shifted_mix_fires;
          tc "partial shift graded" `Quick test_drift_partial_shift_graded;
          tc "cost regression" `Quick test_drift_cost_regression_fires;
        ] );
      ( "budget",
        [
          tc "reallocation" `Quick test_budget_reallocation;
        ] );
      ( "epoch",
        [
          tc "diff" `Quick test_epoch_diff;
          tc "run" `Quick test_epoch_run;
        ] );
      ( "service",
        [
          tc "bootstrap and stats" `Quick test_service_bootstrap_and_stats;
          tc "drift re-tunes" `Quick test_service_drift_retunes;
          tc "1000 statements stay capped" `Slow
            test_service_thousand_statements_capped;
          tc "compressed and pruned epochs pinned" `Quick
            test_service_pinned_epochs;
          tc "validation" `Quick test_service_validation;
          tc "async intake = feed" `Quick
            test_service_async_intake_matches_feed;
        ] );
    ]
