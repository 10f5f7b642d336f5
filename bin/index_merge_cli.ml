(* index-merge: command-line index merging utility.

   The executable mirrors the paper's client utility for SQL Server 7.0:
   given a database, a workload and an initial configuration, it finds a
   storage-minimal merged configuration under a cost constraint.

   Subcommands:
     info     describe a generated database
     tune     per-query index recommendations for a workload
     merge    run index merging end to end (the main mode)
     explain  show optimizer plans for workload queries under a config
     serve    online index-tuning daemon (streaming intake over TCP)

   Databases and workloads are generated deterministically from seeds,
   so runs are reproducible. *)

open Cmdliner

let version = "1.1.0"

module Database = Im_catalog.Database
module Index = Im_catalog.Index
module Schema = Im_sqlir.Schema
module Workload = Im_workload.Workload
module Search = Im_merging.Search
module Cost_eval = Im_merging.Cost_eval
module Merge_pair = Im_merging.Merge_pair

(* ---- Shared arguments ---- *)

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("index-merge: " ^ msg);
    exit 2

let db_arg =
  let doc =
    "Database: tpcd, synthetic1, synthetic2, or csv (with --schema and \
     --data)."
  in
  Arg.(value & opt string "tpcd" & info [ "d"; "database" ] ~docv:"DB" ~doc)

let schema_arg =
  let doc = "DDL schema file (CREATE TABLE statements), for -d csv." in
  Arg.(value & opt (some string) None & info [ "schema" ] ~docv:"FILE" ~doc)

let data_arg =
  let doc = "Directory of <table>.csv files, for -d csv." in
  Arg.(value & opt (some string) None & info [ "data" ] ~docv:"DIR" ~doc)

let seed_arg =
  let doc = "Seed for data, workload and tuning randomness." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let workload_arg =
  let doc = "Workload: complex, projection, or tpcd17 (TPC-D only)." in
  Arg.(value & opt string "complex" & info [ "w"; "workload" ] ~docv:"KIND" ~doc)

let cost_model_arg =
  let doc = "Cost evaluation: optimizer, external, or nocost." in
  Arg.(value & opt string "optimizer" & info [ "cost-model" ] ~docv:"MODEL" ~doc)

let merge_pair_arg =
  let doc = "MergePair procedure: cost, syntactic, or exhaustive." in
  Arg.(value & opt string "cost" & info [ "merge-pair" ] ~docv:"PROC" ~doc)

let strategy_arg =
  let doc = "Search strategy: greedy or exhaustive." in
  Arg.(value & opt string "greedy" & info [ "strategy" ] ~docv:"STRAT" ~doc)

let updates_arg =
  let doc =
    "Attach a batch-insert profile to the workload: 'table:rows', \
     repeatable. Numeric cost models then charge configurations for \
     index maintenance."
  in
  Arg.(value & opt_all string [] & info [ "u"; "updates" ] ~docv:"TBL:ROWS" ~doc)

let parse_updates specs =
  let parse one =
    match String.split_on_char ':' one with
    | [ tbl; rows ] ->
      (match int_of_string_opt rows with
       | Some r when r > 0 -> Ok (tbl, r)
       | Some _ | None -> Error (Printf.sprintf "bad row count in %S" one))
    | _ -> Error (Printf.sprintf "expected table:rows, got %S" one)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest ->
      (match parse s with Ok u -> go (u :: acc) rest | Error _ as e -> e)
  in
  go [] specs

let workload_file_arg =
  let doc =
    "Load the workload from a SQL script file (semicolon-terminated SELECT \
     statements, optional '-- freq: N' annotations) instead of generating \
     one."
  in
  Arg.(value & opt (some string) None & info [ "f"; "workload-file" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "After the command finishes, print the process metrics registry \
     (counters, gauges, latency percentiles) in its stable dump order."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* A flag whose value must parse with [parse] and satisfy [ok]; [None]
   when absent (only an optional flag can be). Anything else —
   unparseable, nan, out of range — is a one-line error and exit 2,
   like every other bad input, instead of cmdliner's multi-line usage
   error. *)
let checked_arg ?(short = []) ?(required = false) ?absent ~long ~docv ~expect
    parse ok ~doc =
  let check = function
    | None -> None
    | Some s ->
      (match parse s with
       | Some v when ok v -> Some v
       | Some _ | None ->
         or_die
           (Error
              (Printf.sprintf "--%s: %s must be %s, got %S" long docv expect s)))
  in
  let names = Arg.info (short @ [ long ]) ?absent ~docv ~doc in
  let raw =
    if required then
      Term.(const Option.some $ Arg.(required & opt (some string) None names))
    else Arg.(value & opt (some string) None names)
  in
  Term.(const check $ raw)

(* A page count: an integer >= 0. *)
let pages_arg ?required ?absent doc =
  checked_arg ~short:[ "b" ] ?required ?absent ~long:"budget" ~docv:"PAGES"
    ~expect:"an integer >= 0" int_of_string_opt (fun n -> n >= 0) ~doc

(* A checked flag with a default: [absent] is both the documented and
   the parsed default. *)
let defaulted_arg ?short ~long ~docv ~expect ~absent parse ok ~doc =
  Term.(
    const (fun v -> Option.value v ~default:(Option.get (parse absent)))
    $ checked_arg ?short ~absent ~long ~docv ~expect parse ok ~doc)

let positive_int_arg ?short ~long ~docv ~absent doc =
  defaulted_arg ?short ~long ~docv ~expect:"an integer >= 1" ~absent
    int_of_string_opt (fun n -> n >= 1) ~doc

let sf_arg =
  defaulted_arg ~long:"sf" ~docv:"SF" ~expect:"finite and > 0" ~absent:"0.004"
    float_of_string_opt
    (fun v -> Float.is_finite v && v > 0.)
    ~doc:"TPC-D scale factor (ignored for synthetic databases)."

let initial_arg =
  defaulted_arg ~short:[ "n" ] ~long:"initial" ~docv:"N"
    ~expect:"an integer >= 0" ~absent:"0" int_of_string_opt
    (fun n -> n >= 0)
    ~doc:
      "Size of the initial configuration built by random per-query tuning; 0 \
       tunes every query and takes the union."

let constraint_arg =
  defaulted_arg ~short:[ "c" ] ~long:"constraint" ~docv:"FRACTION"
    ~expect:"finite and >= 0" ~absent:"0.10" float_of_string_opt
    (fun v -> Float.is_finite v && v >= 0.)
    ~doc:"Cost constraint: allowed relative workload-cost increase."

let queries_arg =
  positive_int_arg ~short:[ "q" ] ~long:"queries" ~docv:"N" ~absent:"30"
    "Number of generated queries (complex/projection workloads)."

let compress_arg =
  let doc =
    "Compress the workload before tuning: statements bucket by \
     physical-design signature under deviation budget $(docv) (a \
     finite fraction >= 0; 0 folds only canonically identical \
     statements and keeps results bit-identical on duplicate-free \
     workloads). Reported costs refer to the compressed workload, \
     within the printed bound."
  in
  checked_arg ~long:"compress" ~docv:"EPS" ~expect:"finite and >= 0"
    float_of_string_opt
    (fun v -> Float.is_finite v && v >= 0.)
    ~doc

let prune_support_arg =
  let doc =
    "Prune merge candidates against the workload's frequent column sets: \
     mine per-table column-set supports from the statement stream and \
     keep only merge pairs whose merged column set carries at least \
     fraction $(docv) (in [0, 1]) of the workload mass (plus the \
     always-kept containment and no-evidence survivors). 0 or unset \
     disables pruning and is bit-identical to not passing the flag."
  in
  checked_arg ~long:"prune-support" ~docv:"S" ~expect:"in [0, 1]"
    float_of_string_opt
    (fun v -> v >= 0. && v <= 1.)
    ~doc

let maybe_dump_metrics enabled =
  if enabled then begin
    print_endline "-- metrics --";
    print_string (Im_obs.Metrics.dump ())
  end

(* ---- Construction helpers ---- *)

(* The compaction note [merge] appends to its summary and [tune] prints
   on its own line. *)
let compaction_note c =
  let st = Im_scale.Scale.stats c in
  Printf.sprintf
    "compressed %d -> %d statements (%.1fx, bound eps %.4g of budget %g)"
    st.Im_scale.Scale.st_statements st.Im_scale.Scale.st_buckets
    (Im_scale.Scale.fold_ratio st)
    st.Im_scale.Scale.st_eps_bound st.Im_scale.Scale.st_eps_budget

let note f = Option.fold ~none:"" ~some:f

let build_database ?schema_file ?data_dir name sf seed =
  match String.lowercase_ascii name with
  | "tpcd" | "tpc-d" -> Ok (Im_workload.Tpcd.database ~sf ~seed ())
  | "synthetic1" ->
    Ok (Im_workload.Synthetic.database ~seed Im_workload.Synthetic.synthetic1)
  | "synthetic2" ->
    Ok (Im_workload.Synthetic.database ~seed Im_workload.Synthetic.synthetic2)
  | "csv" ->
    (match (schema_file, data_dir) with
     | Some schema_file, Some data_dir ->
       Im_io.Loader.load ~schema_file ~data_dir
     | _ -> Error "-d csv requires --schema FILE and --data DIR")
  | other -> Error (Printf.sprintf "unknown database %S" other)

let build_workload ?file db kind n seed =
  match file with
  | Some path -> Im_workload.Workload_file.load ~schema:(Database.schema db) path
  | None ->
    let rng = Im_util.Rng.create ((seed * 7) + 3) in
    (match String.lowercase_ascii kind with
     | "complex" -> Ok (Im_workload.Ragsgen.generate db ~rng ~n)
     | "projection" -> Ok (Im_workload.Projgen.generate db ~rng ~n)
     | "tpcd17" ->
       if Schema.mem_table (Database.schema db) "lineitem" then
         Ok (Im_workload.Tpcd_queries.workload ())
       else Error "tpcd17 workload requires the tpcd database"
     | other -> Error (Printf.sprintf "unknown workload %S" other))

let build_initial db workload n seed =
  if n <= 0 then Im_tuning.Initial_config.per_query_union db workload
  else
    Im_tuning.Initial_config.build db workload
      ~rng:(Im_util.Rng.create ((seed * 13) + 5))
      ~n

let parse_cost_model = function
  | "optimizer" -> Ok Cost_eval.Optimizer_estimated
  | "external" -> Ok Cost_eval.External
  | "nocost" | "no-cost" -> Ok Cost_eval.default_no_cost
  | other -> Error (Printf.sprintf "unknown cost model %S" other)

let parse_merge_pair = function
  | "cost" -> Ok Merge_pair.Cost_based
  | "syntactic" -> Ok Merge_pair.Syntactic
  | "exhaustive" -> Ok (Merge_pair.Exhaustive { perm_limit = 720 })
  | other -> Error (Printf.sprintf "unknown merge-pair procedure %S" other)

let parse_strategy = function
  | "greedy" -> Ok Search.Greedy
  | "exhaustive" -> Ok (Search.Exhaustive_search { config_limit = 100_000 })
  | other -> Error (Printf.sprintf "unknown strategy %S" other)

(* ---- info ---- *)

let run_info db_name sf seed schema_file data_dir =
  let db = or_die (build_database ?schema_file ?data_dir db_name sf seed) in
  let schema = Database.schema db in
  Printf.printf "database %s: %d tables, %d data pages\n" db_name
    (List.length schema.Schema.tables)
    (Database.data_pages db);
  List.iter
    (fun (t : Schema.table) ->
      Printf.printf "  %-12s %8d rows  %6d pages  %3d columns  row width %d\n"
        t.Schema.tbl_name
        (Database.row_count db t.Schema.tbl_name)
        (Database.table_pages db t.Schema.tbl_name)
        (List.length t.Schema.tbl_columns)
        (Schema.row_width t))
    schema.Schema.tables

let info_cmd =
  Cmd.v
    (Cmd.info "info" ~doc:"Describe a generated database.")
    Term.(const run_info $ db_arg $ sf_arg $ seed_arg $ schema_arg $ data_arg)

(* ---- tune ---- *)

let run_tune db_name sf seed wl_kind n_queries file compress prune_support
    schema_file data_dir metrics =
  let db = or_die (build_database ?schema_file ?data_dir db_name sf seed) in
  let workload = or_die (build_workload ?file db wl_kind n_queries seed) in
  (* One deriving what-if service answers every greedy probe across all
     queries. *)
  let svc = Im_costsvc.Service.create ~derive:true db in
  let workload, compactor, prune =
    Im_scale.Scale.prepare ?compress ?prune_support svc workload
  in
  Option.iter (fun c -> print_endline (compaction_note c)) compactor;
  let tuned =
    List.map
      (fun q ->
        ( q,
          Im_tuning.Wizard.tune_query
            ~query_cost:(Im_costsvc.Service.query_cost svc)
            db q ))
      (Workload.queries workload)
  in
  (* Frontier filter: drop recommendations whose column set has workload
     evidence but falls below the support threshold — infrequent shapes
     the merge phase would not keep either. *)
  let tuned =
    match prune with
    | None -> tuned
    | Some fr ->
      let before = List.fold_left (fun n (_, r) -> n + List.length r) 0 tuned in
      let tuned =
        List.map
          (fun (q, recommended) ->
            (q, List.filter (Im_mine.Mine.keep_index fr) recommended))
          tuned
      in
      let after = List.fold_left (fun n (_, r) -> n + List.length r) 0 tuned in
      let st = Im_mine.Mine.frontier_stats fr in
      Printf.printf
        "frontier pruning: dropped %d of %d recommendations (support %g, %d \
         itemsets, %d supported tables)\n"
        (before - after) before st.Im_mine.Mine.fs_support
        st.Im_mine.Mine.fs_itemsets st.Im_mine.Mine.fs_supported_tables;
      tuned
  in
  List.iter
    (fun (q, recommended) ->
      Printf.printf "%s: %s\n" q.Im_sqlir.Query.q_id (Im_sqlir.Query.to_sql q);
      if recommended = [] then print_endline "  (no index recommended)"
      else
        List.iter
          (fun ix ->
            Printf.printf "  recommend %s (%d pages)\n" (Index.to_string ix)
              (Database.index_pages db ix))
          recommended)
    tuned;
  maybe_dump_metrics metrics

let tune_cmd =
  Cmd.v
    (Cmd.info "tune" ~doc:"Per-query index recommendations.")
    Term.(
      const run_tune $ db_arg $ sf_arg $ seed_arg $ workload_arg $ queries_arg
      $ workload_file_arg $ compress_arg $ prune_support_arg $ schema_arg
      $ data_arg $ metrics_arg)

(* ---- merge ---- *)

let run_merge db_name sf seed wl_kind n_queries n_initial constraint_ cost_model
    merge_pair strategy file updates compress prune_support schema_file data_dir
    metrics =
  let db = or_die (build_database ?schema_file ?data_dir db_name sf seed) in
  let workload = or_die (build_workload ?file db wl_kind n_queries seed) in
  let workload =
    match or_die (parse_updates updates) with
    | [] -> workload
    | profile -> Workload.with_updates workload profile
  in
  let cost_model = or_die (parse_cost_model cost_model) in
  let merge_pair = or_die (parse_merge_pair merge_pair) in
  let strategy = or_die (parse_strategy strategy) in
  let initial = build_initial db workload n_initial seed in
  Printf.printf "initial configuration (%d indexes, %d pages):\n"
    (List.length initial)
    (Database.config_storage_pages db initial);
  List.iter (fun ix -> Printf.printf "  %s\n" (Index.to_string ix)) initial;
  let service = Cost_eval.default_service db in
  let tuned, compactor, prune =
    Im_scale.Scale.prepare ?compress ?prune_support service workload
  in
  let outcome =
    Search.run ~service ~merge_pair ~cost_model ~cost_constraint:constraint_
      ?prune db tuned ~initial strategy
  in
  let pruning fr =
    let st = Im_mine.Mine.frontier_stats fr in
    Printf.sprintf
      "; pruned %d/%d pair candidates (support %g, %d itemsets, %d \
       supported tables)"
      st.Im_mine.Mine.fs_pruned
      (st.Im_mine.Mine.fs_pruned + st.Im_mine.Mine.fs_kept)
      st.Im_mine.Mine.fs_support st.Im_mine.Mine.fs_itemsets
      st.Im_mine.Mine.fs_supported_tables
  in
  print_newline ();
  print_endline
    (Im_merging.Report.summary outcome
    ^ note (fun c -> "; " ^ compaction_note c) compactor
    ^ note pruning prune);
  print_endline "merged configuration:";
  print_endline (Im_merging.Report.configuration_listing outcome);
  maybe_dump_metrics metrics

let merge_cmd =
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Run storage-minimal index merging over a workload (the paper's \
          main algorithm).")
    Term.(
      const run_merge $ db_arg $ sf_arg $ seed_arg $ workload_arg $ queries_arg
      $ initial_arg $ constraint_arg $ cost_model_arg $ merge_pair_arg
      $ strategy_arg $ workload_file_arg $ updates_arg $ compress_arg
      $ prune_support_arg $ schema_arg $ data_arg $ metrics_arg)

(* ---- explain ---- *)

let run_explain db_name sf seed wl_kind n_queries n_initial file schema_file
    data_dir metrics =
  let db = or_die (build_database ?schema_file ?data_dir db_name sf seed) in
  let workload = or_die (build_workload ?file db wl_kind n_queries seed) in
  let config = build_initial db workload n_initial seed in
  Printf.printf "configuration: %d indexes\n\n" (List.length config);
  List.iter
    (fun q ->
      print_string
        (Im_optimizer.Plan.explain (Im_optimizer.Optimizer.optimize db config q));
      print_newline ())
    (Workload.queries workload);
  maybe_dump_metrics metrics

let explain_cmd =
  Cmd.v
    (Cmd.info "explain" ~doc:"Show optimizer plans for the workload.")
    Term.(
      const run_explain $ db_arg $ sf_arg $ seed_arg $ workload_arg
      $ queries_arg $ initial_arg $ workload_file_arg $ schema_arg $ data_arg
      $ metrics_arg)

(* ---- advise ---- *)

let budget_arg =
  let doc = "Storage budget for the recommendation, in pages." in
  Term.(const Option.get $ pages_arg ~required:true doc)

let run_advise db_name sf seed wl_kind n_queries file compress prune_support
    budget schema_file data_dir metrics =
  let db = or_die (build_database ?schema_file ?data_dir db_name sf seed) in
  let workload = or_die (build_workload ?file db wl_kind n_queries seed) in
  let service = Cost_eval.default_service db in
  let tuned, compactor, prune =
    Im_scale.Scale.prepare ?compress ?prune_support service workload
  in
  let outcome =
    Im_advisor.Advisor.advise ~service ?prune db tuned ~budget_pages:budget
  in
  let compaction c =
    let st = Im_scale.Scale.stats c in
    Printf.sprintf "; compressed %d -> %d statements (bound eps %.4g)"
      st.Im_scale.Scale.st_statements st.Im_scale.Scale.st_buckets
      st.Im_scale.Scale.st_eps_bound
  in
  let pruning fr =
    let st = Im_mine.Mine.frontier_stats fr in
    Printf.sprintf "; pruned %d/%d pair candidates (support %g, %d itemsets)"
      st.Im_mine.Mine.fs_pruned
      (st.Im_mine.Mine.fs_pruned + st.Im_mine.Mine.fs_kept)
      st.Im_mine.Mine.fs_support st.Im_mine.Mine.fs_itemsets
  in
  print_endline
    (Im_advisor.Advisor.summary outcome
    ^ note compaction compactor
    ^ note pruning prune);
  print_endline "recommended configuration:";
  List.iter
    (fun (it : Im_merging.Merge.item) ->
      Printf.printf "  %s (%d pages)\n"
        (Index.to_string it.Im_merging.Merge.it_index)
        (Database.index_pages db it.Im_merging.Merge.it_index))
    outcome.Im_advisor.Advisor.a_final;
  maybe_dump_metrics metrics

let advise_cmd =
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Recommend indexes for a workload under a storage budget \
          (selection with an integrated merging phase).")
    Term.(
      const run_advise $ db_arg $ sf_arg $ seed_arg $ workload_arg
      $ queries_arg $ workload_file_arg $ compress_arg $ prune_support_arg
      $ budget_arg $ schema_arg $ data_arg $ metrics_arg)

(* ---- serve ---- *)

let port_arg =
  let doc = "TCP port to listen on; 0 picks an ephemeral port." in
  Arg.(value & opt int 7399 & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let serve_budget_arg =
  let doc =
    "Storage budget (pages) for every tuning epoch; 0 means half the \
     database's data pages."
  in
  Term.(const (Option.value ~default:0) $ pages_arg ~absent:"0" doc)

let threshold_arg ~long ~docv ~absent doc =
  defaulted_arg ~long ~docv ~expect:"finite and >= 0" ~absent
    float_of_string_opt
    (fun v -> Float.is_finite v && v >= 0.)
    ~doc

let window_arg =
  positive_int_arg ~long:"window" ~docv:"CLUSTERS" ~absent:"48"
    "Sliding-window capacity in query clusters."

let decay_arg =
  defaulted_arg ~long:"decay" ~docv:"FACTOR" ~expect:"in (0, 1]"
    ~absent:"0.995" float_of_string_opt
    (fun d -> d > 0. && d <= 1.)
    ~doc:"Per-statement frequency decay of the window (0 < d <= 1)."

let check_every_arg =
  positive_int_arg ~long:"check-every" ~docv:"N" ~absent:"32"
    "Statements between drift checks."

let drift_threshold_arg =
  threshold_arg ~long:"drift-threshold" ~docv:"TV" ~absent:"0.35"
    "Drift trigger: total-variation divergence of the query mix."

let cost_threshold_arg =
  threshold_arg ~long:"cost-threshold" ~docv:"FRACTION" ~absent:"0.3"
    "Drift trigger: relative cost regression of the window."

let read_timeout_arg =
  defaulted_arg ~long:"read-timeout" ~docv:"SECONDS" ~expect:"finite and > 0"
    ~absent:"30." float_of_string_opt
    (fun v -> Float.is_finite v && v > 0.)
    ~doc:"Idle-connection read timeout in seconds."

let max_connections_arg =
  positive_int_arg ~long:"max-connections" ~docv:"N" ~absent:"64"
    "Global cap on concurrent connections."

let max_tenant_connections_arg =
  defaulted_arg ~long:"max-tenant-connections" ~docv:"N"
    ~expect:"an integer >= 0" ~absent:"0" int_of_string_opt
    (fun n -> n >= 0)
    ~doc:
      "Per-tenant cap on concurrent connections (0 = same as \
       --max-connections)."

let max_output_bytes_arg =
  positive_int_arg ~long:"max-output-bytes" ~docv:"BYTES" ~absent:"1048576"
    "Per-connection output-queue byte cap; a slow reader whose queue \
     would exceed it is closed (backpressure) instead of buffering \
     unboundedly."

let tenant_arg =
  let doc =
    "Pre-create an extra tenant session at startup: NAME, NAME=DB, or \
     NAME[=DB]:WEIGHT (DB one of tpcd/synthetic1/synthetic2, default \
     NAME; WEIGHT a dispatch-fairness multiplier from 1 to 1000000, \
     default 1 — a weight-3 tenant gets three times the per-round \
     command budget). Repeatable. The -d database becomes the default tenant, named \
     after it, at weight 1."
  in
  Arg.(
    value & opt_all string [] & info [ "tenant" ] ~docv:"NAME[=DB][:WEIGHT]" ~doc)

(* NAME[=DB][:WEIGHT]; the weight suffix is split off first (rightmost
   ':'), then the db spec. Database names never contain ':', so a colon
   with a non-numeric tail is a user error, not part of the spec. *)
let parse_tenant_spec spec =
  let split_db s =
    match String.index_opt s '=' with
    | None -> (s, s)
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  match String.rindex_opt spec ':' with
  | None ->
    let name, dbspec = split_db spec in
    Ok (name, dbspec, 1)
  | Some i ->
    let tail = String.sub spec (i + 1) (String.length spec - i - 1) in
    (match int_of_string_opt tail with
     | Some w when w >= 1 && w <= Im_online.Protocol.max_weight ->
       let name, dbspec = split_db (String.sub spec 0 i) in
       Ok (name, dbspec, w)
     | Some w ->
       Error
         (Printf.sprintf "weight must be in [1, %d], got %d"
            Im_online.Protocol.max_weight w)
     | None -> Error (Printf.sprintf "bad weight %S (expected an integer)" tail))

let run_serve db_name sf seed schema_file data_dir port budget window decay
    check_every drift_threshold cost_threshold compress prune_support
    read_timeout max_connections max_tenant_connections max_output_bytes
    tenant_specs metrics =
  (* Every tenant session is built the same way: database by name and
     the serve options from the flags. *)
  let make_service db =
    let budget_pages =
      if budget > 0 then budget else max 1 (Database.data_pages db / 2)
    in
    let options =
      {
        (Im_online.Service.default_options ~budget_pages) with
        Im_online.Service.o_capacity = window;
        o_decay = decay;
        o_check_every = check_every;
        o_div_threshold = drift_threshold;
        o_cost_threshold = cost_threshold;
        o_compress = compress;
        o_prune_support = prune_support;
      }
    in
    Im_online.Service.create ~options db ~budget_pages
  in
  let factory dbspec =
    (* TENANT CREATE resolves only generated databases: csv needs
       --schema/--data paths that a remote client cannot name. *)
    match String.lowercase_ascii dbspec with
    | "csv" -> Error "tenant databases must be generated (tpcd/synthetic*)"
    | _ -> Result.map make_service (build_database dbspec sf seed)
  in
  let db = or_die (build_database ?schema_file ?data_dir db_name sf seed) in
  let budget_pages =
    if budget > 0 then budget else max 1 (Database.data_pages db / 2)
  in
  let service = make_service db in
  let tenants =
    List.map
      (fun spec ->
        let die msg = or_die (Error (Printf.sprintf "--tenant %s: %s" spec msg)) in
        let name, dbspec, weight =
          match parse_tenant_spec spec with Ok v -> v | Error msg -> die msg
        in
        match factory dbspec with
        | Ok svc -> (name, weight, svc)
        | Error msg -> die msg)
      tenant_specs
  in
  let server =
    try
      Im_online.Server.create ~port ~read_timeout ~max_connections
        ~max_tenant_connections ~max_output_bytes ~factory
        ((db_name, 1, service) :: tenants)
    with
    | Unix.Unix_error (e, _, _) ->
      or_die (Error (Printf.sprintf "cannot bind port %d: %s" port
                       (Unix.error_message e)))
    | Invalid_argument msg -> or_die (Error msg)
  in
  Printf.printf "index-merge serve: listening on 127.0.0.1:%d (budget %d \
                 pages, window %d clusters)\n%!"
    (Im_online.Server.port server) budget_pages window;
  Printf.printf "tenants: %s (max %d connections, %d per tenant, %d \
                 output bytes)\n%!"
    (String.concat " " (Im_online.Server.tenants server))
    max_connections
    (if max_tenant_connections > 0 then max_tenant_connections
     else max_connections)
    max_output_bytes;
  let handle_stop _ = Im_online.Server.shutdown server in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle handle_stop));
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle handle_stop));
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  Im_online.Server.serve server;
  Printf.printf "served %d connections, %d commands\n"
    (Im_online.Server.connections_served server)
    (Im_online.Server.commands_served server);
  print_endline (Im_online.Service.render_stats service);
  maybe_dump_metrics metrics

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the online index-tuning daemon: stream statements over TCP, \
          re-tune on workload drift, one session per tenant database.")
    Term.(
      const run_serve $ db_arg $ sf_arg $ seed_arg $ schema_arg $ data_arg
      $ port_arg $ serve_budget_arg $ window_arg $ decay_arg $ check_every_arg
      $ drift_threshold_arg $ cost_threshold_arg $ compress_arg
      $ prune_support_arg $ read_timeout_arg $ max_connections_arg
      $ max_tenant_connections_arg
      $ max_output_bytes_arg $ tenant_arg $ metrics_arg)

(* ---- generate ---- *)

let run_generate db_name sf seed wl_kind n_queries out =
  let db = or_die (build_database db_name sf seed) in
  let workload = or_die (build_workload db wl_kind n_queries seed) in
  Im_workload.Workload_file.save workload out;
  Printf.printf "wrote %d statements to %s\n" (Workload.size workload) out

let out_arg =
  let doc = "Output file for the generated workload." in
  Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let generate_cmd =
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate a workload and write it as a SQL script file.")
    Term.(
      const run_generate $ db_arg $ sf_arg $ seed_arg $ workload_arg
      $ queries_arg $ out_arg)

(* ---- export ---- *)

let run_export db_name sf seed out_schema out_dir =
  let db = or_die (build_database db_name sf seed) in
  if not (Sys.file_exists out_dir && Sys.is_directory out_dir) then
    Sys.mkdir out_dir 0o755;
  Im_io.Loader.dump db ~schema_file:out_schema ~data_dir:out_dir;
  Printf.printf "wrote %s and CSVs under %s\n" out_schema out_dir

let out_schema_arg =
  let doc = "Output DDL schema file." in
  Arg.(
    required & opt (some string) None & info [ "out-schema" ] ~docv:"FILE" ~doc)

let out_dir_arg =
  let doc = "Output directory for the <table>.csv files (created if absent)." in
  Arg.(required & opt (some string) None & info [ "out-data" ] ~docv:"DIR" ~doc)

let export_cmd =
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export a generated database as DDL + CSV files (the -d csv \
             input format).")
    Term.(
      const run_export $ db_arg $ sf_arg $ seed_arg $ out_schema_arg
      $ out_dir_arg)

let () =
  let doc = "index merging for workload-driven physical database design" in
  let info = Cmd.info "index-merge" ~version ~doc in
  let group =
    Cmd.group info
      [
        info_cmd; tune_cmd; merge_cmd; explain_cmd; generate_cmd; advise_cmd;
        export_cmd; serve_cmd;
      ]
  in
  (* File problems anywhere (unreadable --schema/--data/workload files,
     unwritable outputs) must be a one-line error and a non-zero exit,
     never a cmdliner "internal error" backtrace. *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Sys_error msg ->
    prerr_endline ("index-merge: " ^ msg);
    exit 2
  | exception Unix.Unix_error (e, fn, arg) ->
    prerr_endline
      (Printf.sprintf "index-merge: %s: %s%s" fn (Unix.error_message e)
         (if arg = "" then "" else " (" ^ arg ^ ")"));
    exit 2
