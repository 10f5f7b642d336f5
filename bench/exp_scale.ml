(* EXP-SCALE — workload compression and compressed-workload scoring at
   100k-statement scale.

   Three parts:

   1. Offline streaming: N statements (IM_SCALE_N, default 100,000)
      drawn from a pool of distinct ragsgen queries are written to a
      SQL script and streamed back through [Workload_file.fold] into
      the [Im_scale.Scale] compactor — one pass, no materialized
      workload. Hard asserts: the measured deviation
      |Cost(W,C) - Cost(Ŵ,C)| on reference configurations is within
      the compactor's reported bound, the bound is within the ε
      budget, and the optimizer-invocation count stays sublinear in N.
      At N >= 100k the compression ratio must clear 50x.

   2. Online: the same statement stream is fed to the online tuning
      service with [o_compress] set, so every epoch tunes a compressed
      window; reports tuning latency and the daemon-visible scale
      stats.

   3. ε = 0 identity: on the fig5/6 setups (three databases, greedy
      and exhaustive, N = 5 initial configurations), [--compress 0]
      must reproduce the uncompressed merged configuration exactly
      (items, pages, cost) — hard-asserted.

   JSON artifact to $IM_BENCH_OUT (default BENCH_scale.json) for
   dev-check. *)

module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Query = Im_sqlir.Query
module Workload = Im_workload.Workload
module Workload_file = Im_workload.Workload_file
module Scale = Im_scale.Scale
module Service = Im_costsvc.Service
module Search = Im_merging.Search
module Cost_eval = Im_merging.Cost_eval
module Merge = Im_merging.Merge
module Optimizer = Im_optimizer.Optimizer

let statements_n =
  match Sys.getenv_opt "IM_SCALE_N" with
  | Some s when s <> "" -> int_of_string s
  | _ -> 100_000

(* The 1M intake rung (IM_SCALE_N=1000000) is proven by the offline
   streaming leg; the online leg replays at most 100k of the same
   stream — its intake microbenchmark scales linearly and the epoch
   cadence above 100k adds wall clock without new information. *)
let online_n = min statements_n 100_000

let eps = 0.05
let pool_size = 60
let min_ratio = 50.0

(* ---- Part 1: offline streaming compression ---- *)

(* The statement stream: a pool of distinct ragsgen queries replayed
   [statements_n] times with a skewed deterministic pick — the shape of
   a production log, where a bounded set of templates dominates. *)
let stream_pool db =
  Array.of_list
    (Workload.queries
       (Im_workload.Ragsgen.generate db ~rng:(Im_util.Rng.create 7)
          ~n:pool_size))

let pick rng n =
  (* Mild skew: half the mass on the first quarter of the pool. *)
  let quarter = max 1 (n / 4) in
  if Im_util.Rng.int rng 2 = 0 then Im_util.Rng.int rng quarter
  else Im_util.Rng.int rng n

(* Shift every integer literal in [sql] by [delta], leaving identifiers
   (which embed digits, e.g. t0_c15) untouched: same template, different
   constants — the near-duplicates a production log is full of, and the
   case the compactor's deviation bound exists for. *)
let mutate_constants ~delta sql =
  let n = String.length sql in
  let buf = Buffer.create (n + 8) in
  let is_ident c =
    c = '_'
    || (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
  in
  let i = ref 0 in
  let prev_ident = ref false in
  while !i < n do
    let c = sql.[!i] in
    if c >= '0' && c <= '9' && not !prev_ident then begin
      let j = ref !i in
      while !j < n && sql.[!j] >= '0' && sql.[!j] <= '9' do
        incr j
      done;
      let lit = String.sub sql !i (!j - !i) in
      (match int_of_string_opt lit with
       | Some v -> Buffer.add_string buf (string_of_int (v + delta))
       | None -> Buffer.add_string buf lit);
      prev_ident := true;
      i := !j
    end
    else begin
      Buffer.add_char buf c;
      prev_ident := is_ident c;
      incr i
    end
  done;
  Buffer.contents buf

(* The k-th statement of the deterministic stream: a pool pick with a
   small constant shift (shift 0 = an exact duplicate). *)
let next_statement rng texts =
  let sql = texts.(pick rng (Array.length texts)) in
  match Im_util.Rng.int rng 8 with
  | 0 -> sql
  | delta -> mutate_constants ~delta sql

let write_stream pool path =
  let rng = Im_util.Rng.create 99 in
  let texts = Array.map Query.to_sql pool in
  let oc = open_out path in
  for _ = 1 to statements_n do
    output_string oc (next_statement rng texts);
    output_string oc ";\n"
  done;
  close_out oc

let reference_configs db pool =
  let w = Workload.make (Array.to_list pool) in
  [
    ("empty", Config.empty);
    ("initial-8", Im_tuning.Initial_config.build db w
       ~rng:(Im_util.Rng.create 3) ~n:8);
    ("union", Im_tuning.Initial_config.per_query_union db w);
  ]

let run_offline db =
  let pool = stream_pool db in
  let path = Filename.temp_file "im_scale_stream" ".sql" in
  write_stream pool path;
  let svc = Service.create ~derive:true db in
  let compactor = Scale.create ~eps svc in
  (* Exact per-distinct counts, so Cost(W,C) is computable without
     materializing the 100k-entry workload. *)
  let counts : (string, int * Query.t) Hashtbl.t = Hashtbl.create 256 in
  let invocations_before = Optimizer.invocations () in
  let streamed, stream_s =
    Im_util.Stopwatch.time (fun () ->
        match
          Workload_file.fold ~schema:(Database.schema db) path ~init:0
            ~f:(fun n q freq ->
              Scale.observe compactor ?freq q;
              let id = q.Query.q_canon in
              (match Hashtbl.find_opt counts id with
               | Some (c, rep) -> Hashtbl.replace counts id (c + 1, rep)
               | None -> Hashtbl.add counts id (1, q));
              n + 1)
        with
        | Ok n -> n
        | Error m -> failwith ("EXP-SCALE: stream failed: " ^ m))
  in
  Sys.remove path;
  if streamed <> statements_n then
    failwith
      (Printf.sprintf "EXP-SCALE: streamed %d statements, expected %d"
         streamed statements_n);
  let st = Scale.stats compactor in
  let ratio = Scale.fold_ratio st in
  if st.Scale.st_eps_bound > eps +. 1e-12 then
    failwith
      (Printf.sprintf "EXP-SCALE: reported bound %.6f exceeds budget %g"
         st.Scale.st_eps_bound eps);
  if statements_n >= 100_000 && ratio < min_ratio then
    failwith
      (Printf.sprintf
         "EXP-SCALE: compression ratio %.1fx below the %.0fx acceptance bar"
         ratio min_ratio);
  (* Exact vs compressed costs on the reference configurations. *)
  let refs = reference_configs db pool in
  let exact_cost config =
    Hashtbl.fold
      (fun _ (c, q) acc ->
        acc +. (float_of_int c *. Service.query_cost svc config q))
      counts 0.
  in
  let scores, score_s =
    Im_util.Stopwatch.time (fun () ->
        let snap = Scale.snapshot compactor in
        Array.of_list
          (List.map (fun (_, c) -> Service.workload_cost svc c snap) refs))
  in
  let max_dev = ref 0. in
  List.iteri
    (fun i (cname, config) ->
      let exact = exact_cost config in
      let approx = scores.(i) in
      let dev = Float.abs (approx -. exact) in
      if exact > 0. then max_dev := Float.max !max_dev (dev /. exact);
      if dev > (st.Scale.st_eps_bound *. exact) +. 1e-6 then
        failwith
          (Printf.sprintf
             "EXP-SCALE: %s: deviation %.6f exceeds bound %.6f of exact \
              cost %.1f"
             cname (dev /. exact) st.Scale.st_eps_bound exact))
    refs;
  let invocations = Optimizer.invocations () - invocations_before in
  let invocation_bar = max (statements_n / 10) 2_000 in
  if invocations > invocation_bar then
    failwith
      (Printf.sprintf
         "EXP-SCALE: %d optimizer invocations for %d statements is not \
          sublinear (bar %d)"
         invocations statements_n invocation_bar);
  Exp_common.print_table ~title:"Offline streaming compression (Synthetic1)"
    ~header:[ "statements"; "buckets"; "ratio"; "eps bound"; "max dev";
              "opt calls"; "stream s"; "score s" ]
    ~rows:
      [
        [
          string_of_int streamed;
          string_of_int st.Scale.st_buckets;
          Printf.sprintf "%.1fx" ratio;
          Printf.sprintf "%.5f" st.Scale.st_eps_bound;
          Printf.sprintf "%.5f" !max_dev;
          string_of_int invocations;
          Printf.sprintf "%.2f" stream_s;
          Printf.sprintf "%.2f" score_s;
        ];
      ];
  (streamed, st, ratio, !max_dev, invocations, invocation_bar, stream_s,
   score_s)

(* ---- Part 2: the online service with a compressed window ---- *)

let run_online db =
  let pool = stream_pool db in
  let texts = Array.map Query.to_sql pool in
  let budget_pages = max 1 (Database.data_pages db / 2) in
  let options =
    {
      (Im_online.Service.default_options ~budget_pages) with
      Im_online.Service.o_capacity = 64;
      o_check_every = max 500 (online_n / 20);
      o_warmup = max 100 (online_n / 100);
      o_compress = Some eps;
    }
  in
  let service = Im_online.Service.create ~options db ~budget_pages in
  let rng = Im_util.Rng.create 99 in
  let fed = ref [] in
  let (), feed_s =
    Im_util.Stopwatch.time (fun () ->
        for _ = 1 to online_n do
          match Im_online.Service.feed service (next_statement rng texts) with
          | Im_online.Service.Rejected m ->
            failwith ("EXP-SCALE: online reject: " ^ m)
          | Im_online.Service.Observed { ev_epoch; _ } ->
            Option.iter (fun o -> fed := o :: !fed) ev_epoch
        done)
  in
  let epochs =
    (* most recent first *)
    match Im_online.Service.force_epoch service with
    | Ok o -> o :: !fed
    | Error m -> failwith ("EXP-SCALE: forced epoch failed: " ^ m)
  in
  let n_epochs = List.length epochs in
  let epoch_s =
    Im_util.List_ext.sum_by_f
      (fun (o : Im_online.Epoch.outcome) -> o.Im_online.Epoch.e_elapsed_s)
      epochs
  in
  let last_scale =
    match
      List.find_map
        (fun (o : Im_online.Epoch.outcome) -> o.Im_online.Epoch.e_scale)
        epochs
    with
    | Some st -> st
    | None -> failwith "EXP-SCALE: no epoch carried compactor stats"
  in
  Exp_common.print_table
    ~title:"Online tuning over a compressed window (Synthetic1)"
    ~header:[ "statements"; "epochs"; "tuning s"; "s/epoch"; "intake s";
              "last buckets"; "last eps bound" ]
    ~rows:
      [
        [
          string_of_int (Im_online.Service.statements service);
          string_of_int n_epochs;
          Printf.sprintf "%.2f" epoch_s;
          Printf.sprintf "%.3f" (epoch_s /. float_of_int (max 1 n_epochs));
          Printf.sprintf "%.2f" feed_s;
          string_of_int last_scale.Scale.st_buckets;
          Printf.sprintf "%.5f" last_scale.Scale.st_eps_bound;
        ];
      ];
  (n_epochs, epoch_s, feed_s, last_scale)

(* ---- Part 3: ε = 0 identity on the fig5/6 setups ---- *)

let fingerprint items =
  String.concat "; "
    (List.map
       (fun (it : Merge.item) ->
         Printf.sprintf "%s<-[%s]"
           (Index.to_string it.Merge.it_index)
           (String.concat ", " (List.map Index.to_string it.Merge.it_parents)))
       items)

let run_identity () =
  let rows =
    List.concat_map
      (fun (name, db) ->
        let workload = Exp_common.complex_workload db ~n:30 ~seed:1 in
        let initial = Exp_common.initial_config db workload ~n:5 ~seed:2 in
        List.map
          (fun (sname, strategy) ->
            let go compress =
              fst
                (Exp_common.prepared_search ?compress
                   ~cost_model:Cost_eval.Optimizer_estimated
                   ~cost_constraint:0.10 db workload ~initial strategy)
            in
            let plain = go None in
            let compressed = go (Some 0.0) in
            if
              not
                (String.equal
                   (fingerprint plain.Search.o_items)
                   (fingerprint compressed.Search.o_items)
                && plain.Search.o_final_pages
                   = compressed.Search.o_final_pages
                && Option.equal Float.equal plain.Search.o_final_cost
                     compressed.Search.o_final_cost)
            then
              failwith
                (Printf.sprintf
                   "EXP-SCALE: %s/%s: --compress 0 diverges from the \
                    uncompressed search (%d vs %d pages; %s vs %s)"
                   name sname plain.Search.o_final_pages
                   compressed.Search.o_final_pages
                   (fingerprint plain.Search.o_items)
                   (fingerprint compressed.Search.o_items));
            [ name; sname;
              string_of_int compressed.Search.o_final_pages; "identical" ])
          [
            ("greedy", Search.Greedy);
            ("exhaustive", Search.Exhaustive_search { config_limit = 100_000 });
          ])
      (Exp_common.databases ())
  in
  Exp_common.print_table
    ~title:"eps = 0 bit-identity on the fig5/6 setups"
    ~header:[ "db"; "strategy"; "pages"; "result" ]
    ~rows

let run () =
  Exp_common.section
    (Printf.sprintf
       "EXP-SCALE workload compression (N = %d, eps = %g)"
       statements_n eps);
  let db = Lazy.force Exp_common.synthetic1 in
  let ( streamed, st, ratio, max_dev, invocations, invocation_bar, stream_s,
        score_s ) =
    run_offline db
  in
  let n_epochs, epoch_s, feed_s, online_scale = run_online db in
  run_identity ();
  let out =
    match Sys.getenv_opt "IM_BENCH_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_scale.json"
  in
  let oc = open_out out in
  output_string oc
    (Printf.sprintf
       "{\n  \"experiment\": \"scale\",\n  \"statements\": %d,\n\
       \  \"eps_budget\": %g,\n  \"buckets\": %d,\n  \"ratio\": %.3f,\n\
       \  \"min_ratio\": %.1f,\n  \"eps_bound\": %.6f,\n\
       \  \"max_rel_deviation\": %.6f,\n  \"exact_folds\": %d,\n\
       \  \"approx_folds\": %d,\n  \"probe_costs\": %d,\n\
       \  \"opt_invocations\": %d,\n  \"opt_invocation_bar\": %d,\n\
       \  \"stream_s\": %.3f,\n  \"stream_us_per_stmt\": %.2f,\n\
       \  \"score_s\": %.3f,\n\
       \  \"online\": {\"statements\": %d, \"epochs\": %d, \"tuning_s\": \
        %.3f, \"intake_s\": %.3f, \"buckets\": %d, \"eps_bound\": %.6f},\n\
       \  \"identity\": \"ok\",\n  \"metrics\": %s\n}\n"
       streamed eps st.Scale.st_buckets ratio min_ratio
       st.Scale.st_eps_bound max_dev st.Scale.st_exact_folds
       st.Scale.st_approx_folds st.Scale.st_probe_costs invocations
       invocation_bar stream_s
       (stream_s /. float_of_int (max 1 streamed) *. 1e6)
       score_s online_n n_epochs epoch_s feed_s
       online_scale.Scale.st_buckets online_scale.Scale.st_eps_bound
       (Im_obs.Metrics.to_json ()));
  close_out oc;
  Printf.printf "\nwrote %s\n" out
