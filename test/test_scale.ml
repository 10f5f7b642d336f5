(* Tests for the scale subsystem: the streaming workload compactor
   (bucketing determinism, ε = 0 exactness and idempotence, mass
   preservation, pinned output on a constant-shifted stream, the
   deviation bound) and the shared compaction/mining prelude. *)

module Scale = Im_scale.Scale
module Service = Im_costsvc.Service
module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Query = Im_sqlir.Query
module Workload = Im_workload.Workload
module Search = Im_merging.Search
module Merge = Im_merging.Merge

let tc = Alcotest.test_case
let bits = Int64.bits_of_float

let sdb =
  lazy (Im_workload.Synthetic.database ~seed:11 Im_workload.Synthetic.synthetic1)

let rags ?(seed = 3) n db =
  Im_workload.Ragsgen.generate db ~rng:(Im_util.Rng.create seed) ~n

(* Replicate a workload's entries [times] over with varying frequencies:
   duplicated statements for the compactor to fold exactly, weighted so
   frequency accounting is exercised too. *)
let replicate ~times (w : Workload.t) =
  Workload.of_entries ~name:"replicated"
    (List.concat
       (List.init times (fun k ->
            List.mapi
              (fun i (e : Workload.entry) ->
                { e with Workload.freq = 1. +. float_of_int ((i + k) mod 3) })
              w.Workload.entries)))

let leaders_and_freqs (w : Workload.t) =
  List.map
    (fun (e : Workload.entry) ->
      (Query.canonical_string e.Workload.query, e.Workload.freq))
    w.Workload.entries

let sorted_leaders w = List.sort compare (leaders_and_freqs w)

(* The compressed workload and stats of [Scale.prepare ~compress]. *)
let compress ~eps svc w =
  match Scale.prepare ~compress:eps svc w with
  | c, Some t, _ -> (c, Scale.stats t)
  | _, None, _ -> Alcotest.fail "prepare ran no compactor"

(* ---- ε = 0: exactness ---- *)

let test_eps0_matches_identical () =
  let db = Lazy.force sdb in
  let w = replicate ~times:3 (rags 10 db) in
  let svc = Service.create ~derive:true db in
  let c, st = compress ~eps:0.0 svc w in
  let reference = Workload.compress_identical w in
  Alcotest.(check int) "same bucket count" (Workload.size reference)
    (Workload.size c);
  Alcotest.(check (list (pair string (float 1e-9))))
    "same leaders and folded frequencies" (sorted_leaders reference)
    (sorted_leaders c);
  Alcotest.(check (float 1e-9)) "mass preserved" (Workload.total_freq w)
    (Workload.total_freq c);
  Alcotest.(check (float 0.)) "bound is exactly 0" 0. st.Scale.st_eps_bound;
  Alcotest.(check int) "no approximate folds" 0 st.Scale.st_approx_folds;
  Alcotest.(check int) "no probe costs spent" 0 st.Scale.st_probe_costs;
  Alcotest.(check int) "statement count" (Workload.size w)
    st.Scale.st_statements

let test_eps0_idempotent () =
  let db = Lazy.force sdb in
  let w = replicate ~times:2 (rags 8 db) in
  let svc = Service.create ~derive:true db in
  let once, _ = compress ~eps:0.0 svc w in
  let twice, _ = compress ~eps:0.0 svc once in
  Alcotest.(check int) "size stable" (Workload.size once) (Workload.size twice);
  Alcotest.(check (list (pair string (float 1e-9)))) "entries stable"
    (leaders_and_freqs once) (leaders_and_freqs twice)

(* ---- Determinism ---- *)

let test_bucketing_deterministic () =
  let db = Lazy.force sdb in
  List.iter
    (fun eps ->
      let run () =
        let w = replicate ~times:2 (rags ~seed:21 20 db) in
        let svc = Service.create ~derive:true db in
        compress ~eps svc w
      in
      let c1, st1 = run () in
      let c2, st2 = run () in
      Alcotest.(check (list (pair string (float 1e-9))))
        (Printf.sprintf "eps %g: identical buckets (leaders, order, mass)" eps)
        (leaders_and_freqs c1) (leaders_and_freqs c2);
      Alcotest.(check int) "identical bucket count" st1.Scale.st_buckets
        st2.Scale.st_buckets;
      Alcotest.(check int) "identical fold split"
        st1.Scale.st_approx_folds st2.Scale.st_approx_folds;
      Alcotest.(check int64) "identical bound (bitwise)"
        (bits st1.Scale.st_eps_bound) (bits st2.Scale.st_eps_bound))
    [ 0.0; 0.1; 0.5 ]

(* ---- Streaming = batch: observe one at a time ---- *)

let test_streaming_matches_batch () =
  let db = Lazy.force sdb in
  let w = replicate ~times:2 (rags ~seed:31 15 db) in
  let svc = Service.create ~derive:true db in
  let batch = Scale.create ~eps:0.1 svc in
  Scale.observe_workload batch w;
  let streamed = Scale.create ~eps:0.1 svc in
  List.iter
    (fun (e : Workload.entry) ->
      Scale.observe streamed ~freq:e.Workload.freq e.Workload.query)
    w.Workload.entries;
  Alcotest.(check (list (pair string (float 1e-9)))) "identical snapshots"
    (leaders_and_freqs (Scale.snapshot batch))
    (leaders_and_freqs (Scale.snapshot streamed))

(* ---- Accounting on heavy duplication ---- *)

let test_fold_accounting () =
  let db = Lazy.force sdb in
  let base = rags ~seed:41 6 db in
  let distinct =
    List.length
      (List.sort_uniq compare
         (List.map Query.canonical_string (Workload.queries base)))
  in
  let w = replicate ~times:5 base in
  let svc = Service.create ~derive:true db in
  let _, st = compress ~eps:0.0 svc w in
  Alcotest.(check int) "one bucket per distinct statement" distinct
    st.Scale.st_buckets;
  Alcotest.(check int) "every statement observed" (Workload.size w)
    st.Scale.st_statements;
  Alcotest.(check (float 1e-9)) "fold ratio"
    (float_of_int st.Scale.st_statements /. float_of_int st.Scale.st_buckets)
    (Scale.fold_ratio st);
  (* Snapshot publishes the gauges. *)
  let t = Scale.create ~eps:0.0 svc in
  Scale.observe_workload t w;
  ignore (Scale.snapshot t);
  Alcotest.(check (option (float 1e-9))) "scale_buckets gauge"
    (Some (float_of_int distinct))
    (Im_obs.Metrics.find_value "scale_buckets")

(* ---- Compactor output pinned ---- *)

(* Every integer constant of [q] moved by [delta]: the same template
   with different literals, which folds across queries at ε > 0. *)
let shift_constants delta (q : Query.t) =
  let v = function
    | Im_sqlir.Value.Int i -> Im_sqlir.Value.Int (i + delta)
    | x -> x
  in
  let p = function
    | Im_sqlir.Predicate.Cmp (op, c, x) -> Im_sqlir.Predicate.Cmp (op, c, v x)
    | Between (c, a, b) -> Between (c, v a, v b)
    | In_list (c, xs) -> In_list (c, List.map v xs)
    | Join _ as j -> j
  in
  Query.make ~id:q.Query.q_id ~select:q.Query.q_select
    ~where:(List.map p q.Query.q_where) ~group_by:q.Query.q_group_by
    ~order_by:q.Query.q_order_by q.Query.q_tables

let test_stats_pinned () =
  (* Probe sampling answers from the service's deriver; this pins what
     the compactor makes of a fixed constant-shifted stream at ε = 0.1,
     down to the bits of the reported bound. *)
  let db = Lazy.force sdb in
  let base = Workload.queries (rags ~seed:81 10 db) in
  let w =
    Workload.make
      (List.concat_map
         (fun delta -> List.map (shift_constants delta) base)
         [ 0; 1; 0; 3; 2; 0; 5 ])
  in
  let svc = Service.create ~derive:true db in
  let _, st = compress ~eps:0.1 svc w in
  Alcotest.(check (list int)) "statements, buckets, exact/approx folds, probes"
    [ 70; 23; 36; 11; 120 ]
    [
      st.Scale.st_statements;
      st.Scale.st_buckets;
      st.Scale.st_exact_folds;
      st.Scale.st_approx_folds;
      st.Scale.st_probe_costs;
    ];
  Alcotest.(check string) "bound (hex)" "0x1.6a61f383c735p-4"
    (Printf.sprintf "%h" st.Scale.st_eps_bound)

(* ---- The deviation bound ---- *)

let deviation_configs db w seed =
  [
    Config.empty;
    Im_tuning.Initial_config.build db w
      ~rng:(Im_util.Rng.create ((seed * 3) + 1))
      ~n:6;
    Im_tuning.Initial_config.per_query_union db w;
  ]

let check_bound db svc eps w seed =
  let c, st = compress ~eps svc w in
  let budget_ok = st.Scale.st_eps_bound <= eps +. 1e-12 in
  let mass_ok =
    Float.abs (Workload.total_freq w -. Workload.total_freq c) <= 1e-6
  in
  let deviation_ok =
    List.for_all
      (fun config ->
        let exact = Service.workload_cost svc config w in
        let approx = Service.workload_cost svc config c in
        Float.abs (approx -. exact)
        <= (st.Scale.st_eps_bound *. exact) +. 1e-6)
      (deviation_configs db w seed)
  in
  budget_ok && mass_ok && deviation_ok

let test_bound_property () =
  let db = Lazy.force sdb in
  let svc = Service.create ~derive:true db in
  let gen = QCheck.(pair (int_bound 1000) (int_bound 2)) in
  let prop (seed, ei) =
    let eps = [| 0.05; 0.15; 0.5 |].(ei) in
    let w = replicate ~times:2 (rags ~seed:(seed + 1) 20 db) in
    check_bound db svc eps w seed
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:12
       ~name:"measured deviation within reported bound, bound within budget"
       gen prop)

(* ---- ε = 0 search identity ---- *)

let fingerprint items =
  String.concat "; "
    (List.map
       (fun (it : Merge.item) ->
         Printf.sprintf "%s<-[%s]"
           (Index.to_string it.Merge.it_index)
           (String.concat ", " (List.map Index.to_string it.Merge.it_parents)))
       items)

let test_search_eps0_identity () =
  let db = Lazy.force sdb in
  (* Ragsgen workloads are duplicate-free, so ε = 0 compression is the
     identity on them and the merged configuration must not move. *)
  let w = rags ~seed:61 12 db in
  let initial =
    Im_tuning.Initial_config.build db w ~rng:(Im_util.Rng.create 13) ~n:5
  in
  (* The CLI's prelude: compress through [Scale.prepare], then search the
     workload it returns. *)
  let run compress =
    let service = Im_merging.Cost_eval.default_service db in
    let w, compactor, _ = Scale.prepare ?compress service w in
    ( Search.run ~service ~cost_constraint:0.10 db w ~initial Search.Greedy,
      compactor )
  in
  let plain, _ = run None in
  let compressed, compactor = run (Some 0.0) in
  Alcotest.(check string) "identical merged configuration"
    (fingerprint plain.Search.o_items)
    (fingerprint compressed.Search.o_items);
  Alcotest.(check int) "identical pages" plain.Search.o_final_pages
    compressed.Search.o_final_pages;
  Alcotest.(check (option (float 0.))) "identical cost (exact)"
    plain.Search.o_final_cost compressed.Search.o_final_cost;
  match compactor with
  | None -> Alcotest.fail "no compactor"
  | Some c ->
    Alcotest.(check (float 0.)) "exact bound" 0.
      (Scale.stats c).Scale.st_eps_bound

(* ---- The shared prelude ---- *)

let test_prepare () =
  let db = Lazy.force sdb in
  let w =
    Workload.with_updates (replicate ~times:2 (rags ~seed:71 8 db)) [ ("t1", 50) ]
  in
  let svc = Service.create ~derive:true db in
  let plain, compactor, frontier = Scale.prepare ~prune_support:0. svc w in
  Alcotest.(check bool) "no options: input returned" true (plain == w);
  Alcotest.(check bool) "no compactor" true (compactor = None);
  Alcotest.(check bool) "support 0: no frontier" true (frontier = None);
  let c, compactor, frontier =
    Scale.prepare ~compress:0.0 ~prune_support:0.2 svc w
  in
  Alcotest.(check bool) "compactor ran" true (compactor <> None);
  Alcotest.(check string) "name carried" w.Workload.name c.Workload.name;
  Alcotest.(check (list (pair string int))) "update profile carried"
    w.Workload.updates c.Workload.updates;
  Alcotest.(check int) "eps 0 folds the repeats" (Workload.size w / 2)
    (Workload.size c);
  (* At eps 0 only identical statements fold, so mining through the
     compactor sees the same masses as mining the input. *)
  let direct = Im_mine.Mine.create () in
  Im_mine.Mine.observe_workload direct w;
  match frontier with
  | None -> Alcotest.fail "no frontier"
  | Some fr ->
    Alcotest.(check bool) "frontier mined the compressed stream" true
      (Im_mine.Mine.frontier_stats fr
      = Im_mine.Mine.frontier_stats
          (Im_mine.Mine.frontier direct ~support:0.2))

let () =
  Alcotest.run "im_scale"
    [
      ( "exactness",
        [
          tc "eps 0 = compress_identical" `Quick test_eps0_matches_identical;
          tc "eps 0 idempotent" `Quick test_eps0_idempotent;
        ] );
      ( "determinism",
        [
          tc "bucketing deterministic" `Quick test_bucketing_deterministic;
          tc "streaming = batch" `Quick test_streaming_matches_batch;
        ] );
      ( "accounting",
        [
          tc "fold accounting" `Quick test_fold_accounting;
          tc "stats pinned at eps 0.1" `Quick test_stats_pinned;
        ] );
      ("bound", [ tc "deviation property" `Quick test_bound_property ]);
      ("search", [ tc "eps 0 identity" `Quick test_search_eps0_identity ]);
      ("prepare", [ tc "compaction and mining prelude" `Quick test_prepare ]);
    ]
