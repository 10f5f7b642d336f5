(* Tests for the unified memoizing cost service: identity keys,
   hit/miss accounting, LRU eviction order, the string-key collision
   regression, relevant-subconfig incremental re-costing, update-cost
   charging, and exact counters when 4 domains share one service. *)

module Service = Im_costsvc.Service
module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Schema = Im_sqlir.Schema
module Datatype = Im_sqlir.Datatype
module Value = Im_sqlir.Value
module Query = Im_sqlir.Query
module Predicate = Im_sqlir.Predicate
module Workload = Im_workload.Workload
module Maintenance = Im_merging.Maintenance

let tc = Alcotest.test_case

let schema =
  Schema.make
    [
      Schema.make_table "t"
        [ ("a", Datatype.Int); ("b", Datatype.Int); ("c", Datatype.Int) ];
      Schema.make_table "u" [ ("x", Datatype.Int); ("y", Datatype.Int) ];
    ]

let rows_t =
  List.init 400 (fun i ->
      [| Value.Int (i mod 40); Value.Int (i mod 7); Value.Int i |])

let rows_u = List.init 150 (fun i -> [| Value.Int i; Value.Int (i mod 5) |])

let fresh_db () = Database.create schema [ ("t", rows_t); ("u", rows_u) ]
let db = fresh_db ()

let point ?(id = "q") tbl col v =
  Query.make ~id
    ~select:[ Query.Sel_col (Predicate.colref tbl col) ]
    ~where:[ Predicate.Cmp (Predicate.Eq, Predicate.colref tbl col, Value.Int v) ]
    [ tbl ]

let with_maintenance db = Service.create ~update_cost:(Maintenance.config_batch_cost db) db

(* ---- Accounting ---- *)

let test_hit_miss_accounting () =
  let svc = Service.create db in
  let q = point "t" "a" 1 in
  let c1 = Service.query_cost svc [] q in
  let c2 = Service.query_cost svc [] q in
  Alcotest.(check (float 1e-9)) "memoized value" c1 c2;
  (* The service must return exactly what a direct what-if call would. *)
  let direct =
    Im_optimizer.Plan.cost (Im_optimizer.Optimizer.optimize db [] q)
  in
  Alcotest.(check (float 1e-9)) "equals the optimizer" direct c1;
  let c = Service.counters svc in
  Alcotest.(check int) "two costings" 2 c.Service.c_query_costs;
  Alcotest.(check int) "one optimizer call" 1 c.Service.c_opt_calls;
  Alcotest.(check int) "one hit" 1 c.Service.c_hits;
  Alcotest.(check int) "one miss" 1 c.Service.c_misses;
  Alcotest.(check int) "one live entry" 1 (Service.size svc);
  ignore (Service.workload_cost svc [] (Workload.make [ q ]));
  Alcotest.(check int) "workload evaluation counted" 1 (Service.cost_evals svc);
  Alcotest.(check int) "workload costing was a hit" 2 (Service.hits svc)

let test_capacity_validation () =
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Service.create: capacity < 1") (fun () ->
      ignore (Service.create ~capacity:0 db))

(* ---- LRU eviction order ---- *)

let test_lru_eviction_order () =
  let svc = Service.create ~capacity:2 db in
  let qa = point "t" "a" 1 in
  let qb = point "t" "a" 2 in
  let qc = point "t" "a" 3 in
  ignore (Service.query_cost svc [] qa);
  ignore (Service.query_cost svc [] qb);
  (* Touch A so B becomes least-recently-used. *)
  ignore (Service.query_cost svc [] qa);
  Alcotest.(check int) "full, nothing evicted" 0 (Service.evictions svc);
  ignore (Service.query_cost svc [] qc);
  Alcotest.(check int) "insertion beyond capacity evicts one" 1
    (Service.evictions svc);
  Alcotest.(check int) "still at capacity" 2 (Service.size svc);
  (* A was touched: it must have survived; B was the LRU victim. *)
  let calls = Service.opt_calls svc in
  ignore (Service.query_cost svc [] qa);
  Alcotest.(check int) "recently-used entry survived" calls
    (Service.opt_calls svc);
  ignore (Service.query_cost svc [] qb);
  Alcotest.(check int) "LRU entry was evicted" (calls + 1)
    (Service.opt_calls svc)

(* ---- Cross-epoch reuse (the deleted Whatif module's semantics) ---- *)

let test_cross_statement_reuse () =
  let svc = Service.create db in
  (* Same canonical text under fresh statement ids — a stream replaying
     one query shape. Interning is id-independent, so later statements
     hit the entries earlier epochs paid for. *)
  let c1 = Service.query_cost svc [] (point ~id:"S1" "t" "a" 7) in
  let calls = Service.opt_calls svc in
  let c2 = Service.query_cost svc [] (point ~id:"S2" "t" "a" 7) in
  Alcotest.(check (float 1e-9)) "identical cached cost" c1 c2;
  Alcotest.(check int) "no extra optimizer call" calls (Service.opt_calls svc);
  (* Config restricted to the query's tables: an index on another table
     leaves the key untouched... *)
  let other = Index.make ~table:"u" [ "x" ] in
  ignore (Service.query_cost svc [ other ] (point ~id:"S3" "t" "a" 7));
  Alcotest.(check int) "irrelevant index is a hit" calls
    (Service.opt_calls svc);
  (* ...while an index on the query's table re-optimizes. *)
  let relevant = Index.make ~table:"t" [ "a" ] in
  let with_ix = Service.query_cost svc [ relevant ] (point ~id:"S4" "t" "a" 7) in
  Alcotest.(check int) "relevant index re-optimizes" (calls + 1)
    (Service.opt_calls svc);
  Alcotest.(check bool) "index helps the point query" true (with_ix <= c1)

(* ---- Collision regression: index ids vs string keys ---- *)

(* The retired caches keyed entries on concatenated names: columns
   joined with "," and definitions joined with ";". Replicated here to
   pin down the aliasing bug the index-id keys fix. *)
let old_style_key q config =
  let relevant =
    List.filter
      (fun ix -> List.mem ix.Index.idx_table q.Query.q_tables)
      config
  in
  let names =
    List.sort String.compare
      (List.map
         (fun ix ->
           ix.Index.idx_table ^ ":" ^ String.concat "," ix.Index.idx_columns)
         relevant)
  in
  Query.canonical_string q ^ "|" ^ String.concat ";" names

let test_index_ids_cannot_collide () =
  (* A column legitimately named "a,b" next to columns "a" and "b":
     nothing in the schema layer forbids it. *)
  let tricky_schema =
    Schema.make
      [
        Schema.make_table "s"
          [ ("a", Datatype.Int); ("b", Datatype.Int); ("a,b", Datatype.Int) ];
      ]
  in
  let rows =
    List.init 300 (fun i ->
        [| Value.Int (i mod 30); Value.Int (i mod 6); Value.Int i |])
  in
  let db = Database.create tricky_schema [ ("s", rows) ] in
  let two_cols = Index.make ~table:"s" [ "a"; "b" ] in
  let one_col = Index.make ~table:"s" [ "a,b" ] in
  Alcotest.(check bool) "distinct definitions" false
    (Index.equal two_cols one_col);
  let q = point "s" "a" 1 in
  (* The old scheme aliases the two configurations... *)
  Alcotest.(check string) "string keys collide"
    (old_style_key q [ two_cols ])
    (old_style_key q [ one_col ]);
  (* ...so a string-keyed cache would serve s(a,b)'s cost for s("a,b").
     Index ids keep them apart: the second costing is a miss. *)
  Alcotest.(check bool) "index ids differ" true
    (Index.id two_cols <> Index.id one_col);
  let svc = Service.create db in
  ignore (Service.query_cost svc [ two_cols ] q);
  let calls = Service.opt_calls svc in
  ignore (Service.query_cost svc [ one_col ] q);
  Alcotest.(check int) "no false hit across the alias" (calls + 1)
    (Service.opt_calls svc)

(* ---- Relevant-subconfig incremental re-costing ---- *)

let test_incremental_recosting () =
  let svc = Service.create db in
  let w =
    Workload.make
      [
        point ~id:"t1" "t" "a" 1;
        point ~id:"t2" "t" "b" 2;
        point ~id:"t3" "t" "c" 3;
        point ~id:"u1" "u" "x" 1;
        point ~id:"u2" "u" "y" 2;
      ]
  in
  ignore (Service.workload_cost svc [] w);
  Alcotest.(check int) "cold start: all five miss" 5 (Service.opt_calls svc);
  (* A u-only configuration change re-optimizes exactly the u queries;
     the three t queries keep their cached costs. *)
  let ix_u = Index.make ~table:"u" [ "x" ] in
  let hits = Service.hits svc and misses = Service.opt_calls svc in
  ignore (Service.workload_cost svc [ ix_u ] w);
  Alcotest.(check int) "only u queries re-optimize" (misses + 2)
    (Service.opt_calls svc);
  Alcotest.(check int) "t queries hit" (hits + 3) (Service.hits svc)

(* ---- Relevance invariant ---- *)

(* The cost-cache key, and the incremental selection's cell reuse,
   both assume that indexes on tables a query does not reference cannot
   change its what-if cost. Pinned on fresh services (every costing is
   a miss, so the answer is computed, not looked up), with atomic
   derivation on and off, for a selection, a join, and a single-table
   ORDER BY query whose plan weighs every candidate against a sort. *)
let test_foreign_indexes_leave_cost_unchanged () =
  let rel_schema =
    Schema.make
      [
        Schema.make_table "t"
          [ ("a", Datatype.Int); ("b", Datatype.Int); ("c", Datatype.Int) ];
        Schema.make_table "u" [ ("x", Datatype.Int); ("y", Datatype.Int) ];
        Schema.make_table "v" [ ("p", Datatype.Int); ("r", Datatype.Int) ];
      ]
  in
  let rows_v = List.init 300 (fun i -> [| Value.Int (i mod 30); Value.Int i |]) in
  let rdb =
    Database.create rel_schema [ ("t", rows_t); ("u", rows_u); ("v", rows_v) ]
  in
  let col = Predicate.colref in
  let join =
    Query.make ~id:"join"
      ~select:[ Query.Sel_col (col "t" "c"); Query.Sel_col (col "u" "y") ]
      ~where:
        [
          Predicate.Join (col "t" "a", col "u" "x");
          Predicate.Cmp (Predicate.Eq, col "t" "b", Value.Int 3);
        ]
      [ "t"; "u" ]
  in
  let ordered =
    Query.make ~id:"ordered"
      ~select:[ Query.Sel_col (col "t" "b"); Query.Sel_col (col "t" "c") ]
      ~where:[ Predicate.Cmp (Predicate.Lt, col "t" "a", Value.Int 9) ]
      ~order_by:[ (col "t" "c", Query.Asc) ]
      [ "t" ]
  in
  let t_ab = Index.make ~table:"t" [ "a"; "b" ] in
  let t_c = Index.make ~table:"t" [ "c"; "b" ] in
  let u_x = Index.make ~table:"u" [ "x"; "y" ] in
  let v_p = Index.make ~table:"v" [ "p" ] in
  let v_rp = Index.make ~table:"v" [ "r"; "p" ] in
  let u_y = Index.make ~table:"u" [ "y" ] in
  let cases =
    [
      (point "t" "a" 1, [ t_ab ], [ u_x; v_p ]);
      (join, [ t_ab; u_x ], [ v_p; v_rp ]);
      (join, [], [ v_rp ]);
      (ordered, [ t_c ], [ u_x; u_y; v_p ]);
      (ordered, [ t_ab; t_c ], [ v_rp ]);
    ]
  in
  List.iter
    (fun derive ->
      List.iter
        (fun (q, config, foreign) ->
          let cost config =
            let svc = Service.create ~derive rdb in
            let c = Service.query_cost svc config q in
            Alcotest.(check int) "computed, not looked up" 1 (Service.opt_calls svc);
            c
          in
          let base = cost config in
          List.iter
            (fun with_foreign ->
              let c = cost with_foreign in
              Alcotest.(check int64)
                (Printf.sprintf "%s (derive %b): %d foreign indexes" q.Query.q_id
                   derive
                   (List.length with_foreign - List.length config))
                (Int64.bits_of_float base) (Int64.bits_of_float c))
            [ config @ foreign; foreign @ config; List.hd foreign :: config ])
        cases)
    [ true; false ]

(* ---- Update-cost charging ---- *)

let test_update_cost_charged () =
  let q = point "t" "a" 1 in
  let w = Workload.with_updates (Workload.make [ q ]) [ ("t", 25) ] in
  let ix = Index.make ~table:"t" [ "a" ] in
  let config = [ ix ] in
  let svc = with_maintenance db in
  let total = Service.workload_cost svc config w in
  let expected =
    Service.query_cost svc config q
    +. Maintenance.config_batch_cost db config ~inserts:[ ("t", 25) ]
  in
  Alcotest.(check (float 1e-6)) "queries + maintenance" expected total;
  (* Without [~update_cost] the service refuses rather than
     under-charging silently. *)
  let bare = Service.create db in
  Alcotest.check_raises "updates need update_cost"
    (Invalid_argument
       "Service.workload_cost: workload carries updates but the service was \
        created without ~update_cost") (fun () ->
      ignore (Service.workload_cost bare config w))

(* ---- Counters under concurrency ---- *)

let test_service_hammer () =
  (* 10 distinct queries, each issued 8 times, costed by 4 domains on
     one service: every cost and counter total must equal a sequential
     run doing the same work 4 times. The service holds its lock
     through the what-if resolution, so concurrent same-key misses
     serialize and the counters stay exact. *)
  let db = Lazy.force Domain_hammer.db in
  let queries =
    List.init 10 (fun i -> Domain_hammer.point ~id:(Printf.sprintf "h%d" i) i)
  in
  let work = List.concat (List.init 8 (fun _ -> queries)) in
  let costs svc () = List.map (fun q -> Service.query_cost svc [] q) work in
  let counters svc =
    [
      ("hits", Service.hits svc);
      ("opt_calls", Service.opt_calls svc);
      ("evictions", Service.evictions svc);
      ("entries", Service.size svc);
    ]
  in
  let seq_svc = Service.create ~derive:true db in
  let seq_costs = List.init 4 (fun _ -> costs seq_svc ()) in
  let par_svc = Service.create ~derive:true db in
  let par_costs = Domain_hammer.hammer (costs par_svc) in
  Alcotest.(check (list (list (float 0.)))) "bit-identical costs" seq_costs
    par_costs;
  Domain_hammer.check_counters "service" (counters seq_svc) (counters par_svc);
  Alcotest.(check int) "one miss per distinct query" 10 (Service.opt_calls par_svc)

let () =
  Alcotest.run "im_costsvc"
    [
      ( "accounting",
        [
          tc "hits and misses" `Quick test_hit_miss_accounting;
          tc "capacity validation" `Quick test_capacity_validation;
        ] );
      ("lru", [ tc "eviction order" `Quick test_lru_eviction_order ]);
      ( "reuse",
        [
          tc "cross-statement reuse" `Quick test_cross_statement_reuse;
          tc "incremental re-costing" `Quick test_incremental_recosting;
          tc "foreign indexes leave costs unchanged" `Quick
            test_foreign_indexes_leave_cost_unchanged;
        ] );
      ( "keys",
        [ tc "no string-key collisions" `Quick test_index_ids_cannot_collide ] );
      ("updates", [ tc "maintenance charged" `Quick test_update_cost_charged ]);
      ("service", [ tc "4-domain hammer" `Quick test_service_hammer ]);
    ]
