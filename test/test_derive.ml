(* Tests for atomic cost derivation: bit-level exactness against the
   full optimizer across workloads and configurations, the fallback
   taxonomy boundaries, validation mode, atom-cache reuse and
   invalidation, the deriving cost service, and search-level identity
   (merge output with and without derivation). *)

module Derive = Im_derive.Derive
module Service = Im_costsvc.Service
module Optimizer = Im_optimizer.Optimizer
module Plan = Im_optimizer.Plan
module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Schema = Im_sqlir.Schema
module Datatype = Im_sqlir.Datatype
module Value = Im_sqlir.Value
module Query = Im_sqlir.Query
module Predicate = Im_sqlir.Predicate
module Workload = Im_workload.Workload
module Search = Im_merging.Search
module Cost_eval = Im_merging.Cost_eval
module Merge = Im_merging.Merge

let tc = Alcotest.test_case
let bits = Int64.bits_of_float
let full_cost db config q = Plan.cost (Optimizer.optimize db config q)

let check_bitwise ctx expected actual =
  Alcotest.(check int64) ctx (bits expected) (bits actual)

(* ---- A generated database with generated workloads: the broad net ---- *)

let sdb =
  lazy (Im_workload.Synthetic.database ~seed:11 Im_workload.Synthetic.synthetic1)

let rags_workload db =
  Im_workload.Ragsgen.generate db ~rng:(Im_util.Rng.create 3) ~n:20

let proj_workload db =
  Im_workload.Projgen.generate db ~rng:(Im_util.Rng.create 5) ~n:12

let configs db workload =
  [
    ("empty", Config.empty);
    ( "initial-6",
      Im_tuning.Initial_config.build db workload
        ~rng:(Im_util.Rng.create 7) ~n:6 );
    ("union", Im_tuning.Initial_config.per_query_union db workload);
  ]

let test_bitwise_exactness () =
  let db = Lazy.force sdb in
  let d = Derive.create db in
  List.iter
    (fun (wname, workload) ->
      List.iter
        (fun (cname, config) ->
          List.iter
            (fun q ->
              let derived, _ = Derive.query_cost d config q in
              check_bitwise
                (Printf.sprintf "%s/%s/%s" wname cname q.Query.q_id)
                (full_cost db config q)
                derived;
              (* And stable on re-derivation. *)
              let again, _ = Derive.query_cost d config q in
              check_bitwise "re-derivation" derived again)
            (Workload.queries workload))
        (configs db workload))
    [ ("rags", rags_workload db); ("proj", proj_workload db) ];
  Alcotest.(check bool) "some answers were derived" true (Derive.derived d > 0);
  Alcotest.(check bool) "atoms were reused across configurations" true
    (Derive.atom_hits d > 0)

(* Randomized: any subset of the union configuration, any query. *)
let test_random_subsets () =
  let db = Lazy.force sdb in
  let workload = rags_workload db in
  let queries = Array.of_list (Workload.queries workload) in
  let pool =
    Array.of_list (Im_tuning.Initial_config.per_query_union db workload)
  in
  let d = Derive.create db in
  let gen =
    QCheck.(pair (int_bound (Array.length queries - 1)) (int_bound max_int))
  in
  let prop (qi, mask) =
    let config =
      List.filteri (fun i _ -> (mask lsr (i mod 60)) land 1 = 1
                               || (mask lsr (i mod 7)) land 1 = 1)
        (Array.to_list pool)
    in
    let q = queries.(qi) in
    let derived, _ = Derive.query_cost d config q in
    bits derived = bits (full_cost db config q)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:150 ~name:"derived = optimized (bitwise)" gen
       prop)

(* ---- Fallback taxonomy boundaries (handmade schema) ---- *)

let schema =
  Schema.make
    [
      Schema.make_table "t"
        [ ("a", Datatype.Int); ("b", Datatype.Int); ("c", Datatype.Int) ];
      Schema.make_table "u" [ ("x", Datatype.Int); ("y", Datatype.Int) ];
    ]

let rows_t =
  List.init 600 (fun i ->
      [| Value.Int (i mod 50); Value.Int (i mod 9); Value.Int i |])

let rows_u = List.init 200 (fun i -> [| Value.Int i; Value.Int (i mod 50) |])
let hdb = lazy (Database.create schema [ ("t", rows_t); ("u", rows_u) ])
let col = Predicate.colref

let sel tbl c = Query.Sel_col (col tbl c)
let eq tbl c v = Predicate.Cmp (Predicate.Eq, col tbl c, Value.Int v)

let boundary_cases =
  [
    (* Single table + ORDER BY, no aggregation: the order-sort class —
       sort placement re-examines order-providing access paths. *)
    ( "single-table order by",
      Query.make ~id:"fb1" ~select:[ sel "t" "a"; sel "t" "b" ]
        ~where:[ eq "t" "a" 3 ]
        ~order_by:[ (col "t" "b", Query.Asc) ]
        [ "t" ],
      Some Derive.Order_sort );
    (* Grouped aggregation absorbs the order: derivable. *)
    ( "grouped order by",
      Query.make ~id:"fb2"
        ~select:[ sel "t" "b"; Query.Sel_agg (Query.Count_star, None) ]
        ~where:[ eq "t" "a" 3 ]
        ~group_by:[ col "t" "b" ]
        ~order_by:[ (col "t" "b", Query.Asc) ]
        [ "t" ],
      None );
    (* Multi-table ORDER BY sorts above the join: derivable. *)
    ( "join order by",
      Query.make ~id:"fb3" ~select:[ sel "t" "a"; sel "u" "y" ]
        ~where:[ Predicate.Join (col "t" "a", col "u" "y"); eq "u" "x" 7 ]
        ~order_by:[ (col "t" "c", Query.Asc) ]
        [ "t"; "u" ],
      None );
    (* No ORDER BY at all: derivable. *)
    ( "plain point",
      Query.make ~id:"fb4" ~select:[ sel "t" "a" ] ~where:[ eq "t" "a" 3 ]
        [ "t" ],
      None );
  ]

let test_fallback_taxonomy () =
  let db = Lazy.force hdb in
  let d = Derive.create db in
  let config = [ Index.make ~table:"t" [ "a"; "b" ]; Index.make ~table:"t" [ "b" ] ] in
  List.iter
    (fun (name, q, expected_fb) ->
      (match Query.validate schema q with
       | Ok () -> ()
       | Error m -> Alcotest.failf "%s: invalid query: %s" name m);
      let answer = Derive.plan d config q in
      Alcotest.(check (option string))
        (name ^ ": provenance")
        (Option.map Derive.fallback_to_string expected_fb)
        (Option.map Derive.fallback_to_string answer.Derive.a_fallback);
      (* Fallback or not, the plan is the optimizer's plan. *)
      Alcotest.(check bool)
        (name ^ ": plan identical")
        true
        (answer.Derive.a_plan = Optimizer.optimize db config q))
    boundary_cases;
  Alcotest.(check bool) "fallbacks counted" true (Derive.fallbacks d > 0)

(* ---- Validation mode ---- *)

let test_validation_mode () =
  let db = Lazy.force sdb in
  let workload = rags_workload db in
  let d = Derive.create ~validate:true db in
  Alcotest.(check bool) "validating" true (Derive.validating d);
  let config = Im_tuning.Initial_config.per_query_union db workload in
  (* Every derived answer is cross-checked; Mismatch would fail here. *)
  List.iter
    (fun q -> ignore (Derive.query_cost d config q))
    (Workload.queries workload);
  Alcotest.(check bool) "cross-checks ran" true (Derive.validations d > 0);
  Alcotest.(check int) "every derivation validated" (Derive.derived d)
    (Derive.validations d)

(* ---- Atom cache: reuse, invalidation, clear ---- *)

let test_atom_reuse_and_invalidation () =
  let db = Lazy.force hdb in
  let d = Derive.create db in
  let q = Query.make ~id:"r1" ~select:[ sel "t" "a" ] ~where:[ eq "t" "a" 3 ] [ "t" ] in
  let ix_a = Index.make ~table:"t" [ "a" ] in
  let ix_b = Index.make ~table:"t" [ "b"; "a" ] in
  ignore (Derive.query_cost d [ ix_a ] q);
  let misses = Derive.atom_misses d in
  Alcotest.(check bool) "cold atoms missed" true (misses > 0);
  (* Identical call: pure hits. *)
  ignore (Derive.query_cost d [ ix_a ] q);
  Alcotest.(check int) "no new atom misses on repeat" misses
    (Derive.atom_misses d);
  (* Superset configuration: only the new index's atom misses. *)
  ignore (Derive.query_cost d [ ix_a; ix_b ] q);
  Alcotest.(check int) "one new atom for the new index" (misses + 1)
    (Derive.atom_misses d);
  let entries = Derive.atom_entries d in
  Alcotest.(check bool) "entries live" true (entries > 0);
  (* Table invalidation drops t's atoms and heap baselines... *)
  let dropped = Derive.invalidate_table d "t" in
  Alcotest.(check int) "everything cached was t's" entries dropped;
  Alcotest.(check int) "cache empty" 0 (Derive.atom_entries d);
  (* ...and answers stay exact afterwards. *)
  let c, _ = Derive.query_cost d [ ix_a ] q in
  check_bitwise "exact after invalidation" (full_cost db [ ix_a ] q) c;
  (* Index invalidation drops only that definition's atoms. *)
  ignore (Derive.query_cost d [ ix_a; ix_b ] q);
  let before = Derive.atom_entries d in
  let dropped = Derive.invalidate_index d ix_b in
  Alcotest.(check int) "one atom per (query, index)" 1 dropped;
  Alcotest.(check int) "rest survive" (before - 1) (Derive.atom_entries d);
  Derive.clear d;
  Alcotest.(check int) "clear empties" 0 (Derive.atom_entries d)

(* ---- The deriving cost service ---- *)

let test_service_derive_identical () =
  let db = Lazy.force sdb in
  let workload = rags_workload db in
  let plain = Service.create db in
  let deriving = Service.create ~derive:true db in
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun q ->
          check_bitwise
            (Printf.sprintf "%s/%s" cname q.Query.q_id)
            (Service.query_cost plain config q)
            (Service.query_cost deriving config q))
        (Workload.queries workload))
    (configs db workload);
  (* The invariant existing callers rely on: opt_calls counts resolved
     misses whether the optimizer ran or not. *)
  Alcotest.(check int) "opt_calls = misses" (Service.misses deriving)
    (Service.opt_calls deriving);
  Alcotest.(check bool) "misses were derived" true (Service.derived deriving > 0);
  Alcotest.(check int) "derived + fallbacks = misses"
    (Service.misses deriving)
    (Service.derived deriving + Service.fallbacks deriving)

(* ---- Search-level identity: merge output with and without ---- *)

let fingerprint items =
  String.concat "; "
    (List.map
       (fun it ->
         Printf.sprintf "%s<-[%s]"
           (Index.to_string it.Merge.it_index)
           (String.concat ", " (List.map Index.to_string it.Merge.it_parents)))
       items)

let test_search_identity () =
  let db = Lazy.force sdb in
  let workload = rags_workload db in
  let initial =
    Im_tuning.Initial_config.build db workload ~rng:(Im_util.Rng.create 13)
      ~n:5
  in
  let run derive =
    let service =
      Im_costsvc.Service.create ~derive
        ~update_cost:(Im_merging.Maintenance.config_batch_cost db)
        db
    in
    Search.run ~service ~cost_model:Cost_eval.Optimizer_estimated
      ~cost_constraint:0.10 db workload ~initial Search.Greedy
  in
  let off = run false in
  let on = run true in
  Alcotest.(check string) "identical merged configuration"
    (fingerprint off.Search.o_items)
    (fingerprint on.Search.o_items);
  Alcotest.(check int) "identical pages" off.Search.o_final_pages
    on.Search.o_final_pages;
  Alcotest.(check (option (float 0.))) "identical cost (exact)"
    off.Search.o_final_cost on.Search.o_final_cost;
  Alcotest.(check int) "off never derives" 0 off.Search.o_derived_costs;
  Alcotest.(check bool) "on derives" true (on.Search.o_derived_costs > 0)

let () =
  Alcotest.run "im_derive"
    [
      ( "exactness",
        [
          tc "bitwise vs full optimizer" `Quick test_bitwise_exactness;
          tc "random config subsets" `Quick test_random_subsets;
        ] );
      ("fallbacks", [ tc "taxonomy boundaries" `Quick test_fallback_taxonomy ]);
      ("validation", [ tc "cross-check mode" `Quick test_validation_mode ]);
      ( "atoms",
        [ tc "reuse and invalidation" `Quick test_atom_reuse_and_invalidation ] );
      ( "service",
        [ tc "deriving service identical" `Quick test_service_derive_identical ] );
      ("search", [ tc "merge output identity" `Quick test_search_identity ]);
    ]
