(* Tests for workloads: the workload type and compression, the TPC-D
   schema/generator/queries, the synthetic databases and the two query
   generators. *)

module Workload = Im_workload.Workload
module Tpcd = Im_workload.Tpcd
module Tpcd_queries = Im_workload.Tpcd_queries
module Synthetic = Im_workload.Synthetic
module Projgen = Im_workload.Projgen
module Ragsgen = Im_workload.Ragsgen
module Database = Im_catalog.Database
module Schema = Im_sqlir.Schema
module Datatype = Im_sqlir.Datatype
module Query = Im_sqlir.Query
module Value = Im_sqlir.Value
module Rng = Im_util.Rng

let tc = Alcotest.test_case

(* ---- Workload ---- *)

let mini_schema =
  Schema.make [ Schema.make_table "t" [ ("a", Datatype.Int) ] ]

let qa id = Query.make ~id [ "t" ]

let test_workload_make () =
  let w = Workload.make [ qa "q1"; qa "q2" ] in
  Alcotest.(check int) "size" 2 (Workload.size w);
  Alcotest.(check (float 1e-9)) "total freq" 2. (Workload.total_freq w);
  Alcotest.(check bool) "validates" true
    (Result.is_ok (Workload.validate mini_schema w))

let test_workload_validate_bad () =
  let w =
    Workload.of_entries
      [ { Workload.query = qa "q1"; freq = -1. } ]
  in
  Alcotest.(check bool) "negative freq rejected" true
    (Result.is_error (Workload.validate mini_schema w));
  let w2 = Workload.make [ Query.make ~id:"bad" [ "missing" ] ] in
  Alcotest.(check bool) "bad query rejected" true
    (Result.is_error (Workload.validate mini_schema w2))

let test_workload_compress () =
  (* q1 and q2 are textually identical (only ids differ); q3 differs. *)
  let q3 =
    Query.make ~id:"q3"
      ~where:
        [ Im_sqlir.Predicate.Cmp (Im_sqlir.Predicate.Eq,
                                  Im_sqlir.Predicate.colref "t" "a",
                                  Value.Int 1) ]
      [ "t" ]
  in
  let w = Workload.make [ qa "q1"; qa "q2"; q3 ] in
  let c = Workload.compress_identical w in
  Alcotest.(check int) "3 -> 2 entries" 2 (Workload.size c);
  Alcotest.(check (float 1e-9)) "frequency preserved" 3. (Workload.total_freq c);
  let merged =
    List.find (fun e -> e.Workload.query.Query.q_id = "q1") c.Workload.entries
  in
  Alcotest.(check (float 1e-9)) "merged freq" 2. merged.Workload.freq

let test_workload_top_k () =
  let w = Workload.make [ qa "q1"; qa "q2"; qa "q3" ] in
  let cost q = match q.Query.q_id with "q2" -> 100. | "q3" -> 10. | _ -> 1. in
  let top = Workload.top_k_by_cost ~cost ~k:2 w in
  Alcotest.(check (list string)) "most expensive first" [ "q2"; "q3" ]
    (List.map (fun q -> q.Query.q_id) (Workload.queries top));
  Alcotest.(check (float 1e-9)) "weighted cost" 111.
    (Workload.weighted_cost ~cost w)

(* ---- TPC-D ---- *)

let tpcd_db = lazy (Tpcd.database ~sf:0.002 ())

let test_tpcd_schema_valid () =
  Alcotest.(check bool) "schema validates" true
    (Result.is_ok (Schema.validate Tpcd.schema));
  Alcotest.(check int) "8 tables" 8 (List.length Tpcd.schema.Schema.tables)

let test_tpcd_scale_rows () =
  let rows = Tpcd.scale_rows 1.0 in
  Alcotest.(check int) "lineitem at SF1" 6_000_000 (List.assoc "lineitem" rows);
  Alcotest.(check int) "region fixed" 5 (List.assoc "region" rows);
  let small = Tpcd.scale_rows 0.001 in
  Alcotest.(check int) "orders scaled" 1_500 (List.assoc "orders" small)

let test_tpcd_largest_tables () =
  Alcotest.(check (list string)) "two largest" [ "lineitem"; "orders" ]
    (Tpcd.largest_tables 2)

let test_tpcd_database_populated () =
  let db = Lazy.force tpcd_db in
  List.iter
    (fun (t : Schema.table) ->
      Alcotest.(check bool)
        (t.Schema.tbl_name ^ " non-empty")
        true
        (Database.row_count db t.Schema.tbl_name > 0))
    Tpcd.schema.Schema.tables;
  (* lineitem is the largest. *)
  Alcotest.(check bool) "lineitem largest" true
    (Database.row_count db "lineitem" > Database.row_count db "orders")

let test_tpcd_deterministic () =
  let db1 = Tpcd.database ~sf:0.001 ~seed:7 () in
  let db2 = Tpcd.database ~sf:0.001 ~seed:7 () in
  Alcotest.(check int) "same lineitem count"
    (Database.row_count db1 "lineitem")
    (Database.row_count db2 "lineitem");
  let h1 = Database.heap db1 "orders" and h2 = Database.heap db2 "orders" in
  let r1 = Im_storage.Heap.get h1 5 and r2 = Im_storage.Heap.get h2 5 in
  Alcotest.(check bool) "same sample row" true
    (Array.for_all2 Value.equal r1 r2)

let test_tpcd_date () =
  Alcotest.(check bool) "epoch" true (Value.equal (Tpcd.date 1992 1 1) (Value.Date 1));
  let d94 = Tpcd.date 1994 1 1 and d95 = Tpcd.date 1995 1 1 in
  Alcotest.(check bool) "a year apart" true
    (match (d94, d95) with
     | Value.Date a, Value.Date b -> b - a = 365
     | _ -> false)

let test_tpcd_queries_validate () =
  let db = Lazy.force tpcd_db in
  Alcotest.(check int) "17 queries" 17 (List.length Tpcd_queries.all);
  List.iter
    (fun q ->
      match Query.validate (Database.schema db) q with
      | Ok () -> ()
      | Error m -> Alcotest.fail (q.Query.q_id ^ ": " ^ m))
    Tpcd_queries.all;
  Alcotest.(check bool) "workload wraps them" true
    (Workload.size (Tpcd_queries.workload ()) = 17)

let test_tpcd_intro_indexes () =
  (* I1 and I2 cover Q1's and Q3's lineitem columns; the merged index
     covers both (paper introduction). *)
  let q1_cols = Query.referenced_columns Tpcd_queries.q1 "lineitem" in
  let q3_cols = Query.referenced_columns Tpcd_queries.q3 "lineitem" in
  Alcotest.(check bool) "I1 covers Q1" true
    (Im_catalog.Index.covers Tpcd_queries.i1 q1_cols);
  Alcotest.(check bool) "I2 covers Q3" true
    (Im_catalog.Index.covers Tpcd_queries.i2 q3_cols);
  Alcotest.(check bool) "merged covers both" true
    (Im_catalog.Index.covers Tpcd_queries.i_merged (q1_cols @ q3_cols));
  (* And the merged index is the index-preserving merge of I1 and I2. *)
  Alcotest.(check bool) "index-preserving merge" true
    (Im_catalog.Index.equal Tpcd_queries.i_merged
       (Im_merging.Merge.preserving_pair ~leading:Tpcd_queries.i1
          ~trailing:Tpcd_queries.i2))

let test_tpcd_query_executes () =
  let db = Lazy.force tpcd_db in
  (* Q6 is a single-table aggregate: run it end to end. *)
  let rows = Im_engine.Exec.run_query db [] Tpcd_queries.q6 in
  Alcotest.(check int) "one aggregate row" 1 (List.length rows)

(* ---- Synthetic ---- *)

let test_synthetic_specs () =
  Alcotest.(check int) "synthetic1 tables" 5 Synthetic.synthetic1.Synthetic.sp_tables;
  Alcotest.(check int) "synthetic2 tables" 10 Synthetic.synthetic2.Synthetic.sp_tables

let small_spec =
  {
    Synthetic.sp_name = "small";
    sp_tables = 4;
    sp_cols_lo = 5;
    sp_cols_hi = 12;
    sp_rows_lo = 200;
    sp_rows_hi = 500;
  }

let test_synthetic_schema_shape () =
  let schema = Synthetic.schema_of ~seed:3 small_spec in
  Alcotest.(check bool) "validates" true (Result.is_ok (Schema.validate schema));
  Alcotest.(check int) "table count" 4 (List.length schema.Schema.tables);
  List.iter
    (fun (t : Schema.table) ->
      let n = List.length t.Schema.tbl_columns in
      Alcotest.(check bool) "cols in range" true (n >= 5 && n <= 12);
      (* Column 0 is the integer key. *)
      Alcotest.(check bool) "key column" true
        (Datatype.equal (List.hd t.Schema.tbl_columns).Schema.col_type
           Datatype.Int);
      List.iter
        (fun (c : Schema.column) ->
          let w = Datatype.width c.Schema.col_type in
          Alcotest.(check bool) "width 4..128" true (w >= 4 && w <= 128))
        t.Schema.tbl_columns)
    schema.Schema.tables

let test_synthetic_database_consistent () =
  let db = Synthetic.database ~seed:3 small_spec in
  let schema = Synthetic.schema_of ~seed:3 small_spec in
  List.iter
    (fun (t : Schema.table) ->
      let rows = Database.row_count db t.Schema.tbl_name in
      Alcotest.(check bool) "rows in range" true (rows >= 200 && rows <= 500))
    schema.Schema.tables;
  (* Same seed -> identical contents. *)
  let db2 = Synthetic.database ~seed:3 small_spec in
  let t0 = (List.hd schema.Schema.tables).Schema.tbl_name in
  let r1 = Im_storage.Heap.get (Database.heap db t0) 7 in
  let r2 = Im_storage.Heap.get (Database.heap db2 t0) 7 in
  Alcotest.(check bool) "deterministic" true (Array.for_all2 Value.equal r1 r2);
  (* Different seeds -> different schema or data somewhere. *)
  let db3 = Synthetic.database ~seed:4 small_spec in
  let differs =
    try
      let r3 = Im_storage.Heap.get (Database.heap db3 t0) 7 in
      not (Array.for_all2 Value.equal r1 r3)
    with _ -> true
  in
  Alcotest.(check bool) "seed changes data" true differs

let test_synthetic_key_column_dense () =
  let db = Synthetic.database ~seed:3 small_spec in
  let schema = Database.schema db in
  let t0 = List.hd schema.Schema.tables in
  let key_col = (List.hd t0.Schema.tbl_columns).Schema.col_name in
  let h = Database.heap db t0.Schema.tbl_name in
  for rid = 0 to min 20 (Im_storage.Heap.row_count h - 1) do
    Alcotest.(check bool) "key = rid" true
      (Value.equal (Im_storage.Heap.get h rid).(Im_storage.Heap.column_index h key_col)
         (Value.Int rid))
  done

(* ---- Generators ---- *)

let syn_db = lazy (Synthetic.database ~seed:3 small_spec)

let test_projgen () =
  let db = Lazy.force syn_db in
  let w = Projgen.generate db ~rng:(Rng.create 9) ~n:30 in
  Alcotest.(check int) "30 queries" 30 (Workload.size w);
  Alcotest.(check bool) "all valid" true
    (Result.is_ok (Workload.validate (Database.schema db) w));
  List.iter
    (fun q ->
      Alcotest.(check int) "single table" 1 (List.length q.Query.q_tables);
      Alcotest.(check bool) "projects columns" true (q.Query.q_select <> []))
    (Workload.queries w);
  (* Mostly predicate-free: covering-index territory. *)
  let without_preds =
    List.length
      (List.filter (fun q -> q.Query.q_where = []) (Workload.queries w))
  in
  Alcotest.(check bool) "majority projection-only" true (without_preds > 15)

let test_projgen_deterministic () =
  let db = Lazy.force syn_db in
  let w1 = Projgen.generate db ~rng:(Rng.create 9) ~n:10 in
  let w2 = Projgen.generate db ~rng:(Rng.create 9) ~n:10 in
  Alcotest.(check (list string)) "same canonical queries"
    (List.map Query.canonical_string (Workload.queries w1))
    (List.map Query.canonical_string (Workload.queries w2))

let test_ragsgen () =
  let db = Lazy.force syn_db in
  let w = Ragsgen.generate db ~rng:(Rng.create 12) ~n:40 in
  Alcotest.(check int) "40 queries" 40 (Workload.size w);
  Alcotest.(check bool) "all valid" true
    (Result.is_ok (Workload.validate (Database.schema db) w));
  let queries = Workload.queries w in
  Alcotest.(check bool) "some joins" true
    (List.exists (fun q -> List.length q.Query.q_tables > 1) queries);
  Alcotest.(check bool) "some aggregates" true
    (List.exists Query.has_aggregates queries);
  Alcotest.(check bool) "some selections" true
    (List.exists
       (fun q -> List.exists (fun p -> not (Im_sqlir.Predicate.is_join p)) q.Query.q_where)
       queries);
  (* Multi-table queries are connected by join predicates. *)
  List.iter
    (fun q ->
      if List.length q.Query.q_tables > 1 then
        Alcotest.(check bool) "has join predicate" true
          (Query.join_predicates q <> []))
    queries

let test_ragsgen_deterministic () =
  let db = Lazy.force syn_db in
  let w1 = Ragsgen.generate db ~rng:(Rng.create 12) ~n:10 in
  let w2 = Ragsgen.generate db ~rng:(Rng.create 12) ~n:10 in
  Alcotest.(check (list string)) "same canonical queries"
    (List.map Query.canonical_string (Workload.queries w1))
    (List.map Query.canonical_string (Workload.queries w2))

let test_ragsgen_executes () =
  (* Every generated query actually runs on the engine. *)
  let db = Lazy.force syn_db in
  let w = Ragsgen.generate db ~rng:(Rng.create 31) ~n:10 in
  List.iter
    (fun q -> ignore (Im_engine.Exec.run_query db [] q))
    (Workload.queries w)

(* ---- Signatures and compression ---- *)

module Compress = Im_workload.Compress

let test_compress_signature_distance () =
  let db = Lazy.force syn_db in
  let w = Ragsgen.generate db ~rng:(Rng.create 55) ~n:6 in
  let qs = Array.of_list (Workload.queries w) in
  let sg = Compress.signature in
  Alcotest.(check (float 1e-9)) "self distance 0" 0.
    (Compress.distance (sg qs.(0)) (sg qs.(0)));
  (* Same query with different constants: distance 0. *)
  let q1 =
    Query.make ~id:"a"
      ~select:[ Query.Sel_col (Im_sqlir.Predicate.colref "t0" "t0_c1") ]
      ~where:
        [ Im_sqlir.Predicate.Cmp
            (Im_sqlir.Predicate.Eq, Im_sqlir.Predicate.colref "t0" "t0_c0",
             Value.Int 1) ]
      [ "t0" ]
  in
  let q2 =
    Query.make ~id:"b"
      ~select:[ Query.Sel_col (Im_sqlir.Predicate.colref "t0" "t0_c1") ]
      ~where:
        [ Im_sqlir.Predicate.Cmp
            (Im_sqlir.Predicate.Eq, Im_sqlir.Predicate.colref "t0" "t0_c0",
             Value.Int 999) ]
      [ "t0" ]
  in
  Alcotest.(check (float 1e-9)) "constants ignored" 0.
    (Compress.distance (sg q1) (sg q2));
  (* Disjoint tables: distance 1. *)
  let q3 = Query.make ~id:"c" [ "t1" ] in
  Alcotest.(check (float 1e-9)) "disjoint tables" 1.
    (Compress.distance (sg q1) (sg q3))

(* The tuning path's batch compactor, [Scale.prepare ~compress] (the
   CLI's --compress): it folds only statements with equal signature
   keys, under a deviation budget. *)
let compact ?(eps = 0.05) (w : Workload.t) =
  let db = Lazy.force syn_db in
  let c, _, _ =
    Im_scale.Scale.prepare ~compress:eps
      (Im_merging.Cost_eval.default_service db)
      w
  in
  c

let test_compress_dedups_same_signature () =
  let q1 =
    Query.make ~id:"a"
      ~where:
        [ Im_sqlir.Predicate.Cmp
            (Im_sqlir.Predicate.Eq, Im_sqlir.Predicate.colref "t0" "t0_c0",
             Value.Int 1) ]
      [ "t0" ]
  in
  let q2 =
    Query.make ~id:"b"
      ~where:
        [ Im_sqlir.Predicate.Cmp
            (Im_sqlir.Predicate.Eq, Im_sqlir.Predicate.colref "t0" "t0_c0",
             Value.Int 2) ]
      [ "t0" ]
  in
  let w = Workload.make [ q1; q2 ] in
  let c = compact w in
  Alcotest.(check int) "merged to one" 1 (Workload.size c);
  Alcotest.(check (float 1e-9)) "frequency summed" 2. (Workload.total_freq c);
  Alcotest.(check string) "first statement leads" (Query.canonical_string q1)
    (Query.canonical_string (List.hd (Workload.queries c)))

let test_compress_deterministic () =
  (* Same seed, same workload, same buckets — leaders and folded
     frequencies do not depend on the service instance. *)
  let db = Lazy.force syn_db in
  let run () =
    compact ~eps:0.4 (Ragsgen.generate db ~rng:(Rng.create 91) ~n:25)
  in
  let c1 = run () and c2 = run () in
  Alcotest.(check (list string)) "identical leaders"
    (List.map Query.canonical_string (Workload.queries c1))
    (List.map Query.canonical_string (Workload.queries c2));
  Alcotest.(check (list (float 1e-9))) "identical frequencies"
    (List.map (fun e -> e.Workload.freq) c1.Workload.entries)
    (List.map (fun e -> e.Workload.freq) c2.Workload.entries)

let test_compress_preserves_mass () =
  (* Total frequency mass survives compaction at every budget. *)
  let db = Lazy.force syn_db in
  let w0 = Ragsgen.generate db ~rng:(Rng.create 93) ~n:40 in
  let w =
    Workload.of_entries ~name:"weighted"
      (List.mapi
         (fun i e -> { e with Workload.freq = 0.5 +. float_of_int (i mod 7) })
         w0.Workload.entries)
  in
  List.iter
    (fun eps ->
      let c = compact ~eps w in
      Alcotest.(check (float 1e-6)) "mass preserved" (Workload.total_freq w)
        (Workload.total_freq c))
    [ 0.0; 0.1; 0.3; 0.7; 1.0 ]

let test_signature_key () =
  let db = Lazy.force syn_db in
  let w = Ragsgen.generate db ~rng:(Rng.create 95) ~n:20 in
  let qs = Workload.queries w in
  (* Key equality coincides with distance 0 on every pair. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let sa = Compress.signature a and sb = Compress.signature b in
          Alcotest.(check bool)
            (a.Query.q_id ^ " vs " ^ b.Query.q_id)
            (Compress.distance sa sb = 0.)
            (String.equal (Compress.signature_key sa)
               (Compress.signature_key sb)))
        qs)
    qs

let test_compress_preserves_updates () =
  let q = Query.make ~id:"u" [ "t0" ] in
  let w = Workload.with_updates (Workload.make [ q ]) [ ("t0", 10) ] in
  let c = compact w in
  Alcotest.(check bool) "updates kept" true (Workload.has_updates c)

(* ---- Workload files ---- *)

let test_workload_file_roundtrip () =
  let db = Lazy.force syn_db in
  let schema = Database.schema db in
  let w = Ragsgen.generate db ~rng:(Rng.create 77) ~n:12 in
  let path = Filename.temp_file "im_workload" ".sql" in
  Im_workload.Workload_file.save w path;
  (match Im_workload.Workload_file.load ~schema path with
   | Error m -> Alcotest.fail m
   | Ok loaded ->
     Alcotest.(check int) "same size" (Workload.size w) (Workload.size loaded);
     List.iter2
       (fun a b ->
         Alcotest.(check string) "same canonical query"
           (Query.canonical_string a) (Query.canonical_string b))
       (Workload.queries w) (Workload.queries loaded));
  Sys.remove path

let test_workload_file_frequencies () =
  let db = Lazy.force syn_db in
  let schema = Database.schema db in
  let w0 = Projgen.generate db ~rng:(Rng.create 3) ~n:3 in
  let w =
    Workload.of_entries ~name:"freqs"
      (List.mapi
         (fun i e -> { e with Workload.freq = float_of_int (i + 1) *. 2. })
         w0.Workload.entries)
  in
  let path = Filename.temp_file "im_workload" ".sql" in
  Im_workload.Workload_file.save w path;
  (match Im_workload.Workload_file.load ~schema path with
   | Error m -> Alcotest.fail m
   | Ok loaded ->
     Alcotest.(check (list (float 1e-9)))
       "frequencies preserved" [ 2.; 4.; 6. ]
       (List.map (fun e -> e.Workload.freq) loaded.Workload.entries));
  Sys.remove path

let test_workload_file_errors () =
  let db = Lazy.force syn_db in
  let schema = Database.schema db in
  (match Im_workload.Workload_file.parse ~schema "SELECT broken FROM t0;" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad column accepted");
  (match
     Im_workload.Workload_file.parse ~schema
       "-- freq: 2\nSELECT t0_c0 FROM t0;\nSELECT t0_c1 FROM t0;"
   with
   | Error m ->
     Alcotest.(check bool) "mismatch message" true
       (Astring_contains.contains m "annotate")
   | Ok _ -> Alcotest.fail "mismatched annotations accepted");
  (match Im_workload.Workload_file.load ~schema "/nonexistent/file.sql" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing file accepted")

(* A parse error's position counts from the statement's own first byte,
   whatever comment or blank line the file put in front of it. *)
let test_workload_file_error_position () =
  let schema = Database.schema (Lazy.force syn_db) in
  List.iter
    (fun (text, expected) ->
      match Im_workload.Workload_file.parse ~schema text with
      | Ok _ -> Alcotest.fail (text ^ ": accepted")
      | Error m -> Alcotest.(check string) text expected m)
    [
      ( "SELECT t0_c0 FROM t0 WHERE t0_c0 = 1; -- a note about this\n\
         SELECT @ FROM t0;",
        "statement 2: char 7: unexpected character '@'" );
      ( "\n-- a comment line\nSELECT @ FROM t0;",
        "statement 1: char 7: unexpected character '@'" );
      ("SELECT @ FROM t0;", "statement 1: char 7: unexpected character '@'");
    ]

let test_workload_file_annotation_whitespace () =
  let db = Lazy.force syn_db in
  let schema = Database.schema db in
  (* Every spelling below must be recognized as an annotation. *)
  List.iter
    (fun annot ->
      match
        Im_workload.Workload_file.parse ~schema
          (annot ^ "\nSELECT t0_c0 FROM t0;")
      with
      | Error m -> Alcotest.fail (annot ^ ": " ^ m)
      | Ok w ->
        Alcotest.(check (list (float 1e-9)))
          (annot ^ " parsed") [ 2.5 ]
          (List.map (fun e -> e.Workload.freq) w.Workload.entries))
    [
      "-- freq: 2.5";
      "--freq:2.5";
      "--   freq   :   2.5";
      "\t--\tfreq\t:\t2.5";
      "-- FREQ: 2.5";
    ];
  (* Non-annotation comments stay comments. *)
  (match
     Im_workload.Workload_file.parse ~schema
       "-- frequency of execution\nSELECT t0_c0 FROM t0;"
   with
   | Ok w ->
     Alcotest.(check (list (float 1e-9))) "plain comment ignored" [ 1.0 ]
       (List.map (fun e -> e.Workload.freq) w.Workload.entries)
   | Error m -> Alcotest.fail m)

let test_workload_file_bad_frequencies () =
  let db = Lazy.force syn_db in
  let schema = Database.schema db in
  let reject annot fragment =
    match
      Im_workload.Workload_file.parse ~schema (annot ^ "\nSELECT t0_c0 FROM t0;")
    with
    | Ok _ -> Alcotest.fail (annot ^ " accepted")
    | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s rejected with %S, got %S" annot fragment m)
        true
        (Astring_contains.contains m fragment)
  in
  reject "-- freq: 0" "non-positive";
  reject "--freq:0" "non-positive";
  reject "--  freq : -3" "non-positive";
  reject "-- freq: nan" "malformed";
  reject "-- freq:" "malformed";
  reject "-- freq: fast" "malformed"

let test_workload_file_fold_streaming () =
  (* fold sees exactly the statements load sees, one at a time, without
     materializing the workload. *)
  let db = Lazy.force syn_db in
  let schema = Database.schema db in
  let w = Ragsgen.generate db ~rng:(Rng.create 78) ~n:15 in
  let path = Filename.temp_file "im_workload" ".sql" in
  Im_workload.Workload_file.save w path;
  (match
     Im_workload.Workload_file.fold ~schema path ~init:[]
       ~f:(fun acc q freq -> (Query.canonical_string q, freq) :: acc)
   with
   | Error m -> Alcotest.fail m
   | Ok acc ->
     let streamed = List.rev acc in
     Alcotest.(check int) "same count" (Workload.size w) (List.length streamed);
     List.iter2
       (fun q (canon, _) ->
         Alcotest.(check string) "same canonical query"
           (Query.canonical_string q) canon)
       (Workload.queries w) streamed);
  Sys.remove path

let test_workload_file_fold_freqs () =
  let db = Lazy.force syn_db in
  let schema = Database.schema db in
  let text =
    "-- freq: 3\nSELECT t0_c0 FROM t0;\n-- freq: 1.5\nSELECT t0_c1 FROM t0;"
  in
  let path = Filename.temp_file "im_workload" ".sql" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
  (match
     Im_workload.Workload_file.fold ~schema path ~init:[]
       ~f:(fun acc _ freq -> freq :: acc)
   with
   | Error m -> Alcotest.fail m
   | Ok freqs ->
     Alcotest.(check (list (option (float 1e-9)))) "annotations stream through"
       [ Some 3.; Some 1.5 ] (List.rev freqs));
  Sys.remove path;
  (* Unannotated statements stream as None. *)
  let path = Filename.temp_file "im_workload" ".sql" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "SELECT t0_c0 FROM t0;");
  (match
     Im_workload.Workload_file.fold ~schema path ~init:[]
       ~f:(fun acc _ freq -> freq :: acc)
   with
   | Error m -> Alcotest.fail m
   | Ok freqs ->
     Alcotest.(check (list (option (float 1e-9)))) "no annotation -> None"
       [ None ] freqs);
  Sys.remove path

let test_workload_file_fold_errors () =
  let db = Lazy.force syn_db in
  let schema = Database.schema db in
  (match
     Im_workload.Workload_file.fold ~schema "/nonexistent/file.sql" ~init:0
       ~f:(fun n _ _ -> n + 1)
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing file accepted");
  let path = Filename.temp_file "im_workload" ".sql" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "SELECT nope FROM t0;");
  (match
     Im_workload.Workload_file.fold ~schema path ~init:0
       ~f:(fun n _ _ -> n + 1)
   with
   | Error m ->
     Alcotest.(check bool) "statement number in message" true
       (Astring_contains.contains m "statement 1")
   | Ok _ -> Alcotest.fail "bad column accepted");
  Sys.remove path

(* Property: the statement splitter in front of the parser. Each case
   builds 1-4 statements whose string literals hold [';'], [--], ['']
   escapes and a line that reads like a frequency annotation, with
   end-of-line comments (holding [';'] and a quote) inside a statement
   and after its [';'], optionally all annotated, and breaks the text
   across lines at random byte positions: between any two tokens and
   anywhere inside a string literal but within an [''] escape. Parsing
   the file must give, in order, exactly what [parse_query] gives for
   each statement's own text, with the annotated frequencies. *)
let splitter_schema =
  Schema.make
    [ Schema.make_table "t" [ ("a", Datatype.Int); ("s", Datatype.Varchar 200) ] ]

let prop_splitter_matches_parse_query =
  let gen =
    QCheck.Gen.(
      let unit_ =
        oneof
          [ map (String.make 1) (oneofl [ 'x'; 'y'; ' '; ';'; '-'; '\t' ]);
            return "''"; return "--"; return ";--";
            return "\n-- freq: 9\n" ]
      in
      let stmt = triple (list_size (int_bound 8) unit_) (int_bound 1000) (pair bool bool) in
      pair (list_size (int_range 1 4) stmt) (pair bool int))
  in
  QCheck.Test.make ~name:"Workload_file.parse splits as parse_query reads" ~count:300
    (QCheck.make gen)
    (fun (stmts, (annotated, seed)) ->
      let rng = Random.State.make [| seed |] in
      let brk () = Random.State.int rng 3 = 0 in
      let gap () = if brk () then "\n" else " " in
      let text_of (units, a, (mid_comment, _)) =
        let str =
          String.concat "" (List.map (fun u -> if brk () then u ^ "\n" else u) units)
        in
        String.concat ""
          [ "SELECT"; gap (); "a"; gap (); "FROM t"; gap (); "WHERE"; gap (); "s";
            gap (); "="; gap (); "'"; str; "'";
            (if mid_comment then " -- mid; 'comment\n" else gap ());
            "AND a ="; gap (); string_of_int a ]
      in
      let texts = List.map text_of stmts in
      let file =
        String.concat ""
          (List.mapi
             (fun i ((_, _, (_, trailing)), text) ->
               (if annotated then Printf.sprintf "-- freq: %d\n" (i + 2) else "")
               ^ text ^ ";"
               ^ (if trailing then " -- after; 'x" else "")
               ^ "\n")
             (List.combine stmts texts))
      in
      let expected =
        List.mapi
          (fun i text ->
            match Im_sqlir.Parser.parse_query ~schema:splitter_schema
                    ~id:(Printf.sprintf "W%d" (i + 1)) text with
            | Ok q -> q
            | Error m -> QCheck.Test.fail_reportf "statement %S: %s" text m)
          texts
      in
      match Im_workload.Workload_file.parse ~schema:splitter_schema file with
      | Error m -> QCheck.Test.fail_reportf "%S: %s" file m
      | Ok w ->
        (List.map (fun e -> e.Workload.query) w.Workload.entries = expected
         || QCheck.Test.fail_reportf "statements differ on %S" file)
        && (List.map (fun e -> e.Workload.freq) w.Workload.entries
            = List.mapi (fun i _ -> if annotated then float_of_int (i + 2) else 1.) texts
           || QCheck.Test.fail_reportf "frequencies differ on %S" file))

let test_workload_updates_field () =
  let w = Workload.make [ Query.make ~id:"u" [ "t0" ] ] in
  Alcotest.(check bool) "no updates by default" false (Workload.has_updates w);
  let w2 = Workload.with_updates w [ ("t0", 100) ] in
  Alcotest.(check bool) "updates attached" true (Workload.has_updates w2);
  Alcotest.(check int) "queries untouched" (Workload.size w) (Workload.size w2)

let () =
  Alcotest.run "im_workload"
    [
      ( "workload",
        [
          tc "make" `Quick test_workload_make;
          tc "validate rejects" `Quick test_workload_validate_bad;
          tc "compress identical" `Quick test_workload_compress;
          tc "top-k" `Quick test_workload_top_k;
        ] );
      ( "tpcd",
        [
          tc "schema valid" `Quick test_tpcd_schema_valid;
          tc "scale rows" `Quick test_tpcd_scale_rows;
          tc "largest tables" `Quick test_tpcd_largest_tables;
          tc "database populated" `Quick test_tpcd_database_populated;
          tc "deterministic" `Quick test_tpcd_deterministic;
          tc "date helper" `Quick test_tpcd_date;
          tc "17 queries validate" `Quick test_tpcd_queries_validate;
          tc "intro example indexes" `Quick test_tpcd_intro_indexes;
          tc "query executes" `Quick test_tpcd_query_executes;
        ] );
      ( "synthetic",
        [
          tc "paper specs" `Quick test_synthetic_specs;
          tc "schema shape" `Quick test_synthetic_schema_shape;
          tc "database consistent" `Quick test_synthetic_database_consistent;
          tc "dense key column" `Quick test_synthetic_key_column_dense;
        ] );
      ( "compression (distance)",
        [
          tc "signature distance" `Quick test_compress_signature_distance;
          tc "dedups same signature" `Quick test_compress_dedups_same_signature;
          tc "deterministic" `Quick test_compress_deterministic;
          tc "preserves mass" `Quick test_compress_preserves_mass;
          tc "signature key" `Quick test_signature_key;
          tc "preserves updates" `Quick test_compress_preserves_updates;
        ] );
      ( "files",
        [
          tc "save/load round trip" `Quick test_workload_file_roundtrip;
          tc "frequencies" `Quick test_workload_file_frequencies;
          tc "errors" `Quick test_workload_file_errors;
          tc "error position" `Quick test_workload_file_error_position;
          tc "annotation whitespace" `Quick test_workload_file_annotation_whitespace;
          tc "bad frequencies" `Quick test_workload_file_bad_frequencies;
          tc "fold streams statements" `Quick test_workload_file_fold_streaming;
          tc "fold streams frequencies" `Quick test_workload_file_fold_freqs;
          tc "fold errors" `Quick test_workload_file_fold_errors;
          QCheck_alcotest.to_alcotest prop_splitter_matches_parse_query;
          tc "updates field" `Quick test_workload_updates_field;
        ] );
      ( "generators",
        [
          tc "projgen" `Quick test_projgen;
          tc "projgen deterministic" `Quick test_projgen_deterministic;
          tc "ragsgen" `Quick test_ragsgen;
          tc "ragsgen deterministic" `Quick test_ragsgen_deterministic;
          tc "ragsgen executes" `Quick test_ragsgen_executes;
        ] );
    ]
