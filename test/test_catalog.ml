(* Tests for the catalog: index definitions, configurations and the
   database (heaps + cached statistics + materialization). *)

module Index = Im_catalog.Index
module Config = Im_catalog.Config
module Database = Im_catalog.Database
module Schema = Im_sqlir.Schema
module Datatype = Im_sqlir.Datatype
module Value = Im_sqlir.Value
module Bptree = Im_storage.Bptree

let tc = Alcotest.test_case
let qtest = QCheck_alcotest.to_alcotest

let schema =
  Schema.make
    [
      Schema.make_table "t"
        [
          ("a", Datatype.Int);
          ("b", Datatype.Float);
          ("c", Datatype.Varchar 16);
          ("d", Datatype.Date);
        ];
      Schema.make_table "u" [ ("x", Datatype.Int); ("y", Datatype.Int) ];
    ]

let rows_t =
  List.init 500 (fun i ->
      [|
        Value.Int (i mod 50);
        Value.Float (float_of_int i);
        Value.Str (Printf.sprintf "s%03d" (i mod 20));
        Value.Date (i mod 365);
      |])

let rows_u = List.init 100 (fun i -> [| Value.Int i; Value.Int (i mod 10) |])

let fresh_db () = Database.create schema [ ("t", rows_t); ("u", rows_u) ]

(* ---- Index ---- *)

let test_index_make_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Index.make: no columns")
    (fun () -> ignore (Index.make ~table:"t" []));
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Index.make: duplicate columns") (fun () ->
      ignore (Index.make ~table:"t" [ "a"; "a" ]))

let test_index_equal_order_matters () =
  let ab = Index.make ~table:"t" [ "a"; "b" ] in
  let ba = Index.make ~table:"t" [ "b"; "a" ] in
  Alcotest.(check bool) "ab <> ba" false (Index.equal ab ba);
  Alcotest.(check bool) "same column set" true (Index.same_columns ab ba);
  Alcotest.(check bool) "self equal" true (Index.equal ab ab);
  (* Default names encode the definition. *)
  Alcotest.(check bool) "names differ" false (ab.Index.idx_name = ba.Index.idx_name)

(* Identity is assigned by [make] from (table, column sequence): names
   do not enter it, column order does, and it does not depend on which
   values or which domain built the definition. *)
let test_index_ids () =
  let ab = Index.make ~table:"t" [ "a"; "b" ] in
  let named = Index.make ~name:"custom" ~table:"t" [ "a"; "b" ] in
  Alcotest.(check int) "name does not enter the id" (Index.id ab)
    (Index.id named);
  Alcotest.(check bool) "equal across names" true (Index.equal ab named);
  let ba = Index.make ~table:"t" [ "b"; "a" ] in
  Alcotest.(check bool) "column order changes the id" true
    (Index.id ab <> Index.id ba);
  let fresh s = String.init (String.length s) (String.get s) in
  let rebuilt = Index.make ~table:(fresh "t") [ fresh "a"; fresh "b" ] in
  Alcotest.(check int) "rebuilt from fresh strings" (Index.id ab)
    (Index.id rebuilt);
  let elsewhere =
    Domain.join (Domain.spawn (fun () -> Index.make ~table:"t" [ "a"; "b" ]))
  in
  Alcotest.(check int) "built on another domain" (Index.id ab)
    (Index.id elsewhere);
  Alcotest.(check int) "field and accessor agree" ab.Index.idx_id (Index.id ab)

let test_index_prefix_covers () =
  let a = Index.make ~table:"t" [ "a" ] in
  let ab = Index.make ~table:"t" [ "a"; "b" ] in
  let abc = Index.make ~table:"t" [ "a"; "b"; "c" ] in
  Alcotest.(check bool) "a prefix of ab" true (Index.is_prefix_of a ab);
  Alcotest.(check bool) "ab prefix of abc" true (Index.is_prefix_of ab abc);
  Alcotest.(check bool) "abc not prefix of ab" false (Index.is_prefix_of abc ab);
  Alcotest.(check bool) "covers subset any order" true
    (Index.covers abc [ "b"; "a" ]);
  Alcotest.(check bool) "does not cover d" false (Index.covers abc [ "a"; "d" ]);
  Alcotest.(check string) "leading" "a" (Index.leading_column abc)

let test_index_widths () =
  let abc = Index.make ~table:"t" [ "a"; "b"; "c" ] in
  Alcotest.(check int) "key width" (4 + 8 + 16) (Index.key_width schema abc);
  Alcotest.(check (float 1e-9)) "fraction" (28. /. 32.)
    (Index.width_fraction_of_table schema abc)

let test_index_validate () =
  Alcotest.(check bool) "ok" true
    (Result.is_ok (Index.validate schema (Index.make ~table:"t" [ "a" ])));
  Alcotest.(check bool) "bad table" true
    (Result.is_error (Index.validate schema (Index.make ~table:"zz" [ "a" ])));
  Alcotest.(check bool) "bad column" true
    (Result.is_error (Index.validate schema (Index.make ~table:"t" [ "zz" ])))

(* ---- Config ---- *)

let ia = Index.make ~table:"t" [ "a" ]
let ib = Index.make ~table:"t" [ "b" ]
let ix = Index.make ~table:"u" [ "x" ]

let test_config_ops () =
  let c = Config.add ia (Config.add ib (Config.add ia Config.empty)) in
  Alcotest.(check int) "add dedups" 2 (List.length c);
  Alcotest.(check bool) "mem" true (Config.mem ia c);
  let c2 = Config.remove ia c in
  Alcotest.(check bool) "removed" false (Config.mem ia c2);
  let c3 = Config.add ix c in
  Alcotest.(check int) "on_table t" 2 (List.length (Config.on_table c3 "t"));
  Alcotest.(check (list string)) "tables" [ "t"; "u" ] (Config.tables c3);
  Alcotest.(check bool) "validate ok" true (Result.is_ok (Config.validate schema c3));
  Alcotest.(check bool) "validate dup" true
    (Result.is_error (Config.validate schema (c3 @ [ ia ])))

let test_config_storage_sums () =
  let db = fresh_db () in
  let p1 = Database.config_storage_pages db [ ia ] in
  let p2 = Database.config_storage_pages db [ ib ] in
  let both = Database.config_storage_pages db [ ia; ib ] in
  Alcotest.(check int) "storage is additive" (p1 + p2) both;
  Alcotest.(check int) "empty config" 0 (Database.config_storage_pages db [])

(* ---- Database ---- *)

let test_database_basics () =
  let db = fresh_db () in
  Alcotest.(check int) "row count t" 500 (Database.row_count db "t");
  Alcotest.(check int) "row count u" 100 (Database.row_count db "u");
  Alcotest.(check bool) "data pages positive" true (Database.data_pages db > 0);
  Alcotest.check_raises "unknown table"
    (Invalid_argument "Database.heap: unknown table zz") (fun () ->
      ignore (Database.heap db "zz"))

let test_database_stats_cached () =
  let db = fresh_db () in
  let s1 = Database.stats db "t" "a" in
  let s2 = Database.stats db "t" "a" in
  Alcotest.(check bool) "same instance (cached)" true (s1 == s2);
  Alcotest.(check int) "distinct" 50 (Im_stats.Column_stats.distinct s1)

let test_database_stats_sampling_threshold () =
  let big_rows = List.init 30_000 (fun i -> [| Value.Int i; Value.Int 0 |]) in
  let db =
    Database.create ~sample_threshold:10_000 ~sample_size:1_000
      (Schema.make [ Schema.make_table "u" [ ("x", Datatype.Int); ("y", Datatype.Int) ] ])
      [ ("u", big_rows) ]
  in
  let s = Database.stats db "u" "x" in
  Alcotest.(check bool) "sampled" true s.Im_stats.Column_stats.cs_sampled;
  Alcotest.(check int) "row count full" 30_000
    s.Im_stats.Column_stats.cs_row_count

let test_database_materialize () =
  let db = fresh_db () in
  let ix = Index.make ~table:"t" [ "a"; "b" ] in
  let tree = Database.materialize db ix in
  Alcotest.(check int) "all rows indexed" 500 (Bptree.entry_count tree);
  Alcotest.(check bool) "cached" true (tree == Database.materialize db ix);
  (match Bptree.check_invariants tree with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  Database.drop_materialized db ix;
  let tree2 = Database.materialize db ix in
  Alcotest.(check bool) "rebuilt after drop" true (tree2 != tree)

let test_database_index_key () =
  let db = fresh_db () in
  let ix = Index.make ~table:"t" [ "c"; "a" ] in
  let k = Database.index_key db ix 3 in
  Alcotest.(check bool) "column order respected" true
    (Value.equal k.(0) (Value.Str "s003") && Value.equal k.(1) (Value.Int 3))

let test_database_insert_row () =
  let db = fresh_db () in
  let ix = Index.make ~table:"t" [ "a" ] in
  let tree = Database.materialize db ix in
  let before = Bptree.entry_count tree in
  let stats_before = Database.stats db "t" "a" in
  let rid =
    Database.insert_row db "t"
      [| Value.Int 999; Value.Float 0.; Value.Str "zz"; Value.Date 1 |]
  in
  Alcotest.(check int) "rid appended" 500 rid;
  Alcotest.(check int) "heap grew" 501 (Database.row_count db "t");
  Alcotest.(check int) "index grew" (before + 1) (Bptree.entry_count tree);
  let stats_after = Database.stats db "t" "a" in
  Alcotest.(check bool) "stats invalidated" true (stats_before != stats_after);
  (* The other table's indexes are untouched. *)
  let tree_u = Database.materialize db (Index.make ~table:"u" [ "x" ]) in
  ignore (Database.insert_row db "t"
            [| Value.Int 1; Value.Float 0.; Value.Str "a"; Value.Date 1 |]);
  Alcotest.(check int) "u index unchanged" 100 (Bptree.entry_count tree_u)

let test_database_index_pages_hypothetical () =
  (* index_pages works without materializing: a what-if index. *)
  let db = fresh_db () in
  let wide = Index.make ~table:"t" [ "a"; "b"; "c"; "d" ] in
  let narrow = Index.make ~table:"t" [ "a" ] in
  Alcotest.(check bool) "wider index occupies more" true
    (Database.index_pages db wide >= Database.index_pages db narrow)

(* Property: storage of any configuration equals the sum of its indexes. *)
let prop_config_storage_additive =
  let cols = [ "a"; "b"; "c"; "d" ] in
  let db = fresh_db () in
  QCheck.Test.make ~name:"config storage additive" ~count:50
    QCheck.(list_of_size (Gen.int_range 0 4) (int_bound 3))
    (fun picks ->
      let ixs =
        List.mapi
          (fun i p ->
            Index.make ~table:"t"
              ~name:(Printf.sprintf "ix%d" i)
              [ List.nth cols p ])
          picks
      in
      Database.config_storage_pages db ixs
      = Im_util.List_ext.sum_by (Database.index_pages db) ixs)

let () =
  Alcotest.run "im_catalog"
    [
      ( "index",
        [
          tc "make rejects bad input" `Quick test_index_make_rejects;
          tc "equality and order" `Quick test_index_equal_order_matters;
          tc "ids from definitions" `Quick test_index_ids;
          tc "prefix/covers/leading" `Quick test_index_prefix_covers;
          tc "widths" `Quick test_index_widths;
          tc "validate" `Quick test_index_validate;
        ] );
      ( "config",
        [
          tc "set operations" `Quick test_config_ops;
          tc "storage sums" `Quick test_config_storage_sums;
          qtest prop_config_storage_additive;
        ] );
      ( "database",
        [
          tc "basics" `Quick test_database_basics;
          tc "stats cached" `Quick test_database_stats_cached;
          tc "stats sampling threshold" `Quick
            test_database_stats_sampling_threshold;
          tc "materialize" `Quick test_database_materialize;
          tc "index key order" `Quick test_database_index_key;
          tc "insert row" `Quick test_database_insert_row;
          tc "hypothetical index pages" `Quick
            test_database_index_pages_hypothetical;
        ] );
    ]
