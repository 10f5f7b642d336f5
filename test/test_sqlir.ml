(* Tests for the SQL IR: datatypes, values, schema, predicates and the
   query AST with its column-usage analyses. *)

module Datatype = Im_sqlir.Datatype
module Value = Im_sqlir.Value
module Schema = Im_sqlir.Schema
module Predicate = Im_sqlir.Predicate
module Query = Im_sqlir.Query

let qtest = QCheck_alcotest.to_alcotest
let tc = Alcotest.test_case

(* A small schema used throughout this file. *)
let schema =
  Schema.make
    [
      Schema.make_table "emp"
        [
          ("id", Datatype.Int);
          ("dept", Datatype.Int);
          ("salary", Datatype.Float);
          ("hired", Datatype.Date);
          ("name", Datatype.Varchar 20);
        ];
      Schema.make_table "dept"
        [ ("did", Datatype.Int); ("dname", Datatype.Varchar 30) ];
    ]

let cr = Predicate.colref

(* ---- Datatype ---- *)

let test_widths () =
  Alcotest.(check (list int))
    "widths" [ 4; 8; 4; 17 ]
    (List.map Datatype.width
       [ Datatype.Int; Datatype.Float; Datatype.Date; Datatype.Varchar 17 ])

let test_datatype_equal () =
  Alcotest.(check bool) "varchar widths distinguish" false
    (Datatype.equal (Datatype.Varchar 3) (Datatype.Varchar 4));
  Alcotest.(check bool) "int = int" true (Datatype.equal Datatype.Int Datatype.Int);
  Alcotest.(check bool) "int <> date" false
    (Datatype.equal Datatype.Int Datatype.Date)

(* ---- Value ---- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) small_signed_int;
        map (fun f -> Value.Float f) (float_bound_exclusive 1e6);
        map (fun i -> Value.Date i) (int_bound 3000);
        map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'z') (int_bound 8));
        return Value.Null;
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let prop_compare_antisym =
  QCheck.Test.make ~name:"Value.compare antisymmetric" ~count:500
    (QCheck.pair value_arb value_arb)
    (fun (a, b) -> Value.compare a b = -Value.compare b a)

let prop_compare_transitive =
  QCheck.Test.make ~name:"Value.compare transitive" ~count:500
    (QCheck.triple value_arb value_arb value_arb)
    (fun (a, b, c) ->
      let sorted = List.sort Value.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] ->
        Value.compare x y <= 0 && Value.compare y z <= 0
        && Value.compare x z <= 0
      | _ -> false)

let prop_to_float_monotone_int =
  QCheck.Test.make ~name:"to_float monotone on ints" ~count:300
    QCheck.(pair small_signed_int small_signed_int)
    (fun (a, b) ->
      let va = Value.Int a and vb = Value.Int b in
      if Value.compare va vb < 0 then Value.to_float va <= Value.to_float vb
      else true)

let prop_to_float_monotone_str =
  QCheck.Test.make ~name:"to_float weakly monotone on strings" ~count:300
    QCheck.(
      pair (string_of_size (Gen.int_bound 6)) (string_of_size (Gen.int_bound 6)))
    (fun (a, b) ->
      let va = Value.Str a and vb = Value.Str b in
      if Value.compare va vb < 0 then Value.to_float va <= Value.to_float vb
      else true)

(* Property: [to_string] is the literal text rule it always was — [%g]
   when that reads back exactly, else [%.17g]; [date:N]; quotes doubled
   — on integral floats (where it prints digits directly), -0, floats
   near 1e6, any floats, dates and strings with and without quotes. *)
let prop_to_string_rule =
  let reference = function
    | Value.Float x ->
      let short = Printf.sprintf "%g" x in
      if float_of_string short = x then short else Printf.sprintf "%.17g" x
    | Value.Date x -> Printf.sprintf "date:%d" x
    | Value.Str s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
    | v -> Value.to_string v
  in
  QCheck.Test.make ~name:"to_string keeps the literal rule" ~count:1000
    (QCheck.make ~print:Value.to_string
       QCheck.Gen.(
         oneof
           [
             map (fun i -> Value.Float (float_of_int i)) (int_range (-1_100_000) 1_100_000);
             oneofl
               [ Value.Float (-0.); Value.Float 0.; Value.Float 1e6; Value.Float (-1e6);
                 Value.Float 999_999.; Value.Float 1e15; Value.Float nan;
                 Value.Float infinity; Value.Float 0.5 ];
             map (fun f -> Value.Float f) float;
             map (fun i -> Value.Date i) int;
             map (fun s -> Value.Str s) (string_size ~gen:(oneofl [ 'a'; '\''; ' ' ]) (int_bound 6));
           ]))
    (fun v -> String.equal (Value.to_string v) (reference v))

let test_value_matches () =
  Alcotest.(check bool) "int matches" true
    (Value.datatype_matches Datatype.Int (Value.Int 3));
  Alcotest.(check bool) "null matches all" true
    (Value.datatype_matches (Datatype.Varchar 2) Value.Null);
  Alcotest.(check bool) "too-long string" false
    (Value.datatype_matches (Datatype.Varchar 2) (Value.Str "abc"));
  Alcotest.(check bool) "str vs int" false
    (Value.datatype_matches Datatype.Int (Value.Str "x"))

let test_add_int () =
  Alcotest.(check bool) "int shifts" true
    (Value.equal (Value.add_int (Value.Int 3) 4) (Value.Int 7));
  Alcotest.(check bool) "date shifts" true
    (Value.equal (Value.add_int (Value.Date 10) 5) (Value.Date 15));
  Alcotest.(check bool) "string unchanged" true
    (Value.equal (Value.add_int (Value.Str "a") 5) (Value.Str "a"))

(* ---- Schema ---- *)

let test_schema_lookup () =
  let t = Schema.table schema "emp" in
  Alcotest.(check int) "5 columns" 5 (List.length t.Schema.tbl_columns);
  Alcotest.(check bool) "mem" true (Schema.mem_table schema "dept");
  Alcotest.(check bool) "not mem" false (Schema.mem_table schema "nope");
  Alcotest.(check int) "row width" (4 + 4 + 8 + 4 + 20) (Schema.row_width t);
  Alcotest.(check int) "columns width" 12
    (Schema.columns_width t [ "id"; "salary" ])

let test_schema_validate () =
  Alcotest.(check bool) "valid" true (Result.is_ok (Schema.validate schema));
  let dup_table =
    Schema.make
      [
        Schema.make_table "a" [ ("x", Datatype.Int) ];
        Schema.make_table "a" [ ("y", Datatype.Int) ];
      ]
  in
  Alcotest.(check bool) "dup table" true
    (Result.is_error (Schema.validate dup_table));
  let dup_col =
    Schema.make
      [ Schema.make_table "a" [ ("x", Datatype.Int); ("x", Datatype.Int) ] ]
  in
  Alcotest.(check bool) "dup column" true
    (Result.is_error (Schema.validate dup_col));
  let empty = Schema.make [ { Schema.tbl_name = "a"; tbl_columns = [] } ] in
  Alcotest.(check bool) "empty table" true
    (Result.is_error (Schema.validate empty))

(* ---- Predicate ---- *)

let test_pred_classify () =
  let c = cr "emp" "dept" in
  let eq = Predicate.Cmp (Predicate.Eq, c, Value.Int 3) in
  let ne = Predicate.Cmp (Predicate.Ne, c, Value.Int 3) in
  let lt = Predicate.Cmp (Predicate.Lt, c, Value.Int 3) in
  let bt = Predicate.Between (c, Value.Int 1, Value.Int 5) in
  let in1 = Predicate.In_list (c, [ Value.Int 4 ]) in
  let in3 = Predicate.In_list (c, [ Value.Int 4; Value.Int 5; Value.Int 6 ]) in
  let j = Predicate.Join (c, cr "dept" "did") in
  Alcotest.(check (list bool))
    "sargable"
    [ true; false; true; true; true; true; false ]
    (List.map
       (fun p -> Predicate.is_sargable_on p c)
       [ eq; ne; lt; bt; in1; in3; j ]);
  Alcotest.(check (list bool))
    "equality"
    [ true; false; false; false; true; false; false ]
    (List.map
       (fun p -> Predicate.is_equality_on p c)
       [ eq; ne; lt; bt; in1; in3; j ])

let test_pred_tables_columns () =
  let j = Predicate.Join (cr "emp" "dept", cr "dept" "did") in
  Alcotest.(check (list string)) "tables of join" [ "emp"; "dept" ]
    (Predicate.tables_of j);
  Alcotest.(check (list string)) "cols on emp" [ "dept" ]
    (Predicate.columns_on_table j "emp");
  Alcotest.(check (list string)) "cols on dept" [ "did" ]
    (Predicate.columns_on_table j "dept");
  let sel = Predicate.Cmp (Predicate.Eq, cr "emp" "id", Value.Int 1) in
  Alcotest.(check (list string)) "tables of selection" [ "emp" ]
    (Predicate.tables_of sel);
  Alcotest.(check bool) "selection_column" true
    (match Predicate.selection_column sel with
     | Some c -> Predicate.equal_colref c (cr "emp" "id")
     | None -> false)

let test_pred_to_string () =
  Alcotest.(check string) "cmp" "emp.id <= 5"
    (Predicate.to_string
       (Predicate.Cmp (Predicate.Le, cr "emp" "id", Value.Int 5)));
  Alcotest.(check string) "between" "emp.id BETWEEN 1 AND 2"
    (Predicate.to_string
       (Predicate.Between (cr "emp" "id", Value.Int 1, Value.Int 2)))

(* ---- Query ---- *)

let q_join =
  Query.make ~id:"t1"
    ~select:
      [ Query.Sel_col (cr "emp" "name"); Query.Sel_col (cr "dept" "dname") ]
    ~where:
      [
        Predicate.Join (cr "emp" "dept", cr "dept" "did");
        Predicate.Cmp (Predicate.Ge, cr "emp" "salary", Value.Float 100.);
        Predicate.Cmp (Predicate.Eq, cr "emp" "dept", Value.Int 7);
      ]
    ~order_by:[ (cr "emp" "name", Query.Asc) ]
    [ "emp"; "dept" ]

let test_query_validate_ok () =
  Alcotest.(check bool) "valid" true (Result.is_ok (Query.validate schema q_join))

let expect_invalid name q =
  Alcotest.(check bool) name true (Result.is_error (Query.validate schema q))

let test_query_validate_errors () =
  expect_invalid "unknown table"
    (Query.make ~select:[ Query.Sel_agg (Query.Count_star, None) ] [ "nope" ]);
  expect_invalid "unknown column"
    (Query.make ~select:[ Query.Sel_col (cr "emp" "zzz") ] [ "emp" ]);
  expect_invalid "table not in FROM"
    (Query.make ~select:[ Query.Sel_col (cr "dept" "dname") ] [ "emp" ]);
  expect_invalid "type mismatch"
    (Query.make
       ~where:[ Predicate.Cmp (Predicate.Eq, cr "emp" "id", Value.Str "x") ]
       [ "emp" ]);
  expect_invalid "ungrouped select"
    (Query.make
       ~select:
         [
           Query.Sel_col (cr "emp" "name");
           Query.Sel_agg (Query.Count_star, None);
         ]
       [ "emp" ]);
  expect_invalid "empty from" (Query.make []);
  expect_invalid "duplicate table" (Query.make [ "emp"; "emp" ]);
  expect_invalid "empty IN list"
    (Query.make ~where:[ Predicate.In_list (cr "emp" "id", []) ] [ "emp" ]);
  expect_invalid "join type mismatch"
    (Query.make
       ~where:[ Predicate.Join (cr "emp" "name", cr "dept" "did") ]
       [ "emp"; "dept" ])

let test_query_analyses () =
  Alcotest.(check (list string))
    "referenced on emp" [ "name"; "dept"; "salary" ]
    (Query.referenced_columns q_join "emp");
  Alcotest.(check (list string))
    "referenced on dept" [ "dname"; "did" ]
    (Query.referenced_columns q_join "dept");
  Alcotest.(check (list string))
    "sargable on emp" [ "salary"; "dept" ]
    (Query.sargable_columns q_join "emp");
  Alcotest.(check (list string))
    "equality on emp" [ "dept" ]
    (Query.equality_columns q_join "emp");
  Alcotest.(check (list string)) "order cols" [ "name" ]
    (Query.order_by_columns q_join "emp");
  Alcotest.(check int) "joins" 1 (List.length (Query.join_predicates q_join));
  Alcotest.(check int) "selections on emp" 2
    (List.length (Query.selection_predicates q_join "emp"));
  Alcotest.(check int) "selections on dept" 0
    (List.length (Query.selection_predicates q_join "dept"));
  Alcotest.(check bool) "no aggregates" false (Query.has_aggregates q_join)

(* [q_join] rebuilt through [Query.make] with a different id and/or
   ORDER BY. *)
let q_join_with ?(id = q_join.Query.q_id) ?(order_by = q_join.Query.q_order_by)
    () =
  Query.make ~id ~select:q_join.Query.q_select ~where:q_join.Query.q_where
    ~order_by q_join.Query.q_tables

let test_query_canonical () =
  let q2 = q_join_with ~id:"other" () in
  Alcotest.(check string) "id does not affect canonical form"
    (Query.canonical_string q_join)
    (Query.canonical_string q2);
  let q3 = q_join_with ~order_by:[ (cr "emp" "name", Query.Desc) ] () in
  Alcotest.(check bool) "different order dir differs" false
    (Query.canonical_string q_join = Query.canonical_string q3)

(* The canonical text is carried in the value, built once by [make]:
   independent of [q_id] and the same text [canonical_string] reads. *)
let test_query_carries_canon () =
  let q2 = q_join_with ~id:"other" () in
  Alcotest.(check string) "q_canon ignores q_id" q_join.Query.q_canon
    q2.Query.q_canon;
  Alcotest.(check string) "q_canon is the canonical string"
    (Query.canonical_string q2) q2.Query.q_canon;
  Alcotest.(check string) "rendered from the clauses"
    "SELECT COUNT(*) FROM emp" (Query.make ~id:"x" [ "emp" ]).Query.q_canon

let test_query_to_sql () =
  let s = Query.to_sql q_join in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true (Astring_contains.contains s fragment))
    [ "SELECT"; "FROM emp, dept"; "WHERE"; "ORDER BY"; "emp.dept = dept.did" ]

let test_agg_query () =
  let q =
    Query.make ~id:"agg"
      ~select:
        [
          Query.Sel_col (cr "emp" "dept");
          Query.Sel_agg (Query.Sum, Some (cr "emp" "salary"));
          Query.Sel_agg (Query.Count_star, None);
        ]
      ~group_by:[ cr "emp" "dept" ]
      [ "emp" ]
  in
  Alcotest.(check bool) "valid" true (Result.is_ok (Query.validate schema q));
  Alcotest.(check bool) "has aggregates" true (Query.has_aggregates q);
  Alcotest.(check (list string))
    "select cols include agg args" [ "dept"; "salary" ]
    (Query.select_columns q "emp")

let () =
  Alcotest.run "im_sqlir"
    [
      ( "datatype",
        [ tc "widths" `Quick test_widths; tc "equal" `Quick test_datatype_equal ]
      );
      ( "value",
        [
          qtest prop_compare_antisym;
          qtest prop_compare_transitive;
          qtest prop_to_float_monotone_int;
          qtest prop_to_float_monotone_str;
          qtest prop_to_string_rule;
          tc "datatype_matches" `Quick test_value_matches;
          tc "add_int" `Quick test_add_int;
        ] );
      ( "schema",
        [
          tc "lookup/widths" `Quick test_schema_lookup;
          tc "validate" `Quick test_schema_validate;
        ] );
      ( "predicate",
        [
          tc "sargable/equality" `Quick test_pred_classify;
          tc "tables/columns" `Quick test_pred_tables_columns;
          tc "to_string" `Quick test_pred_to_string;
        ] );
      ( "query",
        [
          tc "validate ok" `Quick test_query_validate_ok;
          tc "validate errors" `Quick test_query_validate_errors;
          tc "column analyses" `Quick test_query_analyses;
          tc "canonical string" `Quick test_query_canonical;
          tc "canonical text carried" `Quick test_query_carries_canon;
          tc "to_sql" `Quick test_query_to_sql;
          tc "aggregate query" `Quick test_agg_query;
        ] );
    ]
