(* Tests for the SQL lexer and parser: round-trips through the query
   AST, resolution and coercion rules, and error reporting. *)

module Schema = Im_sqlir.Schema
module Datatype = Im_sqlir.Datatype
module Value = Im_sqlir.Value
module Predicate = Im_sqlir.Predicate
module Query = Im_sqlir.Query
module Lexer = Im_sqlir.Lexer
module Parser = Im_sqlir.Parser

let tc = Alcotest.test_case

let schema =
  Schema.make
    [
      Schema.make_table "orders"
        [
          ("o_id", Datatype.Int);
          ("o_cust", Datatype.Int);
          ("o_total", Datatype.Float);
          ("o_date", Datatype.Date);
          ("o_status", Datatype.Varchar 10);
        ];
      Schema.make_table "customer"
        [ ("c_id", Datatype.Int); ("c_name", Datatype.Varchar 25) ];
    ]

let parse s =
  match Parser.parse_query ~schema s with
  | Ok q -> q
  | Error msg -> Alcotest.failf "parse failed: %s (input: %s)" msg s

let expect_error s =
  match Parser.parse_query ~schema s with
  | Ok q -> Alcotest.failf "expected failure, parsed: %s" (Query.to_sql q)
  | Error _ -> ()

(* ---- Lexer ---- *)

let test_lexer_tokens () =
  match Lexer.tokenize "SELECT o_id, orders.o_total FROM orders WHERE o_total >= 10.5" with
  | Error m -> Alcotest.fail m
  | Ok toks ->
    Alcotest.(check bool) "has SELECT kw" true (List.mem (Lexer.Kw "SELECT") toks);
    Alcotest.(check bool) "qualified ref" true
      (List.mem (Lexer.Qualified ("orders", "o_total")) toks);
    Alcotest.(check bool) "float literal" true
      (List.mem (Lexer.Float_lit 10.5) toks);
    Alcotest.(check bool) "op" true (List.mem (Lexer.Op ">=") toks)

let test_lexer_strings_and_comments () =
  (match Lexer.tokenize "-- a comment\n'it''s' <> 'x'" with
   | Ok [ Lexer.String_lit s; Lexer.Op "<>"; Lexer.String_lit "x"; Lexer.Eof ] ->
     Alcotest.(check string) "escaped quote" "it's" s
   | Ok toks ->
     Alcotest.failf "unexpected tokens: %s"
       (String.concat " " (List.map Lexer.pp_token toks))
   | Error m -> Alcotest.fail m);
  (match Lexer.tokenize "'unterminated" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unterminated string accepted")

let test_lexer_date () =
  match Lexer.tokenize "DATE '1995-03-15'" with
  | Ok [ Lexer.Date_lit d; Lexer.Eof ] ->
    Alcotest.(check bool) "plausible day number" true (d > 1100 && d < 1300)
  | Ok _ | Error _ -> Alcotest.fail "DATE literal not recognized"

let test_lexer_negative_number () =
  match Lexer.tokenize "-42 -7.5" with
  | Ok [ Lexer.Int_lit a; Lexer.Float_lit b; Lexer.Eof ] ->
    Alcotest.(check int) "int" (-42) a;
    Alcotest.(check (float 1e-9)) "float" (-7.5) b
  | Ok _ | Error _ -> Alcotest.fail "negative literals not recognized"

(* ---- Parser: happy paths ---- *)

let test_parse_simple () =
  let q = parse "SELECT o_id, o_total FROM orders" in
  Alcotest.(check (list string)) "tables" [ "orders" ] q.Query.q_tables;
  Alcotest.(check int) "select items" 2 (List.length q.Query.q_select);
  Alcotest.(check (list string)) "columns resolved" [ "o_id"; "o_total" ]
    (Query.referenced_columns q "orders")

let test_parse_where_forms () =
  let q =
    parse
      "SELECT o_id FROM orders WHERE o_status = 'OPEN' AND o_total BETWEEN 10 \
       AND 99.5 AND o_cust IN (1, 2, 3) AND o_date >= DATE '1994-01-01'"
  in
  Alcotest.(check int) "four conjuncts" 4 (List.length q.Query.q_where);
  let kinds =
    List.map
      (function
        | Predicate.Cmp (Predicate.Eq, _, Value.Str _) -> "eq-str"
        | Predicate.Between (_, Value.Float _, Value.Float _) -> "between-float"
        | Predicate.In_list (_, _) -> "in"
        | Predicate.Cmp (Predicate.Ge, _, Value.Date _) -> "ge-date"
        | _ -> "?")
      q.Query.q_where
  in
  Alcotest.(check (list string)) "conjunct forms"
    [ "eq-str"; "between-float"; "in"; "ge-date" ]
    kinds

let test_parse_join_and_qualify () =
  let q =
    parse
      "SELECT customer.c_name, COUNT(*) FROM orders, customer WHERE \
       orders.o_cust = customer.c_id GROUP BY customer.c_name"
  in
  Alcotest.(check int) "one join" 1 (List.length (Query.join_predicates q));
  Alcotest.(check bool) "aggregated" true (Query.has_aggregates q);
  Alcotest.(check (list string)) "grouped" [ "c_name" ]
    (Query.group_by_columns q "customer")

let test_parse_aggregates () =
  let q =
    parse
      "SELECT o_cust, SUM(o_total), AVG(o_total), MIN(o_date), MAX(o_date), \
       COUNT(*) FROM orders GROUP BY o_cust ORDER BY o_cust DESC"
  in
  Alcotest.(check int) "six items" 6 (List.length q.Query.q_select);
  (match q.Query.q_order_by with
   | [ (c, Query.Desc) ] ->
     Alcotest.(check string) "order col" "o_cust" c.Predicate.cr_column
   | _ -> Alcotest.fail "order by not parsed")

let test_parse_literal_coercion () =
  (* Int literal against float and date columns. *)
  let q = parse "SELECT o_id FROM orders WHERE o_total < 100 AND o_date < 500" in
  (match q.Query.q_where with
   | [ Predicate.Cmp (_, _, Value.Float f); Predicate.Cmp (_, _, Value.Date d) ]
     ->
     Alcotest.(check (float 1e-9)) "coerced float" 100. f;
     Alcotest.(check int) "coerced date" 500 d
   | _ -> Alcotest.fail "coercion failed")

let test_parse_flipped_literal () =
  let q = parse "SELECT o_id FROM orders WHERE 100 <= o_total" in
  match q.Query.q_where with
  | [ Predicate.Cmp (Predicate.Ge, c, Value.Float _) ] ->
    Alcotest.(check string) "column side" "o_total" c.Predicate.cr_column
  | _ -> Alcotest.fail "flip failed"

let test_parse_roundtrip_to_sql () =
  (* to_sql output of a parsed query parses back to the same canonical
     form (to_sql always qualifies columns). *)
  let q1 =
    parse
      "SELECT o_cust, SUM(o_total), COUNT(*) FROM orders WHERE o_status = \
       'OPEN' GROUP BY o_cust ORDER BY o_cust"
  in
  let q2 = parse (Query.to_sql q1) in
  Alcotest.(check string) "fixpoint" (Query.canonical_string q1)
    (Query.canonical_string q2)

(* Literals that the canonical text once rendered lossily: an embedded
   quote, 7+ significant digits, and an IN-list value holding what
   looks like a list separator. Each parses back from to_sql, and
   survives a workload file save/load, with the same canonical text
   and the same values. *)
let test_literal_text_roundtrip () =
  let texts =
    [
      "SELECT o_id FROM orders WHERE o_status = 'it''s'";
      "SELECT o_id FROM orders WHERE o_status IN ('x'', ''y', 'x', 'y')";
      "SELECT o_id FROM orders WHERE o_total = 10266.23";
      "SELECT o_id FROM orders WHERE o_total BETWEEN 1234567.5 AND \
       123456789.25";
      "SELECT o_id FROM orders WHERE o_total < 0.1234567";
    ]
  in
  let qs = List.map parse texts in
  let same what a b =
    Alcotest.(check string) what (Query.canonical_string a)
      (Query.canonical_string b);
    Alcotest.(check bool) (what ^ ": same predicates") true
      (a.Query.q_where = b.Query.q_where)
  in
  List.iter (fun q -> same "to_sql parses back" q (parse (Query.to_sql q))) qs;
  Alcotest.(check bool) "IN-list values keep their own text" false
    (Query.canonical_string (parse "SELECT o_id FROM orders WHERE o_status \
                                    IN ('x'', ''y')")
    = Query.canonical_string (parse "SELECT o_id FROM orders WHERE o_status \
                                     IN ('x', 'y')"));
  let path = Filename.temp_file "im_literals" ".sql" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Im_workload.Workload_file.save (Im_workload.Workload.make qs) path;
      match Im_workload.Workload_file.load ~schema path with
      | Error m -> Alcotest.fail m
      | Ok w -> List.iter2 (same "saved and loaded") qs (Im_workload.Workload.queries w))

let test_parse_statements_script () =
  let script =
    "SELECT o_id FROM orders;\n-- second one\nSELECT c_id FROM customer;"
  in
  match Parser.parse_statements ~schema ~id_prefix:"W" script with
  | Ok [ q1; q2 ] ->
    Alcotest.(check (list string)) "ids" [ "W1"; "W2" ]
      [ q1.Query.q_id; q2.Query.q_id ]
  | Ok qs -> Alcotest.failf "expected 2 statements, got %d" (List.length qs)
  | Error m -> Alcotest.fail m

(* ---- Parser: rejections ---- *)

let test_parse_errors () =
  expect_error "SELECT";
  expect_error "SELECT o_id FROM nope";
  expect_error "SELECT nope FROM orders";
  expect_error "SELECT o_id FROM orders WHERE o_status = 42";
  expect_error "SELECT o_id FROM orders WHERE o_total < o_date";
  (* only equality joins *)
  expect_error "SELECT o_id FROM orders, customer WHERE o_cust < customer.c_id";
  (* aggregates need grouping of plain columns *)
  expect_error "SELECT o_id, COUNT(*) FROM orders";
  (* ambiguous unqualified column across FROM tables *)
  let amb_schema =
    Schema.make
      [
        Schema.make_table "a" [ ("x", Datatype.Int) ];
        Schema.make_table "b" [ ("x", Datatype.Int) ];
      ]
  in
  (match Parser.parse_query ~schema:amb_schema "SELECT x FROM a, b" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "ambiguous column accepted");
  expect_error "SELECT o_id FROM orders extra";
  expect_error "SELECT o_id FROM orders WHERE o_status = 'wayyyyy too long for varchar ten'"

let test_parse_tpcd_query_on_real_schema () =
  (* Parse a Q6-alike against the TPC-D schema and run the pipeline. *)
  let tpcd = Im_workload.Tpcd.schema in
  match
    Parser.parse_query ~schema:tpcd
      "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate >= DATE \
       '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount \
       BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
  with
  | Error m -> Alcotest.fail m
  | Ok q ->
    Alcotest.(check (list string)) "sargable columns"
      [ "l_shipdate"; "l_discount"; "l_quantity" ]
      (Query.sargable_columns q "lineitem")

(* Property: to_sql output of any generated query parses back to the
   same canonical form, on both workload generators and both database
   families. *)
let prop_generated_roundtrip =
  let sdb =
    Im_workload.Synthetic.database ~seed:13
      {
        Im_workload.Synthetic.sp_name = "rt";
        sp_tables = 3;
        sp_cols_lo = 4;
        sp_cols_hi = 7;
        sp_rows_lo = 100;
        sp_rows_hi = 200;
      }
  in
  let rng = Im_util.Rng.create 6 in
  let pool =
    Im_workload.Workload.queries (Im_workload.Ragsgen.generate sdb ~rng ~n:40)
    @ Im_workload.Workload.queries
        (Im_workload.Projgen.generate sdb ~rng ~n:20)
    @ Im_workload.Tpcd_queries.all
  in
  let queries = Array.of_list pool in
  let schema_for (q : Query.t) =
    if List.exists (fun t -> Schema.mem_table Im_workload.Tpcd.schema t) q.Query.q_tables
    then Im_workload.Tpcd.schema
    else Im_catalog.Database.schema sdb
  in
  QCheck.Test.make ~name:"generated queries round trip through SQL" ~count:77
    QCheck.(int_bound (Array.length queries - 1))
    (fun i ->
      let q = queries.(i) in
      let sql = Query.to_sql q in
      match Parser.parse_query ~schema:(schema_for q) sql with
      | Ok q' -> Query.canonical_string q = Query.canonical_string q'
      | Error msg -> QCheck.Test.fail_reportf "%s: %s" msg sql)

(* ---- Literal range ---- *)

let test_integer_overflow () =
  let overflow = "char 30: integer literal out of range" in
  Alcotest.(check (result reject string)) "int_of_string never escapes"
    (Error overflow)
    (Result.map ignore
       (Parser.parse_query ~schema
          "SELECT o_id FROM orders WHERE 99999999999999999999 = o_id"));
  (match Lexer.tokenize "date:99999999999999999999" with
   | Error msg ->
     Alcotest.(check string) "date:N too" "char 5: integer literal out of range" msg
   | Ok _ -> Alcotest.fail "overflowing date:N accepted");
  (match Lexer.tokenize "4611686018427387903 -4611686018427387904" with
   | Ok [ Lexer.Int_lit a; Lexer.Int_lit b; Lexer.Eof ] ->
     Alcotest.(check (pair int int)) "max_int and min_int still fit"
       (max_int, min_int) (a, b)
   | Ok _ | Error _ -> Alcotest.fail "int range edges not recognized")

(* ---- Prepared statements ---- *)

let same_result what expected got =
  match (expected, got) with
  | Ok q, Ok q' when q = q' -> ()
  | Error m, Error m' when String.equal m m' -> ()
  | _ ->
    let show = function
      | Ok q -> Printf.sprintf "Ok %s [%s]" (Query.to_sql q) q.Query.q_id
      | Error m -> "Error " ^ m
    in
    Alcotest.failf "%s: parse_query gives %s, Prepared.parse gives %s" what
      (show expected) (show got)

let check_prepared cache ~id text =
  same_result text (Parser.parse_query ~schema ~id text)
    (Parser.Prepared.parse cache ~id text)

let test_prepared_hit_coercion_error () =
  let cache = Parser.Prepared.create schema in
  check_prepared cache ~id:"a" "SELECT o_id FROM orders WHERE o_status = 'OPEN'";
  check_prepared cache ~id:"b" "SELECT o_id FROM orders WHERE o_status = 'SHIPPED'";
  Alcotest.(check int) "one shape" 1 (Parser.Prepared.size cache);
  (* Same shape, but the string is too long for varchar(10). *)
  (match
     Parser.Prepared.parse cache ~id:"c"
       "SELECT o_id FROM orders WHERE o_status = 'much too long for ten'"
   with
   | Error msg ->
     Alcotest.(check string) "parse_query's message"
       "string \"much too long for ten\" too long for orders.o_status (varchar 10)"
       msg
   | Ok _ -> Alcotest.fail "overlong string accepted on a hit");
  (* An int shape against a float column coerces; the same shape with a
     float literal is a different shape, and against an int column an
     error. *)
  check_prepared cache ~id:"d" "SELECT o_id FROM orders WHERE o_cust = 7 AND o_total < 3";
  check_prepared cache ~id:"e" "SELECT o_id FROM orders WHERE o_cust = 8 AND o_total < 4";
  check_prepared cache ~id:"f" "SELECT o_id FROM orders WHERE o_cust = 8.5 AND o_total < 4";
  check_prepared cache ~id:"g"
    "SELECT o_id FROM orders WHERE o_cust = 99999999999999999999 AND o_total < 4"

let test_prepared_capacity () =
  let cache = Parser.Prepared.create schema in
  let shape i = Printf.sprintf "SELECT o_id FROM orders WHERE o_id = 1%s" (String.make i ' ') in
  for i = 0 to Parser.Prepared.capacity - 1 do
    check_prepared cache ~id:"q" (shape i)
  done;
  Alcotest.(check int) "full" Parser.Prepared.capacity (Parser.Prepared.size cache);
  check_prepared cache ~id:"q" (shape 0);
  Alcotest.(check int) "a hit adds nothing" Parser.Prepared.capacity
    (Parser.Prepared.size cache);
  check_prepared cache ~id:"q" (shape Parser.Prepared.capacity);
  Alcotest.(check int) "cleared before the next insert" 1
    (Parser.Prepared.size cache)

let test_prepared_errors_unchanged () =
  let cache = Parser.Prepared.create schema in
  List.iter
    (fun text ->
      (* Twice: a failed parse is never cached. *)
      check_prepared cache ~id:"q" text;
      check_prepared cache ~id:"q" text)
    [
      "";
      "   -- only a comment";
      ";";
      "SELECT o_id FROM orders; SELECT c_id FROM customer";
      "SELECT o_id FROM orders WHERE o_id = 1; SELECT o_id FROM orders WHERE o_id = 2";
      "SELECT o_id FROM orders WHERE o_id = 'x'";
      "SELECT o_id FROM orders WHERE o_id = 1 @";
      "SELECT o_id FROM orders WHERE o_status = 'open";
      "SELECT o_id FROM orders WHERE o_date = DATE '1994-13'";
      "SELECT o_id FROM orders WHERE o_date = date:";
      "SELECT o_id FROM orders WHERE 5";
      "SELECT o_id FROM orders WHERE o_id IN ()";
    ];
  Alcotest.(check int) "nothing cached" 0 (Parser.Prepared.size cache)

(* ---- Layout generator ----

   Generated workloads for all three databases, each query re-rendered
   from its canonical SQL in a random layout (keyword case, whitespace,
   comments) with its literals replaced through [lit]. *)

let layout_pool =
  let dbs =
    [
      Im_workload.Tpcd.database ~sf:0.002 ();
      Im_workload.Synthetic.database ~seed:1 Im_workload.Synthetic.synthetic1;
      Im_workload.Synthetic.database ~seed:2 Im_workload.Synthetic.synthetic2;
    ]
  in
  List.concat_map
    (fun db ->
      let schema = Im_catalog.Database.schema db in
      let rng = Im_util.Rng.create 5 in
      let cache = Parser.Prepared.create schema in
      List.map
        (fun q -> (schema, cache, Query.to_sql q))
        (Im_workload.Workload.queries (Im_workload.Ragsgen.generate db ~rng ~n:40)
        @ Im_workload.Workload.queries (Im_workload.Projgen.generate db ~rng ~n:10)
        @ if Schema.mem_table schema "lineitem" then Im_workload.Tpcd_queries.all
          else []))
    dbs
  |> Array.of_list

(* Canonical SQL split into words and separators; a word is a keyword,
   identifier, operator or literal. *)
let pieces sql =
  let n = String.length sql in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match sql.[i] with
      | ' ' -> go (i + 1) acc
      | (',' | '(' | ')') as c -> go (i + 1) (`Sep (String.make 1 c) :: acc)
      | '\'' ->
        let j = String.index_from sql (i + 1) '\'' in
        go (j + 1) (`Str (String.sub sql (i + 1) (j - i - 1)) :: acc)
      | _ ->
        let j = ref i in
        while !j < n && not (List.mem sql.[!j] [ ' '; ','; '('; ')' ]) do incr j done;
        go !j (`Word (String.sub sql i (!j - i)) :: acc)
  in
  go 0 []

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let int_text rng =
  pick rng
    [ string_of_int (Random.State.int rng 100); string_of_int (-Random.State.int rng 100);
      string_of_int max_int; string_of_int min_int ]

let float_text rng = pick rng [ "2.5"; "-0.75"; "1e3"; "-7.5E-1"; "3."; "2e+2" ]

let string_text rng =
  let len = pick rng [ 0; 3; 8; 10; 11; 25; 40 ] in
  String.concat ""
    (List.init len (fun _ ->
         if Random.State.int rng 8 = 0 then "''"
         else String.make 1 (Char.chr (97 + Random.State.int rng 26))))

let date_text rng =
  let ymd () =
    Printf.sprintf "%d-%d-%02d" (1992 + Random.State.int rng 8)
      (1 + Random.State.int rng 12) (1 + Random.State.int rng 28)
  in
  pick rng
    [ Printf.sprintf "date:%d" (Random.State.int rng 3000);
      Printf.sprintf "DATE '%s'" (ymd ()); Printf.sprintf "date   '%s'" (ymd ()) ]

let number rng =
  match Random.State.int rng 6 with
  | 0 -> pick rng [ "99999999999999999999"; "-99999999999999999999" ]
  | 1 | 2 -> float_text rng
  | _ -> int_text rng

let date rng =
  match Random.State.int rng 5 with
  | 0 -> "date:99999999999999999999"
  | 1 -> string_of_int (Random.State.int rng 3000)
  | _ -> date_text rng

(* A literal's new text: mostly the same kind, sometimes any kind. *)
let perturb rng lit =
  let kind = if Random.State.int rng 5 = 0 then pick rng [ `N; `S; `D ] else lit in
  match kind with
  | `N -> number rng
  | `S -> "'" ^ string_text rng ^ "'"
  | `D -> date rng

let layout_keywords =
  [ "SELECT"; "FROM"; "WHERE"; "AND"; "GROUP"; "ORDER"; "BY"; "ASC"; "DESC";
    "BETWEEN"; "IN"; "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" ]

let keyword_case rng w =
  String.map (fun c -> if Random.State.bool rng then Char.lowercase_ascii c else c) w

let gap rng ~needed =
  match Random.State.int rng 8 with
  | 0 when not needed -> ""
  | 1 -> "\n"
  | 2 -> "\t "
  | 3 -> "  -- a comment with 1 'quote\n"
  | 4 -> "\r\n  "
  | _ -> " "

(* [lit kind text] is the text of the literal [text] (a string's body
   for [`S]) of kind [`N] (number), [`S] (string) or [`D] (date:N). *)
let render ~layout ~lit sql =
  let buf = Buffer.create 256 in
  let prev_word = ref false in
  List.iter
    (fun p ->
      let is_word = match p with `Sep _ -> false | `Word _ | `Str _ -> true in
      if Buffer.length buf > 0 then
        Buffer.add_string buf (gap layout ~needed:(is_word && !prev_word));
      prev_word := is_word;
      Buffer.add_string buf
        (match p with
         | `Sep s -> s
         | `Str s -> lit `S s
         | `Word w when List.mem w layout_keywords -> keyword_case layout w
         | `Word w when String.length w > 5 && String.sub w 0 5 = "date:" -> lit `D w
         | `Word w when w.[0] = '-' || (w.[0] >= '0' && w.[0] <= '9') -> lit `N w
         | `Word w -> w))
    (pieces sql);
  if Random.State.bool layout then Buffer.add_string buf ";";
  Buffer.contents buf

(* Strings keep their text two times in three; every other literal is
   perturbed. *)
let perturbed constants kind text =
  match kind with
  | `S when Random.State.int constants 3 <> 0 -> "'" ^ text ^ "'"
  | kind -> perturb constants kind

(* Property: [Prepared.parse] equals [parse_query] (structurally, so the
   id and canonical text too, and the error text on failure). Each case
   renders one query of the layout pool in a random layout and then with
   three sets of perturbed constants under that layout, and feeds the
   first text again, so every shape that parses is hit. *)
let prop_prepared_equals_parse =
  let counter = ref 0 in
  let check schema cache text =
    incr counter;
    let id = Printf.sprintf "P%d" !counter in
    let expected = Parser.parse_query ~schema ~id text in
    let got = Parser.Prepared.parse cache ~id text in
    let same =
      match (expected, got) with
      | Ok q, Ok q' ->
        q = q' && String.equal q.Query.q_canon q'.Query.q_canon
        && String.equal q.Query.q_id q'.Query.q_id
      | Error m, Error m' -> String.equal m m'
      | _ -> false
    in
    if not same then QCheck.Test.fail_reportf "differs on %S" text;
    got
  in
  (* 600 cases add fewer shapes than a cache holds, so the repeated text
     is always answered from the template: its tables are the very list
     the template holds, not a fresh parse's. *)
  QCheck.Test.make ~name:"Prepared.parse = parse_query on perturbed workloads"
    ~count:600
    QCheck.(pair (int_bound (Array.length layout_pool - 1)) (pair int int))
    (fun (i, (layout_seed, constant_seed)) ->
      let schema, cache, sql = layout_pool.(i) in
      let constants = Random.State.make [| constant_seed |] in
      let text () =
        render ~layout:(Random.State.make [| layout_seed |]) ~lit:(perturbed constants) sql
      in
      let first = text () in
      let r1 = check schema cache first in
      ignore (check schema cache (text ()));
      ignore (check schema cache (text ()));
      match (r1, check schema cache first) with
      | Ok q, Ok q' ->
        q.Query.q_tables == q'.Query.q_tables
        || QCheck.Test.fail_reportf "repeated text not served from the cache: %S"
             first
      | _ -> true)

let shape text =
  let key = Buffer.create 64 in
  Option.map (fun lits -> (Buffer.contents key, lits)) (Lexer.shape text key)

let is_literal = function
  | Lexer.Int_lit _ | Lexer.Float_lit _ | Lexer.String_lit _ | Lexer.Date_lit _ -> true
  | _ -> false

(* Property: [Lexer.shape] reads literals as [tokenize] does. On
   perturbed layouts (overflowing numbers included) it fails exactly
   when [tokenize] does, and otherwise returns [tokenize]'s literal
   tokens, in order. *)
let prop_shape_literals_are_tokens =
  QCheck.Test.make ~name:"shape's literals are tokenize's" ~count:500
    QCheck.(pair (int_bound (Array.length layout_pool - 1)) (pair int int))
    (fun (i, (layout_seed, constant_seed)) ->
      let _, _, sql = layout_pool.(i) in
      let text =
        render ~layout:(Random.State.make [| layout_seed |])
          ~lit:(perturbed (Random.State.make [| constant_seed |])) sql
      in
      match (Lexer.tokenize text, shape text) with
      | Ok toks, Some (_, lits) ->
        List.filter is_literal toks = lits
        || QCheck.Test.fail_reportf "literals differ on %S" text
      | Error _, None -> true
      | Ok _, None -> QCheck.Test.fail_reportf "shape rejects %S" text
      | Error m, Some _ -> QCheck.Test.fail_reportf "shape accepts %S (%s)" text m)

(* Property: texts that differ only in literal values of the same kind
   (int, float, string, date in either form) have one shape key. Both
   texts share the layout and each literal's kind; only the values are
   drawn apart. *)
let prop_same_kind_same_key =
  QCheck.Test.make ~name:"same-kind literals share a shape key" ~count:500
    QCheck.(pair (int_bound (Array.length layout_pool - 1)) (triple int int (pair int int)))
    (fun (i, (layout_seed, kind_seed, (seed_a, seed_b))) ->
      let _, _, sql = layout_pool.(i) in
      let text seed =
        let kinds = Random.State.make [| kind_seed |] and values = Random.State.make [| seed |] in
        let lit kind _ =
          match (kind, Random.State.bool kinds) with
          | `N, true -> int_text values
          | `N, false -> float_text values
          | `S, _ -> "'" ^ string_text values ^ "'"
          | `D, _ -> date_text values
        in
        render ~layout:(Random.State.make [| layout_seed |]) ~lit sql
      in
      let a = text seed_a and b = text seed_b in
      match (shape a, shape b) with
      | Some (ka, _), Some (kb, _) ->
        String.equal ka kb || QCheck.Test.fail_reportf "keys differ: %S, %S" a b
      | _ -> QCheck.Test.fail_reportf "no shape for %S or %S" a b)

let () =
  Alcotest.run "im_parser"
    [
      ( "lexer",
        [
          tc "tokens" `Quick test_lexer_tokens;
          tc "strings and comments" `Quick test_lexer_strings_and_comments;
          tc "date literal" `Quick test_lexer_date;
          tc "negative numbers" `Quick test_lexer_negative_number;
          QCheck_alcotest.to_alcotest prop_shape_literals_are_tokens;
          QCheck_alcotest.to_alcotest prop_same_kind_same_key;
        ] );
      ( "parser",
        [
          tc "simple select" `Quick test_parse_simple;
          tc "where forms" `Quick test_parse_where_forms;
          tc "join + qualification" `Quick test_parse_join_and_qualify;
          tc "aggregates + order" `Quick test_parse_aggregates;
          tc "literal coercion" `Quick test_parse_literal_coercion;
          tc "flipped literal" `Quick test_parse_flipped_literal;
          tc "to_sql fixpoint" `Quick test_parse_roundtrip_to_sql;
          tc "script of statements" `Quick test_parse_statements_script;
          tc "rejections" `Quick test_parse_errors;
          tc "TPC-D Q6 text" `Quick test_parse_tpcd_query_on_real_schema;
          QCheck_alcotest.to_alcotest prop_generated_roundtrip;
          tc "integer literal out of range" `Quick test_integer_overflow;
          tc "literal text round-trip" `Quick test_literal_text_roundtrip;
        ] );
      ( "prepared",
        [
          tc "hit with a failing coercion" `Quick test_prepared_hit_coercion_error;
          tc "cleared at capacity" `Quick test_prepared_capacity;
          tc "errors unchanged" `Quick test_prepared_errors_unchanged;
          QCheck_alcotest.to_alcotest prop_prepared_equals_parse;
        ] );
    ]
