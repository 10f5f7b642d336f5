(* Tests for the storage substrate: page geometry, the size model, the
   B+-tree (bulk load, inserts, range scans, invariants, accounting) and
   the heap. *)

module Page = Im_storage.Page
module Size_model = Im_storage.Size_model
module Bptree = Im_storage.Bptree
module Heap = Im_storage.Heap
module Value = Im_sqlir.Value
module Schema = Im_sqlir.Schema
module Datatype = Im_sqlir.Datatype
module Rng = Im_util.Rng

let tc = Alcotest.test_case
let qtest = QCheck_alcotest.to_alcotest

(* ---- Page ---- *)

let test_page_rows_per_page () =
  Alcotest.(check bool) "at least one row" true (Page.rows_per_page 100_000 >= 1);
  let w = 100 in
  let expected = Page.usable / (w + Page.row_overhead) in
  Alcotest.(check int) "exact division" expected (Page.rows_per_page w);
  Alcotest.(check bool) "fill factor shrinks" true
    (Page.rows_per_page ~fill:0.5 w < Page.rows_per_page w)

let test_page_pages_for_rows () =
  Alcotest.(check int) "0 rows -> 1 page" 1
    (Page.pages_for_rows ~row_width:50 0);
  let per = Page.rows_per_page 50 in
  Alcotest.(check int) "exactly one page" 1 (Page.pages_for_rows ~row_width:50 per);
  Alcotest.(check int) "one more row spills" 2
    (Page.pages_for_rows ~row_width:50 (per + 1))

(* ---- Size model ---- *)

let test_size_model_small () =
  let s = Size_model.index_size ~key_width:8 ~rows:10 () in
  Alcotest.(check int) "1 leaf" 1 s.Size_model.leaf_pages;
  Alcotest.(check int) "no internals" 0 s.Size_model.internal_pages;
  Alcotest.(check int) "depth 1" 1 s.Size_model.depth

let test_size_model_grows () =
  let s1 = Size_model.index_size ~key_width:16 ~rows:10_000 () in
  let s2 = Size_model.index_size ~key_width:16 ~rows:100_000 () in
  Alcotest.(check bool) "more rows, more pages" true
    (Size_model.total_pages s2 > Size_model.total_pages s1);
  let wide = Size_model.index_size ~key_width:64 ~rows:10_000 () in
  Alcotest.(check bool) "wider keys, more pages" true
    (Size_model.total_pages wide > Size_model.total_pages s1);
  Alcotest.(check bool) "multi-level" true (s2.Size_model.depth >= 2)

let test_size_model_bytes () =
  let rows = 5_000 and key_width = 20 in
  Alcotest.(check int) "bytes = pages * page_size"
    (Size_model.total_pages (Size_model.index_size ~key_width ~rows ())
     * Page.page_size)
    (Size_model.index_bytes ~key_width ~rows ());
  Alcotest.(check int) "table bytes"
    (Size_model.table_pages ~row_width:100 ~rows * Page.page_size)
    (Size_model.table_bytes ~row_width:100 ~rows)

(* ---- B+-tree helpers ---- *)

let key i = [| Value.Int i |]
let wide_key i j = [| Value.Int i; Value.Int j |]

let expect_ok t =
  match Bptree.check_invariants t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariant violated: " ^ msg)

let collect t ~lo ~hi =
  Bptree.fold_range t ~lo ~hi ~init:[] ~f:(fun acc k rid -> (k, rid) :: acc)
  |> List.rev

(* ---- B+-tree ---- *)

let test_bptree_empty () =
  let t = Bptree.create ~key_width:4 in
  Alcotest.(check int) "no entries" 0 (Bptree.entry_count t);
  Alcotest.(check int) "one (empty) leaf page" 1 (Bptree.leaf_pages t);
  Alcotest.(check int) "depth 1" 1 (Bptree.depth t);
  expect_ok t;
  Alcotest.(check (list int)) "empty scan" []
    (List.map snd (collect t ~lo:None ~hi:None))

let test_bptree_bulk_load_order () =
  let entries = List.init 5_000 (fun i -> (key ((i * 37) mod 5_000), i)) in
  let t = Bptree.bulk_load ~key_width:4 entries in
  expect_ok t;
  Alcotest.(check int) "entry count" 5_000 (Bptree.entry_count t);
  let keys =
    Bptree.fold_all t ~init:[] ~f:(fun acc k _ -> k :: acc) |> List.rev
  in
  let sorted = List.sort Bptree.compare_key keys in
  Alcotest.(check bool) "fold_all in key order" true (keys = sorted);
  Alcotest.(check bool) "multi-level" true (Bptree.depth t >= 2)

let test_bptree_insert_many () =
  let t = Bptree.create ~key_width:4 in
  let rng = Rng.create 77 in
  let n = 3_000 in
  for i = 0 to n - 1 do
    Bptree.insert t (key (Rng.int rng 500)) i
  done;
  expect_ok t;
  Alcotest.(check int) "entry count" n (Bptree.entry_count t);
  Alcotest.(check int) "scan sees all" n
    (List.length (collect t ~lo:None ~hi:None));
  Alcotest.(check bool) "splits happened" true (Bptree.splits t > 0);
  Alcotest.(check bool) "writes at least one per insert" true
    (Bptree.page_writes t >= n)

let test_bptree_duplicates () =
  let t = Bptree.create ~key_width:4 in
  for i = 0 to 999 do
    Bptree.insert t (key 42) i
  done;
  expect_ok t;
  let hits = collect t ~lo:(Some (key 42)) ~hi:(Some (key 42)) in
  Alcotest.(check int) "all duplicates found" 1000 (List.length hits);
  Alcotest.(check (list int)) "rids in order" (List.init 1000 Fun.id)
    (List.map snd hits)

let test_bptree_range_exact () =
  let entries = List.init 1_000 (fun i -> (key i, i)) in
  let t = Bptree.bulk_load ~key_width:4 entries in
  let hits = collect t ~lo:(Some (key 100)) ~hi:(Some (key 199)) in
  Alcotest.(check int) "100 hits" 100 (List.length hits);
  Alcotest.(check int) "first" 100 (snd (List.hd hits));
  let above = collect t ~lo:(Some (key 990)) ~hi:None in
  Alcotest.(check int) "open top" 10 (List.length above);
  let below = collect t ~lo:None ~hi:(Some (key 9)) in
  Alcotest.(check int) "open bottom" 10 (List.length below)

let test_bptree_prefix_seek () =
  (* Composite keys (i, j); seek on prefix i only. *)
  let entries =
    List.concat
      (List.init 50 (fun i -> List.init 20 (fun j -> (wide_key i j, (i * 100) + j))))
  in
  let t = Bptree.bulk_load ~key_width:8 entries in
  expect_ok t;
  let hits = collect t ~lo:(Some [| Value.Int 7 |]) ~hi:(Some [| Value.Int 7 |]) in
  Alcotest.(check int) "prefix matches all j" 20 (List.length hits);
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool) "prefix is 7" true (Value.equal k.(0) (Value.Int 7)))
    hits;
  let range =
    collect t ~lo:(Some [| Value.Int 10 |]) ~hi:(Some [| Value.Int 12 |])
  in
  Alcotest.(check int) "prefix range" 60 (List.length range)

let test_bptree_pages_match_model () =
  let rows = 20_000 and key_width = 12 in
  let entries = List.init rows (fun i -> ([| Value.Int i; Value.Float 0. |], i)) in
  (* Key width 12 = int(4) + float(8). *)
  let t = Bptree.bulk_load ~key_width entries in
  let model = Size_model.index_size ~key_width ~rows () in
  let actual = Bptree.total_pages t in
  let expected = Size_model.total_pages model in
  let ratio = float_of_int actual /. float_of_int expected in
  Alcotest.(check bool)
    (Printf.sprintf "tree pages %d within 25%% of model %d" actual expected)
    true
    (ratio > 0.75 && ratio < 1.25);
  Alcotest.(check int) "depth agrees" model.Size_model.depth (Bptree.depth t)

let test_bptree_reset_counters () =
  let t = Bptree.create ~key_width:4 in
  Bptree.insert t (key 1) 1;
  Alcotest.(check bool) "writes recorded" true (Bptree.page_writes t > 0);
  Bptree.reset_counters t;
  Alcotest.(check int) "writes reset" 0 (Bptree.page_writes t);
  Alcotest.(check int) "splits reset" 0 (Bptree.splits t)

(* Property: fold_range over random data equals a naive filter. *)
let prop_range_equals_filter =
  QCheck.Test.make ~name:"fold_range = naive filter" ~count:60
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 300) (int_bound 100))
        (int_bound 100) (int_bound 100))
    (fun (xs, a, b) ->
      let lo = min a b and hi = max a b in
      let entries = List.mapi (fun i x -> (key x, i)) xs in
      let t = Bptree.bulk_load ~key_width:4 entries in
      (match Bptree.check_invariants t with
       | Ok () -> ()
       | Error m -> QCheck.Test.fail_report m);
      let got =
        collect t ~lo:(Some (key lo)) ~hi:(Some (key hi))
        |> List.map snd |> List.sort compare
      in
      let expected =
        List.mapi (fun i x -> (x, i)) xs
        |> List.filter (fun (x, _) -> x >= lo && x <= hi)
        |> List.map snd |> List.sort compare
      in
      got = expected)

(* Property: inserting random entries preserves invariants and count. *)
let prop_insert_invariants =
  QCheck.Test.make ~name:"inserts preserve invariants" ~count:40
    QCheck.(list_of_size (Gen.int_range 0 500) (int_bound 50))
    (fun xs ->
      let t = Bptree.create ~key_width:4 in
      List.iteri (fun i x -> Bptree.insert t (key x) i) xs;
      (match Bptree.check_invariants t with
       | Ok () -> ()
       | Error m -> QCheck.Test.fail_report m);
      Bptree.entry_count t = List.length xs
      && List.length (collect t ~lo:None ~hi:None) = List.length xs)

(* Property: a tree bulk-loaded from one half and incrementally fed the
   other half behaves like a tree holding everything. *)
let prop_mixed_bulk_and_insert =
  QCheck.Test.make ~name:"bulk load + inserts = full contents" ~count:40
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 200) (int_bound 60))
        (list_of_size (Gen.int_range 0 200) (int_bound 60)))
    (fun (bulk, extra) ->
      let entries = List.mapi (fun i x -> (key x, i)) bulk in
      let t = Bptree.bulk_load ~key_width:4 entries in
      List.iteri
        (fun i x -> Bptree.insert t (key x) (List.length bulk + i))
        extra;
      (match Bptree.check_invariants t with
       | Ok () -> ()
       | Error m -> QCheck.Test.fail_report m);
      let scanned =
        Bptree.fold_all t ~init:[] ~f:(fun acc _ rid -> rid :: acc)
        |> List.sort compare
      in
      scanned = List.init (List.length bulk + List.length extra) Fun.id)

(* ---- Buffer pool ---- *)

module Buffer_pool = Im_storage.Buffer_pool

let pg obj n = { Buffer_pool.pg_object = obj; pg_number = n }

let test_pool_basic_hit_miss () =
  let p = Buffer_pool.create ~capacity:2 in
  Alcotest.(check bool) "first access misses" true
    (Buffer_pool.access p (pg "t" 0) = `Miss);
  Alcotest.(check bool) "second access hits" true
    (Buffer_pool.access p (pg "t" 0) = `Hit);
  let s = Buffer_pool.stats p in
  Alcotest.(check int) "hits" 1 s.Buffer_pool.bp_hits;
  Alcotest.(check int) "misses" 1 s.Buffer_pool.bp_misses;
  Alcotest.(check int) "resident" 1 (Buffer_pool.resident p)

let test_pool_lru_eviction () =
  let p = Buffer_pool.create ~capacity:2 in
  ignore (Buffer_pool.access p (pg "t" 0));
  ignore (Buffer_pool.access p (pg "t" 1));
  (* Touch 0 so 1 becomes the LRU victim. *)
  ignore (Buffer_pool.access p (pg "t" 0));
  ignore (Buffer_pool.access p (pg "t" 2));
  Alcotest.(check bool) "0 still resident" true (Buffer_pool.mem p (pg "t" 0));
  Alcotest.(check bool) "1 evicted" false (Buffer_pool.mem p (pg "t" 1));
  Alcotest.(check int) "one eviction" 1
    (Buffer_pool.stats p).Buffer_pool.bp_evictions

let test_pool_distinct_objects () =
  let p = Buffer_pool.create ~capacity:4 in
  ignore (Buffer_pool.access p (pg "a" 0));
  Alcotest.(check bool) "same number, other object misses" true
    (Buffer_pool.access p (pg "b" 0) = `Miss)

let test_pool_reset_stats () =
  let p = Buffer_pool.create ~capacity:2 in
  ignore (Buffer_pool.access p (pg "t" 0));
  Buffer_pool.reset_stats p;
  let s = Buffer_pool.stats p in
  Alcotest.(check int) "misses reset" 0 s.Buffer_pool.bp_misses;
  Alcotest.(check int) "still resident" 1 (Buffer_pool.resident p)

let test_pool_rejects_zero_capacity () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Buffer_pool.create: capacity must be >= 1") (fun () ->
      ignore (Buffer_pool.create ~capacity:0))

(* Property: a pool never holds more than its capacity, and a scan of K
   distinct pages through a pool of capacity >= K misses exactly K on
   the first pass and hits everything on the second. *)
let prop_pool_capacity_and_rescan =
  QCheck.Test.make ~name:"pool capacity bound and warm rescan" ~count:100
    QCheck.(pair (int_range 1 30) (int_range 1 30))
    (fun (cap, pages) ->
      let p = Buffer_pool.create ~capacity:cap in
      for i = 0 to pages - 1 do
        ignore (Buffer_pool.access p (pg "t" i))
      done;
      let first = Buffer_pool.stats p in
      let ok_first =
        first.Buffer_pool.bp_misses = pages
        && Buffer_pool.resident p <= cap
      in
      Buffer_pool.reset_stats p;
      for i = 0 to pages - 1 do
        ignore (Buffer_pool.access p (pg "t" i))
      done;
      let second = Buffer_pool.stats p in
      let ok_second =
        if pages <= cap then second.Buffer_pool.bp_hits = pages
        else second.Buffer_pool.bp_misses > 0
      in
      ok_first && ok_second)

(* ---- Heap ---- *)

let emp =
  Schema.make_table "emp"
    [ ("id", Datatype.Int); ("name", Datatype.Varchar 10) ]

let test_heap_basic () =
  let h =
    Heap.of_rows emp
      [ [| Value.Int 1; Value.Str "a" |]; [| Value.Int 2; Value.Str "b" |] ]
  in
  Alcotest.(check (list int)) "rids in row order" [ 0; 1 ]
    (Heap.fold h ~init:[] ~f:(fun acc rid _ -> rid :: acc) |> List.rev);
  Alcotest.(check int) "count" 2 (Heap.row_count h);
  Alcotest.(check bool) "get" true
    (Value.equal (Heap.get h 1).(0) (Value.Int 2));
  Alcotest.(check int) "column index" 1 (Heap.column_index h "name");
  Alcotest.(check bool) "project" true
    (Value.equal (Heap.project h 0 [ "name" ]).(0) (Value.Str "a"))

let test_heap_column_values () =
  let h =
    Heap.of_rows emp
      [ [| Value.Int 3; Value.Str "x" |]; [| Value.Int 5; Value.Str "y" |] ]
  in
  Alcotest.(check int) "values in rid order" 2
    (List.length (Heap.column_values h "id"));
  Alcotest.(check bool) "first" true
    (Value.equal (List.hd (Heap.column_values h "id")) (Value.Int 3))

let test_heap_pages () =
  Alcotest.(check int) "empty heap 1 page" 1 (Heap.pages (Heap.of_rows emp []));
  let h =
    Heap.of_rows emp
      (List.init 10_000 (fun i -> [| Value.Int i; Value.Str "z" |]))
  in
  Alcotest.(check bool) "pages grow" true (Heap.pages h > 1);
  Alcotest.(check int) "matches model"
    (Size_model.table_pages ~row_width:14 ~rows:10_000)
    (Heap.pages h)

let test_heap_bad_rid () =
  let h = Heap.of_rows emp [] in
  Alcotest.check_raises "bad rid" (Invalid_argument "Heap.get: bad rid")
    (fun () -> ignore (Heap.get h 0))

let test_heap_fold_iter () =
  let h =
    Heap.of_rows emp
      [ [| Value.Int 1; Value.Str "a" |]; [| Value.Int 2; Value.Str "b" |] ]
  in
  let sum =
    Heap.fold h ~init:0 ~f:(fun acc _ row ->
        match row.(0) with Value.Int i -> acc + i | _ -> acc)
  in
  Alcotest.(check int) "fold" 3 sum;
  let seen = ref 0 in
  Heap.iter h (fun _ _ -> incr seen);
  Alcotest.(check int) "iter" 2 !seen

let () =
  Alcotest.run "im_storage"
    [
      ( "page",
        [
          tc "rows per page" `Quick test_page_rows_per_page;
          tc "pages for rows" `Quick test_page_pages_for_rows;
        ] );
      ( "size_model",
        [
          tc "small index" `Quick test_size_model_small;
          tc "growth" `Quick test_size_model_grows;
          tc "bytes" `Quick test_size_model_bytes;
        ] );
      ( "bptree",
        [
          tc "empty" `Quick test_bptree_empty;
          tc "bulk load order" `Quick test_bptree_bulk_load_order;
          tc "insert many" `Quick test_bptree_insert_many;
          tc "duplicates" `Quick test_bptree_duplicates;
          tc "exact ranges" `Quick test_bptree_range_exact;
          tc "prefix seek" `Quick test_bptree_prefix_seek;
          tc "pages match size model" `Quick test_bptree_pages_match_model;
          tc "reset counters" `Quick test_bptree_reset_counters;
          qtest prop_range_equals_filter;
          qtest prop_insert_invariants;
          qtest prop_mixed_bulk_and_insert;
        ] );
      ( "buffer_pool",
        [
          tc "hit/miss" `Quick test_pool_basic_hit_miss;
          tc "LRU eviction" `Quick test_pool_lru_eviction;
          tc "objects distinguish pages" `Quick test_pool_distinct_objects;
          tc "reset stats" `Quick test_pool_reset_stats;
          tc "zero capacity rejected" `Quick test_pool_rejects_zero_capacity;
          qtest prop_pool_capacity_and_rescan;
        ] );
      ( "heap",
        [
          tc "basic" `Quick test_heap_basic;
          tc "column values" `Quick test_heap_column_values;
          tc "pages" `Quick test_heap_pages;
          tc "bad rid" `Quick test_heap_bad_rid;
          tc "fold/iter" `Quick test_heap_fold_iter;
        ] );
    ]
