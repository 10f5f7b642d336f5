module Schema = Im_sqlir.Schema
module Heap = Im_storage.Heap
module Bptree = Im_storage.Bptree

type t = {
  db_schema : Schema.t;
  heaps : (string, Heap.t) Hashtbl.t;
  stats_cache : (string * string, Im_stats.Column_stats.t) Hashtbl.t;
  stats_lock : Mutex.t;  (* guards stats_cache only *)
  materialized : (string, Bptree.t) Hashtbl.t;  (* keyed by index name *)
  stats_seed : int;
  sample_threshold : int;
  sample_size : int;
}

let create ?(seed = 42) ?(sample_threshold = 20_000) ?(sample_size = 5_000)
    schema rows_by_table =
  (match Schema.validate schema with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Database.create: " ^ msg));
  let heaps = Hashtbl.create 16 in
  List.iter
    (fun (tbl : Schema.table) ->
      let rows =
        match List.assoc_opt tbl.Schema.tbl_name rows_by_table with
        | Some rows -> rows
        | None -> []
      in
      Hashtbl.replace heaps tbl.Schema.tbl_name (Heap.of_rows tbl rows))
    schema.Schema.tables;
  {
    db_schema = schema;
    heaps;
    stats_cache = Hashtbl.create 64;
    stats_lock = Mutex.create ();
    materialized = Hashtbl.create 16;
    stats_seed = seed;
    sample_threshold;
    sample_size;
  }

let schema t = t.db_schema

let heap t name =
  match Hashtbl.find_opt t.heaps name with
  | Some h -> h
  | None -> invalid_arg ("Database.heap: unknown table " ^ name)

let row_count t name = Heap.row_count (heap t name)

let table_pages t name = Heap.pages (heap t name)

let data_pages t =
  List.fold_left
    (fun acc (tbl : Schema.table) -> acc + table_pages t tbl.Schema.tbl_name)
    0 t.db_schema.Schema.tables

let stats t tbl col =
  let key = (tbl, col) in
  Mutex.lock t.stats_lock;
  let cached = Hashtbl.find_opt t.stats_cache key in
  Mutex.unlock t.stats_lock;
  match cached with
  | Some s -> s
  | None ->
    let h = heap t tbl in
    let values = Heap.column_values h col in
    let sample =
      if Heap.row_count h > t.sample_threshold then
        (* The sampling seed is derived from the column, not drawn from
           a shared mutable stream: histograms must not depend on the
           order in which columns are first touched, or parallel
           evaluation would see different stats than sequential. *)
        Some
          ( t.sample_size,
            Im_util.Rng.create (t.stats_seed + Hashtbl.hash key) )
      else None
    in
    let s = Im_stats.Column_stats.build ~table:tbl ~column:col ?sample values in
    (* The build runs outside the lock; a concurrent duplicate build
       produced an identical value (deterministic seed), but publish
       only the first so every caller shares one object. *)
    Mutex.lock t.stats_lock;
    let s =
      match Hashtbl.find_opt t.stats_cache key with
      | Some first -> first
      | None ->
        Hashtbl.replace t.stats_cache key s;
        s
    in
    Mutex.unlock t.stats_lock;
    s

let index_pages t ix =
  Config.index_pages t.db_schema ~row_count:(row_count t) ix

let config_storage_pages t config =
  Config.storage_pages t.db_schema ~row_count:(row_count t) config

let materialize t ix =
  match Hashtbl.find_opt t.materialized ix.Index.idx_name with
  | Some tree -> tree
  | None ->
    let h = heap t ix.Index.idx_table in
    let entries =
      Heap.fold h ~init:[] ~f:(fun acc rid _row ->
          (Heap.project h rid ix.Index.idx_columns, rid) :: acc)
    in
    let tree =
      Bptree.bulk_load ~key_width:(Index.key_width t.db_schema ix) entries
    in
    Hashtbl.replace t.materialized ix.Index.idx_name tree;
    tree
