module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Schema = Im_sqlir.Schema
module Page = Im_storage.Page
module Size_model = Im_storage.Size_model
module Bptree = Im_storage.Bptree
module Heap = Im_storage.Heap

let expected_leaves_touched ~inserts ~leaf_pages =
  let l = float_of_int (max 1 leaf_pages) in
  let k = float_of_int inserts in
  l *. (1. -. Float.pow (1. -. (1. /. l)) k)

let index_batch_cost db ix ~inserts =
  let schema = Database.schema db in
  let key_width = Index.key_width schema ix in
  let rows = Database.row_count db ix.Index.idx_table in
  let size = Size_model.index_size ~key_width ~rows () in
  let touched =
    expected_leaves_touched ~inserts ~leaf_pages:size.Size_model.leaf_pages
  in
  let per_leaf = Page.rows_per_page (key_width + Page.rid_width) in
  let splits = float_of_int inserts /. float_of_int per_leaf in
  (* Each touched leaf is read and written once per batch; splits write
     an extra page and update the parent. *)
  (touched
   *. (Im_optimizer.Cost_params.random_page +. Im_optimizer.Cost_params.seq_page))
  +. (splits *. 2. *. Im_optimizer.Cost_params.seq_page)
  +. (float_of_int inserts *. Im_optimizer.Cost_params.cpu_row)

let heap_batch_cost db tbl ~inserts =
  let schema = Database.schema db in
  let row_width = Schema.row_width (Schema.table schema tbl) in
  let pages_appended =
    float_of_int inserts /. float_of_int (Page.rows_per_page row_width)
  in
  Float.max 1. pages_appended *. Im_optimizer.Cost_params.seq_page

let config_batch_cost db config ~inserts =
  Im_util.List_ext.sum_by_f
    (fun (tbl, k) ->
      heap_batch_cost db tbl ~inserts:k
      +. Im_util.List_ext.sum_by_f
           (fun ix -> index_batch_cost db ix ~inserts:k)
           (Config.on_table config tbl))
    inserts

let generate_inserts db ~rng ~table ~fraction =
  let h = Database.heap db table in
  let n = Heap.row_count h in
  let k = max 1 (int_of_float (fraction *. float_of_int n)) in
  let n_cols = List.length (Heap.table_def h).Schema.tbl_columns in
  List.init k (fun _ ->
      (* Each column value is drawn from a different existing row, so new
         rows follow the marginal distributions without duplicating any
         tuple. *)
      Array.init n_cols (fun j ->
          if n = 0 then Im_sqlir.Value.Null
          else (Heap.get h (Im_util.Rng.int rng n)).(j)))

let measured_index_batch_cost db ix ~rows =
  let h = Database.heap db ix.Index.idx_table in
  let schema = Database.schema db in
  let col_positions =
    List.map (Heap.column_index h) ix.Index.idx_columns
  in
  let key_of_row row =
    Array.of_list (List.map (fun j -> row.(j)) col_positions)
  in
  let entries =
    Heap.fold h ~init:[] ~f:(fun acc rid row -> (key_of_row row, rid) :: acc)
  in
  let tree =
    Bptree.bulk_load ~key_width:(Index.key_width schema ix) entries
  in
  Bptree.reset_counters tree;
  List.iteri
    (fun i row -> Bptree.insert tree (key_of_row row) (Heap.row_count h + i))
    rows;
  float_of_int (Bptree.page_writes tree)
