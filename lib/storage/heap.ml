module Schema = Im_sqlir.Schema

type t = {
  def : Schema.table;
  rows : Im_sqlir.Value.t array array;  (* indexed by rid *)
  col_index : (string, int) Hashtbl.t;
}

let make_col_index def =
  let h = Hashtbl.create 16 in
  List.iteri
    (fun i (c : Schema.column) -> Hashtbl.replace h c.col_name i)
    def.Schema.tbl_columns;
  h

let of_rows def rows =
  let width = List.length def.Schema.tbl_columns in
  List.iter (fun row -> assert (Array.length row = width)) rows;
  { def; rows = Array.of_list rows; col_index = make_col_index def }

let get t rid =
  if rid < 0 || rid >= Array.length t.rows then invalid_arg "Heap.get: bad rid";
  t.rows.(rid)

let row_count t = Array.length t.rows
let table_def t = t.def

let column_index t name =
  match Hashtbl.find_opt t.col_index name with
  | Some i -> i
  | None -> raise Not_found

let column_values t name =
  let i = column_index t name in
  List.init (Array.length t.rows) (fun rid -> t.rows.(rid).(i))

let project t rid cols =
  let row = get t rid in
  Array.of_list (List.map (fun c -> row.(column_index t c)) cols)

let pages t =
  Size_model.table_pages ~row_width:(Schema.row_width t.def)
    ~rows:(Array.length t.rows)

let page_of_rid t rid =
  rid / Page.rows_per_page (Schema.row_width t.def)

let iter t f =
  Array.iteri f t.rows

let fold t ~init ~f =
  let acc = ref init in
  Array.iteri (fun rid row -> acc := f !acc rid row) t.rows;
  !acc
