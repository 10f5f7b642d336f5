module Schema = Im_sqlir.Schema

type t = {
  idx_name : string;
  idx_table : string;
  idx_columns : string list;
  idx_id : int;
}

let default_name table cols = "ix_" ^ table ^ "__" ^ String.concat "_" cols

(* Identity is assigned once, at construction: dense ids hash-consed on
   (table, column sequence) — exactly the definition equality, names
   excluded. The table is global and append-only; ids are never reused,
   so an id is a stable, collision-free stand-in for the definition in
   cache keys.

   Domain safety: the mapping is published as an immutable map behind
   an [Atomic], so the hit path is a lock-free read of a snapshot;
   misses take the mutex and re-check before assigning the next dense
   id (double-checked insert). *)
module Id_key = struct
  type t = string * string list

  let compare (ta, ca) (tb, cb) =
    match String.compare ta tb with
    | 0 -> Stdlib.compare ca cb
    | c -> c
end

module Id_map = Map.Make (Id_key)

let id_lock = Mutex.create ()
let id_map : int Id_map.t Atomic.t = Atomic.make Id_map.empty
let next_id = ref 0 (* under [id_lock] *)

let id_of key =
  match Id_map.find_opt key (Atomic.get id_map) with
  | Some id -> id
  | None ->
    Mutex.protect id_lock (fun () ->
        let m = Atomic.get id_map in
        match Id_map.find_opt key m with
        | Some id -> id
        | None ->
          let id = !next_id in
          incr next_id;
          Atomic.set id_map (Id_map.add key id m);
          id)

let make ?name ~table cols =
  if cols = [] then invalid_arg "Index.make: no columns";
  if
    List.length (List.sort_uniq String.compare cols) <> List.length cols
  then invalid_arg "Index.make: duplicate columns";
  {
    idx_name = (match name with Some n -> n | None -> default_name table cols);
    idx_table = table;
    idx_columns = cols;
    idx_id = id_of (table, cols);
  }

let id t = t.idx_id
let equal a b = a.idx_id = b.idx_id

let compare a b =
  match String.compare a.idx_table b.idx_table with
  | 0 -> Stdlib.compare a.idx_columns b.idx_columns
  | c -> c

let same_columns a b =
  a.idx_table = b.idx_table
  && List.sort String.compare a.idx_columns
     = List.sort String.compare b.idx_columns

let is_prefix_of a b =
  a.idx_table = b.idx_table
  &&
  let rec prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs', y :: ys' -> x = y && prefix xs' ys'
  in
  prefix a.idx_columns b.idx_columns

let covers t cols = List.for_all (fun c -> List.mem c t.idx_columns) cols

let leading_column t =
  match t.idx_columns with
  | c :: _ -> c
  | [] -> assert false (* make rejects empty column lists *)

let key_width schema t =
  Schema.columns_width (Schema.table schema t.idx_table) t.idx_columns

let width_fraction_of_table schema t =
  let tbl = Schema.table schema t.idx_table in
  float_of_int (Schema.columns_width tbl t.idx_columns)
  /. float_of_int (Schema.row_width tbl)

let validate schema t =
  if not (Schema.mem_table schema t.idx_table) then
    Error (Printf.sprintf "index %s: unknown table %S" t.idx_name t.idx_table)
  else begin
    let tbl = Schema.table schema t.idx_table in
    match
      List.find_opt
        (fun c ->
          match Schema.column tbl c with
          | (_ : Schema.column) -> false
          | exception Not_found -> true)
        t.idx_columns
    with
    | Some c ->
      Error
        (Printf.sprintf "index %s: unknown column %S on %S" t.idx_name c
           t.idx_table)
    | None -> Ok ()
  end

let to_string t =
  Printf.sprintf "%s(%s)" t.idx_table (String.concat ", " t.idx_columns)

let pp fmt t = Format.pp_print_string fmt (to_string t)
