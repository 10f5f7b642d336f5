type order_dir = Asc | Desc
type agg_fn = Count_star | Sum | Avg | Min | Max

type select_item =
  | Sel_col of Predicate.colref
  | Sel_agg of agg_fn * Predicate.colref option

type t = {
  q_id : string;
  q_tables : string list;
  q_select : select_item list;
  q_where : Predicate.t list;
  q_group_by : Predicate.colref list;
  q_order_by : (Predicate.colref * order_dir) list;
  q_canon : string;
}

let agg_to_string = function
  | Count_star -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

(* The canonical text: every clause, never the id — rendered straight
   into one buffer, since [make] pays it for every statement. [value]
   writes each [where] literal; nothing else depends on them. *)
let render ~value q =
  let buf = Buffer.create 128 in
  let add = Buffer.add_string buf in
  let add_list sep f xs =
    List.iteri
      (fun i x ->
        if i > 0 then add sep;
        f x)
      xs
  in
  add "SELECT ";
  add_list ", "
    (function
      | Sel_col c -> Predicate.add_colref buf c
      | Sel_agg (Count_star, None) -> add "COUNT(*)"
      | Sel_agg (fn, Some c) ->
        add (agg_to_string fn);
        add "(";
        Predicate.add_colref buf c;
        add ")"
      | Sel_agg (fn, None) ->
        add (agg_to_string fn);
        add "(*)")
    q.q_select;
  add " FROM ";
  add_list ", " add q.q_tables;
  if q.q_where <> [] then begin
    add " WHERE ";
    add_list " AND " (Predicate.add_to_buffer ~value buf) q.q_where
  end;
  if q.q_group_by <> [] then begin
    add " GROUP BY ";
    add_list ", " (Predicate.add_colref buf) q.q_group_by
  end;
  if q.q_order_by <> [] then begin
    add " ORDER BY ";
    add_list ", "
      (fun (c, dir) ->
        Predicate.add_colref buf c;
        add (match dir with Asc -> " ASC" | Desc -> " DESC"))
      q.q_order_by
  end;
  Buffer.contents buf

(* The canonical text is built here, once per query: every cache keyed
   on a query reads [q_canon] instead of re-rendering it. *)
let make ?(id = "q") ?(select = [ Sel_agg (Count_star, None) ]) ?(where = [])
    ?(group_by = []) ?(order_by = []) tables =
  let q =
    { q_id = id; q_tables = tables; q_select = select; q_where = where; q_group_by = group_by;
      q_order_by = order_by; q_canon = "" }
  in
  { q with q_canon = render ~value:(fun b v -> Buffer.add_string b (Value.to_string v)) q }

(* [segments.(k)] is the canonical text between the skeleton's k-th
   and (k+1)-th [q_where] literals, with one segment before the first
   and one after the last: render order is [q_where] order. *)
type template = { skeleton : t; segments : string array }

let template q =
  let segments = ref [] in
  let cut buf _ = segments := Buffer.contents buf :: !segments; Buffer.clear buf in
  let last = render ~value:cut q in
  { skeleton = q; segments = Array.of_list (List.rev (last :: !segments)) }

(* Each value fills the next [q_where] slot and is spliced into the text. *)
let fill tpl ~id values =
  let q = tpl.skeleton and rest = ref values and k = ref 0 in
  let canon = Buffer.create (String.length q.q_canon + 16) in
  Buffer.add_string canon tpl.segments.(0);
  let next _ =
    match !rest with
    | [] -> invalid_arg "Query.fill: too few values"
    | v :: tl ->
      rest := tl; incr k;
      Buffer.add_string canon (Value.to_string v);
      Buffer.add_string canon tpl.segments.(!k);
      v
  in
  let slot = function
    | Predicate.Cmp (op, c, v) -> Predicate.Cmp (op, c, next v)
    | Predicate.Between (c, lo, hi) -> let lo = next lo in Predicate.Between (c, lo, next hi)
    | Predicate.In_list (c, vs) -> Predicate.In_list (c, List.map next vs)
    | Predicate.Join _ as p -> p
  in
  let where = List.map slot q.q_where in
  if !rest <> [] then invalid_arg "Query.fill: too many values";
  { q with q_id = id; q_where = where; q_canon = Buffer.contents canon }

let canonical_string q = q.q_canon
let to_sql q = q.q_canon

let select_item_refs = function
  | Sel_col c -> [ c ]
  | Sel_agg (_, Some c) -> [ c ]
  | Sel_agg (_, None) -> []

let all_colrefs q =
  List.concat_map select_item_refs q.q_select
  @ List.concat_map
      (fun p ->
        match p with
        | Predicate.Cmp (_, c, _)
        | Predicate.Between (c, _, _)
        | Predicate.In_list (c, _) -> [ c ]
        | Predicate.Join (a, b) -> [ a; b ])
      q.q_where
  @ q.q_group_by
  @ List.map fst q.q_order_by

let validate schema q =
  let ( let* ) r f = Result.bind r f in
  let check cond msg = if cond then Ok () else Error msg in
  let* () = check (q.q_tables <> []) (q.q_id ^ ": empty FROM clause") in
  let* () =
    check
      (List.length (List.sort_uniq String.compare q.q_tables)
       = List.length q.q_tables)
      (q.q_id ^ ": duplicate table in FROM")
  in
  let* () =
    match List.find_opt (fun t -> not (Schema.mem_table schema t)) q.q_tables with
    | Some t -> Error (Printf.sprintf "%s: unknown table %S" q.q_id t)
    | None -> Ok ()
  in
  let bad_ref (c : Predicate.colref) =
    if not (List.mem c.cr_table q.q_tables) then
      Some (Printf.sprintf "%s: table %S not in FROM" q.q_id c.cr_table)
    else
      match Schema.column (Schema.table schema c.cr_table) c.cr_column with
      | (_ : Schema.column) -> None
      | exception Not_found ->
        Some
          (Printf.sprintf "%s: unknown column %s.%s" q.q_id c.cr_table
             c.cr_column)
  in
  let* () =
    match List.find_map bad_ref (all_colrefs q) with
    | Some msg -> Error msg
    | None -> Ok ()
  in
  let const_ok (c : Predicate.colref) v =
    Value.datatype_matches (Schema.column_type schema c.cr_table c.cr_column) v
  in
  let bad_pred p =
    match p with
    | Predicate.Cmp (_, c, v) ->
      if const_ok c v then None
      else Some (Printf.sprintf "%s: type mismatch in %s" q.q_id (Predicate.to_string p))
    | Predicate.Between (c, lo, hi) ->
      if const_ok c lo && const_ok c hi then None
      else Some (Printf.sprintf "%s: type mismatch in %s" q.q_id (Predicate.to_string p))
    | Predicate.In_list (c, vs) ->
      if vs <> [] && List.for_all (const_ok c) vs then None
      else Some (Printf.sprintf "%s: bad IN list in %s" q.q_id (Predicate.to_string p))
    | Predicate.Join (a, b) ->
      let ta = Schema.column_type schema a.cr_table a.cr_column
      and tb = Schema.column_type schema b.cr_table b.cr_column in
      if Datatype.equal ta tb then None
      else Some (Printf.sprintf "%s: join type mismatch in %s" q.q_id (Predicate.to_string p))
  in
  let* () =
    match List.find_map bad_pred q.q_where with
    | Some msg -> Error msg
    | None -> Ok ()
  in
  (* If aggregates are present, every plain selected column must be grouped. *)
  let has_agg =
    List.exists (function Sel_agg _ -> true | Sel_col _ -> false) q.q_select
  in
  if has_agg || q.q_group_by <> [] then
    let ungrouped =
      List.find_map
        (function
          | Sel_col c when not (List.exists (Predicate.equal_colref c) q.q_group_by)
            -> Some c
          | Sel_col _ | Sel_agg _ -> None)
        q.q_select
    in
    match ungrouped with
    | Some c ->
      Error
        (Printf.sprintf "%s: column %s.%s selected but not grouped" q.q_id
           c.cr_table c.cr_column)
    | None -> Ok ()
  else Ok ()

let on_table tbl (c : Predicate.colref) = c.cr_table = tbl

let referenced_columns q tbl =
  all_colrefs q
  |> List.filter (on_table tbl)
  |> List.map (fun (c : Predicate.colref) -> c.cr_column)
  |> Im_util.List_ext.dedup_keep_order String.equal

let selection_predicates q tbl =
  List.filter
    (fun p ->
      (not (Predicate.is_join p)) && Predicate.tables_of p = [ tbl ])
    q.q_where

let join_predicates q = List.filter Predicate.is_join q.q_where

let sargable_columns q tbl =
  List.filter_map
    (fun p ->
      match Predicate.selection_column p with
      | Some c when on_table tbl c && Predicate.is_sargable_on p c ->
        Some c.cr_column
      | Some _ | None -> None)
    q.q_where
  |> Im_util.List_ext.dedup_keep_order String.equal

let equality_columns q tbl =
  List.filter_map
    (fun p ->
      match Predicate.selection_column p with
      | Some c when on_table tbl c && Predicate.is_equality_on p c ->
        Some c.cr_column
      | Some _ | None -> None)
    q.q_where
  |> Im_util.List_ext.dedup_keep_order String.equal

let order_by_columns q tbl =
  List.filter_map
    (fun ((c : Predicate.colref), _) ->
      if on_table tbl c then Some c.cr_column else None)
    q.q_order_by
  |> Im_util.List_ext.dedup_keep_order String.equal

let group_by_columns q tbl =
  List.filter_map
    (fun (c : Predicate.colref) ->
      if on_table tbl c then Some c.cr_column else None)
    q.q_group_by
  |> Im_util.List_ext.dedup_keep_order String.equal

let select_columns q tbl =
  List.concat_map select_item_refs q.q_select
  |> List.filter (on_table tbl)
  |> List.map (fun (c : Predicate.colref) -> c.cr_column)
  |> Im_util.List_ext.dedup_keep_order String.equal

let has_aggregates q =
  List.exists (function Sel_agg _ -> true | Sel_col _ -> false) q.q_select
