module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Predicate = Im_sqlir.Predicate
module Page = Im_storage.Page
module Size_model = Im_storage.Size_model

type input = {
  ap_table : string;
  ap_selections : Predicate.t list;
  ap_param_eq : (string * float) list;
  ap_required : string list;
}

type choice = {
  access : Plan.access;
  residual : Predicate.t list;
  out_rows : float;
  cost : float;
}

type seek_stat = {
  ss_index : Index.t;
  ss_prefix : string list;
  ss_sel : float;
  ss_matching : float;
  ss_base : float;
}

type atom = {
  at_choices : choice list;
  at_seek : seek_stat option;
}

let seek_prefix ix ~eq_cols ~range_cols =
  let rec go acc = function
    | [] -> List.rev acc
    | c :: rest ->
      if List.mem c eq_cols then go (c :: acc) rest
      else if List.mem c range_cols then List.rev (c :: acc)
      else List.rev acc
  in
  go [] ix.Index.idx_columns

(* The columns of one-column predicates, split into sargable
   equalities and other sargables; non-sargable filters are dropped. *)
let sargable_columns selections =
  let eq_cols, range_cols =
    List.fold_left
      (fun (eqs, ranges) p ->
        match Predicate.selection_column p with
        | None -> (eqs, ranges)
        | Some c ->
          if Predicate.is_equality_on p c then (c.Predicate.cr_column :: eqs, ranges)
          else if Predicate.is_sargable_on p c then
            (eqs, c.Predicate.cr_column :: ranges)
          else (eqs, ranges))
      ([], []) selections
  in
  (eq_cols, range_cols)

let column_selectivity db tbl selections col =
  (* Combined selectivity of the sargable conjuncts on [col]. *)
  List.fold_left
    (fun acc p ->
      match Predicate.selection_column p with
      | Some c
        when c.Predicate.cr_column = col
             && c.Predicate.cr_table = tbl
             && Predicate.is_sargable_on p c ->
        acc *. Cardinality.selection_selectivity db p
      | Some _ | None -> acc)
    1.0 selections

(* Everything an access-path unit needs that is shared across units:
   pure in (db, input), independent of the configuration. *)
type ctx = {
  cx_db : Database.t;
  cx_input : input;
  cx_n : float;
  cx_out_rows : float;
  cx_eq_cols : string list;
  cx_range_cols : string list;
}

let context db input =
  let n = float_of_int (Database.row_count db input.ap_table) in
  let param_sel =
    List.fold_left (fun acc (_, s) -> acc *. s) 1.0 input.ap_param_eq
  in
  let sel_all =
    Cardinality.conjunction_selectivity db input.ap_selections *. param_sel
  in
  let eq_cols, range_cols = sargable_columns input.ap_selections in
  let eq_cols = List.map fst input.ap_param_eq @ eq_cols in
  {
    cx_db = db;
    cx_input = input;
    cx_n = n;
    cx_out_rows = n *. sel_all;
    cx_eq_cols = eq_cols;
    cx_range_cols = range_cols;
  }

(* Heap scan: reads every page, applies every predicate. When used as
   the inner of a nested loop (param_eq non-empty) this is a full
   rescan per probe — costed as such, so the optimizer avoids it. *)
let heap_of_ctx ctx =
  let input = ctx.cx_input in
  let heap_pages =
    float_of_int (Database.table_pages ctx.cx_db input.ap_table)
  in
  {
    access = Plan.Seq_scan input.ap_table;
    residual = input.ap_selections;
    out_rows = ctx.cx_out_rows;
    cost =
      (heap_pages *. Cost_params.seq_page) +. (ctx.cx_n *. Cost_params.cpu_row);
  }

let index_choices_of_ctx ctx ix =
  let db = ctx.cx_db in
  let input = ctx.cx_input in
  let tbl = input.ap_table in
  let schema = Database.schema db in
  let n = ctx.cx_n in
  let out_rows = ctx.cx_out_rows in
  let key_width = Index.key_width schema ix in
  let size = Size_model.index_size ~key_width ~rows:(int_of_float n) () in
  let index_pages = float_of_int (Size_model.total_pages size) in
  let covering = Index.covers ix input.ap_required in
  let prefix = seek_prefix ix ~eq_cols:ctx.cx_eq_cols ~range_cols:ctx.cx_range_cols in
  let seek =
    if prefix = [] then None
    else begin
      let seek_sel =
        List.fold_left
          (fun acc col ->
            let from_preds =
              column_selectivity db tbl input.ap_selections col
            in
            let from_param =
              match List.assoc_opt col input.ap_param_eq with
              | Some s -> s
              | None -> 1.0
            in
            acc *. from_preds *. from_param)
          1.0 prefix
      in
      let matching = n *. seek_sel in
      let per_leaf =
        float_of_int (Page.rows_per_page (key_width + Page.rid_width))
      in
      let leaf_io = Float.max 1.0 (matching /. per_leaf) in
      let descend =
        float_of_int size.Size_model.depth *. Cost_params.random_page
      in
      let base = descend +. (leaf_io *. Cost_params.seq_page) in
      let residual =
        List.filter
          (fun p ->
            match Predicate.selection_column p with
            | Some c -> not (List.mem c.Predicate.cr_column prefix)
            | None -> true)
          input.ap_selections
      in
      let cost, lookup =
        if covering then (base +. (matching *. Cost_params.cpu_row), false)
        else
          ( base
            +. (matching *. Cost_params.random_page)
            +. (matching *. Cost_params.cpu_row),
            true )
      in
      let eq_len =
        List.length (List.filter (fun c -> List.mem c ctx.cx_eq_cols) prefix)
      in
      (* A non-covering seek cannot produce columns outside the index:
         the RID lookup fetches them, which is what [lookup] pays for. *)
      Some
        {
          access =
            Plan.Index_seek { index = ix; seek_cols = prefix; eq_len; lookup };
          residual;
          out_rows;
          cost;
        }
    end
  in
  let scan =
    if covering && input.ap_param_eq = [] then
      Some
        {
          access = Plan.Index_scan ix;
          residual = input.ap_selections;
          out_rows;
          cost =
            (index_pages *. Cost_params.seq_page)
            +. (n *. Cost_params.cpu_row);
        }
    else None
  in
  List.filter_map Fun.id [ seek; scan ]

(* Intersection building block (two seeks, rid-set intersection, one
   lookup per surviving rid): the per-index half of that arithmetic. *)
let seek_stat_of_ctx ctx ix =
  let db = ctx.cx_db in
  let input = ctx.cx_input in
  let prefix = seek_prefix ix ~eq_cols:ctx.cx_eq_cols ~range_cols:ctx.cx_range_cols in
  (* Join-parameter columns have no constant available at execution
     time for a standalone intersection seek. *)
  if prefix = [] || input.ap_param_eq <> [] then None
  else begin
    let schema = Database.schema db in
    let n = ctx.cx_n in
    let key_width = Index.key_width schema ix in
    let size = Size_model.index_size ~key_width ~rows:(int_of_float n) () in
    let seek_sel =
      List.fold_left
        (fun acc col ->
          acc *. column_selectivity db input.ap_table input.ap_selections col)
        1.0 prefix
    in
    let matching = n *. seek_sel in
    let per_leaf =
      float_of_int (Page.rows_per_page (key_width + Page.rid_width))
    in
    let base =
      (float_of_int size.Size_model.depth *. Cost_params.random_page)
      +. (Float.max 1.0 (matching /. per_leaf) *. Cost_params.seq_page)
    in
    Some
      {
        ss_index = ix;
        ss_prefix = prefix;
        ss_sel = seek_sel;
        ss_matching = matching;
        ss_base = base;
      }
  end

let atom_of_ctx ctx ix =
  { at_choices = index_choices_of_ctx ctx ix; at_seek = seek_stat_of_ctx ctx ix }

let atom db input ix = atom_of_ctx (context db input) ix
let heap_choice db input = heap_of_ctx (context db input)

(* Index intersection: competitive when two moderately selective
   predicates sit on different indexes and no single index covers. The
   pair arithmetic lives here so both [candidates] and cached-atom
   assembly combine identical per-index halves identically. *)
let intersections_of_ctx ctx seekable =
  let n = ctx.cx_n in
  Im_util.List_ext.pairs seekable
  |> List.filter_map (fun (a, b) ->
         match (a.ss_prefix, b.ss_prefix) with
         | ha :: _, hb :: _ when ha <> hb ->
           let combined = n *. a.ss_sel *. b.ss_sel in
           let cost =
             a.ss_base +. b.ss_base
             +. ((a.ss_matching +. b.ss_matching) *. Cost_params.cpu_hash)
             +. (combined *. Cost_params.random_page)
             +. (combined *. Cost_params.cpu_row)
           in
           Some
             {
               access =
                 Plan.Index_intersection
                   {
                     left = a.ss_index;
                     left_cols = a.ss_prefix;
                     right = b.ss_index;
                     right_cols = b.ss_prefix;
                   };
               residual = ctx.cx_input.ap_selections;
               out_rows = ctx.cx_out_rows;
               cost;
             }
         | _, _ -> None)

let assemble db input ~heap atoms =
  let ctx = context db input in
  let seekable = List.filter_map (fun a -> a.at_seek) atoms in
  (heap :: List.concat_map (fun a -> a.at_choices) atoms)
  @ intersections_of_ctx ctx seekable

let candidates db config input =
  let ctx = context db input in
  (* One walk of the configuration: the same index list feeds both the
     per-index choice enumeration and the intersection seek stats. *)
  let atoms = List.map (atom_of_ctx ctx) (Config.on_table config input.ap_table) in
  let seekable = List.filter_map (fun a -> a.at_seek) atoms in
  (heap_of_ctx ctx :: List.concat_map (fun a -> a.at_choices) atoms)
  @ intersections_of_ctx ctx seekable

let best_of choices =
  match Im_util.List_ext.min_by (fun c -> c.cost) choices with
  | Some c -> c
  | None -> invalid_arg "Access_path.best_of: no candidates"

let best db config input =
  match Im_util.List_ext.min_by (fun c -> c.cost) (candidates db config input) with
  | Some c -> c
  | None -> assert false (* seq scan is always a candidate *)

let provides_order db choice order_keys =
  ignore db;
  match order_keys with
  | [] -> true
  | _ ->
    let key_cols =
      List.map
        (fun ((c : Predicate.colref), _) -> (c.cr_table, c.cr_column))
        order_keys
    in
    let dirs = List.map snd order_keys in
    let uniform_direction =
      List.for_all (fun d -> d = List.hd dirs) dirs
    in
    let matches_index ix ~pinned =
      let tbl = ix.Index.idx_table in
      let rec strip cols = function
        | [] -> cols
        | p :: rest ->
          (match cols with
           | c :: cols' when c = p -> strip cols' rest
           | _ -> cols)
      in
      let after_pinned = strip ix.Index.idx_columns pinned in
      let rec is_prefix keys cols =
        match (keys, cols) with
        | [], _ -> true
        | _, [] -> false
        | (kt, kc) :: keys', c :: cols' ->
          kt = tbl && kc = c && is_prefix keys' cols'
      in
      is_prefix key_cols after_pinned || is_prefix key_cols ix.Index.idx_columns
    in
    uniform_direction
    &&
    (match choice.access with
     | Plan.Seq_scan _ -> false
     (* rid-set intersection loses leaf order *)
     | Plan.Index_intersection _ -> false
     | Plan.Index_scan ix -> matches_index ix ~pinned:[]
     | Plan.Index_seek { index; seek_cols; eq_len; lookup } ->
       (* RID lookups do not disturb order (fetched in key order); the
          equality-pinned part of the seek prefix may be skipped when
          matching the sort keys. *)
       ignore lookup;
       let pinned = Im_util.List_ext.take eq_len seek_cols in
       matches_index index ~pinned)
