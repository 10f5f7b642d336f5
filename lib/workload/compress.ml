module Query = Im_sqlir.Query

module Sset = Set.Make (String)

type signature = {
  sg_tables : Sset.t;
  sg_referenced : Sset.t;  (* "table.column" *)
  sg_sargable : Sset.t;
  sg_order_group : Sset.t;
}

let qualified tbl cols =
  List.map (fun c -> tbl ^ "." ^ c) cols

let signature q =
  let per_table f =
    Sset.of_list
      (List.concat_map (fun tbl -> qualified tbl (f q tbl)) q.Query.q_tables)
  in
  {
    sg_tables = Sset.of_list q.Query.q_tables;
    sg_referenced = per_table Query.referenced_columns;
    sg_sargable = per_table Query.sargable_columns;
    sg_order_group =
      Sset.union
        (per_table Query.order_by_columns)
        (per_table Query.group_by_columns);
  }

let jaccard_distance a b =
  if Sset.is_empty a && Sset.is_empty b then 0.
  else begin
    let inter = Sset.cardinal (Sset.inter a b) in
    let union = Sset.cardinal (Sset.union a b) in
    1. -. (float_of_int inter /. float_of_int union)
  end

(* Canonical string key of a signature: equal keys iff equal component
   sets iff [distance] 0 (every component weight is positive, and the
   tables of a query are never empty, so the disjoint-tables guard
   cannot separate equal signatures). Set elements are joined with
   control separators no identifier contains, so adversarial column
   names cannot alias two distinct signatures. *)
let signature_key sg =
  let set s = String.concat "\x01" (Sset.elements s) in
  String.concat "\x02"
    [ set sg.sg_tables; set sg.sg_referenced; set sg.sg_sargable;
      set sg.sg_order_group ]

let distance a b =
  if Sset.is_empty (Sset.inter a.sg_tables b.sg_tables) then 1.0
  else begin
    (* Referenced columns dominate (they decide covering indexes);
       sargable and order/group columns refine (they decide key
       prefixes). *)
    let d =
      (0.2 *. jaccard_distance a.sg_tables b.sg_tables)
      +. (0.4 *. jaccard_distance a.sg_referenced b.sg_referenced)
      +. (0.25 *. jaccard_distance a.sg_sargable b.sg_sargable)
      +. (0.15 *. jaccard_distance a.sg_order_group b.sg_order_group)
    in
    Float.min 1.0 d
  end
