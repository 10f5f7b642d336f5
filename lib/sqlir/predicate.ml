type colref = { cr_table : string; cr_column : string }
type comparison = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Cmp of comparison * colref * Value.t
  | Between of colref * Value.t * Value.t
  | In_list of colref * Value.t list
  | Join of colref * colref

let colref cr_table cr_column = { cr_table; cr_column }

let equal_colref a b = a.cr_table = b.cr_table && a.cr_column = b.cr_column

let is_join = function Join _ -> true | Cmp _ | Between _ | In_list _ -> false

let selection_column = function
  | Cmp (_, c, _) | Between (c, _, _) | In_list (c, _) -> Some c
  | Join _ -> None

let tables_of = function
  | Cmp (_, c, _) | Between (c, _, _) | In_list (c, _) -> [ c.cr_table ]
  | Join (a, b) ->
    if a.cr_table = b.cr_table then [ a.cr_table ] else [ a.cr_table; b.cr_table ]

let columns_on_table pred tbl =
  let of_ref c = if c.cr_table = tbl then [ c.cr_column ] else [] in
  match pred with
  | Cmp (_, c, _) | Between (c, _, _) | In_list (c, _) -> of_ref c
  | Join (a, b) -> of_ref a @ of_ref b

let is_sargable_on pred col =
  match pred with
  | Cmp (Ne, _, _) -> false
  | Cmp ((Eq | Lt | Le | Gt | Ge), c, _) | Between (c, _, _) | In_list (c, _) ->
    equal_colref c col
  | Join _ -> false

let is_equality_on pred col =
  match pred with
  | Cmp (Eq, c, _) -> equal_colref c col
  | In_list (c, [ _ ]) -> equal_colref c col
  | Cmp ((Ne | Lt | Le | Gt | Ge), _, _) | Between _ | In_list _ | Join _ ->
    false

let comparison_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let add_colref buf c =
  Buffer.add_string buf c.cr_table;
  Buffer.add_char buf '.';
  Buffer.add_string buf c.cr_column

(* Straight into the buffer, no intermediate strings: every query's
   canonical text is rendered through here once, at construction. *)
let add_to_buffer ~value buf p =
  let add = Buffer.add_string buf in
  match p with
  | Cmp (op, c, v) ->
    add_colref buf c;
    add " ";
    add (comparison_to_string op);
    add " ";
    value buf v
  | Between (c, lo, hi) ->
    add_colref buf c;
    add " BETWEEN ";
    value buf lo;
    add " AND ";
    value buf hi
  | In_list (c, vs) ->
    add_colref buf c;
    add " IN (";
    List.iteri
      (fun i v ->
        if i > 0 then add ", ";
        value buf v)
      vs;
    add ")"
  | Join (a, b) ->
    add_colref buf a;
    add " = ";
    add_colref buf b

let to_string p =
  let buf = Buffer.create 32 in
  add_to_buffer ~value:(fun b v -> Buffer.add_string b (Value.to_string v)) buf p;
  Buffer.contents buf

let pp fmt p = Format.pp_print_string fmt (to_string p)
