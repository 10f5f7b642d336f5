open Lexer

(* Parser state: a mutable token cursor plus the resolution context. *)
type state = {
  mutable tokens : token list;
  schema : Schema.t;
  mutable from_tables : string list;
}

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let peek st = match st.tokens with [] -> Eof | t :: _ -> t

let advance st =
  match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let expect st tok what =
  if peek st = tok then advance st
  else fail "expected %s, found %s" what (pp_token (peek st))

let expect_kw st kw = expect st (Kw kw) kw

(* ---- Column resolution ---- *)

let resolve_column st tbl col =
  if not (List.mem tbl st.from_tables) then
    fail "table %s is not in the FROM clause" (quote tbl);
  match Schema.column (Schema.table st.schema tbl) col with
  | (_ : Schema.column) -> Predicate.colref tbl col
  | exception Not_found -> fail "unknown column %s" (quote (tbl ^ "." ^ col))

let resolve_unqualified st col =
  let owners =
    List.filter
      (fun tbl ->
        match Schema.column (Schema.table st.schema tbl) col with
        | (_ : Schema.column) -> true
        | exception Not_found -> false)
      st.from_tables
  in
  match owners with
  | [ tbl ] -> Predicate.colref tbl col
  | [] -> fail "unknown column %s" (quote col)
  | _ :: _ -> fail "ambiguous column %s (qualify it)" (quote col)

let parse_colref st =
  match peek st with
  | Qualified (t, c) ->
    advance st;
    resolve_column st t c
  | Ident c ->
    advance st;
    resolve_unqualified st c
  | other -> fail "expected a column, found %s" (pp_token other)

(* ---- Literals ---- *)

let parse_literal st =
  match peek st with
  | (Int_lit _ | Float_lit _ | String_lit _ | Date_lit _) as lit ->
    advance st;
    lit
  | other -> fail "expected a literal, found %s" (pp_token other)

(* A literal token as a value of column type [ty]; [None] when it does
   not fit. *)
let coerce_value ty lit =
  match (ty, lit) with
  | Datatype.Int, Int_lit i -> Some (Value.Int i)
  | Datatype.Float, Int_lit i -> Some (Value.Float (float_of_int i))
  | Datatype.Float, Float_lit f -> Some (Value.Float f)
  | Datatype.Date, Int_lit i -> Some (Value.Date i)
  | Datatype.Date, Date_lit d -> Some (Value.Date d)
  | Datatype.Varchar n, String_lit s when String.length s <= n -> Some (Value.Str s)
  | _, _ -> None

let coerce st (c : Predicate.colref) lit =
  let ty = Schema.column_type st.schema c.Predicate.cr_table c.Predicate.cr_column in
  match (coerce_value ty lit, ty, lit) with
  | Some v, _, _ -> v
  | None, Datatype.Varchar n, String_lit s ->
    fail "string %S too long for %s.%s (varchar %d)" (quote s) c.Predicate.cr_table
      c.Predicate.cr_column n
  | None, _, _ ->
    fail "literal does not fit the type of %s.%s" c.Predicate.cr_table
      c.Predicate.cr_column

(* ---- FROM pre-scan (resolution needs the tables before SELECT items
   are resolved) ---- *)

let prescan_from tokens =
  let rec find = function
    | Kw "FROM" :: rest ->
      let rec tables acc = function
        | Ident t :: Comma :: rest -> tables (t :: acc) rest
        | Ident t :: rest -> (List.rev (t :: acc), rest)
        | toks -> (List.rev acc, toks)
      in
      fst (tables [] rest)
    | _ :: rest -> find rest
    | [] -> []
  in
  find tokens

(* ---- Clauses ---- *)

let parse_select_item st =
  match peek st with
  | Kw "COUNT" ->
    advance st;
    expect st Lparen "(";
    expect st Star "*";
    expect st Rparen ")";
    Query.Sel_agg (Query.Count_star, None)
  | Kw (("SUM" | "AVG" | "MIN" | "MAX") as fn) ->
    advance st;
    expect st Lparen "(";
    let col = parse_colref st in
    expect st Rparen ")";
    let agg =
      match fn with
      | "SUM" -> Query.Sum
      | "AVG" -> Query.Avg
      | "MIN" -> Query.Min
      | _ -> Query.Max
    in
    Query.Sel_agg (agg, Some col)
  | _ -> Query.Sel_col (parse_colref st)

let rec parse_comma_list st parse_one =
  let first = parse_one st in
  if peek st = Comma then begin
    advance st;
    first :: parse_comma_list st parse_one
  end
  else [ first ]

let comparison_of = function
  | "=" -> Predicate.Eq
  | "<>" -> Predicate.Ne
  | "<" -> Predicate.Lt
  | "<=" -> Predicate.Le
  | ">" -> Predicate.Gt
  | ">=" -> Predicate.Ge
  | o -> fail "unknown operator %s" o

let flip = function
  | Predicate.Eq -> Predicate.Eq
  | Predicate.Ne -> Predicate.Ne
  | Predicate.Lt -> Predicate.Gt
  | Predicate.Le -> Predicate.Ge
  | Predicate.Gt -> Predicate.Lt
  | Predicate.Ge -> Predicate.Le

let is_column_token = function
  | Qualified _ | Ident _ -> true
  | _ -> false

let parse_predicate st =
  if is_column_token (peek st) then begin
    let col = parse_colref st in
    match peek st with
    | Kw "BETWEEN" ->
      advance st;
      let lo = coerce st col (parse_literal st) in
      expect_kw st "AND";
      let hi = coerce st col (parse_literal st) in
      Predicate.Between (col, lo, hi)
    | Kw "IN" ->
      advance st;
      expect st Lparen "(";
      let lits = parse_comma_list st parse_literal in
      expect st Rparen ")";
      Predicate.In_list (col, List.map (coerce st col) lits)
    | Op o ->
      advance st;
      let cmp = comparison_of o in
      if is_column_token (peek st) then begin
        let rhs = parse_colref st in
        if cmp = Predicate.Eq then Predicate.Join (col, rhs)
        else fail "only equality joins are supported"
      end
      else Predicate.Cmp (cmp, col, coerce st col (parse_literal st))
    | other -> fail "expected an operator after column, found %s" (pp_token other)
  end
  else begin
    (* literal OP column: flip into column-first form. *)
    let lit = parse_literal st in
    match peek st with
    | Op o ->
      advance st;
      let col = parse_colref st in
      Predicate.Cmp (flip (comparison_of o), col, coerce st col lit)
    | other -> fail "expected an operator after literal, found %s" (pp_token other)
  end

let parse_and_list st =
  let first = parse_predicate st in
  let rec more acc =
    if peek st = Kw "AND" then begin
      advance st;
      more (parse_predicate st :: acc)
    end
    else List.rev acc
  in
  more [ first ]

let parse_order_item st =
  let col = parse_colref st in
  match peek st with
  | Kw "ASC" ->
    advance st;
    (col, Query.Asc)
  | Kw "DESC" ->
    advance st;
    (col, Query.Desc)
  | _ -> (col, Query.Asc)

let parse_one_statement ~schema ~id tokens =
  let st = { tokens; schema; from_tables = prescan_from tokens } in
  expect_kw st "SELECT";
  let select = parse_comma_list st parse_select_item in
  expect_kw st "FROM";
  let tables =
    parse_comma_list st (fun st ->
        match peek st with
        | Ident t ->
          advance st;
          if Schema.mem_table schema t then t else fail "unknown table %s" (quote t)
        | other -> fail "expected a table name, found %s" (pp_token other))
  in
  let where =
    if peek st = Kw "WHERE" then begin
      advance st;
      parse_and_list st
    end
    else []
  in
  let group_by =
    if peek st = Kw "GROUP" then begin
      advance st;
      expect_kw st "BY";
      parse_comma_list st parse_colref
    end
    else []
  in
  let order_by =
    if peek st = Kw "ORDER" then begin
      advance st;
      expect_kw st "BY";
      parse_comma_list st parse_order_item
    end
    else []
  in
  (match peek st with
   | Eof -> ()
   | other -> fail "trailing input: %s" (pp_token other));
  let q = Query.make ~id ~select ~where ~group_by ~order_by tables in
  match Query.validate schema q with
  | Ok () -> q
  | Error msg -> fail "%s" msg

(* Split a token stream on semicolons into statements (empty segments
   dropped), each re-terminated with Eof. *)
let split_statements tokens =
  let rec go current acc = function
    | [] | [ Eof ] ->
      let acc = if current = [] then acc else List.rev current :: acc in
      List.rev acc
    | Semicolon :: rest ->
      let acc = if current = [] then acc else List.rev current :: acc in
      go [] acc rest
    | tok :: rest -> go (tok :: current) acc rest
  in
  go [] [] tokens |> List.map (fun toks -> toks @ [ Eof ])

let parse_query ~schema ?(id = "q") text =
  match tokenize text with
  | Error msg -> Error msg
  | Ok tokens ->
    (match split_statements tokens with
     | [ stmt ] ->
       (try Ok (parse_one_statement ~schema ~id stmt) with
        | Parse_error msg -> Error msg
        | Not_found -> Error "unknown table or column")
     | [] -> Error "empty input"
     | _ :: _ :: _ -> Error "expected a single statement")

let parse_statements ~schema ?(id_prefix = "Q") text =
  match tokenize text with
  | Error msg -> Error msg
  | Ok tokens ->
    let stmts = split_statements tokens in
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | stmt :: rest ->
        (match
           parse_one_statement ~schema
             ~id:(Printf.sprintf "%s%d" id_prefix i)
             stmt
         with
         | q -> go (i + 1) (q :: acc) rest
         | exception Parse_error msg ->
           Error (Printf.sprintf "statement %d: %s" i msg)
         | exception Not_found ->
           Error (Printf.sprintf "statement %d: unknown table or column" i))
    in
    go 1 [] stmts

(* ---- Prepared statements ----

   A shape ({!Lexer.shape}) fixes the tokens up to literal values, hence
   every choice [parse_one_statement] makes but the literals' coercions
   ([Query.validate] checks nothing they have not). A hit coerces the new
   literals into the cached query's slots; a miss, or a literal that does
   not fit, goes through [parse_query], so errors read as they do there. *)
module Prepared = struct
  (* One column type per slot of [query] ({!Query.template}). *)
  type template = { query : Query.template; slot_types : Datatype.t list }

  type t = {
    p_schema : Schema.t;
    templates : (string, template) Hashtbl.t;
    key : Buffer.t;
  }

  let capacity = 1024

  let create schema =
    { p_schema = schema; templates = Hashtbl.create 64; key = Buffer.create 256 }

  let size t = Hashtbl.length t.templates

  let slot_types schema (q : Query.t) =
    let ty (c : Predicate.colref) = Schema.column_type schema c.cr_table c.cr_column in
    List.concat_map
      (function
        | Predicate.Cmp (_, c, _) -> [ ty c ]
        | Predicate.Between (c, _, _) -> [ ty c; ty c ]
        | Predicate.In_list (c, vs) -> List.map (fun _ -> ty c) vs
        | Predicate.Join _ -> [])
      q.Query.q_where

  let instantiate tpl ~id lits =
    let value ty lit = match coerce_value ty lit with Some v -> v | None -> raise Exit in
    match List.map2 value tpl.slot_types lits with
    | values -> Some (Query.fill tpl.query ~id values)
    | exception Exit -> None

  let parse t ~id text =
    let full () = parse_query ~schema:t.p_schema ~id text in
    Buffer.clear t.key;
    match Lexer.shape text t.key with
    | None -> full ()
    | Some lits -> (
      let key = Buffer.contents t.key in
      match Hashtbl.find_opt t.templates key with
      | Some tpl -> (
        match instantiate tpl ~id lits with Some q -> Ok q | None -> full ())
      | None ->
        let result = full () in
        (match result with
         | Ok q ->
           let slot_types = slot_types t.p_schema q in
           if List.compare_lengths slot_types lits = 0 then begin
             if Hashtbl.length t.templates >= capacity then Hashtbl.clear t.templates;
             Hashtbl.add t.templates key { query = Query.template q; slot_types }
           end
         | Error _ -> ());
        result)
end
