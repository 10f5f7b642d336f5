type token =
  | Ident of string
  | Qualified of string * string
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Date_lit of int
  | Kw of string
  | Star
  | Comma
  | Lparen
  | Rparen
  | Op of string
  | Semicolon
  | Eof

let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "AND"; "GROUP"; "ORDER"; "BY"; "ASC"; "DESC";
    "BETWEEN"; "IN"; "COUNT"; "SUM"; "AVG"; "MIN"; "MAX"; "DATE";
  ]

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_digit c = c >= '0' && c <= '9'

(* Day number with 1992-01-01 = day 1, consistent with Tpcd.date's
   approximation of 30.4-day months. *)
let day_of_date y m d = ((y - 1992) * 365) + int_of_float (30.4 *. float_of_int (m - 1)) + d

(* ---- Literal readers ----

   [tokenize] and [shape] both read literals through these, so they
   agree on where every literal starts and ends and what it is worth.
   Each takes the literal's first index ([read_date]: the end of its
   DATE word) and returns its token and the index just past it; a
   malformed literal raises [Lex_error]. *)

exception Lex_error of int * string

let quote s = if String.length s <= 64 then s else String.sub s 0 64 ^ "..."

let rec skip_while p input i =
  if i < String.length input && p input.[i] then skip_while p input (i + 1)
  else i

(* Direct loops: a [skip_while] closure would cost an indirect call on
   every byte of every word and number. *)
let rec ident_end input i =
  if i >= String.length input then i
  else
    match String.unsafe_get input i with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ident_end input (i + 1)
    | _ -> i

let rec digits_end input i =
  if i < String.length input && is_digit input.[i] then digits_end input (i + 1) else i

(* String literal; '' escapes a quote. *)
let read_string input i =
  let n = String.length input in
  let buf = Buffer.create 16 in
  let rec str from =
    match String.index_from_opt input from '\'' with
    | None -> raise (Lex_error (i, "unterminated string literal"))
    | Some j ->
      Buffer.add_substring buf input from (j - from);
      if j + 1 < n && input.[j + 1] = '\'' then begin
        Buffer.add_char buf '\'';
        str (j + 2)
      end
      else (String_lit (Buffer.contents buf), j + 1)
  in
  str (i + 1)

(* The digits [start, stop), after an optional '-', read in place; past
   18 digits, [int_of_string_opt] checks for overflow. *)
let int_literal input start stop =
  let first = if input.[start] = '-' then start + 1 else start in
  let rec read v k = if k = stop then v else read ((v * 10) + Char.code input.[k] - 48) (k + 1) in
  if stop - first <= 18 then if first > start then -read 0 first else read 0 first
  else
    match int_of_string_opt (String.sub input start (stop - start)) with
    | Some v -> v
    | None -> raise (Lex_error (start, "integer literal out of range"))

let read_number input i =
  let n = String.length input in
  let j = digits_end input (if input.[i] = '-' then i + 1 else i) in
  let fraction = j < n && input.[j] = '.' in
  let j = if fraction then digits_end input (j + 1) else j in
  (* Exponent part, as %g prints it: e+06, E-3, e12. *)
  let d = if j + 1 < n && (input.[j + 1] = '+' || input.[j + 1] = '-') then j + 2 else j + 1 in
  let exponent =
    j < n && (input.[j] = 'e' || input.[j] = 'E') && d < n && is_digit input.[d]
  in
  let j = if exponent then digits_end input d else j in
  if fraction || exponent then (Float_lit (float_of_string (String.sub input i (j - i))), j)
  else (Int_lit (int_literal input i j), j)

(* The four-letter word at [i] reads DATE, in any case. *)
let is_date input i =
  let up k = Char.uppercase_ascii input.[i + k] in
  up 0 = 'D' && up 1 = 'A' && up 2 = 'T' && up 3 = 'E'

(* At the end [j] of a word that reads DATE. [date:N] is the raw
   day-number form Value.to_string emits, so that Query.to_sql output
   parses back; [DATE 'yyyy-mm-dd'] is a literal; a bare DATE (as in
   DDL column types) stays a keyword: [None]. *)
let read_date input j =
  let n = String.length input in
  if j < n && input.[j] = ':' then begin
    let k = digits_end input (j + 1) in
    if k = j + 1 then raise (Lex_error (j, "expected digits after date:"))
    else Some (Date_lit (int_literal input (j + 1) k), k)
  end
  else begin
    let k = skip_while (fun c -> c = ' ' || c = '\t') input j in
    if k < n && input.[k] = '\'' then begin
      match String.index_from_opt input (k + 1) '\'' with
      | None -> raise (Lex_error (k, "unterminated DATE literal"))
      | Some close ->
        let body = String.sub input (k + 1) (close - k - 1) in
        (match List.map int_of_string_opt (String.split_on_char '-' body) with
         | [ Some y; Some m; Some d ] -> Some (Date_lit (day_of_date y m d), close + 1)
         | _ -> raise (Lex_error (k, "malformed DATE literal: " ^ quote body)))
    end
    else None
  end

(* The end of [table.column] when the word ending at [j] is followed by
   [.column], else [j]. *)
let qualified_end input j =
  if j + 1 < String.length input && input.[j] = '.' && is_ident_start input.[j + 1]
  then ident_end input (j + 1)
  else j

(* The one walk over a text that [tokenize] and [shape] share. It skips
   whitespace and comments, reads each literal itself, and hands it to
   [literal i (token, j)]; a word (identifier or keyword) goes to
   [word i j] and any other character to [punct i c]. Each callback
   returns the index to resume at. *)
let walk input ~literal ~word ~punct =
  let n = String.length input in
  let rec go i =
    if i < n then begin
      let c = input.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (i + 1)
      else if c = '-' && i + 1 < n && input.[i + 1] = '-' then
        go (skip_while (fun c -> c <> '\n') input i)
      else if c = '\'' then go (literal i (read_string input i))
      else if is_digit c || (c = '-' && i + 1 < n && is_digit input.[i + 1]) then
        go (literal i (read_number input i))
      else if is_ident_start c then begin
        let j = ident_end input i in
        match if j - i = 4 && is_date input i then read_date input j else None with
        | Some lit -> go (literal i lit)
        | None -> go (word i j)
      end
      else go (punct i c)
    end
  in
  go 0

let tokenize input =
  let n = String.length input in
  let acc = ref [] in
  let push tok j =
    acc := tok :: !acc;
    j
  in
  let op i len = push (Op (String.sub input i len)) (i + len) in
  let word i j =
    let word = String.sub input i (j - i) in
    let upper = String.uppercase_ascii word in
    let k = qualified_end input j in
    if List.mem upper keywords then push (Kw upper) j
    else if k > j then push (Qualified (word, String.sub input (j + 1) (k - j - 1))) k
    else push (Ident word) j
  in
  let punct i = function
    | ',' -> push Comma (i + 1)
    | '(' -> push Lparen (i + 1)
    | ')' -> push Rparen (i + 1)
    | ';' -> push Semicolon (i + 1)
    | '*' -> push Star (i + 1)
    | '<' when i + 1 < n && (input.[i + 1] = '=' || input.[i + 1] = '>') -> op i 2
    | '>' when i + 1 < n && input.[i + 1] = '=' -> op i 2
    | '=' | '<' | '>' -> op i 1
    | c -> raise (Lex_error (i, Printf.sprintf "unexpected character %C" c))
  in
  match walk input ~literal:(fun _ (tok, j) -> push tok j) ~word ~punct with
  | () -> Ok (List.rev (Eof :: !acc))
  | exception Lex_error (pos, msg) -> Error (Printf.sprintf "char %d: %s" pos msg)

(* [tokenize]'s walk without building tokens: the text between literals
   is copied a run at a time, each literal becomes a tag byte for its
   kind. [tokenize] rejects those bytes outside comments, so in a shape
   a tag is a literal or part of a comment. *)
let shape input key =
  let lits = ref [] and run = ref 0 in
  let literal i (tok, j) =
    Buffer.add_substring key input !run (i - !run);
    Buffer.add_char key
      (match tok with
       | Int_lit _ -> '\001'
       | Float_lit _ -> '\002'
       | String_lit _ -> '\003'
       | _ -> '\004');
    lits := tok :: !lits;
    run := j;
    j
  in
  let punct i = function
    | ',' | '(' | ')' | '*' | ';' | '=' | '<' | '>' -> i + 1
    | _ -> raise Exit
  in
  match walk input ~literal ~word:(fun _ j -> qualified_end input j) ~punct with
  | () ->
    Buffer.add_substring key input !run (String.length input - !run);
    Some (List.rev !lits)
  | exception (Lex_error _ | Exit) -> None

let pp_token = function
  | Ident s -> quote s
  | Qualified (t, c) -> quote (t ^ "." ^ c)
  | Int_lit i -> string_of_int i
  | Float_lit f -> string_of_float f
  | String_lit s -> "'" ^ quote s ^ "'"
  | Date_lit d -> Printf.sprintf "DATE(day %d)" d
  | Kw k -> k
  | Star -> "*"
  | Comma -> ","
  | Lparen -> "("
  | Rparen -> ")"
  | Op o -> o
  | Semicolon -> ";"
  | Eof -> "<eof>"
