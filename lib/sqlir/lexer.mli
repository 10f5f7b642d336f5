(** SQL lexer for the workload-file front end.

    Tokenizes the SQL subset the reproduction's query AST covers:
    identifiers (optionally [table.column]-qualified), integer / float /
    string / DATE literals, comparison operators, parentheses, commas
    and the keyword set of a select block. Keywords are
    case-insensitive; identifiers keep their case. *)

type token =
  | Ident of string
  | Qualified of string * string  (** [table.column] *)
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Date_lit of int  (** day number, from [DATE 'yyyy-mm-dd'] *)
  | Kw of string  (** upper-cased keyword: SELECT, FROM, WHERE, ... *)
  | Star
  | Comma
  | Lparen
  | Rparen
  | Op of string  (** =, <>, <, <=, >, >= *)
  | Semicolon
  | Eof

val tokenize : string -> (token list, string) result
(** Tokenize a statement (or several, separated by semicolons). Errors
    carry a position. SQL comments ([-- ...] to end of line) are
    skipped. An integer literal (or [date:N] day number) that does not
    fit an OCaml [int] is an error, never an exception. *)

val shape : string -> Buffer.t -> token list option
(** [shape text key] appends [text] to [key] with each literal replaced
    by a one-byte tag for its kind, and returns the literals in order.
    Texts with equal shapes tokenize alike up to literal values. [None]
    on a character or literal {!tokenize} rejects. *)

val quote : string -> string
(** How diagnostics echo input: at most its first 64 bytes, then
    ["..."], so an error stays short however long the input. *)

val pp_token : token -> string
