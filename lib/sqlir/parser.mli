(** SQL parser for the supported subset.

    Parses conjunctive select-project-join-aggregate-order-by blocks
    into {!Query.t}, resolving unqualified column names against the
    schema (the FROM tables) and coercing literals to the column's
    datatype ([5] against a [Date] column becomes a date, against a
    [Float] column a float).

    Grammar (case-insensitive keywords):
    {v
    SELECT item {, item}
    FROM table {, table}
    [WHERE pred {AND pred}]
    [GROUP BY col {, col}]
    [ORDER BY col [ASC|DESC] {, col [ASC|DESC]}]

    item := col | COUNT( * ) | (SUM|AVG|MIN|MAX) ( col )
    pred := col (=|<>|<|<=|>|>=) literal
          | literal (=|<>|<|<=|>|>=) col
          | col = col                      -- equi-join
          | col BETWEEN literal AND literal
          | col IN ( literal {, literal} )
    literal := int | float | 'string' | DATE 'yyyy-mm-dd' | date:N
    v}

    Streams of statements (workload files, the daemon's [STMT]s) parse
    through a {!Prepared} cache, which gives the same results. *)

val parse_query :
  schema:Schema.t -> ?id:string -> string -> (Query.t, string) result
(** Parse one statement (a trailing semicolon is allowed). The result
    additionally passes {!Query.validate}. *)

val parse_statements :
  schema:Schema.t -> ?id_prefix:string -> string -> (Query.t list, string) result
(** Parse a script of semicolon-separated statements; queries are
    numbered [<id_prefix>1], [<id_prefix>2], ... (default prefix "Q"). *)

(** Statement-shape cache ({!Lexer.shape}) in front of {!parse_query}:
    the first statement of a shape is parsed in full, later ones reuse
    its query with their own literals filled in. Not thread-safe. *)
module Prepared : sig
  type t

  val create : Schema.t -> t

  val parse : t -> id:string -> string -> (Query.t, string) result
  (** Equal to [parse_query ~schema ~id text] in every case, errors
      included. *)

  val capacity : int
  (** Shapes kept at most (1024); a full cache is cleared before the
      next shape is added. *)

  val size : t -> int
end
