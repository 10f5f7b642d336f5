(** Predicates.

    Queries carry a conjunction of atomic predicates (the WHERE clause).
    This covers the workloads the paper evaluates: selections
    (equality / range / IN on a column vs. constants) and equi-join
    predicates between columns of two tables. Disjunctions are out of
    scope, as they are for the paper's index-usage analysis, which only
    distinguishes "index seek" (sargable conjuncts on a leading prefix)
    from "index scan". *)

type colref = { cr_table : string; cr_column : string }

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Cmp of comparison * colref * Value.t  (** [col op const] selection *)
  | Between of colref * Value.t * Value.t  (** inclusive range *)
  | In_list of colref * Value.t list
  | Join of colref * colref  (** equi-join [a.x = b.y] *)

val colref : string -> string -> colref
val equal_colref : colref -> colref -> bool

val is_join : t -> bool

val selection_column : t -> colref option
(** The column a selection constrains; [None] for joins. *)

val tables_of : t -> string list
(** Tables mentioned (1 for selections, 2 for joins; duplicates kept
    out). *)

val columns_on_table : t -> string -> string list
(** Column names of [t] that this predicate references on table [t]. *)

val is_sargable_on : t -> colref -> bool
(** Can this predicate drive an index seek on the given column? True for
    [Eq]/[Lt]/[Le]/[Gt]/[Ge], [Between] and [In_list] on that column
    (not [Ne], which only filters). *)

val is_equality_on : t -> colref -> bool
(** True only for [Eq] and single-element [In_list] on the column:
    predicates that pin the column to one value, allowing a seek to
    continue into deeper index columns. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val add_colref : Buffer.t -> colref -> unit
(** Appends [table.column]. *)

val add_to_buffer : value:(Buffer.t -> Value.t -> unit) -> Buffer.t -> t -> unit
(** Appends {!to_string}'s text without building it, each literal
    written by [value] (appending {!Value.to_string} gives that text). *)
