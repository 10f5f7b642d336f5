(** Index definitions.

    An index is an ordered sequence of distinct columns of one table —
    the object the whole paper manipulates. Definitions are logical:
    they may be *hypothetical* ("what-if") and never materialized, and
    still be costed and sized (paper §3.5.3). *)

type t = private {
  idx_name : string;
  idx_table : string;
  idx_columns : string list;  (** ordered key columns, distinct *)
  idx_id : int;  (** identity of (table, column sequence); see {!id} *)
}

val make : ?name:string -> table:string -> string list -> t
(** [make ~table cols] with non-empty, duplicate-free [cols]. The
    default name encodes table and columns, so definition equality
    implies name equality. Raises [Invalid_argument] on empty or
    duplicated columns. *)

val equal : t -> t -> bool
(** Same table and same column sequence (order matters: the paper's
    Example 1 counts k! distinct mergings of k columns) — an id
    comparison. *)

val compare : t -> t -> int
(** Lexicographic on (table, column sequence); output is sorted by it. *)

val id : t -> int
(** Dense integer id of the definition, assigned by {!make} and
    hash-consed on (table, column sequence): [id a = id b] iff
    [equal a b], whatever the names. Ids are never reused and are
    process-global — two structurally equal definitions built
    independently share one id, so an id array is a collision-free
    cache key where concatenated name strings are not (column names may
    themselves contain separators). *)

val same_columns : t -> t -> bool
(** Same table and same column *set* (order ignored). *)

val is_prefix_of : t -> t -> bool
(** [is_prefix_of a b]: [a]'s columns are a leading prefix of [b]'s
    (same table). An index-preserving merge of [a] and [b] then yields
    [b] exactly. *)

val covers : t -> string list -> bool
(** Does the index contain all the given columns (as a set)? The
    covering-index test of the paper's introduction. *)

val leading_column : t -> string

val key_width : Im_sqlir.Schema.t -> t -> int
(** Sum of the key columns' datatype widths. *)

val width_fraction_of_table : Im_sqlir.Schema.t -> t -> float
(** Key width over the base relation's row width — the quantity the
    No-Cost model thresholds with [f]. *)

val validate : Im_sqlir.Schema.t -> t -> (unit, string) result

val pp : Format.formatter -> t -> unit
val to_string : t -> string
