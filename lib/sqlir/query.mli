(** Query AST: select-project-join-aggregate-order-by over base tables.

    This is the query language of the whole reproduction. It is rich
    enough to express the (flattened) TPC-D queries, the Rags-style
    complex workloads and the projection-only workloads the paper
    evaluates, and simple enough for a faithful cost-based optimizer. *)

type order_dir = Asc | Desc

type agg_fn = Count_star | Sum | Avg | Min | Max

type select_item =
  | Sel_col of Predicate.colref
  | Sel_agg of agg_fn * Predicate.colref option
      (** [Sel_agg (Count_star, None)] is [COUNT( * )]; other aggregates
          carry their argument column. *)

type t = private {
  q_id : string;  (** identifier for workload bookkeeping *)
  q_tables : string list;  (** FROM clause; names unique *)
  q_select : select_item list;
  q_where : Predicate.t list;  (** conjunction *)
  q_group_by : Predicate.colref list;
  q_order_by : (Predicate.colref * order_dir) list;
  q_canon : string;
      (** {!canonical_string}, rendered once by {!make}: the query's
          identity in every cache keyed on a query *)
}

val make :
  ?id:string ->
  ?select:select_item list ->
  ?where:Predicate.t list ->
  ?group_by:Predicate.colref list ->
  ?order_by:(Predicate.colref * order_dir) list ->
  string list ->
  t
(** [make tables] builds a query; [?select] defaults to [COUNT( * )].
    The canonical text is rendered here, once; every other accessor
    reads it. *)

type template
(** A query's canonical text cut at its [q_where] literals, the slots
    ([Cmp] has one, [Between] two, [In_list] one per value), in order. *)

val template : t -> template

val fill : template -> id:string -> Value.t list -> t
(** {!make}'s query with one value per slot, its text spliced, not
    rendered. Raises [Invalid_argument] on a wrong number of values. *)

val validate : Schema.t -> t -> (unit, string) result
(** Check that every referenced table is in FROM and in the schema, every
    column exists, constants match column types, and aggregates are not
    mixed with non-grouped columns. *)

val referenced_columns : t -> string -> string list
(** All column names of the given table appearing anywhere in the query
    (select, where, group by, order by), deduplicated, in first-use
    order. The paper's covering-index candidates are built from this. *)

val selection_predicates : t -> string -> Predicate.t list
(** Non-join conjuncts constraining columns of the table. *)

val join_predicates : t -> Predicate.t list

val sargable_columns : t -> string -> string list
(** Columns of the table with at least one sargable selection, in
    first-use order. *)

val equality_columns : t -> string -> string list
(** Columns pinned to a single value by an equality conjunct. *)

val order_by_columns : t -> string -> string list
val group_by_columns : t -> string -> string list

val select_columns : t -> string -> string list
(** Columns of the table appearing in the SELECT list (including as
    aggregate arguments). *)

val has_aggregates : t -> bool

val canonical_string : t -> string
(** Deterministic rendering used for duplicate detection and as the
    query half of every cache key ([q_canon]): identical text modulo
    [q_id], distinct for queries differing in any constant, column or
    clause. A field read. *)

val to_sql : t -> string
(** SQL-ish pretty form, for display and logs (the same text as
    {!canonical_string}). *)
