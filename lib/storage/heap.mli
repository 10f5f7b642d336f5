(** Heap file: the base relation's row store.

    Rows are stored in insertion order and addressed by rid (their
    position). Column order follows the table's schema. *)

type t

val of_rows : Im_sqlir.Schema.table -> Im_sqlir.Value.t array list -> t
(** Build from rows; each row must have one value per schema column.
    Rids are 0..n-1 in list order. A heap never changes once built. *)

val get : t -> int -> Im_sqlir.Value.t array
val row_count : t -> int
val table_def : t -> Im_sqlir.Schema.table

val column_values : t -> string -> Im_sqlir.Value.t list
(** All values of the named column, in rid order. *)

val column_index : t -> string -> int
(** Position of the column in each row. Raises [Not_found]. *)

val project : t -> int -> string list -> Im_sqlir.Value.t array
(** [project t rid cols] extracts the named columns from row [rid]. *)

val pages : t -> int
(** Heap pages occupied, from the {!Size_model} geometry. *)

val page_of_rid : t -> int -> int
(** Which heap page holds row [rid], under the same geometry — used for
    buffer-pool accounting of rid lookups. *)

val iter : t -> (int -> Im_sqlir.Value.t array -> unit) -> unit
val fold : t -> init:'a -> f:('a -> int -> Im_sqlir.Value.t array -> 'a) -> 'a
