(** The database: schema + heaps + statistics + materialized indexes.

    Statistics are built lazily per column (by sampling when the table
    is large, mirroring the paper's use of [CMN98]) and cached; they are
    what the optimizer consults, so a *hypothetical* index can be costed
    without being materialized. Materialization builds a real
    {!Im_storage.Bptree} and is only needed by the executor and by the
    maintenance-cost validation tests.

    A database never changes once created: its statistics, and every
    cost cached over them (the cost service, the atom cache), stay
    valid for its whole life. *)

type t

val create :
  ?seed:int ->
  ?sample_threshold:int ->
  ?sample_size:int ->
  Im_sqlir.Schema.t ->
  (string * Im_sqlir.Value.t array list) list ->
  t
(** [create schema rows_by_table]. Tables absent from the association
    list are created empty. Columns are histogrammed from a reservoir
    sample of [sample_size] (default 5000) whenever the table exceeds
    [sample_threshold] rows (default 20000). *)

val schema : t -> Im_sqlir.Schema.t
val heap : t -> string -> Im_storage.Heap.t
val row_count : t -> string -> int

val table_pages : t -> string -> int
val data_pages : t -> int
(** Total heap pages over all tables — the "data size" the paper's
    intro compares index storage against. *)

val stats : t -> string -> string -> Im_stats.Column_stats.t
(** [stats db table column]; built on first use, cached. *)

val config_storage_pages : t -> Config.t -> int
(** Estimated storage of a configuration (hypothetical indexes allowed). *)

val index_pages : t -> Index.t -> int

val materialize : t -> Index.t -> Im_storage.Bptree.t
(** Build (or return the cached) physical B+-tree for the index. *)
